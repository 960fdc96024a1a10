"""Exact digest of a fixed set of CD-check, tensor and report results.

    python3 tools/check_digest.py --out digest.txt [--src OTHER/src]

Like ``kappa_sweep.py run``, it imports the library from ``--src`` (default:
this checkout's ``src/``), so a second checkout is digested with the same
script. It writes one line per result, each float as ``float.hex`` and each
array as a sha256 of its bytes, and prints the number of lines and the
sha256 of the file: two checkouts give the same hash exactly when every
verdict, slack, counterexample and diagnostic is bit-identical. An error is
recorded by its type only. The set, at starts=24 and maxiter=200:

- on K3, K4, K5, H2, H3, C5, weighted_4cycle(0.7, 1.9, 1.3, 0.4), the
  star([1, 2], [2, 1]), the branched 5-vertex tree, two_point(1.3, 0.7) and
  three random_reversible_chain(default_rng([77, i])), vertices 0..2:
  cd_upsilon_check at kappa_hat -+ 1e-3 max(1, |kappa_hat|) and at -1e3
  (kappa_hat the vertex's constant, 0 where it is -inf), and
  cd_upsilon_dim_check at the same kappas and d = 2 and 7;
- cd_p_check at vertex 0 of K3, K4, two_point(1.3, 0.7), C5, the 4-cycle and
  the first random chain, at p = 1.3, 1.5, 1.99 and kappa = 0.5, 1.5, 3;
- eight tensor_curvature_check calls, passing and failing;
- chain_curvature_report of the star, the 4-cycle, the tree, H3 and the
  second random chain (the JSON document and every vertex's diagnostics).

It takes about a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _enc(v):
    """v with every float as float.hex and every array as a short sha256."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, int):
        return v
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    if hasattr(v, "tobytes"):  # numpy arrays and scalars
        if getattr(v, "ndim", 0) == 0:
            return _enc(v.item())
        return "sha256:" + hashlib.sha256(v.astype(float).tobytes()).hexdigest()[:16]
    return str(v)


def _digest(np, ch, cv, tn, random_reversible_chain) -> list:
    fast = cv.CurvatureOptions(starts=24, maxiter=200)
    lines = []

    def emit(tag, fn):
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 - the error type is the result
            value = ["raised", type(exc).__name__]
        lines.append(json.dumps([tag, value]))

    def check(res):
        return _enc([res.holds, res.worst_slack, res.counterexample, res.diagnostics])

    tree = ch.chain_from_rates(
        [str(i) for i in range(5)],
        {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0,
         (2, 3): 1.0, (3, 2): 1.0, (2, 4): 1.0, (4, 2): 1.0},
    )
    w4c = ch.weighted_4cycle(0.7, 1.9, 1.3, 0.4)
    pool = {
        "K3": ch.complete(3), "K4": ch.complete(4), "K5": ch.complete(5),
        "H2": ch.hypercube(2), "H3": ch.hypercube(3), "C5": ch.cycle(5), "w4c": w4c,
        "star": ch.star([1.0, 2.0], [2.0, 1.0]), "bt5": tree, "tp": ch.two_point(1.3, 0.7),
    }
    for i in range(3):
        rng = np.random.default_rng([77, i])
        pool[f"rc{i}"] = random_reversible_chain(rng, int(rng.integers(5, 8)))

    for name, chain in pool.items():
        for x in range(min(chain.n, 3)):
            k = cv.cd_upsilon_kappa(chain, x, fast).kappa
            k = k if math.isfinite(k) else 0.0
            for kap in (k - 1e-3 * max(1.0, abs(k)), k + 1e-3 * max(1.0, abs(k)), -1e3):
                emit(f"check {name} {x} {kap!r}",
                     lambda: check(cv.cd_upsilon_check(chain, kap, x, fast)))
                for d in (2.0, 7.0):
                    emit(f"dim {name} {x} {kap!r} {d}",
                         lambda: check(cv.cd_upsilon_dim_check(chain, kap, d, x, fast)))
    for name in ("K3", "K4", "tp", "C5", "w4c", "rc0"):
        for p in (1.3, 1.5, 1.99):
            for kap in (0.5, 1.5, 3.0):
                emit(f"p {name} {p} {kap}",
                     lambda: check(cv.cd_p_check(pool[name], p, kap, 0, fast)))
    tp2 = ch.two_point(0.9, 1.6)
    for a, ka, b, kb in (
        (ch.complete(2), 2.0, ch.complete(2), 2.0),
        (pool["tp"], 1.9, tp2, 2.4),
        (pool["tp"], 1.68, tp2, 2.13),
        (pool["tp"], 1.68, w4c, 1.19),
        (pool["tp"], 1.6, w4c, 0.5),
        (ch.hypercube(2), 1.99, ch.complete(2), 1.99),
        (ch.complete(2), 5.0, ch.complete(2), 2.0),
        (tree, -1.0, ch.complete(2), 2.0),
    ):
        def tensor():
            rep = tn.tensor_curvature_check(a, ka, b, kb, opts=fast)
            return _enc([rep.kappa, rep.checked_vertices, rep.all_hold, rep.worst_slack,
                         rep.superadditivity_slack, rep.per_vertex])
        emit(f"tensor {ka} {kb} {a.n} {b.n}", tensor)
    for name in ("star", "w4c", "bt5", "H3", "rc1"):
        def report():
            rep = cv.chain_curvature_report(pool[name], fast)
            return _enc([json.dumps(rep.to_json_dict(), sort_keys=True),
                         [r["diagnostics"] for r in rep.per_vertex]])
        emit(f"report {name}", report)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"), help="library source directory")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import numpy as np

    from upsilon_cd import chains, curvature, tensor
    from workloads import random_reversible_chain

    text = "\n".join(_digest(np, chains, curvature, tensor, random_reversible_chain)) + "\n"
    Path(args.out).write_text(text)
    print(text.count("\n"), hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
