"""Sweep of the exponential constant over 469 fixed vertices, and a
comparison of two sweeps.

    python3 tools/kappa_sweep.py run --out new.json [--src OTHER/src]
    python3 tools/kappa_sweep.py compare old.json new.json

``run`` imports the library from ``--src`` (default: this checkout's
``src/``), so a second checkout (say the parent commit, unpacked with
``git archive``) is swept with the same script. It writes, per vertex, kappa
("-inf" for a certified -inf), the witness field and the diagnostics' start
counts. The pool:

- K3..K8 vertex 0 at 64 starts;
- H2..H4 and C5 vertex 0, every vertex of weighted_4cycle(0.7, 1.9, 1.3, 0.4),
  of birth_death(12 - x, x, 12) and of the unit 3-star, at default options;
- vertices 0..5 of twelve random_reversible_chain(default_rng([77, i]))
  (5 to 8 states, the test suite's recipe), under CurvatureOptions(seed=3)
  and under starts=24, maxiter=200, seed=5;
- every vertex of three perfbench random_tree(default_rng([78, i]), 100) at
  16 starts.

The entries that take every vertex of a chain (the 4-cycle, the birth-death
chain, the star and the trees) are solved by one chain_curvature_report, the
others by cd_upsilon_kappa per vertex, so a comparison covers both paths.

``compare`` prints the vertices whose kappa moved: higher by more than
1e-12 max(1, |kappa|), lower, or a changed -inf, with each new witness's
ratio re-evaluated through ``operators`` (Psi_2/Psi at the vertex). It also
counts and lists the vertices whose kappa is equal but whose witness or
start counts differ, so "records equal bit for bit" reads off its last
line. It exits 1 when a kappa is higher or a -inf changed. ``run`` takes 10
to 30 seconds on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("n_starts", "n_fail", "n_converged", "n_handoff")
HIGHER_RTOL = 1e-12


def _import_library(src: Path):
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import numpy as np

    from upsilon_cd import chains, curvature
    from workloads import random_reversible_chain, random_tree

    return np, chains, curvature, random_reversible_chain, random_tree


def _pool(np, chains, curvature, random_reversible_chain, random_tree):
    """(label, chain, vertices, options) entries of the sweep; vertices is
    None for an entry that takes every vertex through one report."""
    opts = curvature.CurvatureOptions
    pool = [(f"K{n}", chains.complete(n), [0], opts()) for n in range(3, 9)]
    pool += [(f"H{n}", chains.hypercube(n), [0], opts()) for n in (2, 3, 4)]
    pool.append(("C5", chains.cycle(5), [0], opts()))
    for label, chain in (
        ("w4cycle", chains.weighted_4cycle(0.7, 1.9, 1.3, 0.4)),
        ("bd12", chains.birth_death(lambda x: 12.0 - x, lambda x: float(x), 12)),
        ("star3", chains.star([1.0] * 3, [1.0] * 3)),
    ):
        pool.append((label, chain, None, opts()))
    for i in range(12):
        rng = np.random.default_rng([77, i])
        chain = random_reversible_chain(rng, int(rng.integers(5, 9)))
        xs = list(range(min(6, chain.n)))
        pool.append((f"rc{i}/seed3", chain, xs, opts(seed=3)))
        pool.append((f"rc{i}/fast5", chain, xs, opts(starts=24, maxiter=200, seed=5)))
    for i in range(3):
        chain = random_tree(np.random.default_rng([78, i]), 100)
        pool.append((f"tree{i}", chain, None, opts(starts=16)))
    return pool


def _solve(curvature, chain, xs, opts):
    """(vertex, kappa, witness, diagnostics) of each vertex of the entry."""
    if xs is None:
        report = curvature.chain_curvature_report(chain, opts)
        return [(r["vertex"], r["kappa_upsilon"], r["witness"], r["diagnostics"])
                for r in report.per_vertex]
    out = []
    for x in xs:
        est = curvature.cd_upsilon_kappa(chain, x, opts)
        out.append((x, est.kappa, est.witness, est.diagnostics))
    return out


def run(args) -> int:
    np, chains, curvature, rrc, rtree = _import_library(Path(args.src).resolve())
    records = []
    t0 = time.perf_counter()
    for label, chain, xs, opts in _pool(np, chains, curvature, rrc, rtree):
        for x, k, witness, diag in _solve(curvature, chain, xs, opts):
            records.append({
                "label": label,
                "vertex": x,
                "kappa": k if math.isfinite(k) else str(k),
                "witness": [float(v) for v in witness],
                "counts": {c: diag[c] for c in COUNTS if c in diag},
            })
    doc = {"src": str(Path(args.src).resolve()), "seconds": time.perf_counter() - t0,
           "records": records}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(records)} vertices in {doc['seconds']:.1f} s -> {args.out}")
    return 0


def _chain_of(label, cache, np, chains, curvature, rrc, rtree):
    if not cache:
        for lab, chain, _, _ in _pool(np, chains, curvature, rrc, rtree):
            cache[lab] = chain
    return cache[label]


def compare(args) -> int:
    np, chains, curvature, rrc, rtree = _import_library(ROOT / "src")
    from upsilon_cd import operators

    old = {(r["label"], r["vertex"]): r for r in json.loads(Path(args.old).read_text())["records"]}
    new = json.loads(Path(args.new).read_text())["records"]
    cache: dict = {}
    same = up = higher = lower = inf_changed = detail_changed = 0
    handoffs = [0, 0]
    for rec in new:
        key = (rec["label"], rec["vertex"])
        ref = old[key]
        handoffs[0] += ref["counts"].get("n_handoff", 0)
        handoffs[1] += rec["counts"].get("n_handoff", 0)
        a, b = ref["kappa"], rec["kappa"]
        if a == b and (rec["witness"] != ref["witness"] or rec["counts"] != ref["counts"]):
            detail_changed += 1
            moved = [f for f in ("witness", "counts") if rec[f] != ref[f]]
            print(f"equal kappa, changed {' and '.join(moved)}  {key}")
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                inf_changed += 1
                print(f"-inf changed  {key}: {a} -> {b}")
            else:
                same += 1
            continue
        if b > a + HIGHER_RTOL * max(1.0, abs(a)):
            higher += 1
            tag = "HIGHER"
        elif b < a:
            lower += 1
            tag = "lower "
        else:
            same += b == a
            up += b > a
            continue
        chain = _chain_of(rec["label"], cache, np, chains, curvature, rrc, rtree)
        f = np.array(rec["witness"])
        x = rec["vertex"]
        ratio = operators.psi2_upsilon(chain, f)[x] / operators.psi_upsilon(chain, f)[x]
        rel = (b - a) / max(1.0, abs(a))
        print(f"{tag} {key}: {a!r} -> {b!r} (rel {rel:+.2e}); operators ratio at the "
              f"new witness {ratio!r}")
    print(f"{len(new)} vertices: {same} unchanged, {up} higher by at most {HIGHER_RTOL:g} "
          f"max(1, |kappa|), {lower} lower, {higher} higher by more, {inf_changed} -inf "
          f"changed; {detail_changed} with equal kappa but a changed witness or start counts; "
          f"L-BFGS-B hand-offs {handoffs[0]} -> {handoffs[1]}")
    return 1 if higher or inf_changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="sweep the pool and write JSON")
    r.add_argument("--out", required=True)
    r.add_argument("--src", default=str(ROOT / "src"), help="library source directory")
    c = sub.add_parser("compare", help="compare two sweeps")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args(argv)
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
