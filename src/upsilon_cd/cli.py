"""Command-line front end.

Inputs are either a ChainSpec JSON path or a builder descriptor
``family <name> <params...>``. Outputs are JSON/CSV artifacts written
atomically; a fixed seed makes reruns byte-identical.

Exit codes: 0 success, 1 usage, 2 structural failure, 3 optimizer
non-convergence, 4 residual violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import chains
from .chains import MarkovChain, load_spec, spec_dict, validate_chain
from .curvature import (
    CurvatureOptions,
    chain_curvature_report,
)
from .errors import NonConvergence, UpsilonCDError, _finite_kappa
from .flow import (
    de_bruijn_residual,
    heat_flow,
    mlsi_check,
    beckner_check,
    p_flow_identities,
    random_density,
    second_derivative_residual,
)
from .tensor import tensor_curvature_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_NONCONVERGENCE = 3
EXIT_RESIDUAL = 4

_FAMILIES = {
    "two_point": (chains.two_point, (float, float)),
    "complete": (chains.complete, (int,)),
    "hypercube": (chains.hypercube, (int,)),
    "cycle": (chains.cycle, (int,)),
    "weighted_complete": (chains.weighted_complete, None),
    "weighted_4cycle": (chains.weighted_4cycle, (float, float, float, float)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we keep 1
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_chain(tokens) -> MarkovChain:
    if not tokens:
        raise UpsilonCDError("missing chain input")
    if tokens[0] == "family":
        tokens = tokens[1:]
    if tokens and tokens[0] in _FAMILIES:
        name, params = tokens[0], tokens[1:]
        builder, sig = _FAMILIES[name]
        if sig is None:
            args = [[float(v) for v in params]]
        else:
            if len(params) != len(sig):
                raise UpsilonCDError(
                    f"family {name} takes {len(sig)} parameters, got {len(params)}"
                )
            args = [cast(v) for cast, v in zip(sig, params)]
        return builder(*args)
    if len(tokens) != 1:
        raise UpsilonCDError(f"cannot parse chain input {' '.join(tokens)!r}")
    return load_spec(tokens[0])


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-upscd-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(doc: dict, out: str | None, suffix: str) -> None:
    text = json.dumps(doc, indent=1) + "\n"
    if out:
        _atomic_write(f"{out}{suffix}", text)
    else:
        sys.stdout.write(text)


def _opts_from(args) -> CurvatureOptions:
    return CurvatureOptions(starts=args.starts, seed=args.seed)


def cmd_validate(args) -> int:
    try:
        chain = _resolve_chain(args.input)
    except UpsilonCDError as exc:
        _emit_json(
            {"ok": False, "error": type(exc).__name__, "message": str(exc)},
            args.out,
            ".validate.json",
        )
        return EXIT_STRUCTURAL
    diag = validate_chain(chain)
    ok = (
        diag["irreducible"]
        and diag["detailed_balance_residual"] <= diag["detailed_balance_tol"]
    )
    _emit_json({"ok": bool(ok)} | diag, args.out, ".validate.json")
    return EXIT_OK if ok else EXIT_STRUCTURAL


def cmd_family(args) -> int:
    _emit_json(spec_dict(_resolve_chain(args.input)), args.out, ".chain.json")
    return EXIT_OK


def cmd_curvature(args) -> int:
    chain = _resolve_chain(args.input)
    report = chain_curvature_report(chain, _opts_from(args))
    doc = report.to_json_dict()
    lines = ["vertex,kappa_be,kappa_upsilon"]
    for rec in doc["per_vertex"]:
        ku = rec["kappa_upsilon"]
        if ku is None:
            ku_txt = "nonconverged"
        elif isinstance(ku, str):
            ku_txt = ku
        else:
            ku_txt = f"{ku:.17g}"
        lines.append(f"{rec['vertex']},{rec['kappa_be']:.17g},{ku_txt}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        _emit_json(doc, args.out, ".curvature.json")
        _atomic_write(f"{args.out}.curvature.csv", csv_text)
    else:
        _emit_json(doc, None, "")
        sys.stdout.write(csv_text)
    return EXIT_NONCONVERGENCE if report.any_nonconverged else EXIT_OK


def _resolve_rho0(chain: MarkovChain, text: str) -> np.ndarray:
    if text.startswith("random:"):
        rng = np.random.default_rng(int(text.split(":", 1)[1]))
        return random_density(chain, rng)
    values = np.asarray(json.loads(text), dtype=float)
    return values


def cmd_flow(args) -> int:
    chain = _resolve_chain(args.input)
    rho0 = _resolve_rho0(chain, args.rho0)
    if args.kappa is not None:
        _finite_kappa(args.kappa)  # before the flow is propagated
    trace = heat_flow(chain, rho0, args.T, args.grid, p=args.p)
    h = float(np.max(np.diff(trace.times)))
    d3 = np.gradient(trace.d2H, trace.times)
    d4 = np.gradient(d3, trace.times)
    bound_db = 10.0 * h**2 * max(1.0, float(np.max(np.abs(d3))))
    bound_dd = 10.0 * h**2 * max(1.0, float(np.max(np.abs(d4))))
    res_db = de_bruijn_residual(trace)
    res_dd = second_derivative_residual(trace)
    summary = {
        "n_times": len(trace.times),
        "grid_step": h,
        "method": trace.method,
        "mass_error": float(
            np.max(np.abs(trace.densities @ chain.pi - 1.0))
        ),
        "de_bruijn_residual": res_db,
        "de_bruijn_bound": bound_db,
        "second_derivative_residual": res_dd,
        "second_derivative_bound": bound_dd,
    }
    ok = (
        summary["mass_error"] <= 1e-10
        and res_db <= bound_db
        and res_dd <= bound_dd
    )
    if args.p is not None:
        r1, r2 = p_flow_identities(trace)
        summary["p"] = args.p
        summary["p_de_bruijn_residual"] = r1
        summary["p_second_derivative_residual"] = r2
    if args.kappa is not None:
        decay = trace.decay_check(args.kappa)
        summary["decay_kappa"] = args.kappa
        summary["decay_worst_ratio"] = decay.worst_ratio
        summary["decay_holds"] = decay.holds
        ok = ok and decay.holds
    summary["ok"] = bool(ok)
    if args.out:
        _atomic_write(f"{args.out}.flow.csv", trace.to_csv())
        _emit_json(summary, args.out, ".flow.json")
        if args.densities:
            _emit_json(trace.densities_dict(), args.out, ".densities.json")
    else:
        sys.stdout.write(trace.to_csv())
        _emit_json(summary, None, "")
    return EXIT_OK if ok else EXIT_RESIDUAL


def _worst_fields(report) -> dict:
    """The worst sample's index and kind, when some sample gave a ratio."""
    return {
        k: report.details[k] for k in ("worst_index", "worst_kind")
        if k in report.details
    }


def cmd_mlsi(args) -> int:
    chain = _resolve_chain(args.input)
    report = mlsi_check(chain, args.alpha, n_samples=args.samples, seed=args.seed)
    _emit_json(
        {
            "alpha": args.alpha,
            "holds": report.holds,
            "worst_ratio": report.worst_ratio,
            "n_samples": report.n_samples,
        }
        | _worst_fields(report),
        args.out,
        ".mlsi.json",
    )
    return EXIT_OK if report.holds else EXIT_RESIDUAL


def cmd_beckner(args) -> int:
    chain = _resolve_chain(args.input)
    report = beckner_check(
        chain, args.p, args.alpha, n_samples=args.samples, seed=args.seed
    )
    _emit_json(
        {
            "p": args.p,
            "alpha": args.alpha,
            "holds": report.holds,
            "worst_ratio": report.worst_ratio,
            "n_samples": report.n_samples,
        }
        | _worst_fields(report),
        args.out,
        ".beckner.json",
    )
    return EXIT_OK if report.holds else EXIT_RESIDUAL


def cmd_tensor(args) -> int:
    chain1 = _resolve_chain(args.a.split())
    chain2 = _resolve_chain(args.b.split())
    report = tensor_curvature_check(
        chain1,
        args.kappa1,
        chain2,
        args.kappa2,
        opts=_opts_from(args),
    )
    _emit_json(
        {
            "kappa": report.kappa,
            "all_hold": report.all_hold,
            "worst_slack": report.worst_slack,
            "superadditivity_slack": report.superadditivity_slack,
            "checked_vertices": report.checked_vertices,
        },
        args.out,
        ".tensor.json",
    )
    return EXIT_OK if report.all_hold else EXIT_RESIDUAL


_SHARED = {
    "seed": dict(type=int, default=0),
    "starts": dict(
        type=int, default=64,
        help="minimum number of multistart starts; the fixed starts (8 "
        "constants, 2 per reduced variable, 3 probes per neighbour) always run",
    ),
}


def _add_common(sp, *names) -> None:
    """The shared options ``names`` (of --seed, --starts), then --out."""
    for name in names:
        sp.add_argument(f"--{name}", **_SHARED[name])
    sp.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="upsilon-cd", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural checks of a chain")
    sp.add_argument("input", nargs="+")
    _add_common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("family", help="emit a builder chain as ChainSpec JSON")
    sp.add_argument("input", nargs="+")
    _add_common(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("curvature", help="per-vertex curvature report")
    sp.add_argument("input", nargs="+")
    _add_common(sp, "seed", "starts")
    sp.set_defaults(fn=cmd_curvature)

    sp = sub.add_parser("flow", help="heat flow trace and residuals")
    sp.add_argument("input", nargs="+")
    sp.add_argument("--rho0", type=str, default="random:0")
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=201)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument(
        "--densities", action="store_true",
        help="also write the density trajectory as a JSON sidecar",
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("mlsi", help="sampled modified log-Sobolev check")
    sp.add_argument("input", nargs="+")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--samples", type=int, default=1000)
    _add_common(sp, "seed")
    sp.set_defaults(fn=cmd_mlsi)

    sp = sub.add_parser("beckner", help="sampled Beckner inequality check")
    sp.add_argument("input", nargs="+")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--samples", type=int, default=1000)
    _add_common(sp, "seed")
    sp.set_defaults(fn=cmd_beckner)

    sp = sub.add_parser("tensor", help="product-chain curvature check")
    sp.add_argument("--a", type=str, required=True, help="first factor (path or 'family ...')")
    sp.add_argument("--b", type=str, required=True, help="second factor")
    sp.add_argument("--kappa1", type=float, required=True)
    sp.add_argument("--kappa2", type=float, required=True)
    _add_common(sp, "seed", "starts")
    sp.set_defaults(fn=cmd_tensor)
    return ap


_parser = functools.cache(build_parser)  # parse_args keeps no state in it


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonConvergence as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE
    except UpsilonCDError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_STRUCTURAL
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
