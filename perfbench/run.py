"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kappa_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the workload runs as a closed loop for
``--seconds`` of op time and the end-to-end metrics are printed; with
``--trace 1`` a fixed list of ops runs once untraced and once traced, and
the per-layer metrics are printed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it starting with ``#`` record the machine and the
extra figures. A record of the run is written under ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is the median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with a second one, OpenBLAS keeps it spinning through the
# optimizer's tiny calls, so a kappa_small op burns two CPUs and runs 10-20%
# slower (3-cube vertex on a 2-vCPU Xeon VM: 3.1 s wall and 6.1 s CPU,
# against 2.6 s and 2.6 s with one thread).
BLAS_THREADS = 1
TAIL_BEYOND = 10  # the tail percentile has at least this many ops beyond it


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up in this process and print it (used for setup_s)",
    )
    return ap.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads; must run before numpy is imported. Returns the
    number of CPUs this process may use."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "clients": 1,
        "loop": "closed",
    }


def run_ops(wl, seconds=None, count=None, tracer=None, digests=None, signatures=None):
    """Send requests one after another until ``count`` ops ran, or until
    ``seconds`` of op time have passed and the workload's request cycle is
    complete. Each op is checked by the workload's oracle; a raise, a failed
    check or an artifact that differs from an earlier run of the same
    request fails it."""
    digests = {} if digests is None else digests
    records, busy, i = [], 0.0, 0
    while (i < count) if count is not None else (busy < seconds or i % wl.cycle or i == 0):
        req = wl.request(i)
        problems = []
        t0 = time.perf_counter()
        try:
            res = tracer.run_op(wl.run, req) if tracer else wl.run(req)
        except Exception:  # a raising op is a failed op; keep the loop going
            res = None
            problems.append("op raised:\n" + traceback.format_exc())
        dt = time.perf_counter() - t0
        if tracer is not None:
            dt = tracer.ops[-1]["wall_s"]
            sig = tracer.signature(len(tracer.ops) - 1)
            if signatures.setdefault(req.rid, sig) != sig:
                problems.append("per-layer counts differ from an earlier run")
        busy += dt
        if res is not None:
            try:
                problems += wl.check(req, res)
                digest = hashlib.sha256(wl.artifact(req, res)).hexdigest()
                if digests.setdefault(req.rid, digest) != digest:
                    problems.append("artifact differs from an earlier run")
            except Exception:
                problems.append("oracle raised:\n" + traceback.format_exc())
        written = sum(p.stat().st_size for p in wl.outs.iterdir())
        wl.clear_outputs()
        for p in problems:
            print(f"op {i} ({wl.name} request {req.rid}, {req.kind}): {p}", file=sys.stderr)
        records.append({"rid": req.rid, "kind": req.kind, "seconds": dt,
                        "bytes_written": written, "failed": bool(problems)})
        i += 1
    return records


def tail(times) -> dict | None:
    """Highest nearest-rank percentile with TAIL_BEYOND ops beyond it."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return {
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "value_s": sorted(times)[n - TAIL_BEYOND - 1],
        "samples": n,
    }


def setup_in_fresh_process(args) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "upsilon_cd" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args, nproc)
        print("# env " + json.dumps(env))
        if args.trace:
            record = traced_run(wl)
        else:
            samples = [setup_s] + [
                setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)
            ]
            record = timed_run(wl, args.seconds, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(dict(record, env=env), indent=1) + "\n")
    print("# info " + json.dumps(record["info"]))
    print(json.dumps(record["result"]))
    return 0


def timed_run(wl, seconds: float, setup_samples) -> dict:
    ops = run_ops(wl, seconds=seconds)
    times = [r["seconds"] for r in ops]
    failed = sum(r["failed"] for r in ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": metric(statistics.median(times), "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    info = {
        "ops": len(times),
        "failed_ratio": {"value": failed / len(times), "unit": "ratio"},
        "op_tail_s": tail(times),
        "setup_samples_s": setup_samples,
    }
    return {
        "result": {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                   "metrics": metrics},
        "info": info,
        "ops": ops,
    }


def traced_run(wl) -> dict:
    from tracing import Tracer, install, layer_metrics, uninstall

    digests, signatures = {}, {}
    plain = run_ops(wl, count=wl.trace_ops, digests=digests)
    tracer = Tracer()
    patches = install(tracer)
    try:
        traced = run_ops(wl, count=wl.trace_ops, tracer=tracer, digests=digests,
                         signatures=signatures)
    finally:
        uninstall(patches)
    m = layer_metrics(tracer, wl.root_layer)
    p50_plain = statistics.median(r["seconds"] for r in plain)
    p50_traced = statistics.median(r["seconds"] for r in traced)
    m["cli.bytes_written"] = (float(sum(r["bytes_written"] for r in traced)), "B")
    m["trace.op_p50_untraced_s"] = (p50_plain, "s")
    m["trace.op_p50_traced_s"] = (p50_traced, "s")
    m["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    ops = plain + traced
    failed = sum(r["failed"] for r in ops)
    per_op = [
        {name: [int(op["calls"][j]), float(op["self_s"][j])]
         for j, name in enumerate(tracer.names) if j < len(op["calls"]) and op["calls"][j]}
        for op in tracer.ops
    ]
    return {
        "result": {
            "correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: metric(v, u) for k, (v, u) in m.items()},
        },
        "info": {
            "ops": len(ops),
            "failed_ratio": {"value": failed / len(ops), "unit": "ratio"},
            "shares": {k[6:]: round(v, 4) for k, (v, _) in m.items() if k.startswith("share.")},
        },
        "ops": ops,
        "spans_per_op": per_op,
    }


if __name__ == "__main__":
    sys.exit(main())
