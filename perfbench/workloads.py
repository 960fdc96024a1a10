"""The benchmark's workloads: seeded inputs, the op each one times, and the
oracle that checks every op's output.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returned. Requests come from a seeded pool that
setup builds; every pool has requests that repeat an earlier one, so the
loop also checks that a repeated request gives byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from upsilon_cd import chains, cli, curvature, operators, tensor

# Known constants the kappa_small oracle holds results to (acceptance
# criterion 2): the hypercube constant is exactly 2, and the complete graph
# K_n lies in [sqrt(2n), 1 + n/2).
HYPERCUBE_KAPPA = 2.0
HYPERCUBE_TOL = 1e-5
RATIO_RTOL = 1e-6  # reported kappa vs psi2/psi re-evaluated at the witness
BE_RTOL = 1e-6  # kappa_Ups <= kappa_BE (small-field limit) up to this
SUPERADDITIVITY_TOL = 1e-10


@dataclass
class Request:
    rid: int  # requests with equal rid are the same request, sent again
    kind: str
    params: dict = field(default_factory=dict)


def _canonical(obj) -> bytes:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return json.dumps(obj, sort_keys=True, default=default).encode("utf-8")


def random_reversible_chain(rng, n: int, p_edge: float = 0.6):
    """Random connected reversible chain (the test suite's recipe): random
    positive measure, spanning tree plus random extra edges, rates forced
    into detailed balance."""
    pi = rng.uniform(0.2, 2.0, size=n)
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        edges.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.uniform() < p_edge:
                edges.add((a, b))
    table = {}
    for a, b in edges:
        k = float(rng.uniform(0.3, 3.0))
        table[(a, b)] = k
        table[(b, a)] = k * pi[a] / pi[b]
    return chains.chain_from_rates([str(i) for i in range(n)], table, measure=list(pi))


def random_tree(rng, n: int):
    """Random recursive tree with reversible random weights."""
    pi = rng.uniform(0.5, 2.0, size=n)
    table = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        k = float(rng.uniform(0.3, 3.0))
        table[(j, i)] = k
        table[(i, j)] = k * pi[j] / pi[i]
    return chains.chain_from_rates([str(i) for i in range(n)], table, measure=list(pi))


def has_divergence_candidate(chain, x: int) -> bool:
    """Some neighbour y has M1(x) + M1(y) - 2(k(x,y) + k(y,x)) > 0."""
    for y in chain.neighbors[x]:
        y = int(y)
        margin = chain.m1[x] + chain.m1[y] - 2.0 * (chain.rate(x, y) + chain.rate(y, x))
        if margin > 1e-12 * (chain.m1[x] + chain.m1[y]):
            return True
    return False


def witness_ratio_problem(chain, x: int, kappa: float, witness) -> str | None:
    """The reported kappa must equal Psi_2/Psi at its witness field."""
    w = np.asarray(witness, dtype=float)
    psi = float(operators.psi_upsilon(chain, w)[x])
    if not psi > 0.0:
        return f"vertex {x}: witness has Psi = {psi!r}"
    ratio = float(operators.psi2_upsilon(chain, w)[x]) / psi
    if abs(ratio - kappa) > RATIO_RTOL * max(1.0, abs(kappa)):
        return f"vertex {x}: kappa {kappa!r} but witness ratio {ratio!r}"
    return None


def _file_digest(paths) -> bytes:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.digest()


class Workload:
    """Seeded request pool plus the op and its oracle."""

    name = ""
    root_layer = "cli"  # what the traced root span's self time is
    trace_ops = 1  # fixed op count of the traced run
    cycle = 1  # a timed run ends on a multiple of this many ops

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.specs = self.workdir / "specs"
        self.outs = self.workdir / "out"
        self.pool: list[Request] = []

    def rng(self, rid: int):
        return np.random.default_rng([self.seed, rid])

    def write_spec(self, chain, name: str) -> str:
        path = self.specs / f"{name}.json"
        chains.dump_spec(chain, path)
        return str(path)

    def setup(self) -> None:
        self.specs.mkdir(parents=True, exist_ok=True)
        self.outs.mkdir(parents=True, exist_ok=True)
        self.build_pool()
        self.warm_up()

    def request(self, i: int) -> Request:
        return self.pool[i % len(self.pool)]

    def out_prefix(self, req: Request) -> str:
        return str(self.outs / f"r{req.rid}")

    def clear_outputs(self) -> None:
        for p in self.outs.iterdir():
            p.unlink()

    # subclasses: build_pool, warm_up, run, check, artifact


def _pool_with_repeats(make, distinct: int) -> list[Request]:
    """Groups of four requests a, b, a, c: the third repeats the first."""
    pool, rid = [], 0
    while rid < distinct:
        a = make(rid)
        b = make(rid + 1)
        c = make(rid + 2)
        pool += [a, b, a, c]
        rid += 3
    return pool


class KappaSmall(Workload):
    """Per-vertex library requests on small dense two-balls."""

    name = "kappa_small"
    root_layer = "bench"
    # One cycle of request kinds. Eight of fourteen are complete-graph
    # requests (the last entry repeats the cycle's first, a K4), so the
    # median op sits inside the K4/K5 cluster, whose cost does not swing
    # with the seed. Every cycle has one request of each seeded kind, so a run
    # that ends on a whole cycle has the same mix whatever the seed; the
    # seeded chains vary from cycle to cycle, so a run averages over them.
    CYCLE = (
        "K4", "hypercube", "K5", "weighted_complete", "K4", "random", "K5",
        "weighted_4cycle", "K4", "tensor_K2xK2", "K5", "tensor_K2xC4", "K4",
        "repeat",
    )
    cycle = len(CYCLE)
    trace_ops = len(CYCLE)
    CYCLES = 4
    TENSOR_SAMPLE = 1  # product vertices checked per tensor request

    def build_pool(self) -> None:
        rid = 0
        for _ in range(self.CYCLES):
            start = len(self.pool)
            for kind in self.CYCLE:
                if kind == "repeat":
                    self.pool.append(self.pool[start])
                    continue
                self.pool.append(self.make(rid, kind))
                rid += 1

    def make(self, rid: int, kind: str) -> Request:
        rng = self.rng(rid)
        opts = curvature.CurvatureOptions(seed=int(rng.integers(2**31)))
        if kind.startswith("tensor"):
            s1 = float(rng.uniform(0.5, 2.0))
            c1, k1 = chains.two_point(s1, s1), 2.0 * s1
            if kind == "tensor_K2xK2":
                s2 = float(rng.uniform(0.5, 2.0))
                c2, k2 = chains.two_point(s2, s2), 2.0 * s2
                label, n = "K2xK2", 4
            else:
                ap, am, bp, bm = (float(v) for v in rng.uniform(0.4, 2.5, size=4))
                c2 = chains.weighted_4cycle(ap, am, bp, bm)
                k2 = min(
                    math.sqrt(2 * min(ap, am) * (ap + am)),
                    math.sqrt(2 * min(bp, bm) * (bp + bm)),
                )
                label, n = "K2xC4", 8
            # sampled product vertices, as in criterion 10 (which checks half)
            sample = sorted(int(v) for v in rng.choice(n, size=self.TENSOR_SAMPLE, replace=False))
            # just below the certified constants, as in criterion 10
            k1 -= 1e-6 * (1.0 + k1)
            k2 -= 1e-6 * (1.0 + k2)
            c1 = chains.load_spec(self.write_spec(c1, f"{rid}a"))
            c2 = chains.load_spec(self.write_spec(c2, f"{rid}b"))
            return Request(rid, "tensor", dict(
                chain1=c1, kappa1=k1, chain2=c2, kappa2=k2, opts=opts, label=label,
                sample=sample))
        if kind == "hypercube":
            chain, n = chains.hypercube(3), 8
        elif kind in ("K4", "K5"):
            n = int(kind[1])
            chain = chains.complete(n)
            kind = "complete"
        elif kind == "weighted_complete":
            n = int(rng.integers(4, 6))
            chain = chains.weighted_complete(rng.uniform(0.5, 2.0, size=n))
        elif kind == "weighted_4cycle":
            n = 4
            chain = chains.weighted_4cycle(*(float(v) for v in rng.uniform(0.4, 2.5, size=4)))
        else:
            n = int(rng.integers(5, 9))
            chain = random_reversible_chain(rng, n)
        chain = chains.load_spec(self.write_spec(chain, str(rid)))
        x = int(rng.integers(n))
        return Request(rid, kind, dict(chain=chain, x=x, opts=opts, n=n))

    def warm_up(self) -> None:
        curvature.cd_upsilon_kappa(
            chains.complete(3), 0, curvature.CurvatureOptions(seed=self.seed)
        )

    def run(self, req: Request):
        p = req.params
        if req.kind == "tensor":
            return tensor.tensor_curvature_check(
                p["chain1"], p["kappa1"], p["chain2"], p["kappa2"],
                vertices_sample=p["sample"], opts=p["opts"],
            )
        return curvature.cd_upsilon_kappa(p["chain"], p["x"], p["opts"])

    def artifact(self, req: Request, res) -> bytes:
        if req.kind == "tensor":
            doc = {
                "kappa": res.kappa,
                "all_hold": res.all_hold,
                "worst_slack": res.worst_slack,
                "superadditivity_slack": res.superadditivity_slack,
                "per_vertex": res.per_vertex,
            }
        else:
            doc = {
                "kappa": res.kappa if math.isfinite(res.kappa) else str(res.kappa),
                "witness": res.witness,
                "diagnostics": res.diagnostics,
            }
        return _canonical(doc)

    def check(self, req: Request, res) -> list[str]:
        p = req.params
        if req.kind == "tensor":
            bad = []
            if not res.all_hold:
                bad.append(f"{p['label']}: product check fails at {res.kappa!r}")
            if not res.superadditivity_slack >= -SUPERADDITIVITY_TOL:
                bad.append(f"{p['label']}: superadditivity slack {res.superadditivity_slack!r}")
            return bad
        chain, x, k, n = p["chain"], p["x"], res.kappa, p["n"]
        bad = []
        if req.kind == "hypercube" and not abs(k - HYPERCUBE_KAPPA) <= HYPERCUBE_TOL:
            bad.append(f"hypercube(3): kappa {k!r}, expected {HYPERCUBE_KAPPA}")
        if req.kind == "complete" and not (
            math.sqrt(2 * n) - 1e-6 <= k <= 1 + n / 2 - 1e-6
        ):
            bad.append(f"K{n}: kappa {k!r} outside [sqrt(2n), 1+n/2)")
        if res.minus_infinity:
            if not has_divergence_candidate(chain, x):
                bad.append(f"vertex {x}: -inf without a divergence candidate")
            return bad
        kbe = curvature.bakry_emery_kappa(chain, x)[0]
        if not k <= kbe + BE_RTOL * max(1.0, abs(kbe)):
            bad.append(f"vertex {x}: kappa {k!r} above kappa_BE {kbe!r}")
        problem = witness_ratio_problem(chain, x, k, res.witness)
        if problem:
            bad.append(problem)
        return bad


class TreeReport(Workload):
    """In-process CLI curvature reports on seeded random weighted trees."""

    name = "tree_report"
    trace_ops = 3
    STATES = 100
    STARTS = 16

    def build_pool(self) -> None:
        self.chains = {}

        def make(rid):
            rng = self.rng(rid)
            chain = random_tree(rng, self.STATES)
            spec = self.write_spec(chain, str(rid))
            self.chains[rid] = chains.load_spec(spec)
            return Request(rid, "curvature", dict(spec=spec, seed=int(rng.integers(2**31))))

        self.pool = _pool_with_repeats(make, 9)
        schema = Path(curvature.__file__).parent / "schemas" / "curvature_report.schema.json"
        self.schema = json.loads(schema.read_text())

    def warm_up(self) -> None:
        spec = self.write_spec(random_tree(self.rng(10**6), 10), "warm")
        cli.main(["curvature", spec, "--starts", str(self.STARTS),
                  "--out", str(self.outs / "warm")])
        self.clear_outputs()

    def run(self, req: Request):
        prefix = self.out_prefix(req)
        rc = cli.main(["curvature", req.params["spec"], "--starts", str(self.STARTS),
                       "--seed", str(req.params["seed"]), "--out", prefix])
        return rc, [prefix + ".curvature.json", prefix + ".curvature.csv"]

    def artifact(self, req: Request, res) -> bytes:
        return _file_digest(p for p in res[1] if os.path.exists(p))

    def check(self, req: Request, res) -> list[str]:
        import jsonschema

        rc, files = res
        if rc != 0:
            return [f"curvature exited {rc}"]
        doc = json.loads(Path(files[0]).read_text())
        try:
            jsonschema.validate(doc, self.schema)
        except jsonschema.ValidationError as exc:
            return [f"report fails its schema: {exc.message}"]
        chain = self.chains[req.rid]
        bad = []
        for rec in doc["per_vertex"]:
            x, k = rec["vertex"], rec["kappa_upsilon"]
            if k == "minus_infinity":
                if not has_divergence_candidate(chain, x):
                    bad.append(f"vertex {x}: -inf without a divergence candidate")
            elif k is None:
                bad.append(f"vertex {x}: nonconverged")
            else:
                problem = witness_ratio_problem(chain, x, k, rec["witness"])
                if problem:
                    bad.append(problem)
        return bad


class FlowVerify(Workload):
    """In-process CLI flow on a birth-death chain, then mlsi and beckner on
    the 4-cube; one op is the three commands."""

    name = "flow_verify"
    trace_ops = 3
    N = 60
    GRID = 201
    STEP_RATE = 0.04  # grid step x max rate; the flow checks refuse > 0.1
    P = 1.5
    ALPHA = 2.0  # the hypercube's certified constant (criteria 2 and 9)

    def build_pool(self) -> None:
        self.hypercube_spec = self.write_spec(chains.hypercube(4), "hypercube4")

        def make(rid):
            rng = self.rng(rid)
            da = rng.uniform(0.5, 1.5, size=self.N)
            db = rng.uniform(0.5, 1.5, size=self.N)
            a = np.concatenate([np.cumsum(da[::-1])[::-1], [0.0]])
            b = np.concatenate([[0.0], np.cumsum(db)])
            chain = chains.birth_death(a, b, self.N)
            kappa = curvature.birth_death_kappa_bound(a, b, self.N)
            rho0 = np.exp(rng.normal(scale=0.5, size=chain.n))
            rho0 = rho0 / float(chain.pi @ rho0)
            T = (self.GRID - 1) * self.STEP_RATE / float(np.max(chain.m1))
            return Request(rid, "flow", dict(
                spec=self.write_spec(chain, str(rid)),
                rho0=json.dumps([float(v) for v in rho0]),
                T=repr(T), kappa=repr(kappa), seed=int(rng.integers(2**31)),
            ))

        self.pool = _pool_with_repeats(make, 9)

    def commands(self, spec, rho0, T, kappa, seed, prefix, grid, samples):
        return [
            ["flow", spec, "--rho0", rho0, "--T", T, "--grid", str(grid),
             "--p", str(self.P), "--kappa", kappa, "--out", prefix],
            ["mlsi", self.hypercube_spec, "--alpha", str(self.ALPHA),
             "--samples", str(samples), "--seed", str(seed), "--out", prefix],
            ["beckner", self.hypercube_spec, "--alpha", str(self.ALPHA),
             "--p", str(self.P), "--samples", str(samples), "--seed", str(seed),
             "--out", prefix],
        ]

    def warm_up(self) -> None:
        a, b = [3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0]
        chain = chains.birth_death(a, b, 3)
        rho0 = json.dumps([float(v) for v in 1.0 / (chain.n * chain.pi)])
        kappa = repr(curvature.birth_death_kappa_bound(a, b, 3))
        for argv in self.commands(self.write_spec(chain, "warm"), rho0, "0.01",
                                  kappa, 0, str(self.outs / "warm"), 11, 10):
            cli.main(argv)
        self.clear_outputs()

    def run(self, req: Request):
        p = req.params
        prefix = self.out_prefix(req)
        rcs = [
            cli.main(argv)
            for argv in self.commands(p["spec"], p["rho0"], p["T"], p["kappa"],
                                      p["seed"], prefix, self.GRID, 1000)
        ]
        files = [prefix + s for s in (".flow.csv", ".flow.json", ".mlsi.json", ".beckner.json")]
        return rcs, files

    def artifact(self, req: Request, res) -> bytes:
        return _file_digest(p for p in res[1] if os.path.exists(p))

    def check(self, req: Request, res) -> list[str]:
        rcs, files = res
        if any(rcs):
            return [f"exit codes flow/mlsi/beckner {rcs}"]
        summary = json.loads(Path(files[1]).read_text())
        bad = []
        if summary["ok"] is not True:
            bad.append("flow summary not ok")
        if not summary["mass_error"] <= 1e-10:
            bad.append(f"mass error {summary['mass_error']!r}")
        # The p channel against the same h^2-scaled bounds the CLI applies to
        # the log channel; its second derivative is -dIp/dt.
        csv = np.loadtxt(files[0], delimiter=",", skiprows=1)
        t, ip = csv[:, 0], csv[:, 5]
        h = float(np.max(np.diff(t)))
        d3 = np.gradient(-np.gradient(ip, t), t)
        d4 = np.gradient(d3, t)
        bound_db = 10.0 * h**2 * max(1.0, float(np.max(np.abs(d3))))
        bound_dd = 10.0 * h**2 * max(1.0, float(np.max(np.abs(d4))))
        if not summary["p_de_bruijn_residual"] <= bound_db:
            bad.append(f"p de Bruijn residual {summary['p_de_bruijn_residual']!r} > {bound_db!r}")
        if not summary["p_second_derivative_residual"] <= bound_dd:
            bad.append(
                f"p second-derivative residual {summary['p_second_derivative_residual']!r}"
                f" > {bound_dd!r}"
            )
        for path, what in ((files[2], "mlsi"), (files[3], "beckner")):
            rep = json.loads(Path(path).read_text())
            if rep["holds"] is not True or not rep["worst_ratio"] <= 1.0 + 1e-9:
                bad.append(f"{what} fails at alpha {self.ALPHA}: {rep['worst_ratio']!r}")
        return bad


WORKLOADS = {w.name: w for w in (KappaSmall, TreeReport, FlowVerify)}
