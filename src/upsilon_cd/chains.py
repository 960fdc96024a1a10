"""Reversible continuous-time Markov chains on finite state sets.

A chain is an immutable record of an ordered label set, a sparse table of
off-diagonal jump rates k(x, y) >= 0, and the reversible probability weights
pi. Infinite chains (birth-death on N_0, lattices) are represented by finite
truncations; builders attach the window's interior vertices in ``meta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ChainSpecError,
    InvalidParameter,
    NonPositiveRate,
    NotIrreducible,
    NotReversible,
)

__all__ = [
    "MarkovChain",
    "build_chain",
    "chain_from_rates",
    "load_spec",
    "loads_spec",
    "spec_dict",
    "dump_spec",
    "validate_chain",
    "two_point",
    "complete",
    "weighted_complete",
    "hypercube",
    "cycle",
    "weighted_4cycle",
    "birth_death",
    "star",
    "lattice_window",
    "perturbed_birth_death",
]

_DB_BUILD_RTOL = 1e-10  # build-time detailed balance acceptance
_DB_INVARIANT_RTOL = 1e-12  # reported invariant threshold


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Finite reversible chain: states, sparse rates, probability weights."""

    states: tuple[str, ...]
    neighbors: tuple  # per state: sorted int array of neighbour indices
    rates: tuple  # per state: rates k(x, y) aligned with neighbors[x]
    pi: np.ndarray  # strictly positive, sums to 1
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        return self._index_map[label]

    @cached_property
    def _index_map(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    def rate(self, x: int, y: int) -> float:
        pos = np.searchsorted(self.neighbors[x], y)
        if pos < len(self.neighbors[x]) and self.neighbors[x][pos] == y:
            return float(self.rates[x][pos])
        return 0.0

    @cached_property
    def m1(self) -> np.ndarray:
        """Total jump rate out of each state."""
        return np.array([r.sum() for r in self.rates])

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edge list (src, dst, rate) in row order of ``neighbors``."""
        src = np.repeat(
            np.arange(self.n, dtype=np.intp), [len(nb) for nb in self.neighbors]
        )
        return src, np.concatenate(self.neighbors), np.concatenate(self.rates)

    @cached_property
    def m2(self) -> np.ndarray:
        """Second-order rate sum: sum_y k(x,y) M1(y)."""
        src, dst, rate = self.edges
        return np.bincount(src, weights=rate * self.m1[dst], minlength=self.n)

    @cached_property
    def rate_matrix(self) -> np.ndarray:
        """Dense generator matrix: off-diagonal k(x,y), diagonal -M1(x)."""
        src, dst, rate = self.edges
        a = np.zeros((self.n, self.n))
        a[src, dst] = rate
        a[np.diag_indices(self.n)] = -self.m1
        return a

    def detailed_balance_residual(self) -> float:
        """Max relative violation of pi(x) k(x,y) = pi(y) k(y,x)."""
        worst = 0.0
        for x in range(self.n):
            for y, kxy in zip(self.neighbors[x], self.rates[x]):
                fwd = self.pi[x] * kxy
                bwd = self.pi[y] * self.rate(int(y), x)
                scale = max(abs(fwd), abs(bwd))
                if scale > 0.0:
                    worst = max(worst, abs(fwd - bwd) / scale)
        return worst

    def is_unweighted(self) -> bool:
        return all(np.all(r == 1.0) for r in self.rates)


def _connected(n: int, neighbors: Sequence[np.ndarray]) -> bool:
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        x = stack.pop()
        for y in neighbors[x]:
            if not seen[y]:
                seen[y] = True
                stack.append(int(y))
    return bool(seen.all())


def chain_from_rates(
    states: Sequence[str],
    rate_table: Mapping[tuple[int, int], float],
    measure: Sequence[float] | None = None,
    meta: dict | None = None,
) -> MarkovChain:
    """Assemble and validate a chain from an index-keyed rate table.

    If ``measure`` is None the reversible measure is computed by propagating
    detailed balance along a spanning tree and verifying every off-tree edge.
    """
    n = len(states)
    if n < 2:
        raise InvalidParameter("a chain needs at least two states")
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for (x, y), k in rate_table.items():
        if x == y:
            raise ChainSpecError(f"self-loop rate at state {states[x]!r}")
        if not (k > 0.0) or not math.isfinite(k):
            raise NonPositiveRate(f"rate {states[x]!r}->{states[y]!r} must be positive")
        if y in adj[x]:
            raise ChainSpecError(f"duplicate rate entry {states[x]!r}->{states[y]!r}")
        adj[x][y] = float(k)

    # Reversibility forces a symmetric support graph.
    for x in range(n):
        for y in adj[x]:
            if x not in adj[y]:
                raise NotReversible(
                    f"rate {states[x]!r}->{states[y]!r} has no reverse edge"
                )

    neighbors = tuple(
        np.array(sorted(adj[x]), dtype=np.intp) for x in range(n)
    )
    rates = tuple(
        np.array([adj[x][int(y)] for y in neighbors[x]], dtype=float)
        for x in range(n)
    )
    if any(len(nb) == 0 for nb in neighbors) or not _connected(n, neighbors):
        raise NotIrreducible("the support graph is not connected")

    if measure is None:
        pi = _solve_measure(n, adj)
    else:
        pi = np.asarray(measure, dtype=float)
        if pi.shape != (n,):
            raise ChainSpecError("measure length does not match states")
        if np.any(pi <= 0.0) or not np.all(np.isfinite(pi)):
            raise ChainSpecError("measure entries must be positive and finite")
        _check_measure(n, adj, pi)

    # Normalize, but never perturb an already-normalized measure: rate and
    # measure doubles must survive a serialize/parse round trip bit-exactly.
    total = float(pi.sum())
    if abs(total - 1.0) > 1e-12:
        pi = pi / total
    return MarkovChain(tuple(states), neighbors, rates, pi, meta or {})


def _solve_measure(n: int, adj: Sequence[dict]) -> np.ndarray:
    """Spanning-tree propagation of pi(y) = pi(x) k(x,y)/k(y,x)."""
    pi = np.zeros(n)
    pi[0] = 1.0
    order = [0]
    parent = {0: None}
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                pi[y] = pi[x] * adj[x][y] / adj[y][x]
                order.append(y)
    _check_measure(n, adj, pi)
    return pi


def _check_measure(n: int, adj: Sequence[dict], pi: np.ndarray) -> None:
    for x in range(n):
        for y, kxy in adj[x].items():
            fwd = pi[x] * kxy
            bwd = pi[y] * adj[y][x]
            if abs(fwd - bwd) > _DB_BUILD_RTOL * max(abs(fwd), abs(bwd)):
                raise NotReversible(
                    f"detailed balance fails on edge {x}->{y}: "
                    f"{fwd:.17g} vs {bwd:.17g}"
                )


# -- ChainSpec JSON format -----------------------------------------------------

_SPEC_FIELDS = {"states", "rates", "measure"}


def loads_spec(text: str) -> MarkovChain:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChainSpecError(f"invalid JSON: {exc}") from exc
    return build_chain(doc)


def load_spec(path) -> MarkovChain:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_spec(fh.read())


def build_chain(doc: dict) -> MarkovChain:
    """Build a chain from a parsed ChainSpec document (strict schema)."""
    if not isinstance(doc, dict):
        raise ChainSpecError("chain spec must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ChainSpecError(f"unknown chain spec fields: {sorted(unknown)}")
    if "states" not in doc or "rates" not in doc:
        raise ChainSpecError("chain spec needs 'states' and 'rates'")
    states = doc["states"]
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) for s in states)
    ):
        raise ChainSpecError("'states' must be a non-empty list of strings")
    if len(set(states)) != len(states):
        raise ChainSpecError("duplicate state labels")
    index = {s: i for i, s in enumerate(states)}

    table: dict[tuple[int, int], float] = {}
    if not isinstance(doc["rates"], list):
        raise ChainSpecError("'rates' must be a list of records")
    for rec in doc["rates"]:
        if not isinstance(rec, dict) or set(rec) != {"from", "to", "rate"}:
            raise ChainSpecError("each rate record needs exactly from/to/rate")
        try:
            x, y = index[rec["from"]], index[rec["to"]]
        except KeyError as exc:
            raise ChainSpecError(f"rate references unknown state {exc}") from exc
        if (x, y) in table:
            raise ChainSpecError(
                f"duplicate rate entry {rec['from']!r}->{rec['to']!r}"
            )
        rate = rec["rate"]
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ChainSpecError("rates must be numbers")
        table[(x, y)] = float(rate)

    measure = doc.get("measure")
    if measure is not None:
        if not isinstance(measure, list) or len(measure) != len(states):
            raise ChainSpecError("'measure' must align with 'states'")
        measure = [float(v) for v in measure]
    return chain_from_rates(states, table, measure)


def spec_dict(chain: MarkovChain, include_measure: bool = True) -> dict:
    """Serializable ChainSpec document; doubles round-trip bit-exactly."""
    rates = []
    for x in range(chain.n):
        for y, k in zip(chain.neighbors[x], chain.rates[x]):
            rates.append(
                {"from": chain.states[x], "to": chain.states[int(y)], "rate": float(k)}
            )
    doc = {"states": list(chain.states), "rates": rates}
    if include_measure:
        doc["measure"] = [float(v) for v in chain.pi]
    return doc


def dump_spec(chain: MarkovChain, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_dict(chain), fh, indent=1)
        fh.write("\n")


def validate_chain(chain: MarkovChain) -> dict:
    """Structural diagnostics used by the CLI validator."""
    return {
        "n_states": chain.n,
        "detailed_balance_residual": chain.detailed_balance_residual(),
        "detailed_balance_tol": _DB_INVARIANT_RTOL,
        "irreducible": _connected(chain.n, chain.neighbors),
        "measure_normalized": bool(abs(float(chain.pi.sum()) - 1.0) <= 1e-12),
        "m1": [float(v) for v in chain.m1],
        "m2": [float(v) for v in chain.m2],
    }


# -- builders ------------------------------------------------------------------


def two_point(a: float, b: float) -> MarkovChain:
    """States {0, 1} with k(0,1)=a, k(1,0)=b; pi = (b, a)/(a+b)."""
    if a <= 0 or b <= 0:
        raise InvalidParameter("two_point needs a, b > 0")
    return chain_from_rates(
        ("0", "1"),
        {(0, 1): a, (1, 0): b},
        measure=[b / (a + b), a / (a + b)],
        meta={"family": "two_point", "params": [a, b]},
    )


def complete(n: int) -> MarkovChain:
    """Complete graph on n vertices, unit rates, uniform measure."""
    if n < 2:
        raise InvalidParameter("complete needs n >= 2")
    table = {(x, y): 1.0 for x in range(n) for y in range(n) if x != y}
    return chain_from_rates(
        tuple(str(i) for i in range(n)),
        table,
        measure=[1.0 / n] * n,
        meta={"family": "complete", "params": [n]},
    )


def weighted_complete(weights: Sequence[float]) -> MarkovChain:
    """k(x, y) = l(y) for x != y; reversible measure proportional to l."""
    l = np.asarray(weights, dtype=float)
    if l.ndim != 1 or len(l) < 2 or np.any(l <= 0):
        raise InvalidParameter("weighted_complete needs >= 2 positive weights")
    n = len(l)
    table = {(x, y): float(l[y]) for x in range(n) for y in range(n) if x != y}
    return chain_from_rates(
        tuple(str(i) for i in range(n)),
        table,
        measure=list(l / l.sum()),
        meta={"family": "weighted_complete", "params": [float(v) for v in l]},
    )


def hypercube(n: int) -> MarkovChain:
    """n-fold product of the unit-rate two-point chain, bitstring labels."""
    if n < 1:
        raise InvalidParameter("hypercube needs n >= 1")
    from .tensor import product  # local import; tensor builds on chains

    chain = two_point(1.0, 1.0)
    for _ in range(n - 1):
        chain = product(chain, two_point(1.0, 1.0)).chain
    states = tuple(format(i, f"0{n}b") for i in range(2**n))
    return MarkovChain(
        states,
        chain.neighbors,
        chain.rates,
        chain.pi,
        {"family": "hypercube", "params": [n]},
    )


def cycle(n: int) -> MarkovChain:
    """Unweighted cycle on n >= 3 vertices."""
    if n < 3:
        raise InvalidParameter("cycle needs n >= 3")
    table = {}
    for i in range(n):
        table[(i, (i + 1) % n)] = 1.0
        table[(i, (i - 1) % n)] = 1.0
    return chain_from_rates(
        tuple(str(i) for i in range(n)),
        table,
        measure=[1.0 / n] * n,
        meta={"family": "cycle", "params": [n]},
    )


def weighted_4cycle(a_plus: float, a_minus: float, b_plus: float, b_minus: float) -> MarkovChain:
    """Four-cycle x1 x2 x3 x4 with opposite edges sharing rates."""
    for v in (a_plus, a_minus, b_plus, b_minus):
        if v <= 0:
            raise InvalidParameter("weighted_4cycle needs positive rates")
    table = {
        (0, 1): a_plus, (1, 0): a_minus,
        (3, 2): a_plus, (2, 3): a_minus,
        (0, 3): b_plus, (3, 0): b_minus,
        (1, 2): b_plus, (2, 1): b_minus,
    }
    return chain_from_rates(
        ("x1", "x2", "x3", "x4"),
        table,
        meta={"family": "weighted_4cycle", "params": [a_plus, a_minus, b_plus, b_minus]},
    )


def _rate_seq(f, count: int) -> np.ndarray:
    if callable(f):
        return np.array([float(f(x)) for x in range(count)])
    arr = np.asarray(f, dtype=float)
    if arr.shape != (count,):
        raise InvalidParameter(f"rate sequence must have length {count}")
    return arr.copy()


def birth_death(a, b, N: int) -> MarkovChain:
    """Birth-death chain truncated to {0..N}.

    ``a`` and ``b`` are sequences of length N+1 or callables on 0..N giving
    the up rates a(x)=k(x,x+1) and down rates b(x)=k(x,x-1). The truncation
    convention forces a(N)=0 and b(0)=0; interior rates must be positive.
    Reversible weights follow pi(x+1)/pi(x) = a(x)/b(x+1) exactly.
    """
    if N < 1:
        raise InvalidParameter("birth_death needs N >= 1")
    av = _rate_seq(a, N + 1)
    bv = _rate_seq(b, N + 1)
    av[N] = 0.0
    bv[0] = 0.0
    if np.any(av[:N] <= 0) or np.any(bv[1:] <= 0):
        raise InvalidParameter("birth rates a(0..N-1) and death rates b(1..N) must be positive")
    logpi = np.zeros(N + 1)
    for x in range(N):
        logpi[x + 1] = logpi[x] + math.log(av[x]) - math.log(bv[x + 1])
    pi = np.exp(logpi - logpi.max())
    table = {}
    for x in range(N):
        table[(x, x + 1)] = float(av[x])
        table[(x + 1, x)] = float(bv[x + 1])
    return chain_from_rates(
        tuple(str(i) for i in range(N + 1)),
        table,
        measure=list(pi),
        meta={
            "family": "birth_death",
            "a": [float(v) for v in av],
            "b": [float(v) for v in bv],
            "interior": list(range(2, N - 1)),
        },
    )


def star(center_out, leaf_in) -> MarkovChain:
    """Star with center x*; k(x*, a_i) = out_i, k(a_i, x*) = in_i."""
    out = np.asarray(center_out, dtype=float)
    inn = np.asarray(leaf_in, dtype=float)
    if out.ndim != 1 or out.shape != inn.shape or len(out) < 2:
        raise InvalidParameter("star needs matching out/in rate vectors, >= 2 leaves")
    if np.any(out <= 0) or np.any(inn <= 0):
        raise InvalidParameter("star rates must be positive")
    m = len(out)
    table = {}
    for i in range(m):
        table[(0, i + 1)] = float(out[i])
        table[(i + 1, 0)] = float(inn[i])
    return chain_from_rates(
        ("c",) + tuple(f"a{i+1}" for i in range(m)),
        table,
        meta={"family": "star", "params": [list(map(float, out)), list(map(float, inn))]},
    )


def lattice_window(dim: int, kernel: Mapping, radius: int) -> MarkovChain:
    """Window [-R..R]^d of Z^d with a symmetric translation-invariant kernel.

    ``kernel`` maps nonzero offsets (ints for d=1, tuples for d>1) to
    positive rates and must satisfy k(h) = k(-h); the reversible measure is
    then uniform. ``meta['interior']`` lists the vertices whose two-ball
    stays inside the window, where pointwise operators agree with Z^d.
    """
    if dim < 1:
        raise InvalidParameter("lattice_window needs dim >= 1")
    if radius < 1:
        raise InvalidParameter("lattice_window needs radius >= 1")
    offsets: dict[tuple, float] = {}
    for h, k in kernel.items():
        off = (int(h),) if np.isscalar(h) else tuple(int(v) for v in h)
        if len(off) != dim:
            raise InvalidParameter(f"offset {h!r} does not have dimension {dim}")
        if all(v == 0 for v in off):
            raise InvalidParameter("kernel offsets must be nonzero")
        if k <= 0:
            raise InvalidParameter("kernel rates must be positive")
        offsets[off] = float(k)
    for off, k in offsets.items():
        neg = tuple(-v for v in off)
        if offsets.get(neg) != k:
            raise InvalidParameter("kernel must be symmetric: k(h) = k(-h)")

    coords = list(iter_product(range(-radius, radius + 1), repeat=dim))
    index = {c: i for i, c in enumerate(coords)}
    labels = tuple(
        str(c[0]) if dim == 1 else ",".join(str(v) for v in c) for c in coords
    )
    table = {}
    for c in coords:
        for off, k in offsets.items():
            tgt = tuple(a + b for a, b in zip(c, off))
            if tgt in index:
                table[(index[c], index[tgt])] = k

    def inside(c) -> bool:
        for h in offsets:
            mid = tuple(a + b for a, b in zip(c, h))
            if mid not in index:
                return False
            for s in offsets:
                if tuple(a + b for a, b in zip(mid, s)) not in index:
                    return False
        return True

    interior = [index[c] for c in coords if inside(c)]
    n = len(coords)
    return chain_from_rates(
        labels,
        table,
        measure=[1.0 / n] * n,
        meta={
            "family": "lattice_window",
            "dim": dim,
            "radius": radius,
            "kernel": {",".join(str(v) for v in off): k for off, k in offsets.items()},
            "offsets": offsets,
            "interior": interior,
        },
    )


def perturbed_birth_death(base: MarkovChain, x0: int, y0: int, eps: float) -> MarkovChain:
    """Add a weak chord (x0, y0) to a birth-death chain, keeping pi exact.

    The reverse rate eps * pi(x0)/pi(y0) preserves detailed balance for the
    base measure; the endpoints must be non-adjacent (|y0 - x0| >= 2).
    """
    if base.meta.get("family") != "birth_death":
        raise InvalidParameter("perturbed_birth_death needs a birth_death base")
    if eps <= 0:
        raise InvalidParameter("eps must be positive")
    if not (0 <= x0 < base.n and 0 <= y0 < base.n):
        raise InvalidParameter("x0, y0 must be states of the base chain")
    if abs(y0 - x0) < 2:
        raise InvalidParameter("x0 and y0 must be non-adjacent")
    table = {}
    for x in range(base.n):
        for y, k in zip(base.neighbors[x], base.rates[x]):
            table[(x, int(y))] = float(k)
    table[(x0, y0)] = eps
    table[(y0, x0)] = eps * float(base.pi[x0]) / float(base.pi[y0])
    meta = dict(base.meta)
    meta.update({"family": "perturbed_birth_death", "chord": [x0, y0, eps]})
    return chain_from_rates(base.states, table, measure=list(base.pi), meta=meta)
