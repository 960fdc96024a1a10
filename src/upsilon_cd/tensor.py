"""Product chains and the tensorization of curvature bounds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import MarkovChain, chain_from_rates
from .curvature import (CurvatureOptions, DEFAULT_OPTIONS, VertexProblem, _decide, _estimates,
                        _finite_kappa)
from .errors import PrerequisiteFailed, SizeOverflow
from .operators import _field, psi2_upsilon

__all__ = ["ProductChain", "product", "tensor_curvature_check", "TensorReport"]

_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class ProductChain:
    """Product of two chains with the row-major (x-major) flat indexing."""

    chain: MarkovChain
    factor1: MarkovChain
    factor2: MarkovChain

    def flat(self, i1: int, i2: int) -> int:
        return i1 * self.factor2.n + i2

    def unflat(self, i: int) -> tuple[int, int]:
        return divmod(i, self.factor2.n)

    def slice1(self, f, i2: int) -> np.ndarray:
        """f(. , y) for fixed second coordinate."""
        f = _field(self.chain, f)
        return f.reshape(self.factor1.n, self.factor2.n)[:, i2].copy()

    def slice2(self, f, i1: int) -> np.ndarray:
        """f(x, .) for fixed first coordinate."""
        f = _field(self.chain, f)
        return f.reshape(self.factor1.n, self.factor2.n)[i1].copy()


def product(chain1: MarkovChain, chain2: MarkovChain) -> ProductChain:
    """Assemble the product generator: first-coordinate jumps keep the
    second fixed and vice versa; the measure is the outer product."""
    n1, n2 = chain1.n, chain2.n
    if n1 * n2 > _STATE_CAP:
        raise SizeOverflow(f"product would have {n1 * n2} states")
    table = {}
    for x1 in range(n1):
        for y1, k in zip(chain1.neighbors[x1], chain1.rates[x1]):
            for x2 in range(n2):
                table[(x1 * n2 + x2, int(y1) * n2 + x2)] = float(k)
    for x2 in range(n2):
        for y2, k in zip(chain2.neighbors[x2], chain2.rates[x2]):
            for x1 in range(n1):
                table[(x1 * n2 + x2, x1 * n2 + int(y2))] = float(k)
    states = tuple(
        f"{s1}|{s2}" for s1 in chain1.states for s2 in chain2.states
    )
    pi = np.outer(chain1.pi, chain2.pi).ravel()
    chain = chain_from_rates(
        states,
        table,
        measure=list(pi),
        meta={"family": "product", "factors": [chain1.meta, chain2.meta]},
    )
    return ProductChain(chain, chain1, chain2)


@dataclass
class TensorReport:
    kappa: float
    checked_vertices: list
    all_hold: bool
    worst_slack: float
    superadditivity_slack: float
    per_vertex: list = field(default_factory=list)


def tensor_curvature_check(
    chain1: MarkovChain,
    kappa1: float,
    chain2: MarkovChain,
    kappa2: float,
    vertices_sample=None,
    n_random_fields: int = 20,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> TensorReport:
    """Verify the product inequality at kappa = min(kappa1, kappa2).

    Also checks the splitting superadditivity
    Psi_2(f)(x,y) >= Psi_2^{(1)}(f_y)(x) + Psi_2^{(2)}(f^x)(y)
    on random fields, at the first 50 sampled vertices. Each factor's bound
    is re-verified first, at every vertex of the factor; the error names
    the first failing factor and vertex. Every check compares the bound
    with its vertex's estimate (_decide): one _estimates call for the
    vertices of both factors and one for the sampled product vertices, so
    vertices of one two-ball shape descend together.
    """
    _finite_kappa(kappa1, kappa2)
    factors = [[VertexProblem(c, x) for x in range(c.n)] for c in (chain1, chain2)]
    ests = iter(_estimates(factors[0] + factors[1], 0.0, opts))
    for which, probs, kap in zip(("first", "second"), factors, (kappa1, kappa2)):
        for q in probs:
            if not _decide(q, next(ests), kap, 0.0).holds:
                raise PrerequisiteFailed(
                    f"{which} factor fails its own bound {kap} at vertex {q.x}"
                )
    prod = product(chain1, chain2)
    kappa = min(kappa1, kappa2)
    n = prod.chain.n
    if vertices_sample is None:
        if n <= 2000:
            vertices_sample = list(range(n))
        else:
            rng = np.random.default_rng(opts.seed)
            vertices_sample = sorted(rng.choice(n, size=200, replace=False))
    results = []
    worst = np.inf
    all_hold = True
    probs = [VertexProblem(prod.chain, int(v)) for v in vertices_sample]
    for q, est in zip(probs, _estimates(probs, 0.0, opts)):
        res = _decide(q, est, kappa, 0.0)
        results.append((q.x, res.holds, res.worst_slack))
        worst = min(worst, res.worst_slack)
        all_hold = all_hold and res.holds

    # every field of the stack at once; row s of grid is f_s as (x1, x2)
    f = np.random.default_rng((opts.seed, 1)).normal(size=(n_random_fields, n))
    grid = f.reshape(n_random_fields, chain1.n, chain2.n)
    part1 = psi2_upsilon(chain1, grid.transpose(0, 2, 1))  # [s, x2, x1]
    part2 = psi2_upsilon(chain2, grid)  # [s, x1, x2]
    v = np.asarray(vertices_sample[:50], dtype=np.intp)
    i1, i2 = np.divmod(v, chain2.n)
    gap = psi2_upsilon(prod.chain, f)[:, v] - part1[:, i2, i1] - part2[:, i1, i2]
    super_slack = np.min(gap, initial=np.inf)
    return TensorReport(
        kappa=kappa,
        checked_vertices=[int(v) for v in vertices_sample],
        all_hold=bool(all_hold),
        worst_slack=float(worst),
        superadditivity_slack=float(super_slack),
        per_vertex=results,
    )
