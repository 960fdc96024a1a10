"""Per-vertex optimal curvature constants and certified checks.

Both curvature notions are local: the quadratic one (Bakry-Emery) reduces to
a generalized eigenvalue problem on the two-ball, the exponential one to a
smooth nonconvex minimization that we attack with an exact inner reduction
over "private" second-sphere values plus multi-start quasi-Newton descent.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .chains import MarkovChain, spec_dict
from .errors import (
    ConditionNotMet,
    InvalidParameter,
    IsolatedVertex,
    MonotonicityViolated,
    NonConvergence,
    NotAStar,
)
from .kernels import _SERIES_CUT, omega, omega_prime, ups, ups_prime

__all__ = [
    "CurvatureOptions",
    "VertexProblem",
    "VertexEstimate",
    "CheckResult",
    "bakry_emery_kappa",
    "cd_upsilon_kappa",
    "cd_upsilon_check",
    "cd_upsilon_dim_check",
    "cd_p_check",
    "no_lower_bound_witness",
    "divergence_candidates",
    "birth_death_kappa_bound",
    "poisson_family_slack",
    "poisson_family_violation",
    "star_kappa_certificate",
    "ratio_grid_oracle",
    "check_grid_oracle_raw",
    "CurvatureReport",
    "chain_curvature_report",
]


@dataclass(frozen=True)
class CurvatureOptions:
    """Optimizer configuration; the seed fixes every stochastic choice.

    ``starts`` is a minimum. The multistart driver always runs 8 constant
    starts, 2 per reduced variable and one probe point per neighbour and
    probe tau (_PROBE_TAUS), and tops up with random starts until it has
    ``starts``; so ``complete(30)`` runs 153 starts at ``starts=64``.
    ``bound`` is the box of every descent, ``maxiter`` caps the lockstep
    iterations and each L-BFGS-B hand-off.
    """

    starts: int = 64
    bound: float = 80.0
    seed: int = 0
    maxiter: int = 400


DEFAULT_OPTIONS = CurvatureOptions()

# Largest constant start and scale of the random starts (capped at the box).
_AMPLITUDE = 40.0
# Slopes of the divergence-family probe starts (VertexProblem.probe_points).
_PROBE_TAUS = (10.0, 20.0, 40.0)
# Level that divergence_certificate's family line must reach: it reports the
# tau_at_threshold where it does and picks the neighbour that gets there first.
_MINUS_INF_THRESHOLD = -1e6


class VertexProblem:
    """Second-step edge list of the two-ball at x, with one objective kernel.

    Free variables are u = f|S1 and w = f|S2shared (f(x) = 0 normalized
    away; the ratio and check objectives are invariant under constants).
    A second-sphere vertex is "private" when it is reachable from exactly
    one S1 vertex y; its optimal value is known in closed form (below), so
    it never enters the search space. The raw variables append f|S2private
    (columns follow s2_private).

    Every edge y -> z with y in S1 is one entry of ``(src, tgt, coef)``:
    ``src`` is y's index in S1, ``tgt`` the raw column of z (-1 for z = x),
    ``coef`` = c_y k(y, z). Edges into x come first, then into S1, then into
    shared S2, with private S2 last. ``z @ diff`` is f(tgt) - u_src on every
    edge.

    The same kernel serves the power entropy phi_p, 1 < p < 2, with
    a = p - 1. The variables are then g = log F of a positive field F, and
    with d = g(z) - u_y on an edge y -> z and r(s) = ups(a s)/a:

        Psi^(p)(x)     = sum_y c_y [ups(u_y) - r(u_y)]
        L phi_p'(x)    = sum_y c_y [u_y + r(u_y)]
        2 Psi_2^(p)(x) = sum_{y->z} c_y k(y,z) e^{a u_y}
                             [ups(d) - ups'(u_y) d - e^{u_y} r(d)]
                         + (sum_y c_y ups'(u_y)) L phi_p'(x) - M1(x) Psi^(p)(x)

    (Psi^(p) is minus the Bregman sum of phi_p', and the edge term is
    Psi^(p)(y) minus ups'(u_y) times L phi_p'(y), both expanded around
    F(y) = e^{u_y}, with 1 + ups'(u) = e^u.) F -> cF scales all three by
    c^a, so g(x) = 0 loses nothing. At a = 0 (p = 1, the default)
    r vanishes and this is the logarithmic entropy's Psi and Psi_2 of g;
    ``lf`` then is Lg(x).

    The inner minimum over a private z: its edge term T(d) has
    T'(d) = e^{a(u_y + d)} (e^{(1-a) d} - e^{u_y}), so T falls, then rises,
    with its global minimum at d* = u_y/(1 - a), i.e. g(z) = u_y (3-p)/(2-p)
    (2 u_y at p = 1, where T(d*) = -omega(u_y)). By the envelope theorem
    dT(d*)/du_y = a T(d*) - e^{(1+a) u_y} (d* + r(d*)) (-omega'(u_y) at
    p = 1).
    """

    def __init__(self, chain: MarkovChain, x: int, p: float = 1.0):
        if not 1.0 <= p < 2.0:
            raise InvalidParameter(f"p must lie in [1,2), got {p}")
        self.a = float(p) - 1.0
        # g(z) / u_y at the private inner minimum
        self._priv_factor = (3.0 - p) / (2.0 - p)
        self.chain = chain
        self.x = int(x)
        s1 = [int(y) for y in chain.neighbors[x]]
        if not s1:
            raise IsolatedVertex(f"vertex {chain.states[x]!r} has no neighbours")
        self.s1 = np.array(s1, dtype=np.intp)
        self.c = np.array(chain.rates[x], dtype=float)
        self.m1x = float(self.c.sum())
        m1 = len(s1)
        pos1 = {y: i for i, y in enumerate(s1)}

        into_x, into_s1 = [], []
        s2_hits: dict[int, list[tuple[int, float]]] = {}
        for iy, (y, cy) in enumerate(zip(s1, self.c.tolist())):
            for z, kyz in zip(chain.neighbors[y].tolist(), chain.rates[y].tolist()):
                coef = cy * kyz
                if z == self.x:
                    into_x.append((iy, -1, coef))
                elif z in pos1:
                    into_s1.append((iy, pos1[z], coef))
                else:
                    s2_hits.setdefault(z, []).append((iy, coef))
        shared = sorted(z for z, hits in s2_hits.items() if len(hits) > 1)
        private = sorted(z for z, hits in s2_hits.items() if len(hits) == 1)
        col = {z: m1 + i for i, z in enumerate(shared + private)}
        edges = into_x + into_s1 + [
            (iy, col[z], coef) for z in shared + private for iy, coef in s2_hits[z]
        ]
        self.s2_shared = np.array(shared, dtype=np.intp)
        self.s2_private = np.array(private, dtype=np.intp)
        # states of the raw columns
        self.ball = np.concatenate([self.s1, self.s2_shared, self.s2_private])

        self.m1 = m1
        self.m2 = len(shared)
        self.dim = m1 + self.m2
        self.raw_dim = self.dim + len(private)

        # every y in S1 has the edge back to x: the support is symmetric
        src, tgt, coef = zip(*edges)
        self.src = np.array(src, dtype=np.intp)
        self.tgt = np.array(tgt, dtype=np.intp)
        self.coef = np.array(coef, dtype=float)
        n_edges = len(self.coef)
        self._n_red = n_edges - len(private)
        cols = np.arange(n_edges)
        self.diff = np.zeros((self.raw_dim, n_edges))
        self.diff[self.src, cols] = -1.0
        into_ball = self.tgt >= 0
        self.diff[self.tgt[into_ball], cols[into_ball]] = 1.0
        self._diff_red = np.ascontiguousarray(self.diff[: self.dim, : self._n_red])
        self._src_inc = (self.src[:, None] == np.arange(m1)).astype(float)
        # sum over the private edges out of y of c_y k(y, z)
        self._priv_coef = np.bincount(
            self.src[self._n_red :], self.coef[self._n_red :], minlength=m1
        )

    def _tree_like(self) -> bool:
        """No edge inside S1 and no shared S2 vertex: no triangle or 4-cycle
        passes through x, the two-ball condition of the witness family."""
        return not (self.m2 or np.any((self.tgt >= 0) & (self.tgt < self.m1)))

    # -- the objective kernel (last axis of z is the variable vector) ----------

    def _edges(self, width: int):
        """(incidence, number of explicit edges) for a ``width``-wide z.

        ``raw_dim`` makes every edge explicit; ``dim`` leaves the private
        edges to the exact inner minimum.
        """
        if width == self.raw_dim:
            return self.diff, len(self.coef)
        return self._diff_red, self._n_red

    def _r(self, s):
        """r(s) = ups(a s)/a, the power entropy's part of its terms."""
        return ups(self.a * s) / self.a

    def _objective(self, z: np.ndarray, grad: bool = False):
        """Lf(x), Psi(f)(x) and 2 Psi_2(f)(x) with f(x) = 0 and f|ball = z
        (L phi_p', Psi^(p) and 2 Psi_2^(p) of F = e^f for p > 1).

        ``z.shape[-1]`` decides raw versus reduced (see _edges); the
        reduced form takes each private edge at its exact inner minimum.
        With ``grad`` also returns dPsi/du and d(2 Psi_2)/dz.
        """
        z = np.asarray(z, dtype=float)
        u = z[..., : self.m1]
        diff, n = self._edges(z.shape[-1])
        d = z @ diff
        src, coef = self.src[:n], self.coef[:n]
        upv = ups_prime(u)
        upv_src = upv[..., src]
        lf = u @ self.c
        psi = ups(u) @ self.c
        s = upv @ self.c
        edge = ups(d) - upv_src * d
        eu = np.exp(u)
        if self.a:
            ru, rd = self._r(u), self._r(d)
            lf = lf + ru @ self.c
            psi = psi - ru @ self.c
            eau = np.exp(self.a * u)
            eu_src, eau_src = eu[..., src], eau[..., src]
            edge = eau_src * (edge - eu_src * rd)
        two_psi2 = edge @ coef + s * lf - self.m1x * psi
        reduced = n < len(self.coef)
        if reduced:
            priv, dpriv = self._private_min(u, grad)
            two_psi2 = two_psi2 + priv @ self._priv_coef
        if not grad:
            return lf, psi, two_psi2
        dd, dpsi, s_u = ups_prime(d) - upv_src, self.c * upv, s[..., None]
        if self.a:
            dd = eau_src * (dd - eu_src * ups_prime(self.a * d))
            dpsi = dpsi - self.c * ups_prime(self.a * u)
            s_u = eau * s_u  # dLf/du = c e^{a u}
            # each edge term's own u_y-derivative: a T - e^{(1+a) u_y} (d + r(d))
            own = (coef * (self.a * edge - eu_src * eau_src * (d + rd))) @ self._src_inc[:n]
        else:
            own = -eu * ((coef * d) @ self._src_inc[:n])
        g = (coef * dd) @ diff.T
        g[..., : self.m1] += self.c * (eu * lf[..., None] + s_u) + own - self.m1x * dpsi
        if reduced:
            g[..., : self.m1] += self._priv_coef * dpriv
        return lf, psi, two_psi2, dpsi, g

    def _private_min(self, u: np.ndarray, grad: bool):
        """T(d*) per unit c_y k(y, z) of a private edge out of each y, and
        its u_y-derivative with ``grad`` (see the class docstring)."""
        if not self.a:
            return -omega(u), -omega_prime(u) if grad else None
        ds = u / (1.0 - self.a)
        eu, eau = np.exp(u), np.exp(self.a * u)
        rds = self._r(ds)
        t = eau * (ups(ds) - ups_prime(u) * ds - eu * rds)
        return t, self.a * t - eu * eau * (ds + rds) if grad else None

    def ratio_batch(self, z: np.ndarray) -> np.ndarray:
        _, psi, two_psi2 = self._objective(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = two_psi2 / (2.0 * psi)
        return np.where(psi > 1e-300, out, np.inf)

    def check_batch(self, z: np.ndarray, kappa: float, inv_d: float = 0.0) -> np.ndarray:
        lf, psi, two_psi2 = self._objective(z)
        return 0.5 * two_psi2 - kappa * psi - inv_d * lf**2

    def check_magnitude_batch(
        self, z: np.ndarray, kappa: float, inv_d: float = 0.0
    ) -> np.ndarray:
        """Sum of the magnitudes of the terms that make up check_batch(z).

        Each kernel value counts with the terms it is computed from, and a
        computed difference d adds |dT/dd d| for its own rounding (not on
        edges into x, where d = -u is exact); a fixed multiple of machine
        epsilon times this sum bounds the rounding error of the evaluated
        slack.
        """
        z = np.asarray(z, dtype=float)
        u = z[..., : self.m1]
        diff, n = self._edges(z.shape[-1])
        d = z @ diff
        upv = ups_prime(u)
        terms, rounding = self._edge_terms(d, u, upv, self.src[:n])
        computed = self.tgt[:n] >= 0
        acc = (terms + np.where(computed, rounding, 0.0)) @ self.coef[:n]
        lf_terms, psi_terms = np.abs(u), _ups_terms(u)
        if self.a:
            r_terms = _ups_terms(self.a * u) / self.a
            lf_terms, psi_terms = lf_terms + r_terms, psi_terms + r_terms
        if n < len(self.coef) and self.a:  # the edge terms at d*, computed
            terms, rounding = self._edge_terms(u / (1.0 - self.a), u, upv, slice(None))
            acc = acc + (terms + rounding) @ self._priv_coef
        elif n < len(self.coef):
            acc = acc + _omega_terms(u) @ self._priv_coef
        lf_abs = lf_terms @ self.c
        acc = acc + (np.abs(upv) @ self.c) * lf_abs
        psi_terms = psi_terms @ self.c
        acc = 0.5 * (acc + self.m1x * psi_terms) + abs(kappa) * psi_terms
        return acc + inv_d * lf_abs**2

    def _edge_terms(self, d, u, upv, src):
        """Magnitudes of the terms of the edge kernel T(d) on edges out of
        u[..., src], and of dT/dd d, the rounding of a computed d."""
        terms = _ups_terms(d) + np.abs(upv[..., src] * d)
        rounding = np.abs(ups_prime(d) * d)
        if self.a:
            eu, eau = np.exp(u)[..., src], np.exp(self.a * u)[..., src]
            ad = self.a * d
            terms = eau * (terms + eu * _ups_terms(ad) / self.a)
            rounding = eau * (rounding + eu * np.abs(ups_prime(ad) * d))
        return terms, rounding

    # -- value and gradient -----------------------------------------------------
    # The ratio is the one objective of every descent (_multistart), for the
    # constant and for each check: _ratio_vg works over the last axis of z
    # (the lockstep rows), ratio_value_grad is what a single L-BFGS-B descent
    # calls. check_value_grad is the slack's value and gradient at one point.

    def _dlf(self, z: np.ndarray):
        """dLf/du at z (d L phi_p'/du = c e^{a u} for p > 1)."""
        u = np.asarray(z, dtype=float)[..., : self.m1]
        return self.c * np.exp(self.a * u) if self.a else self.c

    def _ratio_vg(self, z: np.ndarray, inv_d: float = 0.0):
        """(2 Psi_2 - 2 inv_d (Lf)^2) / (2 Psi) and its gradient; a flat
        point (Psi = 0) reads 1e100 with gradient 0."""
        lf, psi, two_psi2, dpsi, g = self._objective(z, grad=True)
        if inv_d:
            two_psi2 = two_psi2 - 2.0 * inv_d * lf * lf
            g[..., : self.m1] -= 4.0 * inv_d * lf[..., None] * self._dlf(z)
        flat = psi < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            val = two_psi2 / (2.0 * psi)
            grad = g / (2.0 * psi[..., None])
            grad[..., : self.m1] -= val[..., None] * dpsi / psi[..., None]
        grad[flat] = 0.0
        return np.where(flat, 1e100, val), grad

    def ratio_value_grad(self, z: np.ndarray, inv_d: float = 0.0):
        val, grad = self._ratio_vg(z, inv_d)
        return float(val), grad

    def check_value_grad(self, z: np.ndarray, kappa: float, inv_d: float = 0.0):
        """check_batch(z, kappa, inv_d) and its gradient at one point."""
        lf, psi, two_psi2, dpsi, g = self._objective(z, grad=True)
        val = 0.5 * two_psi2 - kappa * psi - inv_d * lf * lf
        grad = 0.5 * g
        grad[: self.m1] -= kappa * dpsi + 2.0 * inv_d * lf * self._dlf(z)
        return float(val), grad

    # -- embedding back into a full field ---------------------------------------

    def field_from(self, z: np.ndarray) -> np.ndarray:
        """Full field realizing the reduced point (private sphere at argmin)."""
        z = np.asarray(z, dtype=float)
        f = np.zeros(self.chain.n)
        f[self.ball[: self.dim]] = z[: self.dim]
        f[self.s2_private] = self._priv_factor * z[self.src[self._n_red :]]
        return f

    def family_point(self, i: int, tau: float) -> np.ndarray:
        """The witness family's reduced point through neighbour i: -tau at
        s1[i], tau at the other neighbours and 2 tau on shared S2 (field_from
        puts each private S2 vertex at twice its neighbour's value at p = 1)."""
        z = np.full(self.dim, float(tau))
        z[i] = -float(tau)
        z[self.m1 :] = 2.0 * float(tau)
        return z

    def probe_points(self, taus) -> list:
        """Divergence-family patterns: one descending neighbour, the rest rising."""
        return [self.family_point(i, t) for i in range(self.m1) for t in taus]


def _ups_terms(r: np.ndarray) -> np.ndarray:
    """Bounds the terms ups(r) is computed from: |e^r - 1| + |r| for the
    direct formula, and for |r| <= _SERIES_CUT the series r^2/2 poly(r),
    whose positive coefficients make ups(|r|) the sum of its terms' sizes."""
    a = np.abs(r)
    return np.where(a <= _SERIES_CUT, ups(a), np.abs(np.expm1(r)) + a)


def _omega_terms(r: np.ndarray) -> np.ndarray:
    """Bounds the terms omega(r) is computed from: |e^r - 1| (1 + |r|) + |r|
    for the direct formula, omega(|r|) for the series (see _ups_terms)."""
    a = np.abs(r)
    return np.where(a <= _SERIES_CUT, omega(a), np.abs(np.expm1(r)) * (1.0 + a) + a)


# -- Bakry-Emery ----------------------------------------------------------------


def bakry_emery_kappa(chain: MarkovChain, x: int):
    """Exact optimal constant of the quadratic-form inequality at x.

    Returns (kappa, witness field). The second sphere enters 4*Gamma_2 only
    through the diagonal nonnegative block sum_y c_y k(y,z)(w_z - 2u_y)^2,
    so it is eliminated exactly by its weighted-mean minimizer; the rest is
    a generalized symmetric eigenvalue problem against 2*Gamma.
    """
    prob = VertexProblem(chain, x)
    m1 = prob.m1
    # column e of `a` is f(z) - 2 u_y on edge e, over the raw columns
    a = prob.diff.copy()
    a[prob.src, np.arange(len(prob.src))] -= 1.0
    q = (a * prob.coef) @ a.T
    quu, quv, qvv = q[:m1, :m1], q[:m1, m1:], np.diag(q)[m1:]
    # -sum_y c_y M1(y) u_y^2 + 2 (Lf)^2 - M1(x) sum c_y u_y^2
    quu[np.diag_indices(m1)] -= prob.c * chain.m1[prob.s1] + prob.m1x * prob.c
    quu += 2.0 * np.outer(prob.c, prob.c)
    quu = quu - (quv / qvv) @ quv.T
    b = 2.0 * np.diag(prob.c)
    vals, vecs = scipy.linalg.eigh(quu, b)
    kappa = float(vals[0])
    u = vecs[:, 0]
    f = np.zeros(chain.n)
    f[prob.s1] = u
    f[prob.ball[m1:]] = -(quv.T @ u) / qvv
    return kappa, f


# -- exponential-calculus estimation and checks ----------------------------------


@dataclass
class VertexEstimate:
    vertex: int
    kappa: float  # -inf encodes "no lower bound exists"
    witness: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def minus_infinity(self) -> bool:
        return math.isinf(self.kappa) and self.kappa < 0


@dataclass
class CheckResult:
    """Verdict of a CD check at one vertex.

    ``worst_slack`` is the slack Psi_2 - kappa Psi (- inv_d (Lf)^2) at the
    minimiser of the condition's ratio, which the check decides on; the
    counterexample is the field there when the check fails.
    """

    holds: bool
    worst_slack: float
    counterexample: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _start_points(prob: VertexProblem, opts: CurvatureOptions, rng) -> list:
    amp = min(_AMPLITUDE, opts.bound)
    pts = []
    for g in (0.8, 3.0, 10.0, amp):
        pts.append(np.full(prob.dim, g))
        pts.append(np.full(prob.dim, -g))
    for i in range(prob.dim):
        for g in (1.5, -1.5):
            z = np.zeros(prob.dim)
            z[i] = g
            pts.append(z)
    pts.extend(prob.probe_points([-t for t in _PROBE_TAUS]))
    scales = (0.5, 2.0, 8.0, 0.25 * amp)
    while len(pts) < opts.starts:
        z = rng.normal(size=prob.dim) * scales[len(pts) % len(scales)]
        pts.append(np.clip(z, -opts.bound, opts.bound))
    return pts


# Convergence thresholds of the descent, the same for the lockstep rows and
# for L-BFGS-B (gtol, ftol): max-norm of the projected gradient, and the
# relative decrease of one step.
_GTOL = 1e-10
_FTOL = 2.5e-15
_ARMIJO = 1e-4
# Backtracking steps tried, all at once, when the full step fails Armijo.
_LADDER = 0.5 ** np.arange(1, 31)
# Rows times second-step edges per kernel call of the ladder: bounds each
# temporary of the call at 2 MB on large two-balls.
_BLOCK_ELEMENTS = 2**18
# How a start ended (_ACTIVE while it still descends in lockstep).
_ACTIVE, _CONVERGED, _HANDOFF, _FAIL = range(4)


def _lbfgsb(fun, z0, opts: CurvatureOptions):
    return scipy.optimize.minimize(
        fun,
        z0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-opts.bound, opts.bound)] * len(z0),
        options=dict(maxiter=opts.maxiter, ftol=_FTOL, gtol=_GTOL),
    )


def _armijo(z0, f0, g0, z1, f1, g1) -> np.ndarray:
    """Whether each step z0 -> z1 (over the last axis) decreases enough."""
    bound = f0 + _ARMIJO * np.einsum("...i,...i->...", g0, z1 - z0)
    return np.isfinite(f1) & (f1 <= bound) & np.isfinite(g1).all(axis=-1)


def _in_blocks(batch_fun, z, block: int):
    """batch_fun over the rows of z, at most ``block`` rows per call."""
    if len(z) <= block:
        return batch_fun(z)
    parts = [batch_fun(z[i : i + block]) for i in range(0, len(z), block)]
    return tuple(np.concatenate(out) for out in zip(*parts))


def _line_search(batch_fun, z, f, g, p, lo, hi, block: int):
    """Armijo backtracking from the rows z along p, clipped to [lo, hi].

    Tries the full step for every row, then the whole ladder _LADDER for
    the rows that failed, in one call (or in calls of at most ``block``
    rows). Returns (ok, step, z1, f1, g1):
    ``step`` is the unclipped point the accepted ``z1`` was clipped from.
    """
    step = z + p
    z1 = np.clip(step, lo, hi)
    f1, g1 = batch_fun(z1)
    ok = _armijo(z, f, g, z1, f1, g1)
    back = np.flatnonzero(~ok)
    if back.size:
        steps = z[back, None] + _LADDER[:, None] * p[back, None]
        zl = np.clip(steps, lo, hi)
        fl, gl = _in_blocks(batch_fun, zl.reshape(-1, z.shape[1]), block)
        fl, gl = fl.reshape(zl.shape[:2]), gl.reshape(zl.shape)
        okl = _armijo(z[back, None], f[back, None], g[back, None], zl, fl, gl)
        rows = np.flatnonzero(okl.any(axis=1))
        k = np.argmax(okl[rows], axis=1)  # the longest step that passes
        hit = back[rows]
        step[hit], z1[hit] = steps[rows, k], zl[rows, k]
        f1[hit], g1[hit] = fl[rows, k], gl[rows, k]
        ok[hit] = True
    return ok, step, z1, f1, g1


def _bfgs_update(h, s, y, sy, fresh):
    """BFGS update of the inverse Hessians ``h`` by the steps s and
    gradient changes y (sy = s.y > 0), row by row; a ``fresh`` row is first
    set to (s.y)/(y.y) times the identity."""
    yy = np.einsum("ri,ri->r", y, y)
    h[fresh] = (sy / yy)[fresh, None, None] * np.eye(h.shape[1])
    hy = np.einsum("rij,rj->ri", h, y)
    rho = (1.0 / sy)[:, None, None]
    yhy = np.einsum("ri,ri->r", y, hy)[:, None, None]
    hys = hy[:, :, None] * s[:, None, :]
    ss = s[:, :, None] * s[:, None, :]
    return h - rho * (hys + hys.transpose(0, 2, 1)) + (rho * rho * yhy + rho) * ss


def _lockstep(batch_fun, z, opts: CurvatureOptions, block: int):
    """Projected BFGS from every row of ``z`` at once.

    Each iteration makes one batched value+gradient call for the active
    rows, plus one for the backtracking ladder (_line_search). A row
    converges on the projected-gradient or the relative-decrease rule
    (_GTOL, _FTOL); it is handed off to L-BFGS-B when its accepted step was
    clipped by the box, when no ladder step satisfies Armijo, or at
    ``opts.maxiter``; it fails when its start value is not finite. A row
    that converges here meets L-BFGS-B's own stopping rule, so it gets no
    further descent. Every row ends in one of these three ways, whatever its
    value. ``block`` caps the rows of one ladder call. Returns
    (z, values, status), status per row one of _CONVERGED, _HANDOFF, _FAIL.
    """
    lo, hi = -opts.bound, opts.bound
    n, dim = z.shape
    z = z.copy()
    f, g = batch_fun(z)
    status = np.where(np.isfinite(f), _ACTIVE, _FAIL)
    status[(status == _ACTIVE) & ~np.isfinite(g).all(axis=1)] = _HANDOFF
    h = np.tile(np.eye(dim), (n, 1, 1))
    fresh = np.ones(n, dtype=bool)  # h is still the unscaled identity
    for it in range(opts.maxiter + 1):
        act = np.flatnonzero(status == _ACTIVE)
        pg = np.abs(np.clip(z[act] - g[act], lo, hi) - z[act]).max(axis=1)
        status[act[pg <= _GTOL]] = _CONVERGED
        act = act[pg > _GTOL]
        if it == opts.maxiter:
            status[act] = _HANDOFF
        if not act.size or it == opts.maxiter:
            break
        za, fa, ga = z[act], f[act], g[act]
        p = -np.einsum("rij,rj->ri", h[act], ga)
        # with the unscaled identity, cap the step at unit length
        first = fresh[act]
        p[first] /= np.maximum(1.0, np.linalg.norm(ga[first], axis=1))[:, None]
        ok, step, zt, ft, gt = _line_search(batch_fun, za, fa, ga, p, lo, hi, block)
        status[act[~ok]] = _HANDOFF
        act, za, fa, ga = act[ok], za[ok], fa[ok], ga[ok]
        zt, ft, gt = zt[ok], ft[ok], gt[ok]
        clipped = np.any(zt != step[ok], axis=1)
        rel = (fa - ft) / np.maximum(np.maximum(np.abs(fa), np.abs(ft)), 1.0)
        status[act[clipped]] = _HANDOFF
        status[act[~clipped & (rel <= _FTOL)]] = _CONVERGED
        z[act], f[act], g[act] = zt, ft, gt
        s_, y_ = zt - za, gt - ga
        sy = np.einsum("ri,ri->r", s_, y_)
        # update only where the curvature s.y is positive
        upd = sy > np.finfo(float).eps * np.einsum("ri,ri->r", y_, y_)
        rows = act[upd]
        h[rows] = _bfgs_update(h[rows], s_[upd], y_[upd], sy[upd], fresh[rows])
        fresh[rows] = False
    return z, f, status


def _multistart(prob: VertexProblem, inv_d: float, opts: CurvatureOptions):
    """Minimize the ratio (2 Psi_2 - 2 inv_d (Lf)^2)/(2 Psi) of ``prob``
    from every start; returns (best_z, best_val, diagnostics).

    The random starts draw from the (seed, x) generator, so a vertex gets
    the same starts wherever it is solved. All starts descend in lockstep
    (_lockstep); each handed-off row is finished by one L-BFGS-B descent
    from where it stopped, the only other descent. The diagnostics count
    how each start ended: ``n_converged`` in lockstep, ``n_handoff`` to
    L-BFGS-B, ``n_fail`` at a non-finite start; they sum to ``n_starts``.
    """
    rng = np.random.default_rng((opts.seed, prob.x))
    starts = np.array(_start_points(prob, opts, rng))
    block = max(1, _BLOCK_ELEMENTS // len(prob.coef))
    z, f, status = _lockstep(lambda zz: prob._ratio_vg(zz, inv_d), starts, opts, block)
    diag = {
        "n_starts": len(starts),
        "n_fail": int(np.sum(status == _FAIL)),
        "n_converged": int(np.sum(status == _CONVERGED)),
        "n_handoff": int(np.sum(status == _HANDOFF)),
    }
    for i in np.flatnonzero(status == _HANDOFF):
        res = _lbfgsb(lambda zz: prob.ratio_value_grad(zz, inv_d), z[i], opts)
        if res.fun < f[i]:
            z[i], f[i] = res.x, res.fun
    finite = np.flatnonzero(status != _FAIL)
    if not finite.size:
        raise NonConvergence("no start converged to a finite value", diagnostics=diag)
    best = finite[np.argmin(f[finite])]
    best_val = float(f[best])
    return z[best].copy(), best_val, dict(diag, best_val=best_val)


def cd_upsilon_kappa(
    chain: MarkovChain, x: int, opts: CurvatureOptions = DEFAULT_OPTIONS
) -> VertexEstimate:
    """Estimate the optimal exponential-calculus constant at x.

    Reports -inf only when the divergence certificate applies, otherwise
    the lowest ratio the multistart descent (_multistart) reached, with its
    field as witness, however low (the ratio is homogeneous of degree 1 in
    the rates, so no fixed level separates a large finite value from -inf).
    """
    # Divergence first: the witness family drives the ratio below any bound
    # (linearly in tau) exactly when the branching condition holds.
    cert = divergence_certificate(chain, x)
    if cert is not None:
        tau_star, y1, witness = cert
        return VertexEstimate(
            x,
            float("-inf"),
            witness,
            {"divergent_via": int(y1), "tau_at_threshold": tau_star},
        )

    prob = VertexProblem(chain, x)
    z, val, diag = _multistart(prob, 0.0, opts)
    return VertexEstimate(x, val, prob.field_from(z), diag)


# Rounding error of an evaluated slack, in machine epsilons per unit of the
# summed term magnitudes (VertexProblem.check_magnitude_batch).
_ROUNDING_ULPS = 64


def _check(
    prob: VertexProblem, kappa: float, inv_d: float, opts: CurvatureOptions
) -> CheckResult:
    """Decide Psi_2 - kappa Psi - inv_d (Lf)^2 >= 0 at every field of ``prob``.

    The condition holds iff kappa is at most the infimum of its ratio
    (2 Psi_2 - 2 inv_d (Lf)^2)/(2 Psi), so the check runs the descent that
    cd_upsilon_kappa runs (_multistart) on that ratio; kappa does not enter
    it. The verdict is the sign of the slack at the ratio's minimiser:
    ``holds`` iff the slack is >= -tol with tol = 64 machine epsilons times
    the sum of the magnitudes of the slack's terms there
    (``diagnostics["tol"]``), the rounding error of the slack actually
    evaluated. A tolerance fixed in units of the squared rate scale would
    absorb any violation that is small next to the rates, such as that of
    the Poisson chain at vertices near exp(1/kappa).
    """
    z, _, diag = _multistart(prob, inv_d, opts)
    slack = float(prob.check_batch(z, kappa, inv_d))
    magnitude = prob.check_magnitude_batch(z, kappa, inv_d)
    tol = float(_ROUNDING_ULPS * np.finfo(float).eps * magnitude)
    holds = slack >= -tol
    return CheckResult(holds, slack, None if holds else prob.field_from(z), dict(diag, tol=tol))


def cd_upsilon_check(
    chain: MarkovChain,
    kappa: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Decide the pointwise inequality Psi_2 >= kappa Psi at x: whether
    kappa is at most the minimum of Psi_2/Psi that cd_upsilon_kappa's
    descent finds with the same ``opts``, up to the rounding error of the
    slack there (see _check)."""
    return cd_upsilon_dim_check(chain, kappa, math.inf, x, opts)


def cd_upsilon_dim_check(
    chain: MarkovChain,
    kappa: float,
    d: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Finite-dimension variant with the (1/d)(Lf)^2 term; d = inf reduces
    to the dimensionless check. The verdict is decided as in _check."""
    if not (d > 0):
        raise InvalidParameter("dimension parameter must be positive")
    inv_d = 0.0 if math.isinf(d) else 1.0 / d
    return _check(VertexProblem(chain, x), kappa, inv_d, opts)


def cd_p_check(
    chain: MarkovChain,
    p: float,
    kappa: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Power-entropy condition Psi_2^{(p)} >= kappa/(2-p) Psi^{(p)} at x.

    Minimizes over positive fields F = exp(g) on the two-ball's edge list
    (VertexProblem with p), decided as in _check; the counterexample is F.
    """
    if not 1.0 < p < 2.0:
        raise InvalidParameter(f"p must lie in (1,2), got {p}")
    res = _check(VertexProblem(chain, x, p), kappa / (2.0 - p), 0.0, opts)
    if res.counterexample is not None:
        res.counterexample = np.exp(res.counterexample)
    return res


# -- structural witnesses ---------------------------------------------------------


def no_lower_bound_witness(chain: MarkovChain, x: int, y: int, tau: float) -> np.ndarray:
    """The diverging witness family at a branching edge (x, y).

    Requires a two-ball at x with no triangle or 4-cycle through x and
    M1(x) + M1(y) - 2(k(x,y) + k(y,x)) > 0; the returned field sends the
    curvature ratio at x to -inf as tau -> -inf.
    """
    if chain.rate(x, y) <= 0.0:
        raise ConditionNotMet(f"states {x} and {y} are not adjacent")
    prob = VertexProblem(chain, x)
    if not prob._tree_like():
        raise ConditionNotMet(f"a triangle or 4-cycle passes through state {x}")
    if not _branching(chain, x, y):
        raise ConditionNotMet(
            "M1(x) + M1(y) - 2(k(x,y) + k(y,x)) is not strictly positive"
        )
    i = int(np.flatnonzero(prob.s1 == y)[0])
    return prob.field_from(prob.family_point(i, tau))


def _margin(chain: MarkovChain, x: int, y: int) -> float:
    """M1(x) + M1(y) - 2(k(x,y) + k(y,x)), the divergence margin of (x, y)."""
    return float(
        chain.m1[x] + chain.m1[y] - 2.0 * (chain.rate(x, y) + chain.rate(y, x))
    )


def _branching(chain: MarkovChain, x: int, y: int) -> bool:
    """Whether the margin of (x, y) is positive beyond rounding."""
    return _margin(chain, x, y) > 1e-12 * float(chain.m1[x] + chain.m1[y])


def divergence_candidates(chain: MarkovChain, x: int) -> list:
    """Neighbours y of x satisfying the divergence margin condition."""
    return [int(y) for y in chain.neighbors[x] if _branching(chain, x, int(y))]


def divergence_certificate(chain: MarkovChain, x: int):
    """Detect ratio divergence at x via the witness family's exact asymptote.

    Along the family (one descending neighbour y1, the rest ascending with
    slope tau -> -infty) the ratio approaches the line

        ratio(tau) = (margin/2) tau + C/(2 k(x,y1)),
        margin = M1(x) + M1(y1) - 2(k(x,y1) + k(y1,x)),

    valid when the two-ball of x has no edge inside the first sphere and no
    second-sphere vertex shared by two first-sphere vertices (no triangle or
    4-cycle through x). Divergence is certified when margin > 0; returns
    (tau_star, y1, witness), where y1's line reaches _MINUS_INF_THRESHOLD at
    tau_star and no other neighbour's line gets there first, else None. It
    is the only source of a reported -inf (cd_upsilon_kappa).
    """
    prob = VertexProblem(chain, x)
    if not prob._tree_like():
        return None
    best = None
    for y1 in divergence_candidates(chain, x):
        c1 = chain.rate(x, y1)
        margin = _margin(chain, x, y1)
        offset = -c1 * chain.m1[x] + c1 * (chain.m1[y1] - chain.rate(y1, x))
        for y in chain.neighbors[x]:
            y = int(y)
            if y != y1:
                offset += chain.rate(x, y) * chain.rate(y, x)
        tau_star = (_MINUS_INF_THRESHOLD - 1.0 - offset / (2.0 * c1)) * 2.0 / margin
        if best is None or tau_star > best[0]:
            best = (float(tau_star), y1)
    if best is None:
        return None
    tau_star, y1 = best
    i1 = int(np.flatnonzero(prob.s1 == y1)[0])
    return tau_star, y1, prob.field_from(prob.family_point(i1, -40.0))


# -- example-family certificates ---------------------------------------------------


def birth_death_kappa_bound(a, b, N: int) -> float:
    """Certified positive constant for strictly monotone birth-death rates.

    kappa = min_x sqrt(2 min(da, db) (da + db)) with da = a(x-1) - a(x),
    db = b(x) - b(x-1); requires da, db > 0 at every x in 1..N.
    """
    av = np.array([float(a(i)) if callable(a) else float(a[i]) for i in range(N + 1)])
    bv = np.array([float(b(i)) if callable(b) else float(b[i]) for i in range(N + 1)])
    av[N] = 0.0
    bv[0] = 0.0
    da = av[:-1] - av[1:]
    db = bv[1:] - bv[:-1]
    if np.any(da <= 0.0):
        raise MonotonicityViolated("birth rates must be strictly decreasing")
    if np.any(db <= 0.0):
        raise MonotonicityViolated("death rates must be strictly increasing")
    return float(np.min(np.sqrt(2.0 * np.minimum(da, db) * (da + db))))


def poisson_family_slack(lam: float, kappa: float, n: float, tau: float) -> float:
    """2(Psi_2 - kappa Psi) at vertex n along the linear-slope witness family
    of the Poisson birth-death chain on N_0 (closed form, no truncation)."""
    return float(
        lam * (ups_prime(tau) * tau + ups(-tau) - 2.0 * kappa * ups(tau))
        + n * (omega(-tau) - 2.0 * kappa * ups(-tau))
    )


def poisson_family_violation(lam: float, kappa: float):
    """Smallest witness (n, tau) with negative family slack, or None.

    For any kappa > 0 a violation exists but the vertex index grows like
    exp(1/kappa); this searches tau <= 400.
    """
    if kappa <= 0:
        return None
    best = None
    for tau in np.linspace(0.5, 400.0, 3200):
        gcoef = omega(-tau) - 2.0 * kappa * ups(-tau)
        if gcoef >= 0.0:
            continue
        hcoef = lam * (ups_prime(tau) * tau + ups(-tau) - 2.0 * kappa * ups(tau))
        n = math.floor(hcoef / (-gcoef)) + 1
        if best is None or n < best[0]:
            best = (n, float(tau))
    return best


def star_kappa_certificate(chain: MarkovChain, kappa: float) -> bool:
    """Check the closed-form sufficient conditions for a weighted star.

    True iff k(a_i, x*) - (M1(x*) - k(x*, a_i)) >= kappa and
    k(x*, a_i) >= kappa/(1 + sqrt(3)) for every leaf a_i.
    """
    center = None
    for x in range(chain.n):
        if len(chain.neighbors[x]) == chain.n - 1:
            center = x
            break
    if center is None:
        raise NotAStar("no vertex is adjacent to all others")
    for x in range(chain.n):
        if x != center and set(int(v) for v in chain.neighbors[x]) != {center}:
            raise NotAStar("leaves must be adjacent only to the center")
    m1c = float(chain.m1[center])
    thresh = kappa / (1.0 + math.sqrt(3.0))
    for a in chain.neighbors[center]:
        a = int(a)
        out = chain.rate(center, a)
        if chain.rate(a, center) - (m1c - out) < kappa - 1e-14:
            return False
        if out < thresh - 1e-14:
            return False
    return True


# -- brute-force oracles ------------------------------------------------------------


def ratio_grid_oracle(
    chain: MarkovChain,
    x: int,
    lo: float = -20.0,
    hi: float = 20.0,
    step: float = 0.1,
    refine: float = 1e-4,
) -> float:
    """Grid minimization of the curvature ratio over the reduced variables.

    Exhaustive mesh then successive local refinement down to ``refine``;
    practical for problems with <= 3 reduced variables.
    """
    prob = VertexProblem(chain, x)
    if prob.dim > 3:
        raise InvalidParameter("grid oracle supports at most 3 reduced variables")
    axes = [np.arange(lo, hi + step / 2, step)] * prob.dim
    best_z, best_val = _mesh_min(prob.ratio_batch, axes)
    cur = step
    while cur > refine:
        cur /= 10.0
        axes = [np.arange(c - 10 * cur, c + 10 * cur + cur / 2, cur) for c in best_z]
        z, v = _mesh_min(prob.ratio_batch, axes)
        if v < best_val:
            best_val, best_z = v, z
    return float(best_val)


def check_grid_oracle_raw(
    chain: MarkovChain,
    x: int,
    kappa: float,
    d: float = math.inf,
    lo: float = -8.0,
    hi: float = 8.0,
    step: float = 0.25,
    tol: float = 1e-9,
) -> CheckResult:
    """Brute grid verdict for the (kappa, d) check over the raw two-ball."""
    prob = VertexProblem(chain, x)
    inv_d = 0.0 if math.isinf(d) else 1.0 / d
    axes = [np.arange(lo, hi + step / 2, step)] * prob.raw_dim
    best_z, best_val = _mesh_min(lambda zz: prob.check_batch(zz, kappa, inv_d), axes)
    holds = best_val >= -tol
    counter = None
    if not holds:
        counter = np.zeros(chain.n)
        counter[prob.ball] = best_z
    return CheckResult(holds, float(best_val), counter, {"grid_step": step})


def _mesh_min(batch_fun, axes):
    """(argmin, min) of batch_fun over the full mesh product of ``axes``,
    evaluated one value of the first axis at a time (first minimum wins)."""
    if len(axes) == 1:
        z = axes[0][:, None]
        v = batch_fun(z)
        i = int(np.argmin(v))
        return z[i], float(v[i])
    grids = np.meshgrid(*axes[1:], indexing="ij")
    block = np.empty((grids[0].size, len(axes)))
    block[:, 1:] = np.stack([g.ravel() for g in grids], axis=1)
    best_z, best_val = None, np.inf
    for a in axes[0]:
        block[:, 0] = a
        v = batch_fun(block)
        i = int(np.argmin(v))
        if v[i] < best_val:
            best_z, best_val = block[i].copy(), float(v[i])
    return best_z, best_val


# -- whole-chain reports ---------------------------------------------------------


@dataclass
class CurvatureReport:
    chain_hash: str
    per_vertex: list
    global_kappa_be: float
    global_kappa_upsilon: float
    seed: int
    opts: dict
    any_nonconverged: bool = False

    def to_json_dict(self) -> dict:
        def encode(ku):
            if ku is None or math.isnan(ku):
                return None
            if math.isinf(ku) and ku < 0:
                return "minus_infinity"
            return ku

        per = []
        for rec in self.per_vertex:
            per.append(
                {
                    "vertex": rec["vertex"],
                    "state": rec["state"],
                    "kappa_be": rec["kappa_be"],
                    "kappa_upsilon": encode(rec["kappa_upsilon"]),
                    "slack": rec["slack"],
                    "witness": [float(v) for v in rec["witness"]],
                }
            )
        return {
            "chain_hash": self.chain_hash,
            "per_vertex": per,
            "global": {
                "kappa_be": self.global_kappa_be,
                "kappa_upsilon": encode(self.global_kappa_upsilon),
            },
            "seed": self.seed,
            "opts": self.opts,
        }


def chain_hash(chain: MarkovChain) -> str:
    doc = spec_dict(chain)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _vertex_record(chain: MarkovChain, x: int, opts: CurvatureOptions) -> dict:
    kbe, witness_be = bakry_emery_kappa(chain, x)
    rec = {"vertex": x, "state": chain.states[x], "kappa_be": kbe, "witness_be": witness_be}
    try:
        est = cd_upsilon_kappa(chain, x, opts)
    except NonConvergence as exc:
        return dict(
            rec, kappa_upsilon=float("nan"), slack=0.0, witness=np.zeros(chain.n),
            diagnostics=dict(exc.diagnostics, nonconverged=True),
        )
    witness = est.witness if est.witness is not None else np.zeros(chain.n)
    slack = 0.0
    if not est.minus_infinity:
        prob = VertexProblem(chain, x)
        _, psi, two_psi2 = prob._objective(witness[prob.ball[: prob.dim]])
        if psi > 0:
            slack = float(0.5 * two_psi2 - est.kappa * psi)
    return dict(
        rec, kappa_upsilon=est.kappa, slack=slack, witness=witness, diagnostics=est.diagnostics
    )


def chain_curvature_report(
    chain: MarkovChain, opts: CurvatureOptions = DEFAULT_OPTIONS
) -> CurvatureReport:
    """Per-vertex Bakry-Emery and exponential-calculus constants.

    Results are deterministic because every vertex draws from its own
    (seed, vertex) generator.
    """
    records = [_vertex_record(chain, x, opts) for x in range(chain.n)]
    kbe = min(r["kappa_be"] for r in records)
    kus = [r["kappa_upsilon"] for r in records]
    finite = [k for k in kus if not math.isnan(k)]
    nonconverged = len(finite) < len(kus)
    return CurvatureReport(
        chain_hash=chain_hash(chain),
        per_vertex=records,
        global_kappa_be=float(kbe),
        global_kappa_upsilon=float(min(finite)) if finite else float("nan"),
        seed=opts.seed,
        opts={
            "starts": opts.starts,
            "amplitude": _AMPLITUDE,
            "minus_inf_threshold": _MINUS_INF_THRESHOLD,
        },
        any_nonconverged=nonconverged,
    )
