"""Per-vertex optimal curvature constants and certified checks.

Both curvature notions are local: the quadratic one (Bakry-Emery) reduces to
a generalized eigenvalue problem on the two-ball, the exponential one to a
smooth nonconvex minimization that we attack with an exact inner reduction
over "private" second-sphere values plus a multi-start modified Newton
descent on the exact Hessian, whose small-field limit is that same
eigenvalue problem.
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
    _finite_kappa,
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
    ``bound`` is the box of every descent. ``maxiter`` caps the Newton
    iterations of the lockstep descent (a row still descending then goes to
    L-BFGS-B) and the iterations of each L-BFGS-B hand-off.
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
# Above this K u the p-kernel's private minimum is evaluated in its scaled
# form (VertexProblem._private_min): e^600 times its brackets is finite.
_PRIVATE_SCALED = 600.0


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

    The rate arrays ``c``, ``coef``, ``m1x`` and ``_priv_coef`` carry a
    leading problem axis, of length 1 for one vertex. ``stack`` joins
    problems with equal ``_shape_key`` into one whose kernel evaluates each
    row for the problem given by a per-row index (see _objective), over the
    structural arrays of the first. The rows of one problem come in runs,
    and each run's rate-weighted sums are the matrix-vector products a lone
    problem's call makes (_weighted).

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
        self.c = np.array(chain.rates[x], dtype=float)[None]
        self.m1x = self.c.sum(axis=1)
        m1 = len(s1)
        pos1 = {y: i for i, y in enumerate(s1)}
        # k(y, x) and M1(y) per y in S1: with c and M1(x) they give the
        # witness family's lines (_family_lines)
        self._kyx = np.empty(m1)
        self._m1y = chain.m1[self.s1]

        into_x, into_s1 = [], []
        s2_hits: dict[int, list[tuple[int, float]]] = {}
        for iy, (y, cy) in enumerate(zip(s1, self.c[0].tolist())):
            for z, kyz in zip(chain.neighbors[y].tolist(), chain.rates[y].tolist()):
                coef = cy * kyz
                if z == self.x:
                    self._kyx[iy] = kyz
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
        self.coef = np.array(coef, dtype=float)[None]
        n_edges = len(self.src)
        self._n_red = n_edges - len(private)
        cols = np.arange(n_edges)
        self.diff = np.zeros((self.raw_dim, n_edges))
        self.diff[self.src, cols] = -1.0
        into_ball = self.tgt >= 0
        self.diff[self.tgt[into_ball], cols[into_ball]] = 1.0
        self._diff_red = np.ascontiguousarray(self.diff[: self.dim, : self._n_red])
        self._src_inc = (self.src[:, None] == np.arange(m1)).astype(float)
        # the y with private edges, and the sum over those edges of c_y k(y, z)
        priv_coef = np.bincount(
            self.src[self._n_red :], self.coef[0, self._n_red :], minlength=m1
        )
        self._priv_rows = np.flatnonzero(priv_coef)
        self._priv_coef = priv_coef[self._priv_rows][None]
        self._hess_bases: dict = {}

    def _shape_key(self) -> tuple:
        """Problems with equal keys share the reduced kernel's structure:
        variables, explicit edges, private rows and p."""
        n = self._n_red
        return (self.m1, self.m2, self.src[:n].tobytes(), self.tgt[:n].tobytes(),
                self._priv_rows.tobytes(), self.a)

    @classmethod
    def stack(cls, problems: list) -> "VertexProblem":
        """One problem over the rate arrays of ``problems`` (equal
        ``_shape_key``), in order, sharing the first one's structural
        arrays and Hessian bases; one problem is returned as it is. A stack
        evaluates only the reduced form (the private edges of its problems
        differ), and it has no chain, vertex or ball."""
        first = problems[0]
        if len(problems) == 1:
            return first
        out = cls.__new__(cls)
        for name in ("a", "_priv_factor", "m1", "m2", "dim", "src", "tgt", "_n_red",
                     "diff", "_diff_red", "_src_inc", "_priv_rows", "_hess_bases"):
            setattr(out, name, getattr(first, name))
        out.raw_dim = first.raw_dim if first.raw_dim == first.dim else None
        n = first._n_red
        out.c = np.concatenate([q.c for q in problems])
        out.coef = np.concatenate([q.coef[:, :n] for q in problems])
        out.m1x = np.concatenate([q.m1x for q in problems])
        out._priv_coef = np.concatenate([q._priv_coef for q in problems])
        return out

    def _rates(self, k):
        """(c, coef, m1x, private coef) per row: of problem k[row], or of
        the only problem for every row (k None, or a single problem)."""
        if k is None or len(self.m1x) == 1:
            return self.c[0], self.coef[0], self.m1x[0], self._priv_coef[0]
        return self.c[k], self.coef[k], self.m1x[k], self._priv_coef[k]

    def _runs(self, k):
        """(problem, first row, end row) of each run of equal k, or None
        where every row has the only problem (as in _rates)."""
        if k is None or len(self.m1x) == 1:
            return None
        cut = np.flatnonzero(k[1:] != k[:-1]) + 1
        lo, hi = np.concatenate([[0], cut]), np.concatenate([cut, [len(k)]])
        return list(zip(k[lo].tolist(), lo.tolist(), hi.tolist()))

    def _tree_like(self) -> bool:
        """No edge inside S1 and no shared S2 vertex: no triangle or 4-cycle
        passes through x, the two-ball condition of the witness family."""
        return not (self.m2 or np.any((self.tgt >= 0) & (self.tgt < self.m1)))

    def _family_lines(self):
        """(margin, intercept, branching) per neighbour y = s1[i].

        On a tree-like two-ball the ratio along the witness family through
        y (family_point(i, tau)) approaches the line (margin/2) tau +
        intercept from above as tau -> -inf, where

            margin    = M1(x) + M1(y) - 2(k(x,y) + k(y,x)),
            intercept = C / (2 k(x,y)),
            C         = k(x,y) (M1(y) - k(y,x) - M1(x))
                        + sum_{y' != y} k(x,y') k(y',x),

        so the line is one unit below a level at tau = (level - 1 -
        intercept) 2 / margin. ``branching`` marks a margin positive beyond
        rounding: there the ratio falls to -inf. C sums the other neighbours
        in S1 order, as a scalar loop over them would.
        """
        c, m1x, kyx, m1y = self.c[0], self.m1x[0], self._kyx, self._m1y
        margin = m1x + m1y - 2.0 * (c + kyx)
        cross = c * kyx
        offset = -c * m1x + c * (m1y - kyx)
        i = np.arange(self.m1)
        for j in range(self.m1):
            offset += np.where(i != j, cross[j], 0.0)
        return margin, offset / (2.0 * c), margin > 1e-12 * (m1x + m1y)

    # -- the objective kernel (last axis of z is the variable vector) ----------

    def _edges(self, width: int):
        """(incidence, number of explicit edges) for a ``width``-wide z.

        ``raw_dim`` makes every edge explicit; ``dim`` leaves the private
        edges to the exact inner minimum.
        """
        if width == self.raw_dim:
            return self.diff, len(self.src)
        return self._diff_red, self._n_red

    def _r(self, s):
        """r(s) = ups(a s)/a, the power entropy's part of its terms."""
        return ups(self.a * s) / self.a

    def _objective(self, z: np.ndarray, grad: bool = False, hess: bool = False, k=None):
        """Lf(x), Psi(f)(x) and 2 Psi_2(f)(x) with f(x) = 0 and f|ball = z
        (L phi_p', Psi^(p) and 2 Psi_2^(p) of F = e^f for p > 1).

        ``z.shape[-1]`` decides raw versus reduced (see _edges); the
        reduced form takes each private edge at its exact inner minimum.
        ``k`` (shape ``z.shape[:-1]``) is each row's problem in a stack
        (_rates); each run of one problem's rows is summed as that problem
        alone sums the same rows (_weighted).
        With ``grad`` also returns dPsi/du and d(2 Psi_2)/dz; with ``hess``
        also the Hessian d^2(2 Psi_2)/dz^2 over the last two axes.
        """
        z = np.asarray(z, dtype=float)
        c, coef, m1x, priv_coef = self._rates(k)
        runs = self._runs(k)
        u = z[..., : self.m1]
        diff, n = self._edges(z.shape[-1])
        d = z @ diff
        src, coef = self.src[:n], coef[..., :n]
        upv = ups_prime(u)
        upv_src = upv[..., src]
        lf = _weighted(u, self.c, runs)
        psi = _weighted(ups(u), self.c, runs)
        s = _weighted(upv, self.c, runs)
        edge = ups(d) - upv_src * d
        eu = np.exp(u)
        eu_src = eu[..., src]
        if self.a:
            ru, rd = self._r(u), self._r(d)
            r_sum = _weighted(ru, self.c, runs)
            lf = lf + r_sum
            psi = psi - r_sum
            eau = np.exp(self.a * u)
            eau_src = eau[..., src]
            edge = eau_src * (edge - eu_src * rd)
        two_psi2 = _weighted(edge, self.coef[:, :n], runs) + s * lf - m1x * psi
        reduced = n < len(self.src)
        if reduced:
            rows = self._priv_rows
            priv = self._private_min(u[..., rows], 2 if hess else int(grad))
            two_psi2 = two_psi2 + _weighted(priv[0], self._priv_coef, runs)
        if not (grad or hess):
            return lf, psi, two_psi2
        m1x = m1x[..., None]
        # per edge y -> z, the kernel T(d, u_y) = edge differentiated in d and u_y
        t_d, dpsi, s_u = ups_prime(d) - upv_src, c * upv, s[..., None]
        if self.a:
            t_d = eau_src * (t_d - eu_src * ups_prime(self.a * d))
            dpsi = dpsi - c * ups_prime(self.a * u)
            s_u = eau * s_u  # dLf/du = c e^{a u}
            # each edge term's own u_y-derivative: a T - e^{(1+a) u_y} (d + r(d))
            t_u = self.a * edge - eu_src * eau_src * (d + rd)
            own = (coef * t_u) @ self._src_inc[:n]
        else:
            own = -eu * ((coef * d) @ self._src_inc[:n])
        g = (coef * t_d) @ diff.T
        g[..., : self.m1] += c * (eu * lf[..., None] + s_u) + own - m1x * dpsi
        if reduced:
            g[..., rows] += priv_coef * priv[1]
        if not hess:
            return lf, psi, two_psi2, dpsi, g
        # T_dd, T_du and T_uu; the edge's Hessian is T_dd diff diff^T
        # + T_du (diff e_y^T + e_y diff^T) + T_uu e_y e_y^T (_hess_basis)
        ed = np.exp(d)
        if self.a:
            ead = np.exp(self.a * d)
            t_dd = eau_src * (ed - self.a * eu_src * ead)
            t_du = self.a * t_d - eau_src * eu_src * ead
            t_uu = (2.0 * self.a + 1.0) * t_u - self.a * (1.0 + self.a) * edge
            dl, d2l = c * eau, self.a * c * eau
            d2psi = c * (eu - self.a * eau)
        else:
            t_dd, t_du, t_uu = ed, -eu_src, -eu_src * d
            dl, d2l, d2psi = c, 0.0, c * eu
        w = np.concatenate([coef * t_dd, coef * t_du, coef * t_uu], axis=-1)
        h = (w @ self._hess_basis(z.shape[-1])).reshape(z.shape + z.shape[-1:])
        ds = c * eu
        diag = ds * lf[..., None] + s[..., None] * d2l - m1x * d2psi
        if reduced:
            diag[..., rows] += priv_coef * priv[2]
        huu = h[..., : self.m1, : self.m1]
        cross = ds[..., :, None] * dl[..., None, :]
        huu += cross + np.swapaxes(cross, -1, -2)
        i = np.arange(self.m1)
        huu[..., i, i] += diag
        return lf, psi, two_psi2, dpsi, g, h

    def _hess_basis(self, width: int) -> np.ndarray:
        """(3 n, width^2) matrix that maps per-edge (T_dd, T_du, T_uu) times
        coef to the flattened edge Hessian (see _objective)."""
        basis = self._hess_bases.get(width)
        if basis is None:
            diff, n = self._edges(width)
            de = diff[:width, :n].T  # per edge, the gradient of d
            ey = np.zeros((n, width))
            ey[np.arange(n), self.src[:n]] = 1.0
            dd = de[:, :, None] * de[:, None, :]
            du = de[:, :, None] * ey[:, None, :]
            uu = ey[:, :, None] * ey[:, None, :]
            basis = np.concatenate([dd, du + du.transpose(0, 2, 1), uu]).reshape(3 * n, -1)
            self._hess_bases[width] = basis
        return basis

    @np.errstate(over="ignore")
    def _private_min(self, u: np.ndarray, order: int):
        """[T(d*), dT(d*)/du_y, d^2 T(d*)/du_y^2][: order + 1] per unit
        c_y k(y, z) of a private edge out of each y (see the class docstring).

        For p > 1, T(d*) = e^{a u} [ups(u) - (1 - a) ups(d*)]/a, with
        dT(d*)/du = a T - e^{(1+a) u} ups'(a d*)/a and d^2 T(d*)/du^2 =
        (2a + 1) T' - a (1 + a) T - e^{K u}/(1 - a), K = a + 1/(1 - a).
        Where K u > _PRIVATE_SCALED the direct form would overflow (ups(d*)
        and e^{u} r(d*) grow like e^{d*}), so all three are evaluated as
        e^{K u} times brackets in e^{-a d*} and e^{-d*}, which stay bounded;
        a value too large for a float then reads -inf, not nan.
        """
        if not self.a:
            out = [-omega(u)]
            if order:
                out.append(-omega_prime(u))
            if order > 1:
                out.append(-(1.0 + u) * np.exp(u))
            return out
        a = self.a
        ku = (a + 1.0 / (1.0 - a)) * u
        big = ku > _PRIVATE_SCALED
        um = np.where(big, 0.0, u)
        dm = um / (1.0 - a)
        eu, eau = np.exp(um), np.exp(a * um)
        rds = self._r(dm)
        t = eau * (ups(dm) - ups_prime(um) * dm - eu * rds)
        t1 = a * t - eu * eau * (dm + rds)
        eku = eau * np.exp(dm)
        t2 = (2.0 * a + 1.0) * t1 - a * (1.0 + a) * t - eku / (1.0 - a)
        out = [t, t1, t2]
        if np.any(big):
            db = np.where(big, u, 0.0) / (1.0 - a)
            em = np.expm1(-a * db)
            b0 = (em + a) / a - np.exp(-db)
            b1 = a * b0 + em / a
            b2 = (2.0 * a + 1.0) * b1 - a * (1.0 + a) * b0 - 1.0 / (1.0 - a)
            eku = np.exp(np.where(big, ku, 0.0))
            out = [np.where(big, eku * b, x) for b, x in zip((b0, b1, b2), out)]
        return out[: order + 1]

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
        c, coef, m1x, priv_coef = self._rates(None)
        u = z[..., : self.m1]
        diff, n = self._edges(z.shape[-1])
        d = z @ diff
        upv = ups_prime(u)
        terms, rounding = self._edge_terms(d, u, upv, self.src[:n])
        computed = self.tgt[:n] >= 0
        acc = (terms + np.where(computed, rounding, 0.0)) @ coef[:n]
        lf_terms, psi_terms = np.abs(u), _ups_terms(u)
        if self.a:
            r_terms = _ups_terms(self.a * u) / self.a
            lf_terms, psi_terms = lf_terms + r_terms, psi_terms + r_terms
        up = u[..., self._priv_rows]
        if n < len(self.src) and self.a:  # the edge terms at d*, computed
            terms, rounding = self._edge_terms(
                up / (1.0 - self.a), up, upv[..., self._priv_rows], slice(None)
            )
            acc = acc + (terms + rounding) @ priv_coef
        elif n < len(self.src):
            acc = acc + _omega_terms(up) @ priv_coef
        lf_abs = lf_terms @ c
        acc = acc + (np.abs(upv) @ c) * lf_abs
        psi_terms = psi_terms @ c
        acc = 0.5 * (acc + m1x * psi_terms) + abs(kappa) * psi_terms
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

    # -- value, gradient and Hessian ------------------------------------------------
    # The ratio is the one objective of every descent (_multistart), for the
    # constant and for each check: _ratio works over the last axis of z (the
    # lockstep rows), ratio_value_grad is what a single L-BFGS-B descent
    # calls. check_value_grad is the slack's value and gradient at one point.

    def _dlf(self, z: np.ndarray, c: np.ndarray):
        """dLf/du at z for rates c (d L phi_p'/du = c e^{a u} for p > 1)."""
        u = np.asarray(z, dtype=float)[..., : self.m1]
        return c * np.exp(self.a * u) if self.a else c

    def _ratio(self, z: np.ndarray, inv_d: float = 0.0, order: int = 1, k=None):
        """(2 Psi_2 - 2 inv_d (Lf)^2) / (2 Psi), with its gradient for
        ``order`` >= 1 and its Hessian for ``order`` 2; a flat point
        (Psi = 0) reads 1e100 with gradient and Hessian 0. ``k`` is each
        row's problem, as in _objective.

        With N the numerator and P = 2 Psi, the gradient is (N' - R P')/P
        and the Hessian (N'' - R P'' - R' P'^T - P' R'^T)/P.
        """
        z = np.asarray(z, dtype=float)
        out = self._objective(z, grad=order > 0, hess=order > 1, k=k)
        lf, psi, two_psi2 = out[:3]
        if inv_d:
            two_psi2 = two_psi2 - 2.0 * inv_d * lf * lf
        flat = psi < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            val = two_psi2 / (2.0 * psi)
        if not order:
            return np.where(flat, 1e100, val)
        m1, c = self.m1, self._rates(k)[0]
        dpsi, g = out[3:5]
        if inv_d:
            dl = self._dlf(z, c)
            g[..., :m1] -= 4.0 * inv_d * lf[..., None] * dl
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = g / (2.0 * psi[..., None])
            grad[..., :m1] -= val[..., None] * dpsi / psi[..., None]
        grad[flat] = 0.0
        if order == 1:
            return np.where(flat, 1e100, val), grad
        h = out[5]
        u, i = z[..., :m1], np.arange(m1)
        d2psi = c * np.exp(u)
        if self.a:
            eau = c * np.exp(self.a * u)
            d2psi = d2psi - self.a * eau
        if inv_d:
            huu = h[..., :m1, :m1]
            huu -= 4.0 * inv_d * dl[..., :, None] * dl[..., None, :]
            if self.a:  # d^2 Lf/du^2 = a c e^{a u}
                huu[..., i, i] -= 4.0 * inv_d * self.a * lf[..., None] * eau
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hr = h / (2.0 * psi[..., None, None])
            hr[..., i, i] -= val[..., None] * d2psi / psi[..., None]
            cross = grad[..., :, None] * (dpsi / psi[..., None])[..., None, :]
            hr[..., :, :m1] -= cross
            hr[..., :m1, :] -= np.swapaxes(cross, -1, -2)
        hr[flat] = 0.0
        return np.where(flat, 1e100, val), grad, hr

    def ratio_value_grad(self, z: np.ndarray, inv_d: float = 0.0):
        val, grad = self._ratio(z, inv_d)
        return float(val), grad

    def check_value_grad(self, z: np.ndarray, kappa: float, inv_d: float = 0.0):
        """check_batch(z, kappa, inv_d) and its gradient at one point."""
        lf, psi, two_psi2, dpsi, g = self._objective(z, grad=True)
        val = 0.5 * two_psi2 - kappa * psi - inv_d * lf * lf
        grad = 0.5 * g
        grad[: self.m1] -= kappa * dpsi + 2.0 * inv_d * lf * self._dlf(z, self.c[0])
        return float(val), grad

    def _limit_direction(self, inv_d: float = 0.0):
        """The small-field limit of the ratio: (kappa_0, v).

        Along z = eps v the ratio tends, as eps -> 0, to v^T N v / v^T P v,
        N and P the Hessians at 0 of its numerator and of 2 Psi (both vanish
        to second order there). P lives on S1 and N's shared-S2 block is
        diagonal and positive, so shared S2 is eliminated exactly and the
        infimum over v is the least eigenvalue kappa_0 of a generalized
        symmetric problem; at p = 1 and inv_d = 0 this is Bakry-Emery's
        Gamma_2/Gamma (bakry_emery_kappa). v minimises it, with max |v| = 1.
        A problem of one vertex only (not a stack).
        """
        m1, c = self.m1, self.c[0]
        h = self._objective(np.zeros(self.dim), hess=True)[5]
        huu, huw, hww = h[:m1, :m1], h[:m1, m1:], h[m1:, m1:]
        huu = huu - 4.0 * inv_d * np.outer(c, c)  # dLf/du = c at 0
        schur = huu - huw @ np.linalg.solve(hww, huw.T) if self.m2 else huu
        vals, vecs = scipy.linalg.eigh(schur, np.diag(2.0 * (1.0 - self.a) * c))
        u = vecs[:, 0]
        v = np.concatenate([u, -np.linalg.solve(hww, huw.T @ u)]) if self.m2 else u
        return float(vals[0]), v / np.abs(v).max()

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


def _weighted(x: np.ndarray, w: np.ndarray, runs) -> np.ndarray:
    """x @ w[j] over the last axis, w[j] the rates of each row's problem j:
    x @ w[0] for a single problem (runs None), else one matrix-vector
    product per run (VertexProblem._runs). BLAS rounds a row of a
    matrix-vector product according to its place among the rows of the
    call, so a run's rows are summed as a call of that problem alone over
    the same rows sums them."""
    if runs is None:
        return x @ w[0]
    out = np.empty(x.shape[:-1])
    for j, lo, hi in runs:
        out[lo:hi] = x[lo:hi] @ w[j]
    return out


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
    return _bakry_emery(VertexProblem(chain, x))


def _bakry_emery(prob: VertexProblem):
    """bakry_emery_kappa on the built problem of its vertex."""
    m1, chain = prob.m1, prob.chain
    c, coef, m1x, _ = prob._rates(None)
    # column e of `a` is f(z) - 2 u_y on edge e, over the raw columns
    a = prob.diff.copy()
    a[prob.src, np.arange(len(prob.src))] -= 1.0
    q = (a * coef) @ a.T
    quu, quv, qvv = q[:m1, :m1], q[:m1, m1:], np.diag(q)[m1:]
    # -sum_y c_y M1(y) u_y^2 + 2 (Lf)^2 - M1(x) sum c_y u_y^2
    quu[np.diag_indices(m1)] -= c * prob._m1y + m1x * c
    quu += 2.0 * np.outer(c, c)
    quu = quu - (quv / qvv) @ quv.T
    b = 2.0 * np.diag(c)
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
# Multiples of the Newton step tried in the line search's first call: far
# out the ratio is exponential, and the unit step advances about one unit;
# near the small-field limit the step is about -z, and 0.9 and 0.99 of it
# shrink z 10 and 100 times where the unit step lands on the flat f = 0;
# 0.5 and 0.25 spare most rows the ladder where the unit step overshoots.
_STEPS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 0.99, 0.9, 0.5, 0.25])
# Backtracking steps tried, all at once, when no step of _STEPS passes.
_LADDER = 0.5 ** np.arange(1, 31)
# Modified Newton: each eigenvalue of a row's Hessian is replaced by its
# modulus, floored at this fraction of the row's largest modulus.
_EIG_FLOOR = 1e-10
# Small-field limit (VertexProblem._limit_direction): its candidate points
# are +-_LIMIT_SCALE v, and a row inside the max-norm ball _LIMIT_RADIUS
# whose ratio is not below theirs stops there.
_LIMIT_SCALE = 1e-7
_LIMIT_RADIUS = 1e-3
# Rows times (explicit edges + dim^2) per kernel call of the line search,
# and per lockstep (_estimates): bounds each temporary of a call, and the rows'
# state (z, gradients, Hessians), at a few MB on large two-balls.
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


def _armijo(z0, f0, g0, z1, f1) -> np.ndarray:
    """Whether each step z0 -> z1 (over the last axis) decreases enough;
    a value of -inf (an overflow of the p-kernel) always does."""
    bound = f0 + _ARMIJO * np.einsum("...i,...i->...", g0, z1 - z0)
    return (np.isfinite(f1) & (f1 <= bound)) | (f1 == -np.inf)


def _usable(f, g, h) -> np.ndarray:
    """Rows whose value, gradient and Hessian are finite, or whose value is
    -inf (such a row has nowhere lower to go)."""
    finite = np.isfinite(g).all(axis=-1) & np.isfinite(h).all(axis=(-2, -1))
    return (np.isfinite(f) & finite) | (f == -np.inf)


def _block(prob: VertexProblem) -> int:
    """Rows per kernel call of the reduced kernel of ``prob``'s shape."""
    return max(1, _BLOCK_ELEMENTS // (prob._n_red + prob.dim**2))


def _in_blocks(batch_fun, z, k, block: int):
    """batch_fun(z, k) over the rows of z and their problems k, at most
    ``block`` rows per call. Each run of one problem's rows is cut every
    ``block`` rows from its start, where a call of that problem alone cuts
    it, and calls take whole pieces (see _weighted)."""
    if len(z) <= block:
        return batch_fun(z, k)
    first = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    ends = np.append(first[1:], len(z))
    cuts = np.concatenate([np.arange(lo, hi, block) for lo, hi in zip(first, ends)])
    calls, lo = [], 0
    for a, b in zip(cuts, np.append(cuts[1:], len(z))):
        if b - lo > block:
            calls.append((lo, a))
            lo = a
    calls.append((lo, len(z)))
    parts = [batch_fun(z[a:b], k[a:b]) for a, b in calls]
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return tuple(np.concatenate(out) for out in zip(*parts))


def _newton_direction(g, h, held):
    """-H~^{-1} g per row over the variables not ``held`` (0 on those), H~
    the row's Hessian with each eigenvalue replaced by max(|lambda|, |g_i|,
    _EIG_FLOOR max |lambda|), g_i the gradient along its eigenvector: a
    descent direction that is the Newton step near a minimum where H is
    positive definite (g -> 0 there), and moves at most one unit along each
    eigenvector of small or negative curvature."""
    if held.any():
        free = ~held
        g = np.where(free, g, 0.0)
        h = np.where(free[:, :, None] & free[:, None, :], h, 0.0)
        r, i = np.nonzero(held)
        h[r, i, i] = 1.0
    lam, vec = np.linalg.eigh(h)
    gv = np.einsum("rji,rj->ri", vec, g)
    floor = np.maximum(_EIG_FLOOR * np.abs(lam).max(axis=-1), np.finfo(float).tiny)
    mag = np.maximum(np.maximum(np.abs(lam), np.abs(gv)), floor[:, None])
    return -np.einsum("rij,rj->ri", vec, gv / mag)


def _line_search(fun, z, prob_of, f, g, p, lo, hi, block: int):
    """Armijo search from the rows z (of problems prob_of) along p, clipped
    to [lo, hi].

    One call of values at every multiple _STEPS of p (a step longer than p
    counts only where the box does not clip it) keeps, per row, the lowest
    value that passes Armijo; rows where none passes try the ladder _LADDER
    in one more call and keep its longest passing step. A last call takes
    the gradient and Hessian at the accepted points. Calls take at most
    ``block`` rows. Returns (ok, step, z1, f1, g1, h1): ``step`` is the
    unclipped point the accepted ``z1`` was clipped from; a row whose
    gradient or Hessian is not finite there is not ok.
    """
    n, dim = z.shape

    def trials(rows, mult):
        steps = z[rows, None] + mult[:, None] * p[rows, None]
        zt = np.clip(steps, lo, hi)
        kt = np.repeat(prob_of[rows], len(mult))
        ft = _in_blocks(
            lambda zz, kk: fun(zz, kk, 0), zt.reshape(-1, dim), kt, block
        ).reshape(zt.shape[:2])
        return steps, zt, ft, _armijo(z[rows, None], f[rows, None], g[rows, None], zt, ft)

    rows = np.arange(n)
    steps, zt, ft, passed = trials(rows, _STEPS)
    passed &= (_STEPS <= 1.0) | np.all(zt == steps, axis=-1)
    k = np.argmin(np.where(passed, ft, np.inf), axis=1)
    step, z1, f1 = steps[rows, k], zt[rows, k], ft[rows, k]
    ok = passed.any(axis=1)
    back = np.flatnonzero(~ok)
    if back.size:
        steps, zt, ft, passed = trials(back, _LADDER)
        hit = np.flatnonzero(passed.any(axis=1))
        k = np.argmax(passed[hit], axis=1)  # the longest step that passes
        rows = back[hit]
        step[rows], z1[rows], f1[rows] = steps[hit, k], zt[hit, k], ft[hit, k]
        ok[rows] = True
    g1, h1 = np.zeros_like(z), np.zeros((n, dim, dim))
    rows = np.flatnonzero(ok)
    if rows.size:
        f1[rows], g1[rows], h1[rows] = _in_blocks(
            lambda zz, kk: fun(zz, kk, 2), z1[rows], prob_of[rows], block
        )
        ok[rows] = _usable(f1[rows], g1[rows], h1[rows])
    return ok, step, z1, f1, g1, h1


def _lockstep(fun, z, prob_of, opts: CurvatureOptions, block: int, limit):
    """Projected modified Newton from every row of ``z`` at once.

    ``fun(z, k, order)`` is the objective over the last axis of z, each
    row's problem given by k (rows z[i] have problems prob_of[i]; see
    VertexProblem.stack): its value, and for
    ``order`` 2 also its gradient and Hessian. Each iteration steps
    every active row along its modified Newton direction (_newton_direction)
    with the line search _line_search: one call at the trial points, plus
    two for the rows that backtrack. A row converges on the projected-
    gradient or the relative-decrease rule (_GTOL, _FTOL), at a value of
    -inf, or when it enters the small-field ball (_LIMIT_RADIUS) at a value
    not below its ``limit``, the ratio at its problem's limit candidates (see
    _multistart); it is handed off to L-BFGS-B when its accepted step was
    clipped by the box, when no step satisfies Armijo, when its gradient or
    Hessian is not finite, or at ``opts.maxiter``; it fails when its start
    value is not finite. Every row ends in one of these three ways, whatever
    its value. ``block`` caps the rows of one call. Returns (z, values,
    status), status per row one of _CONVERGED, _HANDOFF, _FAIL.
    """
    lo, hi = -opts.bound, opts.bound
    z = z.copy()
    f, g, h = _in_blocks(lambda zz, kk: fun(zz, kk, 2), z, prob_of, block)
    status = np.where(np.isfinite(f), _ACTIVE, _FAIL)
    status[f == -np.inf] = _CONVERGED
    status[(status == _ACTIVE) & ~_usable(f, g, h)] = _HANDOFF
    for it in range(opts.maxiter + 1):
        act = np.flatnonzero(status == _ACTIVE)
        za = z[act]
        pg = np.abs(np.clip(za - g[act], lo, hi) - za).max(axis=1)
        settled = (np.abs(za).max(axis=1) <= _LIMIT_RADIUS) & (f[act] >= limit[act])
        done = (pg <= _GTOL) | settled
        status[act[done]] = _CONVERGED
        act = act[~done]
        if it == opts.maxiter:
            status[act] = _HANDOFF
        if not act.size or it == opts.maxiter:
            break
        za, fa, ga = z[act], f[act], g[act]
        # variables at the box that the gradient, or else the step, would
        # move outward stay fixed
        held = ((za == lo) & (ga > 0)) | ((za == hi) & (ga < 0))
        p = _newton_direction(ga, h[act], held)
        out = ((za == lo) & (p < 0)) | ((za == hi) & (p > 0))
        if out.any():
            p = _newton_direction(ga, h[act], held | out)
        ok, step, zt, ft, gt, ht = _line_search(fun, za, prob_of[act], fa, ga, p, lo, hi, block)
        status[act[~ok]] = _HANDOFF
        act, fa, step = act[ok], fa[ok], step[ok]
        zt, ft, gt, ht = zt[ok], ft[ok], gt[ok], ht[ok]
        z[act], f[act], g[act], h[act] = zt, ft, gt, ht
        floor = ft == -np.inf  # converged: nowhere lower to go
        ft = np.where(floor, fa, ft)
        clipped = np.any(zt != step, axis=1) & ~floor
        rel = (fa - ft) / np.maximum(np.maximum(np.abs(fa), np.abs(ft)), 1.0)
        status[act[clipped]] = _HANDOFF
        status[act[~clipped & (rel <= _FTOL)]] = _CONVERGED
    return z, f, status


def _multistart(probs: list, starts: list, inv_d: float, opts: CurvatureOptions) -> list:
    """Minimize the ratio (2 Psi_2 - 2 inv_d (Lf)^2)/(2 Psi) of each problem
    of ``probs`` (equal _shape_key) from every one of its ``starts`` (the
    same number each); returns, per problem, a VertexEstimate or the
    NonConvergence to raise for it.

    The starts of every problem descend in one lockstep (_lockstep) over
    the problems' stack; each handed-off row is finished by one L-BFGS-B
    descent on its own problem from where it stopped, the only other
    descent. The small-field limit
    (VertexProblem._limit_direction) adds two candidates per problem,
    +-_LIMIT_SCALE v: where the infimum is only approached as f -> 0 they
    hold it (to O(_LIMIT_SCALE^2)), and rows that reach the limit stop
    there. A problem's winner is the lowest of its rows and candidates. Its
    diagnostics count how each of its starts ended: ``n_converged`` in
    lockstep, ``n_handoff`` to L-BFGS-B, ``n_fail`` at a non-finite start;
    they sum to ``n_starts``.
    """
    stack = VertexProblem.stack(probs)
    n_starts, ids = len(starts[0]), np.arange(len(probs))

    def fun(zz, kk, order):
        return stack._ratio(zz, inv_d, order, kk)

    v = np.array([q._limit_direction(inv_d)[1] for q in probs])
    zl = _LIMIT_SCALE * np.stack([v, -v], axis=1)
    fl = fun(zl.reshape(-1, stack.dim), np.repeat(ids, 2), 0).reshape(len(probs), 2)
    row_prob = np.repeat(ids, n_starts)
    z, f, status = _lockstep(
        fun, np.concatenate(starts), row_prob, opts, _block(stack), fl.min(axis=1)[row_prob]
    )
    out = []
    for j, q in enumerate(probs):
        rows = slice(j * n_starts, (j + 1) * n_starts)
        zj, fj, sj = z[rows], f[rows], status[rows]
        diag = {
            "n_starts": n_starts,
            "n_fail": int(np.sum(sj == _FAIL)),
            "n_converged": int(np.sum(sj == _CONVERGED)),
            "n_handoff": int(np.sum(sj == _HANDOFF)),
        }
        for i in np.flatnonzero(sj == _HANDOFF):
            res = _lbfgsb(lambda zz: q.ratio_value_grad(zz, inv_d), zj[i], opts)
            if res.fun < fj[i]:
                zj[i], fj[i] = res.x, res.fun
        finite = sj != _FAIL
        if not finite.any():
            out.append(NonConvergence("no start converged to a finite value", diagnostics=diag))
            continue
        zc, fc = np.vstack([zj[finite], zl[j]]), np.concatenate([fj[finite], fl[j]])
        best = int(np.argmin(fc))
        best_val = float(fc[best])
        out.append(VertexEstimate(q.x, best_val, q.field_from(zc[best]),
                                  dict(diag, best_val=best_val)))
    return out


def _estimates(probs: list, inv_d: float, opts: CurvatureOptions) -> list:
    """Estimate inf (2 Psi_2 - 2 inv_d (Lf)^2)/(2 Psi) at each problem of
    ``probs``: a VertexEstimate per problem, in order, or the
    NonConvergence to raise for it. The constant, the report and every
    check read these estimates.

    At p = 1 the divergence certificate comes first, at any inv_d (the
    -inv_d (Lf)^2 term only lowers the ratio): a certified problem is -inf,
    with ``divergent_via`` in its diagnostics. The others are the lowest
    ratio the descent reached (_multistart), however low: the ratio is
    homogeneous of degree 1 in the rates, so no fixed level separates a
    large finite value from -inf. They descend in one lockstep per chunk
    of problems with equal _shape_key, each chunk at most _block rows of
    starts (one problem if its starts alone exceed that). A vertex's random
    starts draw from the (seed, x) generator, so it gets the same starts
    wherever it is solved.
    """
    out, groups = [None] * len(probs), {}
    for i, q in enumerate(probs):
        cert = None if q.a else _certificate(q)
        if cert is None:
            groups.setdefault(q._shape_key(), []).append(i)
        else:
            tau_star, y1, witness = cert
            out[i] = VertexEstimate(q.x, -math.inf, witness,
                                    {"divergent_via": y1, "tau_at_threshold": tau_star})
    for idx in groups.values():
        starts = [
            _start_points(probs[i], opts, np.random.default_rng((opts.seed, probs[i].x)))
            for i in idx
        ]
        chunk = max(1, _block(probs[idx[0]]) // len(starts[0]))
        for lo in range(0, len(idx), chunk):
            part = idx[lo : lo + chunk]
            res = _multistart([probs[i] for i in part], starts[lo : lo + chunk], inv_d, opts)
            for i, r in zip(part, res):
                out[i] = r
    return out


def _solved(est):
    """An estimate (_estimates), raising its NonConvergence."""
    if isinstance(est, NonConvergence):
        raise est
    return est


def cd_upsilon_kappa(
    chain: MarkovChain, x: int, opts: CurvatureOptions = DEFAULT_OPTIONS
) -> VertexEstimate:
    """Estimate the optimal exponential-calculus constant at x: -inf only
    where the divergence certificate applies, otherwise the lowest ratio
    found, with its field as witness (_estimates)."""
    return _solved(_estimates([VertexProblem(chain, x)], 0.0, opts)[0])


# Rounding error of an evaluated slack, in machine epsilons per unit of the
# summed term magnitudes (VertexProblem.check_magnitude_batch).
_ROUNDING_ULPS = 64
# log of the largest float: e^f of a counterexample must stay below it
_LOG_MAX = math.log(np.finfo(float).max)


def _decide(prob: VertexProblem, est, kappa: float, inv_d: float) -> CheckResult:
    """Decide Psi_2 - kappa Psi - inv_d (Lf)^2 >= 0 at every field of
    ``prob`` from ``est``, its estimate (_estimates, same inv_d); an
    estimate that is a NonConvergence is raised. The condition holds iff
    kappa is at most the ratio's infimum, so kappa never enters the descent.

    The verdict is the sign of the slack at the estimate's minimiser:
    ``holds`` iff it is >= -tol, tol = 64 machine epsilons times the sum of
    the magnitudes of its terms there (``diagnostics["tol"]``), the
    rounding error of the slack evaluated. A tolerance fixed in units of
    the squared rate scale would absorb any violation small next to the
    rates, such as the Poisson chain's at vertices near exp(1/kappa). For p
    near 2 the ratio can overflow to an uncertified -inf (see
    VertexProblem._private_min): the minimiser is halved toward 0 until the
    slack, tol and e^f are finite, and the slack is still -e^{350} or below.
    A certified estimate (``divergent_via``) has no lower bound, so every
    finite kappa fails, with the family's field at a tau where its
    asymptote line lies below kappa as counterexample.
    """
    diag = _solved(est).diagnostics
    if "divergent_via" in diag:
        y1 = diag["divergent_via"]
        i1 = int(np.flatnonzero(prob.s1 == y1)[0])
        margin, intercept, _ = prob._family_lines()
        tau = min(-40.0, float((kappa - 1.0 - intercept[i1]) * 2.0 / margin[i1]))
        field = prob.field_from(prob.family_point(i1, tau))
        return CheckResult(False, -math.inf, field, {"divergent_via": y1, "tau": tau})
    z = est.witness[prob.ball[: prob.dim]]  # field_from's inverse, exact
    while True:
        slack = float(prob.check_batch(z, kappa, inv_d))
        with np.errstate(over="ignore"):
            magnitude = prob.check_magnitude_batch(z, kappa, inv_d)
        tol = float(_ROUNDING_ULPS * np.finfo(float).eps * magnitude)
        if math.isfinite(slack + tol) and prob.field_from(z).max() < _LOG_MAX:
            break
        z = 0.5 * z
    holds = slack >= -tol
    return CheckResult(holds, slack, None if holds else prob.field_from(z), dict(diag, tol=tol))


def cd_upsilon_check(
    chain: MarkovChain,
    kappa: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Decide the pointwise inequality Psi_2 >= kappa Psi at x against the
    estimate cd_upsilon_kappa reports with the same ``opts`` (_decide)."""
    return cd_upsilon_dim_check(chain, kappa, math.inf, x, opts)


def cd_upsilon_dim_check(
    chain: MarkovChain,
    kappa: float,
    d: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Finite-dimension variant with the (1/d)(Lf)^2 term; d = inf reduces
    to the dimensionless check. Decided by _decide on the estimate of the
    ratio with that term."""
    if not (d > 0):
        raise InvalidParameter("dimension parameter must be positive")
    _finite_kappa(kappa)
    inv_d = 0.0 if math.isinf(d) else 1.0 / d
    prob = VertexProblem(chain, x)
    return _decide(prob, _estimates([prob], inv_d, opts)[0], kappa, inv_d)


def cd_p_check(
    chain: MarkovChain,
    p: float,
    kappa: float,
    x: int,
    opts: CurvatureOptions = DEFAULT_OPTIONS,
) -> CheckResult:
    """Power-entropy condition Psi_2^{(p)} >= kappa/(2-p) Psi^{(p)} at x.

    Minimizes over positive fields F = exp(g) on the two-ball's edge list
    (VertexProblem with p), decided by _decide; the counterexample is F.
    """
    if not 1.0 < p < 2.0:
        raise InvalidParameter(f"p must lie in (1,2), got {p}")
    _finite_kappa(kappa)
    prob = VertexProblem(chain, x, p)
    res = _decide(prob, _estimates([prob], 0.0, opts)[0], kappa / (2.0 - p), 0.0)
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
    prob = VertexProblem(chain, x)
    hit = np.flatnonzero(prob.s1 == y)
    if not hit.size:
        raise ConditionNotMet(f"states {x} and {y} are not adjacent")
    if not prob._tree_like():
        raise ConditionNotMet(f"a triangle or 4-cycle passes through state {x}")
    i = int(hit[0])
    if not prob._family_lines()[2][i]:
        raise ConditionNotMet(
            "M1(x) + M1(y) - 2(k(x,y) + k(y,x)) is not strictly positive"
        )
    return prob.field_from(prob.family_point(i, tau))


def divergence_candidates(chain: MarkovChain, x: int) -> list:
    """Neighbours y of x satisfying the divergence margin condition."""
    prob = VertexProblem(chain, x)
    return prob.s1[prob._family_lines()[2]].tolist()


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
    is the only source of a reported -inf (_estimates). Every neighbour's
    line is read off the two-ball (VertexProblem._family_lines).
    """
    return _certificate(VertexProblem(chain, x))


def _certificate(prob: VertexProblem):
    """divergence_certificate on the built problem of its vertex."""
    if not prob._tree_like():
        return None
    margin, intercept, branching = prob._family_lines()
    cand = np.flatnonzero(branching)
    if not cand.size:
        return None
    # the tau where each candidate's line is one unit below the threshold;
    # the first of the latest wins, so no other line gets there first
    tau = (_MINUS_INF_THRESHOLD - 1.0 - intercept[cand]) * 2.0 / margin[cand]
    best = int(np.argmax(tau))
    i1 = int(cand[best])
    return float(tau[best]), int(prob.s1[i1]), prob.field_from(prob.family_point(i1, -40.0))


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
    prob = VertexProblem(chain, center)
    out, m1c = prob.c[0], prob.m1x[0]  # k(x*, a_i) and M1(x*)
    thresh = kappa / (1.0 + math.sqrt(3.0))
    fails = (prob._kyx - (m1c - out) < kappa - 1e-14) | (out < thresh - 1e-14)
    return not fails.any()


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


def _vertex_record(prob: VertexProblem, est) -> dict:
    """A report row from the vertex's problem and its estimate (_estimates)."""
    x, chain = prob.x, prob.chain
    rec = {"vertex": x, "state": chain.states[x], "kappa_be": _bakry_emery(prob)[0]}
    if isinstance(est, NonConvergence):
        return dict(
            rec, kappa_upsilon=float("nan"), slack=0.0, witness=np.zeros(chain.n),
            diagnostics=dict(est.diagnostics, nonconverged=True),
        )
    slack = 0.0
    if "divergent_via" not in est.diagnostics:
        _, psi, two_psi2 = prob._objective(est.witness[prob.ball[: prob.dim]])
        slack = float(0.5 * two_psi2 - est.kappa * psi) if psi > 0 else 0.0
    return dict(rec, kappa_upsilon=est.kappa, slack=slack, witness=est.witness,
                diagnostics=est.diagnostics)


def chain_curvature_report(
    chain: MarkovChain, opts: CurvatureOptions = DEFAULT_OPTIONS
) -> CurvatureReport:
    """Per-vertex Bakry-Emery and exponential-calculus constants.

    Each vertex's problem is built once, and all of them are estimated in
    one _estimates call: one lockstep descent per chunk of uncertified
    vertices with the same two-ball shape, with the answers of
    cd_upsilon_kappa at each vertex up to the rounding of the batched
    kernel calls. Results are deterministic because every vertex draws
    from its own (seed, vertex) generator.
    """
    probs = [VertexProblem(chain, x) for x in range(chain.n)]
    records = [_vertex_record(q, est) for q, est in zip(probs, _estimates(probs, 0.0, opts))]
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
            "bound": opts.bound,
            "maxiter": opts.maxiter,
            "amplitude": _AMPLITUDE,
            "minus_inf_threshold": _MINUS_INF_THRESHOLD,
        },
        any_nonconverged=nonconverged,
    )
