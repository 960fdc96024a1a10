"""Pointwise difference operators on chains.

Fields are plain numpy arrays aligned with ``chain.states``; the edge-list
operators also take an (..., n) stack of fields and treat each row as a
field, with the same bits as the single call. All operators are pure; the
nonlinear ones come in two independent computation paths where an identity
is available (definitional vs. expanded), which the test suite pins against
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import MarkovChain
from .errors import (
    DimensionMismatch,
    FieldTooLarge,
    InvalidParameter,
    NonPositiveField,
    NotUnweighted,
)
from .kernels import (
    ScalarKernel,
    bregman,
    delta_for_eps,
    phi_p_prime,
    phi_p_prime_kernel,
    ups,
    ups_prime,
)

__all__ = [
    "generator_apply",
    "invariance_residual",
    "gamma",
    "gamma2",
    "psi_h",
    "b_h",
    "psi_upsilon",
    "psi2_upsilon",
    "psi2_upsilon_expanded",
    "psi2_h",
    "bregman_sum",
    "log_chain_residual",
    "first_fundamental_identity_residual",
    "psi_p",
    "psi2_p",
    "l_phi_p_prime",
    "munch_gamma2_log",
    "small_field_comparison",
    "SmallFieldReport",
    "gamma2_lattice",
    "psi2_upsilon_lattice",
]


def _field(chain: MarkovChain, f, stack: bool = False) -> np.ndarray:
    """f as a float array of shape (n,), or (..., n) with ``stack``."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (chain.n,) or (f.ndim > 1 and not stack):
        raise DimensionMismatch(
            f"field has shape {f.shape}, chain has {chain.n} states"
        )
    return f


def _positive_field(chain: MarkovChain, f, stack: bool = False) -> np.ndarray:
    f = _field(chain, f, stack)
    if np.any(f <= 0.0):
        raise NonPositiveField("field must be strictly positive")
    return f


def _diff(chain: MarkovChain, f: np.ndarray) -> np.ndarray:
    """f(y) - f(x) on every directed edge (x, y) of ``chain.edges``, for
    each row of an (..., n) stack."""
    src, dst, _ = chain.edges
    return f[..., dst] - f[..., src]


def _rate_sum(chain: MarkovChain, v: np.ndarray) -> np.ndarray:
    """sum_y k(x,y) v(x,y) for each row of an edge-aligned (..., E) array.

    One bincount; a stack is flattened with vertex x of row r in bin
    x + n*r, so each row is summed in the same order as on its own (a
    single field is the one-row case, with bins ``src``).
    """
    src, _, rate = chain.edges
    w = rate * v
    rows = math.prod(w.shape[:-1])
    bins = (src + chain.n * np.arange(rows)[:, None]).ravel()
    out = np.bincount(bins, weights=w.ravel(), minlength=rows * chain.n)
    return out.reshape(*w.shape[:-1], chain.n)


def generator_apply(chain: MarkovChain, f) -> np.ndarray:
    """(Lf)(x) = sum_y k(x,y) (f(y) - f(x)); f may be an (..., n) stack."""
    f = _field(chain, f, stack=True)
    return _rate_sum(chain, _diff(chain, f))


def invariance_residual(chain: MarkovChain, f) -> float:
    """|integral of Lf against the reversible measure| (zero in exact math)."""
    return abs(float(chain.pi @ generator_apply(chain, f)))


def gamma(chain: MarkovChain, f, g=None) -> np.ndarray:
    """Carre du champ: (1/2) sum_y k(x,y)(f(y)-f(x))(g(y)-g(x))."""
    df = _diff(chain, _field(chain, f))
    dg = df if g is None else _diff(chain, _field(chain, g))
    return 0.5 * _rate_sum(chain, df * dg)


def gamma2(chain: MarkovChain, f) -> np.ndarray:
    """Iterated form: (1/2)(L Gamma(f) - 2 Gamma(f, Lf))."""
    f = _field(chain, f)
    lf = generator_apply(chain, f)
    return 0.5 * (
        generator_apply(chain, gamma(chain, f)) - 2.0 * gamma(chain, f, lf)
    )


def psi_h(chain: MarkovChain, kernel: ScalarKernel, f) -> np.ndarray:
    """Psi_H(f)(x) = sum_y k(x,y) H(f(y) - f(x))."""
    f = _field(chain, f)
    return _rate_sum(chain, np.asarray(kernel.h(_diff(chain, f)), dtype=float))


def b_h(chain: MarkovChain, kernel: ScalarKernel, f, g) -> np.ndarray:
    """B_H(f,g)(x) = sum_y k(x,y) H(f(y)-f(x)) (g(y)-g(x))."""
    f = _field(chain, f)
    g = _field(chain, g)
    hf = np.asarray(kernel.h(_diff(chain, f)), dtype=float)
    return _rate_sum(chain, hf * _diff(chain, g))


def psi_upsilon(chain: MarkovChain, f) -> np.ndarray:
    """Psi_Ups(f)(x) = sum_y k(x,y) ups(f(y)-f(x)); nonnegative. Stacks too."""
    f = _field(chain, f, stack=True)
    return _rate_sum(chain, ups(_diff(chain, f)))


def psi2_h(chain: MarkovChain, kernel: ScalarKernel, f) -> np.ndarray:
    """Definitional path: (1/2)(L Psi_H(f) - B_{H'}(f, Lf))."""
    f = _field(chain, f)
    lf = generator_apply(chain, f)
    hp = ScalarKernel(kernel.tag + "'", kernel.hp, kernel.hp)
    return 0.5 * (
        generator_apply(chain, psi_h(chain, kernel, f)) - b_h(chain, hp, f, lf)
    )


def psi2_upsilon(chain: MarkovChain, f) -> np.ndarray:
    """(1/2)(L Psi_Ups(f) - B_{Ups'}(f, Lf)); f may be an (..., n) stack."""
    f = _field(chain, f, stack=True)
    lf = generator_apply(chain, f)
    bterm = _rate_sum(chain, ups_prime(_diff(chain, f)) * _diff(chain, lf))
    return 0.5 * (generator_apply(chain, psi_upsilon(chain, f)) - bterm)


def psi2_upsilon_expanded(chain: MarkovChain, f) -> np.ndarray:
    """Expanded double-sum path for Psi_{2,Ups}; agrees with the
    definitional path to ~1e-11 relative.

    2 Psi_2(f)(x) = sum_{y~x} k(x,y) sum_{z~y} k(y,z)
                        [ups(f_z - f_y) - ups'(f_y - f_x)(f_z - f_y)]
                  + Lf(x) sum_{y~x} k(x,y) ups'(f_y - f_x)
                  - M1(x) Psi_Ups(f)(x)
    """
    f = _field(chain, f)
    lf = generator_apply(chain, f)
    psi = psi_upsilon(chain, f)
    m1 = chain.m1
    out = np.empty(chain.n)
    for x in range(chain.n):
        nb, r = chain.neighbors[x], chain.rates[x]
        acc = 0.0
        for y, kxy in zip(nb, r):
            y = int(y)
            dy = f[y] - f[x]
            upy = ups_prime(dy)
            zb, rz = chain.neighbors[y], chain.rates[y]
            dz = f[zb] - f[y]
            acc += kxy * float(rz @ (ups(dz) - upy * dz))
            acc += kxy * upy * lf[x]
        out[x] = 0.5 * (acc - m1[x] * psi[x])
    return out


def bregman_sum(chain: MarkovChain, kernel: ScalarKernel, f) -> np.ndarray:
    """sum_y k(x,y) Lambda_H(f(y), f(x)) -- the Bregman aggregate of H.
    Stacks too."""
    f = _field(chain, f, stack=True)
    kernel.check_domain(f)
    src, dst, _ = chain.edges
    return _rate_sum(
        chain, np.asarray(bregman(kernel, f[..., dst], f[..., src]), dtype=float)
    )


def log_chain_residual(chain: MarkovChain, f) -> float:
    """Max residual of L(log f) = Lf/f - Psi_Ups(log f)."""
    f = _positive_field(chain, f)
    logf = np.log(f)
    lhs = generator_apply(chain, logf)
    rhs = generator_apply(chain, f) / f - psi_upsilon(chain, logf)
    return float(np.max(np.abs(lhs - rhs)))


def first_fundamental_identity_residual(
    chain: MarkovChain, kernel: ScalarKernel, f
) -> float:
    """Max residual of L(H(f)) = H'(f) Lf + sum_y k(x,y) Lambda_H(f(y), f(x))."""
    f = _field(chain, f)
    kernel.check_domain(f)
    lhs = generator_apply(chain, np.asarray(kernel.h(f), dtype=float))
    rhs = np.asarray(kernel.hp(f), dtype=float) * generator_apply(chain, f)
    rhs = rhs + bregman_sum(chain, kernel, f)
    return float(np.max(np.abs(lhs - rhs)))


# -- power-entropy operators ---------------------------------------------------


def psi_p(chain: MarkovChain, p: float, f) -> np.ndarray:
    """Psi^{(p)}(f) = -sum_y k(x,y) Lambda_{phi_p'}(f(y), f(x)), f > 0.
    Stacks too."""
    f = _positive_field(chain, f, stack=True)
    return -bregman_sum(chain, phi_p_prime_kernel(p), f)


def l_phi_p_prime(chain: MarkovChain, p: float, f) -> np.ndarray:
    f = _positive_field(chain, f, stack=True)
    return generator_apply(chain, phi_p_prime(p, f))


def psi2_p(chain: MarkovChain, p: float, f) -> np.ndarray:
    """(1/2)(L Psi^{(p)}(f) - B_{Ups'}(log f, L phi_p'(f))), f > 0.
    Stacks too."""
    f = _positive_field(chain, f, stack=True)
    lpp = l_phi_p_prime(chain, p, f)
    logf = np.log(f)
    bterm = _rate_sum(chain, ups_prime(_diff(chain, logf)) * _diff(chain, lpp))
    return 0.5 * (generator_apply(chain, psi_p(chain, p, f)) - bterm)


# -- unweighted-graph cross-check ----------------------------------------------


def munch_gamma2_log(chain: MarkovChain, f) -> np.ndarray:
    """Gamma_2^log via the unweighted graph-Laplacian pipeline.

    Independent of the Psi_2 code path: only Delta = L (unit rates) and
    pointwise arithmetic are used. Equals psi2_upsilon(chain, log f).
    """
    if not chain.is_unweighted():
        raise NotUnweighted("the graph-Laplacian route needs unit rates")
    f = _positive_field(chain, f)
    df = generator_apply(chain, f)
    dlog = generator_apply(chain, np.log(f))
    omega_log = generator_apply(chain, df / f)
    return 0.5 * (
        omega_log + df * dlog / f - generator_apply(chain, f * dlog) / f
    )


# -- small-field comparison ----------------------------------------------------


@dataclass(frozen=True)
class SmallFieldReport:
    eps: float
    delta_eps: float
    field_sup: float
    m_bound: float
    psi_lower_slack: float
    psi_upper_slack: float
    psi2_lower_slack: float
    psi2_upper_slack: float

    @property
    def ok(self) -> bool:
        return (
            min(
                self.psi_lower_slack,
                self.psi_upper_slack,
                self.psi2_lower_slack,
                self.psi2_upper_slack,
            )
            >= 0.0
        )


def small_field_comparison(chain: MarkovChain, f, eps: float) -> SmallFieldReport:
    """Verify the two-sided quadratic comparison for a small field.

    With delta_eps from the quadratic envelope of ups and M = max M1:

        (1-eps) Gamma <= Psi_Ups <= (1+eps) Gamma
        (1-2eps) Gamma2 - 6M(eps+delta) Gamma <= Psi_2
            <= (1+2eps) Gamma2 + 6M(eps+delta) Gamma

    Slacks are the minimal margins over all vertices (>= 0 on success).
    """
    f = _field(chain, f)
    d_eps = delta_for_eps(eps)
    sup = float(np.max(np.abs(f))) if chain.n else 0.0
    if 2.0 * sup > d_eps:
        raise FieldTooLarge(
            f"2*sup|f| = {2 * sup:.3g} exceeds delta_eps = {d_eps:.3g}"
        )
    delta = max(2.0 * sup, 0.0)
    m = float(np.max(chain.m1))
    g = gamma(chain, f)
    g2 = gamma2(chain, f)
    psi = psi_upsilon(chain, f)
    psi2 = psi2_upsilon(chain, f)
    pad = 6.0 * m * (eps + delta) * g
    return SmallFieldReport(
        eps=eps,
        delta_eps=d_eps,
        field_sup=sup,
        m_bound=m,
        psi_lower_slack=float(np.min(psi - (1 - eps) * g)),
        psi_upper_slack=float(np.min((1 + eps) * g - psi)),
        psi2_lower_slack=float(np.min(psi2 - ((1 - 2 * eps) * g2 - pad))),
        psi2_upper_slack=float(np.min(((1 + 2 * eps) * g2 + pad) - psi2)),
    )


# -- translation-invariant closed forms ----------------------------------------


def _lattice_context(chain: MarkovChain, x: int):
    offsets = chain.meta.get("offsets")
    if offsets is None:
        raise InvalidParameter("chain carries no lattice kernel metadata")
    dim = chain.meta["dim"]
    radius = chain.meta["radius"]
    label = chain.states[x]
    coord = (
        (int(label),) if dim == 1 else tuple(int(v) for v in label.split(","))
    )

    def at(c):
        if any(abs(v) > radius for v in c):
            raise InvalidParameter(
                f"vertex {label!r} is not interior for the closed form"
            )
        key = str(c[0]) if dim == 1 else ",".join(str(v) for v in c)
        return chain.index(key)

    return offsets, coord, at


def gamma2_lattice(chain: MarkovChain, f, x: int) -> float:
    """Closed form (1/4) sum_{h,s} k(h)k(s) (second difference)^2 at interior x."""
    f = _field(chain, f)
    offsets, c, at = _lattice_context(chain, x)
    acc = 0.0
    for h, kh in offsets.items():
        for s, ks in offsets.items():
            hs = tuple(a + b + d for a, b, d in zip(c, h, s))
            diff = (
                f[at(hs)]
                - f[at(tuple(a + b for a, b in zip(c, h)))]
                - f[at(tuple(a + b for a, b in zip(c, s)))]
                + f[x]
            )
            acc += kh * ks * diff * diff
    return 0.25 * acc


def psi2_upsilon_lattice(chain: MarkovChain, f, x: int) -> float:
    """Closed form (1/2) sum_{h,s} k(h)k(s) e^{f(x+s)-f(x)} ups(second diff)."""
    f = _field(chain, f)
    offsets, c, at = _lattice_context(chain, x)
    acc = 0.0
    for h, kh in offsets.items():
        for s, ks in offsets.items():
            fs = f[at(tuple(a + b for a, b in zip(c, s)))]
            diff = (
                f[at(tuple(a + b + d for a, b, d in zip(c, h, s)))]
                - f[at(tuple(a + b for a, b in zip(c, h)))]
                - fs
                + f[x]
            )
            acc += kh * ks * np.exp(fs - f[x]) * ups(diff)
    return 0.5 * acc
