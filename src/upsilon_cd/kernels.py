"""Scalar special functions of the exponential difference calculus.

Everything here is a plain function of real arguments (numpy-vectorized).
The central object is ups(r) = exp(r) - 1 - r, the convex replacement for
r^2/2 in the discrete calculus; all other kernels are built around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameter

__all__ = [
    "ups",
    "ups_prime",
    "omega",
    "omega_prime",
    "nu",
    "phi_p",
    "phi_p_prime",
    "phi_p_second",
    "log_mean",
    "log_mean_d1",
    "delta_for_eps",
    "ScalarKernel",
    "IDENTITY",
    "HALF_SQUARE",
    "UPSILON",
    "UPSILON_PRIME",
    "EXP_MINUS_ONE",
    "LOG_BREGMAN",
    "phi_p_prime_kernel",
    "bregman",
]

# Below this threshold the direct expm1 formulas lose relative precision
# (the result is O(r^2) while the summands are O(r)), so we switch to the
# Taylor series, which is exact to machine precision for |r| <= 0.03.
_SERIES_CUT = 0.03

# ups(r) / (r^2/2) = sum_{j>=0} 2 r^j / (j+2)!
_UPS_COEF = (1.0, 1 / 3, 1 / 12, 1 / 60, 1 / 360, 1 / 2520, 1 / 20160, 1 / 181440)
# omega(r) / (r^2/2) = sum_{j>=0} 2 (j+1) r^j / (j+2)!
_OMEGA_COEF = (1.0, 2 / 3, 1 / 4, 1 / 15, 1 / 72, 1 / 420, 1 / 2880, 1 / 22680)


def _poly(coef: tuple, r: np.ndarray) -> np.ndarray:
    out = np.full_like(r, coef[-1])
    for c in coef[-2::-1]:
        out = out * r + c
    return out


def _with_series(direct: np.ndarray, r: np.ndarray, coef: tuple):
    """``direct`` with the elements |r| <= _SERIES_CUT replaced by the
    series r^2/2 * poly(coef, r); the series runs on those elements only."""
    out = np.asarray(direct)
    small = np.abs(r) <= _SERIES_CUT
    if small.any():
        rs = r[small]
        out[small] = 0.5 * rs * rs * _poly(coef, rs)
    return out if out.ndim else float(out)


def ups(r):
    """exp(r) - 1 - r, computed without cancellation near 0."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        direct = np.expm1(r) - r
    return _with_series(direct, r, _UPS_COEF)


def ups_prime(r):
    """exp(r) - 1."""
    out = np.expm1(np.asarray(r, dtype=float))
    return out if out.ndim else float(out)


def omega(r):
    """r ups'(r) - ups(r) = r e^r - e^r + 1; positive for r != 0."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        direct = np.expm1(r) * (r - 1.0) + r
    return _with_series(direct, r, _OMEGA_COEF)


def omega_prime(r):
    """d/dr omega(r) = r e^r."""
    r = np.asarray(r, dtype=float)
    out = r * np.exp(r)
    return out if out.ndim else float(out)


def nu(c: float, d: float, r, order: int = 0):
    """The two-parameter family c ups'(r) r + ups(-r) - d ups(r).

    ``order`` selects a derivative in 0..4; the closed forms are

        nu'   = c e^r r + (c - d)(e^r - 1) - (e^{-r} - 1)
        nu''  = e^r (c r + 2c - d) + e^{-r}
        nu''' = e^r (c r + 3c - d) - e^{-r}
        nu'''' = e^r (c r + 4c - d) + e^{-r}
    """
    r = np.asarray(r, dtype=float)
    if order == 0:
        out = c * ups_prime(r) * r + ups(-r) - d * ups(r)
    elif order == 1:
        out = c * np.exp(r) * r + (c - d) * np.expm1(r) - np.expm1(-r)
    elif order in (2, 3, 4):
        sign = 1.0 if order % 2 == 0 else -1.0
        out = np.exp(r) * (c * r + order * c - d) + sign * np.exp(-r)
    else:
        raise InvalidParameter(f"nu derivative order must be in 0..4, got {order}")
    return out if out.ndim else float(out)


# -- power-entropy generators -------------------------------------------------


def _check_p(p: float) -> None:
    if not 1.0 < p < 2.0:
        raise InvalidParameter(f"p must lie in (1, 2), got {p}")


def _check_positive_arg(r: np.ndarray, what: str) -> None:
    if np.any(r <= 0.0):
        raise DomainError(f"{what} requires strictly positive arguments")


def phi_p(p: float, r):
    """(r^p - r) / (p (p-1)) on r > 0, stable as p -> 1."""
    _check_p(p)
    r = np.asarray(r, dtype=float)
    _check_positive_arg(r, "phi_p")
    out = r * np.expm1((p - 1.0) * np.log(r)) / (p * (p - 1.0))
    return out if out.ndim else float(out)


def phi_p_prime(p: float, r):
    """(p r^{p-1} - 1) / (p (p-1)); tends to 1/p + log r as p -> 1."""
    _check_p(p)
    r = np.asarray(r, dtype=float)
    _check_positive_arg(r, "phi_p_prime")
    out = np.expm1(np.log(p) + (p - 1.0) * np.log(r)) / (p * (p - 1.0))
    return out if out.ndim else float(out)


def phi_p_second(p: float, r):
    """r^{p-2}."""
    _check_p(p)
    r = np.asarray(r, dtype=float)
    _check_positive_arg(r, "phi_p_second")
    out = np.exp((p - 2.0) * np.log(r))
    return out if out.ndim else float(out)


# -- logarithmic mean ----------------------------------------------------------


def _log_ratio(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(s/t), cancellation-free near s = t and well-conditioned away."""
    near = np.abs(s - t) <= 0.25 * t
    return np.where(
        near,
        np.log1p(np.where(near, s - t, 0.0) / t),
        np.log(np.where(near, 1.0, s / t)),
    )


def log_mean(s, t):
    """(s - t) / (log s - log t) for s, t > 0, with the limit value s at s = t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    _check_positive_arg(s, "log_mean")
    _check_positive_arg(t, "log_mean")
    h = _log_ratio(s, t)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(h != 0.0, (s - t) / np.where(h != 0.0, h, 1.0), s)
    return out if out.ndim else float(out)


def log_mean_d1(s, t):
    """Partial derivative of the logarithmic mean in its first slot.

    Equals ups(-h)/h^2 with h = log s - log t, hence 1/2 at s = t.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    _check_positive_arg(s, "log_mean_d1")
    _check_positive_arg(t, "log_mean_d1")
    h = _log_ratio(s, t)
    small = np.abs(h) <= _SERIES_CUT
    hs = np.where(small, h, 0.0)
    # ups(-h)/h^2 = 1/2 - h/6 + h^2/24 - h^3/120 + ...
    series = (
        0.5 - hs / 6 + hs**2 / 24 - hs**3 / 120 + hs**4 / 720 - hs**5 / 5040
    )
    hb = np.where(small, 1.0, h)
    direct = ups(-hb) / (hb * hb)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def delta_for_eps(eps: float, tol: float = 1e-10) -> float:
    """Largest delta with sup_{|r|<=delta} |ups(r)/(r^2/2) - 1| <= eps.

    The supremum is attained at r = +delta, so we bisect the increasing map
    delta -> 2 ups(delta)/delta^2 - 1.
    """
    if not 0.0 < eps < 0.5:
        raise InvalidParameter("eps must lie in (0, 1/2)")

    def excess(d: float) -> float:
        return 2.0 * ups(d) / (d * d) - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) < eps:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if excess(mid) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


# -- named scalar kernels ------------------------------------------------------


@dataclass(frozen=True)
class ScalarKernel:
    """A scalar function H with derivative, for the difference operators.

    ``domain_low`` is an open lower bound on admissible arguments
    (None means all of R). ``convex`` records convexity of H, which makes
    the associated Bregman distance nonnegative.
    """

    tag: str
    h: Callable
    hp: Callable
    convex: bool = True
    domain_low: float | None = None

    def check_domain(self, values) -> None:
        if self.domain_low is not None and np.any(
            np.asarray(values) <= self.domain_low
        ):
            raise DomainError(f"kernel {self.tag!r} needs arguments > {self.domain_low}")


IDENTITY = ScalarKernel("identity", lambda r: np.asarray(r, float) + 0.0,
                        lambda r: np.ones_like(np.asarray(r, float)), convex=True)
HALF_SQUARE = ScalarKernel("half_square", lambda r: 0.5 * np.square(np.asarray(r, float)),
                           lambda r: np.asarray(r, float) + 0.0)
UPSILON = ScalarKernel("upsilon", ups, ups_prime)
UPSILON_PRIME = ScalarKernel("upsilon_prime", ups_prime,
                             lambda r: np.exp(np.asarray(r, float)))
EXP_MINUS_ONE = ScalarKernel("exp_minus_one", lambda r: np.expm1(np.asarray(r, float)),
                             lambda r: np.exp(np.asarray(r, float)))
LOG_BREGMAN = ScalarKernel("log_bregman", lambda r: np.log(np.asarray(r, float)),
                           lambda r: 1.0 / np.asarray(r, float),
                           convex=False, domain_low=0.0)


def phi_p_prime_kernel(p: float) -> ScalarKernel:
    """H = phi_p' on r > 0; its Bregman sum drives the power-entropy operators."""
    _check_p(p)
    return ScalarKernel(
        f"phi_p_prime({p})",
        lambda r: phi_p_prime(p, r),
        lambda r: phi_p_second(p, r),
        convex=True,
        domain_low=0.0,
    )


def bregman(kernel: ScalarKernel, w, z):
    """Bregman distance H(w) - H(z) - H'(z)(w - z); >= 0 for convex H."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    kernel.check_domain(w)
    kernel.check_domain(z)
    if kernel.tag == "log_bregman":
        # log w - log z - (w - z)/z collapses to -ups(log w - log z); the
        # direct form loses all precision for w near z.
        out = -ups(np.log(w) - np.log(z))
    elif kernel.tag in ("upsilon", "upsilon_prime", "exp_minus_one"):
        # ups(w) - ups(z) - ups'(z)(w - z) = e^z ups(w - z), and e^r - 1
        # differs from ups by an affine function, so it has the same
        # distance; the direct form cancels to e^z eps for w near z.
        out = np.exp(z) * ups(w - z)
    elif kernel.tag == "half_square":
        out = 0.5 * np.square(w - z)
    else:
        out = kernel.h(w) - kernel.h(z) - kernel.hp(z) * (w - z)
    out = np.asarray(out)
    return out if out.ndim else float(out)
