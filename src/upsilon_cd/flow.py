"""Heat flow, entropies, Fisher informations and flow-level inequalities.

The flow rho' = L rho is linear; for moderate state counts the reference
path propagates with a dense matrix exponential per grid step, beyond that
an adaptive Runge-Kutta integrator takes over. Every functional of a
computed trace is an exact finite sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.special import xlogy

from .chains import MarkovChain
from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InvalidParameter,
    NonDensity,
    NonPositiveEntropy,
    NonPositiveField,
    PositivityLoss,
)
from .kernels import log_mean, log_mean_d1, phi_p, phi_p_prime
from .operators import (
    _diff,
    _field,
    _positive_field,
    _rate_sum,
    generator_apply,
    psi2_p,
    psi2_upsilon,
    psi_p,
    psi_upsilon,
)

__all__ = [
    "FlowTrace",
    "heat_flow",
    "semigroup_apply",
    "entropy",
    "fisher",
    "fisher_dirichlet",
    "dirichlet_form",
    "de_bruijn_residual",
    "second_derivative_residual",
    "mlsi_check",
    "entropy_decay_check",
    "decay_rate_fit",
    "gradient_bound_check",
    "p_entropy",
    "p_fisher",
    "p_fisher_dirichlet",
    "p_flow_identities",
    "beckner_check",
    "erbar_maas_A",
    "erbar_maas_B",
    "em_identity_residuals",
    "random_density",
]

_MASS_TOL = 1e-10
_EXPM_MAX_N = 400
# Stacked functionals run their rows in blocks of at most this many
# rows x edges, so their edge-aligned temporaries do not grow with the stack.
_BLOCK_ELEMENTS = 2**13


def _integral(chain: MarkovChain, v: np.ndarray):
    """integral of v against pi, per row; np.vecdot sums each row in the
    order ``chain.pi @ row`` does, so a stack row equals its own call."""
    return np.vecdot(v, chain.pi)


def _densities(chain: MarkovChain, rho, positive: bool = True) -> np.ndarray:
    """A field (n,) or a stack (S, n) of fields, checked on every row; C
    order, so each row is integrated as a contiguous row is on its own."""
    rho = np.ascontiguousarray(_field(chain, rho, stack=True))
    if rho.ndim > 2:
        raise DimensionMismatch(f"expected (n,) or (S, n), got shape {rho.shape}")
    if positive:
        return _positive_field(chain, rho, stack=True)
    if np.any(rho < 0.0):
        raise NonPositiveField("density must be nonnegative")
    return rho


def _by_rows(chain: MarkovChain, rho: np.ndarray, integrand):
    """integral of integrand(rho) against pi: a float for a field, one value
    per row for an (S, n) stack, evaluated in row blocks."""
    if rho.ndim == 1:
        return float(_integral(chain, integrand(rho)))
    out = np.empty(len(rho))
    step = max(1, _BLOCK_ELEMENTS // max(1, len(chain.edges[0])))
    for i in range(0, len(rho), step):
        out[i : i + step] = _integral(chain, integrand(rho[i : i + step]))
    return out


def entropy(chain: MarkovChain, rho):
    """Boltzmann entropy sum rho log rho pi, with 0 log 0 = 0; a float for
    a field (n,), an array for a stack (S, n)."""
    rho = _densities(chain, rho, positive=False)
    return _by_rows(chain, rho, lambda r: xlogy(r, r))


def fisher(chain: MarkovChain, rho):
    """Fisher information: integral of rho Psi_Ups(log rho); stacks too."""
    rho = _densities(chain, rho)
    return _by_rows(chain, rho, lambda r: r * psi_upsilon(chain, np.log(r)))


def dirichlet_form(chain: MarkovChain, f, g) -> float:
    """(1/2) sum_{x,y} k(x,y)(f(y)-f(x))(g(y)-g(x)) pi(x)."""
    f = _field(chain, f)
    g = _field(chain, g)
    return 0.5 * float(chain.pi @ _rate_sum(chain, _diff(chain, f) * _diff(chain, g)))


def fisher_dirichlet(chain: MarkovChain, rho) -> float:
    """Alternative Fisher path: the Dirichlet form of (rho, log rho)."""
    rho = _positive_field(chain, rho)
    return dirichlet_form(chain, rho, np.log(rho))


@dataclass
class FlowTrace:
    chain: MarkovChain
    times: np.ndarray
    densities: np.ndarray  # (n_times, n_states)
    H: np.ndarray
    I: np.ndarray
    d2H: np.ndarray
    p: float | None = None
    Hp: np.ndarray | None = None
    Ip: np.ndarray | None = None
    d2Hp: np.ndarray | None = None
    method: str = "expm"  # the propagator: "expm" or "rk"

    def to_csv(self) -> str:
        cols = ["t", "H", "I", "d2H"]
        data = [self.times, self.H, self.I, self.d2H]
        if self.p is not None:
            cols += ["Hp", "Ip"]
            data += [self.Hp, self.Ip]
        fmt = ",".join(["%.17g"] * len(cols))
        rows = zip(*(col.tolist() for col in data))
        lines = [",".join(cols)] + [fmt % row for row in rows]
        return "\n".join(lines) + "\n"

    def decay_check(self, kappa: float) -> InequalityReport:
        """Verify H(rho_t) <= exp(-2 kappa t) H(rho_0) along this trace."""
        H0 = self.H[0]
        if H0 <= 0.0:
            raise NonPositiveEntropy("H(rho_0) = 0; decay holds trivially")
        bound = np.exp(-2.0 * kappa * self.times) * H0
        worst = float(np.max(self.H / np.maximum(bound, 1e-300)))
        return InequalityReport(
            holds=bool(worst <= 1.0 + 1e-8),
            worst_ratio=worst,
            n_samples=len(self.times),
            details={"kappa": kappa, "H0": float(H0)},
        )

    def densities_dict(self) -> dict:
        """Sidecar document with the full density trajectory."""
        return {
            "states": list(self.chain.states),
            "times": [float(t) for t in self.times],
            "densities": [[float(v) for v in row] for row in self.densities],
        }


def _check_density(chain: MarkovChain, rho0) -> np.ndarray:
    rho0 = _field(chain, rho0)
    if np.any(rho0 <= 0.0):
        raise NonDensity("initial density must be strictly positive")
    mass = float(chain.pi @ rho0)
    if abs(mass - 1.0) > _MASS_TOL:
        raise NonDensity(f"initial mass {mass:.17g} is not 1 within {_MASS_TOL}")
    return rho0


def _resolve_grid(T: float, output_grid) -> np.ndarray:
    if np.isscalar(output_grid):
        n = int(output_grid)
        if n < 2:
            raise InvalidParameter("output grid needs at least two points")
        return np.linspace(0.0, T, n)
    grid = np.asarray(output_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise InvalidParameter("output grid must be strictly increasing")
    if abs(grid[0]) > 0 or abs(grid[-1] - T) > 1e-12 * max(T, 1.0):
        raise InvalidParameter("output grid must run from 0 to T")
    return grid


def heat_flow(
    chain: MarkovChain,
    rho0,
    T: float,
    output_grid=201,
    p: float | None = None,
    method: str = "auto",
) -> FlowTrace:
    """Integrate rho' = L rho from a strictly positive density.

    ``method`` is "expm" (dense matrix exponential, stepping a uniform
    grid), "rk" (adaptive RK45 at rtol 1e-11), or "auto" (expm up to 400
    states). With ``p`` set, the power entropy/Fisher channels are filled.
    """
    rho0 = _check_density(chain, rho0)
    if T <= 0:
        raise InvalidParameter("T must be positive")
    times = _resolve_grid(T, output_grid)
    if method == "auto":
        method = "expm" if chain.n <= _EXPM_MAX_N else "rk"
    a = chain.rate_matrix
    if method == "expm":
        steps = np.diff(times)
        uniform = np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)
        dens = np.empty((len(times), chain.n))
        dens[0] = rho0
        if uniform:
            prop = scipy.linalg.expm(steps[0] * a)
            for i in range(1, len(times)):
                dens[i] = prop @ dens[i - 1]
        else:
            for i, h in enumerate(steps, start=1):
                dens[i] = scipy.linalg.expm(h * a) @ dens[i - 1]
    elif method == "rk":
        sol = solve_ivp(
            lambda _, v: a @ v,
            (0.0, T),
            rho0,
            method="RK45",
            t_eval=times,
            rtol=1e-11,
            atol=1e-14,
        )
        if not sol.success:
            raise PositivityLoss(f"integrator failed: {sol.message}")
        dens = np.ascontiguousarray(sol.y.T)
    else:
        raise InvalidParameter(f"unknown method {method!r}")

    if np.any(dens <= 0.0):
        raise PositivityLoss(
            "a density component became nonpositive; tighten tolerances"
        )
    # Every channel is one stacked pass over the rows; d2H = 2 int rho
    # Psi_2(log rho) and d2Hp = 2 int rho Psi_2^(p)(rho).
    trace = FlowTrace(
        chain,
        times,
        dens,
        entropy(chain, dens),
        fisher(chain, dens),
        2.0 * _by_rows(chain, dens, lambda r: r * psi2_upsilon(chain, np.log(r))),
        method=method,
    )
    if p is not None:
        trace.p = p
        trace.Hp = p_entropy(chain, p, dens)
        trace.Ip = p_fisher(chain, p, dens)
        trace.d2Hp = 2.0 * _by_rows(chain, dens, lambda r: r * psi2_p(chain, p, r))
    return trace


def semigroup_apply(chain: MarkovChain, f, t: float) -> np.ndarray:
    """P_t f for a bounded function f (same propagator as the flow), or
    P_t of each row of an (S, n) stack under one propagator."""
    f = _field(chain, f, stack=True)
    if f.ndim > 2:
        raise DimensionMismatch(f"expected (n,) or (S, n), got shape {f.shape}")
    if t < 0:
        raise InvalidParameter("t must be nonnegative")
    return (scipy.linalg.expm(t * chain.rate_matrix) @ f.T).T


def _grid_guard(trace: FlowTrace) -> None:
    h = float(np.max(np.diff(trace.times)))
    rate = float(np.max(trace.chain.m1))
    if h * rate > 0.1:
        raise GridTooCoarse(
            f"grid step {h:.3g} too coarse for max rate {rate:.3g}"
        )


def _first_residual(t, H, I) -> float:
    """Max |centered dH/dt + I| over interior grid points."""
    dH = (H[2:] - H[:-2]) / (t[2:] - t[:-2])
    return float(np.max(np.abs(dH + I[1:-1]))) if len(dH) else 0.0


def _second_residual(t, H, d2H) -> float:
    """Max |centered d2H/dt2 - d2H| over interior points of a uniform grid."""
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise GridTooCoarse("second differences need a uniform grid")
    dd = (H[2:] - 2.0 * H[1:-1] + H[:-2]) / steps[0] ** 2
    return float(np.max(np.abs(dd - d2H[1:-1]))) if len(dd) else 0.0


def de_bruijn_residual(trace: FlowTrace) -> float:
    """Max |centered dH/dt + I| over interior grid points."""
    _grid_guard(trace)
    return _first_residual(trace.times, trace.H, trace.I)


def second_derivative_residual(trace: FlowTrace) -> float:
    """Max |centered d2H/dt2 - stored channel| over interior points."""
    _grid_guard(trace)
    return _second_residual(trace.times, trace.H, trace.d2H)


def p_flow_identities(trace: FlowTrace) -> tuple[float, float]:
    """Residuals of the power-entropy flow identities (needs p channels)."""
    if trace.p is None:
        raise InvalidParameter("trace has no power-entropy channels")
    _grid_guard(trace)
    t, Hp = trace.times, trace.Hp
    return _first_residual(t, Hp, trace.Ip), _second_residual(t, Hp, trace.d2Hp)


# -- functional inequalities -----------------------------------------------------


@dataclass
class InequalityReport:
    holds: bool
    worst_ratio: float
    n_samples: int
    worst_sample: np.ndarray | None = None
    details: dict = field(default_factory=dict)


def random_density(chain: MarkovChain, rng) -> np.ndarray:
    """Dirichlet-uniform random density with respect to the chain measure."""
    return _random_densities(chain, rng, None)


def _random_densities(chain: MarkovChain, rng, size) -> np.ndarray:
    """``size`` random densities as an (size, n) stack; rng.dirichlet with
    a size draws the same numbers as that many separate calls."""
    q = rng.dirichlet(np.ones(chain.n), size=size)
    q = np.maximum(q, 1e-300)
    rho = q / chain.pi
    return rho / _integral(chain, rho)[..., None]


def _tilt_densities(chain: MarkovChain, max_log_ratio: float = None) -> np.ndarray:
    """Adversarial exponential tilts of indicator and distance fields, as an
    (m, n) stack: per field g of span > 0, exp(s g) normalized, for 8 slopes
    s in [-1, 1], the two reaching mass ratio max_log_ratio, and +-1e-3,
    +-1e-2."""
    if max_log_ratio is None:
        max_log_ratio = np.log(1e6)
    src, dst, _ = chain.edges
    k = min(chain.n, 4)
    dist = np.full((k, chain.n), np.inf)  # BFS distances from vertices 0..k-1
    dist[np.arange(k), np.arange(k)] = 0.0
    d = 0.0
    while True:
        rows, e = np.nonzero(dist[:, src] == d)
        fresh = np.isinf(dist[rows, dst[e]])
        if not fresh.any():
            break
        d += 1.0
        dist[rows[fresh], dst[e[fresh]]] = d
    g = np.concatenate([np.eye(chain.n), dist])
    span = np.max(g, axis=1) - np.min(g, axis=1)
    g, span = g[span != 0.0], span[span != 0.0]
    slopes = np.linspace(-1, 1, 9)
    s = np.concatenate(
        [
            np.broadcast_to(slopes[slopes != 0.0], (len(g), 8)),
            np.array([-1.0, 1.0]) * max_log_ratio / span[:, None],
            np.broadcast_to([1e-3, -1e-3, 1e-2, -1e-2], (len(g), 4)),
        ],
        axis=1,
    )
    rho = np.exp(s[:, :, None] * g[:, None, :]).reshape(-1, chain.n)
    return rho / _integral(chain, rho)[:, None]


def _sampled_check(chain, n_samples, seed, ratio_of, details) -> InequalityReport:
    """Worst ratio over n_samples random densities plus the tilts; samples
    with a nonpositive denominator are skipped, and the first worst wins."""
    rng = np.random.default_rng(seed)
    samples = np.concatenate(
        [_random_densities(chain, rng, n_samples), _tilt_densities(chain)]
    )
    ratio = ratio_of(samples)
    # NaN never wins; the appended -inf stands in when no sample counts
    ratio = np.append(np.where(ratio > -np.inf, ratio, -np.inf), -np.inf)
    i = int(np.argmax(ratio))
    worst = float(ratio[i])
    found = worst > -np.inf
    if found:
        details = details | {
            "worst_index": i,
            "worst_kind": "random" if i < n_samples else "tilt",
        }
    return InequalityReport(
        holds=bool(worst <= 1.0 + 1e-9),
        worst_ratio=worst,
        n_samples=len(samples),
        worst_sample=samples[i].copy() if found else None,
        details=details,
    )


def _ratio(alpha: float, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """2 alpha num / den where den > 0, -inf elsewhere."""
    ok = den > 0.0
    return np.where(ok, 2.0 * alpha * num / np.where(ok, den, 1.0), -np.inf)


def mlsi_check(
    chain: MarkovChain, alpha: float, n_samples: int = 1000, seed: int = 0
) -> InequalityReport:
    """Sampled check of H(rho) <= I(rho)/(2 alpha).

    Random Dirichlet densities plus adversarial near-degenerate tilts
    (mass ratios up to 1e6); reports the worst ratio 2 alpha H / I, and in
    ``details`` the index of the worst sample (random draws first, then
    tilts) and its kind, "random" or "tilt".
    """
    if not 0.0 < alpha < np.inf:
        raise InvalidParameter(f"alpha must be positive and finite, got {alpha}")
    return _sampled_check(
        chain,
        n_samples,
        seed,
        lambda rho: _ratio(alpha, entropy(chain, rho), fisher(chain, rho)),
        {"alpha": alpha},
    )


def entropy_decay_check(
    chain: MarkovChain, kappa: float, rho0, T: float, output_grid=201
) -> InequalityReport:
    """Verify H(rho_t) <= exp(-2 kappa t) H(rho_0) along the flow."""
    return heat_flow(chain, rho0, T, output_grid).decay_check(kappa)


def decay_rate_fit(trace: FlowTrace) -> float:
    """Least-squares slope of log H over the last decade of decay."""
    H, t = trace.H, trace.times
    pos = H > 0.0
    if not np.any(pos):
        raise NonPositiveEntropy("entropy vanished along the whole trace")
    Hp, tp = H[pos], t[pos]
    floor = Hp[-1]
    sel = Hp <= 10.0 * floor
    if sel.sum() < 3:
        sel = np.zeros(len(Hp), dtype=bool)
        sel[-3:] = True
    slope = np.polyfit(tp[sel], np.log(Hp[sel]), 1)[0]
    return float(-slope)


def gradient_bound_check(
    chain: MarkovChain, f, kappa: float, times
) -> InequalityReport:
    """Pointwise check of Psi_Ups(P_t f) <= exp(-2 kappa t) P_t Psi_Ups(f)."""
    f = _field(chain, f)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi0 = psi_upsilon(chain, f)
    worst_slack, worst_at = np.inf, None
    scale = max(1.0, float(np.max(np.abs(psi0))))
    for t in times:
        ptf, pt_psi0 = semigroup_apply(chain, np.stack([f, psi0]), t)
        lhs = psi_upsilon(chain, ptf)
        rhs = np.exp(-2.0 * kappa * t) * pt_psi0
        slack = float(np.min(rhs - lhs))
        if slack < worst_slack:
            worst_slack, worst_at = slack, float(t)
    return InequalityReport(
        holds=bool(worst_slack >= -1e-9 * scale),
        worst_ratio=worst_slack,
        n_samples=len(times),
        details={"kappa": kappa, "worst_t": worst_at, "scale": scale},
    )


# -- power entropies --------------------------------------------------------------


def p_entropy(chain: MarkovChain, p: float, rho):
    """Power entropy: integral of (rho^p - rho)/(p(p-1)); stacks too."""
    rho = _densities(chain, rho)
    return _by_rows(chain, rho, lambda r: phi_p(p, r))


def p_fisher(chain: MarkovChain, p: float, rho):
    """1/(2-p) integral of rho Psi^{(p)}(rho); stacks too."""
    rho = _densities(chain, rho)
    return _by_rows(chain, rho, lambda r: r * psi_p(chain, p, r)) / (2.0 - p)


def p_fisher_dirichlet(chain: MarkovChain, p: float, rho) -> float:
    """Alternative path: Dirichlet form of (rho, phi_p'(rho))."""
    rho = _positive_field(chain, rho)
    return dirichlet_form(chain, rho, phi_p_prime(p, rho))


def beckner_check(
    chain: MarkovChain, p: float, alpha: float, n_samples: int = 1000, seed: int = 0
) -> InequalityReport:
    """Sampled check of H_p(rho) <= I_p(rho)/(2 alpha); samples and
    ``details`` as in ``mlsi_check``."""
    if not 0.0 < alpha < np.inf:
        raise InvalidParameter(f"alpha must be positive and finite, got {alpha}")
    return _sampled_check(
        chain,
        n_samples,
        seed,
        lambda rho: _ratio(alpha, p_entropy(chain, p, rho), p_fisher(chain, p, rho)),
        {"alpha": alpha, "p": p},
    )


# -- transport-metric functionals ---------------------------------------------------


def erbar_maas_A(chain: MarkovChain, rho, psi) -> float:
    """(1/2) sum (psi(x)-psi(y))^2 logmean(rho(x), rho(y)) k(x,y) pi(x)."""
    rho = _positive_field(chain, rho)
    psi = _field(chain, psi)
    src, dst, _ = chain.edges
    th = log_mean(rho[src], rho[dst])
    return 0.5 * float(chain.pi @ _rate_sum(chain, _diff(chain, psi) ** 2 * th))


def erbar_maas_B(chain: MarkovChain, rho, psi) -> float:
    """Second transport functional (triple sum with the log-mean gradient)."""
    rho = _positive_field(chain, rho)
    psi = _field(chain, psi)
    lrho = generator_apply(chain, rho)
    lpsi = generator_apply(chain, psi)
    src, dst, _ = chain.edges
    rs, rd = rho[src], rho[dst]
    dpsi = _diff(chain, psi)
    lhat = log_mean_d1(rs, rd) * lrho[src] + log_mean_d1(rd, rs) * lrho[dst]
    acc1 = float(chain.pi @ _rate_sum(chain, dpsi**2 * lhat))
    th = log_mean(rs, rd)
    acc2 = float(chain.pi @ _rate_sum(chain, _diff(chain, lpsi) * dpsi * th))
    return 0.25 * acc1 - 0.5 * acc2


def em_identity_residuals(chain: MarkovChain, rho) -> tuple[float, float]:
    """Residuals of the two functional identities at psi = log rho:

    A(rho, log rho) = integral rho Psi_Ups(log rho)
    B(rho, log rho) = integral rho Psi_2(log rho)
    """
    rho = _positive_field(chain, rho)
    logr = np.log(rho)
    rA = abs(
        erbar_maas_A(chain, rho, logr)
        - float(chain.pi @ (rho * psi_upsilon(chain, logr)))
    )
    rB = abs(
        erbar_maas_B(chain, rho, logr)
        - float(chain.pi @ (rho * psi2_upsilon(chain, logr)))
    )
    return float(rA), float(rB)
