import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upsilon_cd import kernels
from upsilon_cd.errors import DomainError, InvalidParameter
from upsilon_cd.kernels import (
    EXP_MINUS_ONE,
    HALF_SQUARE,
    IDENTITY,
    LOG_BREGMAN,
    UPSILON,
    UPSILON_PRIME,
    bregman,
    delta_for_eps,
    log_mean,
    log_mean_d1,
    nu,
    omega,
    phi_p,
    phi_p_prime,
    phi_p_prime_kernel,
    ups,
    ups_prime,
)


def mp_ups(r):
    import mpmath

    mpmath.mp.dps = 40
    return float(mpmath.expm1(r) - mpmath.mpf(r))


@pytest.mark.parametrize(
    "r", [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -0.02, 0.03, -0.031, 0.5, -2.0, 10.0]
)
def test_ups_matches_high_precision(r):
    assert ups(r) == pytest.approx(mp_ups(r), rel=1e-14, abs=1e-300)


def test_ups_known_values():
    assert ups(1.0) == pytest.approx(math.e - 2.0, rel=1e-15)
    assert ups(0.0) == 0.0
    assert ups_prime(0.0) == 0.0
    assert ups_prime(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


@given(st.floats(min_value=-40, max_value=40, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_ups_nonnegative_strict(r):
    v = ups(r)
    assert v >= 0.0
    if abs(r) > 1e-8:
        assert v > 0.0


@given(st.floats(min_value=-40, max_value=40, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_omega_positive_off_zero(r):
    # t ups'(t) - ups(t) > 0 for t != 0
    v = omega(r)
    if abs(r) > 1e-8:
        assert v > 0.0
    assert omega(0.0) == 0.0


def test_omega_matches_definition():
    for r in (-5.0, -0.04, -1e-5, 1e-5, 0.02, 0.5, 3.0):
        direct = r * ups_prime(r) - ups(r)
        assert omega(r) == pytest.approx(direct, rel=1e-12, abs=1e-30)
    for r in (-0.01, 0.001, 0.02):
        assert omega(r) == pytest.approx(mp_omega(r), rel=1e-14)


def mp_omega(r):
    import mpmath

    mpmath.mp.dps = 40
    r = mpmath.mpf(r)
    return float(r * mpmath.e**r - mpmath.e**r + 1)


@pytest.mark.parametrize("fn", [ups, omega], ids=["ups", "omega"])
def test_array_matches_scalar_across_series_cut(fn):
    # the series and the direct form are picked per element; an array that
    # mixes both, including elements on the cut at +-0.03, must give each
    # element the value of the scalar call
    r = np.array(
        [0.0, 1e-9, -0.01, 0.0299, 0.03, 0.0301, -0.03, -0.0301, 0.5, -7.0, 700.0]
    )
    out = fn(r)
    assert out.shape == r.shape
    for i, ri in enumerate(r):
        assert out[i] == fn(float(ri))
    assert fn(r.reshape(1, -1)).shape == (1, r.size)
    assert isinstance(fn(0.01), float) and isinstance(fn(2.0), float)


def test_omega_prime():
    for r in (-2.0, -0.1, 0.0, 0.3, 4.0):
        h = 1e-6
        fd = (omega(r + h) - omega(r - h)) / (2 * h)
        assert kernels.omega_prime(r) == pytest.approx(fd, rel=1e-8, abs=1e-10)


class TestNu:
    def test_zero_is_critical_point(self):
        for c, d in [(2.0, 5.0), (1.0, 3.0), (-1.0, 0.5), (3.0, 7.0)]:
            assert nu(c, d, 0.0) == 0.0
            assert nu(c, d, 0.0, order=1) == pytest.approx(0.0, abs=1e-15)

    def test_derivative_orders_by_finite_differences(self):
        c, d = 2.0, 5.0
        h = 1e-5
        for order in (1, 2, 3, 4):
            for r in (-1.3, 0.2, 2.0):
                fd = (
                    nu(c, d, r + h, order=order - 1)
                    - nu(c, d, r - h, order=order - 1)
                ) / (2 * h)
                assert nu(c, d, r, order=order) == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_nonnegative_when_c_ge_d(self, rng):
        # c >= d (with c >= 0, the regime the family is used in) forces
        # nu_{c,d} >= 0 everywhere: nu = c omega + (c-d) ups(r) + ups(-r)
        for _ in range(50):
            d = rng.uniform(-3, 3)
            c = max(0.0, d) + rng.uniform(0, 3)
            r = rng.uniform(-30, 30)
            assert nu(c, d, r) >= -1e-13

    def test_monotone_in_parameters(self, rng):
        for _ in range(50):
            c, d, r = rng.uniform(-2, 4, size=3)
            h = rng.uniform(0, 2)
            assert nu(c + h, d, r) >= nu(c, d, r) - 1e-12 * (1 + abs(nu(c, d, r)))

    def test_bad_order(self):
        with pytest.raises(InvalidParameter):
            nu(1.0, 1.0, 0.0, order=5)


def _grid_with_refinement(c, d, lo=-50.0, hi=50.0, step=0.1):
    r = np.arange(lo, hi + step / 2, step)
    v = nu(c, d, r)
    worst = float(v.min())
    sign_flip = np.where(np.diff(np.signbit(v)))[0]
    for i in sign_flip:
        rr = np.arange(r[i] - step, r[i] + step, 1e-3)
        worst = min(worst, float(nu(c, d, rr).min()))
    # the saddle sits at 0 when it exists; always refine there
    rr = np.arange(-0.2, 0.2, 1e-4)
    worst = min(worst, float(nu(c, d, rr).min()))
    return worst


class TestNuGridLemmas:
    def test_nu_2_5_nonnegative(self):
        assert _grid_with_refinement(2.0, 5.0) >= -1e-14

    @pytest.mark.parametrize("lam", [3.0, 7.0])
    def test_nu_lam_2lam_plus_1_negative_near_zero(self, lam):
        # saddle point at 0 for lam > 2: strictly negative values on (-d, 0)
        r = -np.logspace(-6, 0, 400)
        assert float(nu(lam, 2 * lam + 1, r).min()) < 0.0

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 10.0])
    def test_nu_positive_branch(self, lam):
        h = 2 * lam + 1 if lam >= 2 else 3 * lam - 1
        r = np.arange(0.0, 50.0, 0.01)
        assert float(nu(lam, h, r).min()) >= -1e-13

    @pytest.mark.parametrize("lam", [2.0, 3.0, 5.0, 10.0])
    def test_nu_sqrt_shift_nonnegative(self, lam):
        tau = 2.0 ** 1.5 * math.sqrt(lam) - 1.0
        assert _grid_with_refinement(lam, lam + tau) >= -1e-13


class TestBregman:
    def test_half_square(self):
        assert bregman(HALF_SQUARE, 3.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_log_collapses_to_ups(self):
        # Lambda_log(w, z) = -ups(log w - log z)
        assert bregman(LOG_BREGMAN, math.e, 1.0) == pytest.approx(
            -(math.e - 2.0), rel=1e-14
        )

    def test_equal_points_vanish(self):
        for k in (UPSILON, HALF_SQUARE, IDENTITY, EXP_MINUS_ONE):
            assert bregman(k, 0.7, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_upsilon_form(self):
        # Lambda_ups(w, z) = e^z ups(w - z)
        w, z = 1.3, -0.4
        direct = ups(w) - ups(z) - ups_prime(z) * (w - z)
        assert bregman(UPSILON, w, z) == pytest.approx(direct, rel=1e-13)
        assert bregman(UPSILON, w, z) == pytest.approx(
            math.exp(z) * ups(w - z), rel=1e-14
        )

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_for_convex(self, w, z):
        for k in (UPSILON, HALF_SQUARE, UPSILON_PRIME, EXP_MINUS_ONE):
            if k.convex:
                assert bregman(k, w, z) >= -1e-12 * (1 + abs(w) + abs(z))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bregman(LOG_BREGMAN, -1.0, 2.0)
        with pytest.raises(DomainError):
            bregman(phi_p_prime_kernel(1.5), 1.0, 0.0)


class TestPhiP:
    def test_hand_values(self):
        # phi_p'(r) = (p r^{p-1} - 1)/(p(p-1)) at p = 1.5
        assert phi_p_prime(1.5, 4.0) == pytest.approx((1.5 * 2 - 1) / 0.75, rel=1e-14)
        assert phi_p_prime(1.5, 1.0) == pytest.approx(0.5 / 0.75, rel=1e-14)
        assert phi_p(1.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_p_to_one_limits(self):
        p = 1.0 + 1e-6
        for r in (0.2, 0.9, 1.0, 3.7):
            assert phi_p(p, r) == pytest.approx(r * math.log(r), rel=1e-4, abs=1e-9)
            assert phi_p_prime(p, r) == pytest.approx(
                1.0 / p + math.log(r), rel=1e-4
            )

    def test_p_range(self):
        with pytest.raises(InvalidParameter):
            phi_p(2.5, 1.0)
        with pytest.raises(InvalidParameter):
            phi_p_prime_kernel(1.0)


class TestLogMean:
    def test_diagonal_limit(self):
        assert log_mean(2.0, 2.0) == 2.0
        assert log_mean_d1(3.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_basic_value(self):
        assert log_mean(math.e, 1.0) == pytest.approx((math.e - 1.0), rel=1e-14)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_between(self, s, t):
        th = log_mean(s, t)
        assert th == pytest.approx(log_mean(t, s), rel=1e-12)
        assert min(s, t) - 1e-12 <= th <= max(s, t) + 1e-12

    def test_d1_matches_finite_difference(self):
        for s, t in [(2.0, 0.5), (1.0, 1.0 + 1e-9), (0.3, 5.0)]:
            h = 1e-7 * s
            fd = (log_mean(s + h, t) - log_mean(s - h, t)) / (2 * h)
            assert log_mean_d1(s, t) == pytest.approx(fd, rel=1e-6)


def test_delta_for_eps_bisection():
    for eps in (0.01, 0.1, 0.3):
        d = delta_for_eps(eps)
        assert 2 * ups(d) / d**2 - 1 <= eps + 1e-9
        d2 = d * 1.001
        assert 2 * ups(d2) / d2**2 - 1 > eps
    with pytest.raises(InvalidParameter):
        delta_for_eps(0.7)
