import math

import numpy as np
import pytest

from upsilon_cd import chains as ch
from upsilon_cd import flow as fl
from upsilon_cd import operators as op
from upsilon_cd.errors import (
    GridTooCoarse,
    InvalidParameter,
    NonDensity,
    NonPositiveEntropy,
)

from conftest import random_positive_density, random_reversible_chain


def mild_density(chain, rng, scale=0.4):
    rho = np.exp(rng.normal(scale=scale, size=chain.n))
    return rho / float(chain.pi @ rho)


class TestEntropyFisher:
    def test_uniform_density_is_zero(self):
        k4 = ch.complete(4)
        rho = np.ones(4)
        assert fl.entropy(k4, rho) == 0.0
        assert fl.fisher(k4, rho) == 0.0

    def test_two_point_hand_value(self):
        c = ch.two_point(1.0, 1.0)
        rho = np.array([1.5, 0.5])
        expect = 0.5 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5))
        assert fl.entropy(c, rho) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.130812, abs=1e-6)

    def test_zero_mass_cells_allowed_in_entropy(self):
        k3 = ch.complete(3)
        rho = np.array([0.0, 1.5, 1.5])
        assert np.isfinite(fl.entropy(k3, rho))

    def test_fisher_two_formulas_agree(self, rng):
        for _ in range(200):
            chain = random_reversible_chain(rng)
            rho = random_positive_density(chain, rng)
            a = fl.fisher(chain, rho)
            b = fl.fisher_dirichlet(chain, rho)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))

    def test_nonnegativity_and_equality_cases(self, rng):
        for _ in range(100):
            chain = random_reversible_chain(rng)
            rho = random_positive_density(chain, rng)
            assert fl.entropy(chain, rho) >= -1e-14
            assert fl.fisher(chain, rho) >= -1e-14
        chain = random_reversible_chain(rng, 5)
        ones = np.ones(5)
        assert fl.entropy(chain, ones) == 0.0
        assert fl.fisher(chain, ones) == 0.0


class TestHeatFlow:
    def test_stationary_density(self):
        k3 = ch.complete(3)
        tr = fl.heat_flow(k3, np.ones(3), 1.0, 11)
        assert np.allclose(tr.densities, 1.0, atol=1e-13)
        assert np.allclose(tr.H, 0.0, atol=1e-14)
        assert np.allclose(tr.I, 0.0, atol=1e-14)

    def test_two_point_spectral_decay(self):
        # rho_t - 1 = 0.5 e^{-2t} (1, -1) on the symmetric two-point chain
        c = ch.two_point(1.0, 1.0)
        tr = fl.heat_flow(c, np.array([1.5, 0.5]), 2.0, 21)
        for t, rho in zip(tr.times, tr.densities):
            assert rho[0] - 1.0 == pytest.approx(0.5 * math.exp(-2 * t), rel=1e-10)

    def test_expm_matches_rk(self, rng):
        chain = random_reversible_chain(rng, 6)
        rho0 = mild_density(chain, rng)
        t1 = fl.heat_flow(chain, rho0, 0.8, 41, method="expm")
        t2 = fl.heat_flow(chain, rho0, 0.8, 41, method="rk")
        assert np.max(np.abs(t1.densities - t2.densities)) <= 1e-9

    def test_trace_invariants(self, rng):
        for _ in range(5):
            chain = random_reversible_chain(rng)
            rho0 = random_positive_density(chain, rng)
            tr = fl.heat_flow(chain, rho0, 1.0, 101)
            mass = tr.densities @ chain.pi
            assert np.max(np.abs(mass - 1.0)) <= 1e-10
            assert np.all(tr.densities > 0.0)
            assert np.all(np.diff(tr.H) <= 1e-12)  # entropy nonincreasing
            assert np.all(tr.I >= -1e-13)

    def test_semigroup_property(self, rng):
        chain = random_reversible_chain(rng, 5)
        rho0 = random_positive_density(chain, rng)
        a = fl.heat_flow(chain, rho0, 0.7, 8).densities[-1]
        b = fl.heat_flow(chain, a, 0.3, 8).densities[-1]
        direct = fl.heat_flow(chain, rho0, 1.0, 11).densities[-1]
        assert np.max(np.abs(b - direct)) <= 1e-9

    def test_semigroup_symmetry(self, rng):
        chain = random_reversible_chain(rng, 6)
        f, g = rng.normal(size=6), rng.normal(size=6)
        ptf = fl.semigroup_apply(chain, f, 0.6)
        ptg = fl.semigroup_apply(chain, g, 0.6)
        lhs = float(chain.pi @ (ptf * g))
        rhs = float(chain.pi @ (f * ptg))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_semigroup_stack_rows(self, rng):
        chain = random_reversible_chain(rng, 7)
        fs = rng.normal(size=(4, 7))
        stacked = fl.semigroup_apply(chain, fs, 0.6)
        for f, row in zip(fs, stacked):
            single = fl.semigroup_apply(chain, f, 0.6)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))
        with pytest.raises(InvalidParameter):
            fl.semigroup_apply(chain, fs, -0.1)

    def test_explicit_nonuniform_grid(self, rng):
        chain = random_reversible_chain(rng, 4)
        rho0 = random_positive_density(chain, rng)
        grid = np.concatenate([np.linspace(0, 0.1, 50), np.linspace(0.12, 1.0, 30)])
        tr = fl.heat_flow(chain, rho0, 1.0, grid)
        assert np.array_equal(tr.times, grid)
        ref = fl.heat_flow(chain, rho0, 1.0, 11).densities[-1]
        assert np.max(np.abs(tr.densities[-1] - ref)) <= 1e-9

    def test_rejects_bad_density(self):
        k3 = ch.complete(3)
        with pytest.raises(NonDensity):
            fl.heat_flow(k3, np.array([1.0, 1.0, 2.0]), 1.0, 11)
        with pytest.raises(NonDensity):
            fl.heat_flow(k3, np.array([3.0, 0.0, 0.0]), 1.0, 11)
        with pytest.raises(InvalidParameter):
            fl.heat_flow(k3, np.ones(3), -1.0, 11)


class TestResiduals:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ch.complete(4),
            lambda: ch.hypercube(3),
            lambda: ch.birth_death(lambda x: 1.0, lambda x: float(x), 20),
        ],
    )
    def test_de_bruijn_and_second_derivative(self, make, rng):
        chain = make()
        rho0 = mild_density(chain, rng, scale=0.3)
        h = 1e-3 / float(np.max(chain.m1))
        T = max(0.25, 30 * h)
        n = int(round(T / h)) + 1
        tr = fl.heat_flow(chain, rho0, T, n)
        assert fl.de_bruijn_residual(tr) <= 1e-5
        assert fl.second_derivative_residual(tr) <= 1e-4

    def test_stationary_residuals_vanish(self):
        k3 = ch.complete(3)
        tr = fl.heat_flow(k3, np.ones(3), 0.1, 101)
        assert fl.de_bruijn_residual(tr) <= 1e-13
        assert fl.second_derivative_residual(tr) <= 1e-10

    def test_grid_too_coarse(self, rng):
        chain = ch.complete(4)
        tr = fl.heat_flow(chain, mild_density(chain, rng), 5.0, 11)
        with pytest.raises(GridTooCoarse):
            fl.de_bruijn_residual(tr)

    def test_residual_order_h2(self, rng):
        chain = ch.complete(3)
        rho0 = mild_density(chain, rng)
        r = []
        for n in (201, 401):
            tr = fl.heat_flow(chain, rho0, 0.2, n)
            r.append(fl.de_bruijn_residual(tr))
        assert r[1] <= r[0] / 3.0  # ~4x drop for halved step


class TestDecay:
    def test_hypercube_decay_bound(self, rng):
        h3 = ch.hypercube(3)
        for _ in range(10):
            rho0 = random_positive_density(h3, rng)
            rep = fl.entropy_decay_check(h3, 2.0, rho0, 2.0, 101)
            assert rep.holds

    def test_trivially_flat(self):
        k3 = ch.complete(3)
        with pytest.raises(NonPositiveEntropy):
            fl.entropy_decay_check(k3, 1.0, np.ones(3), 1.0, 11)

    def test_decay_rate_fit_two_point(self):
        # spectral gap 2: H decays at asymptotic rate 4 (H ~ (rho-1)^2)
        c = ch.two_point(1.0, 1.0)
        tr = fl.heat_flow(c, np.array([1.2, 0.8]), 4.0, 401)
        rate = fl.decay_rate_fit(tr)
        assert rate == pytest.approx(4.0, rel=0.05)

    def test_complete5_rate_beats_upsilon_constant(self, rng):
        # horizon keeps the fit window far above the entropy noise floor
        k5 = ch.complete(5)
        rho0 = mild_density(k5, rng)
        tr = fl.heat_flow(k5, rho0, 1.5, 601)
        rate = fl.decay_rate_fit(tr)
        assert rate >= 2 * 0.9 * 3.5


class TestMlsi:
    def test_hypercube_sharp_constant(self):
        for n in (1, 2, 3):
            rep = fl.mlsi_check(ch.hypercube(n), 2.0, n_samples=400, seed=3)
            assert rep.holds, rep.worst_ratio

    def test_violation_above_sharp_constant(self):
        rep = fl.mlsi_check(ch.hypercube(2), 2.2, n_samples=400, seed=3)
        assert not rep.holds
        assert rep.worst_ratio > 1.0 + 1e-6

    def test_tiny_alpha_trivial(self, rng):
        chain = random_reversible_chain(rng, 5)
        rep = fl.mlsi_check(chain, 1e-8, n_samples=50, seed=0)
        assert rep.holds

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameter):
            fl.mlsi_check(ch.complete(3), 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_is_rejected_before_sampling(self, alpha, monkeypatch):
        # a nan alpha used to make every ratio nan, and nan <= 1 + 1e-9 "held"
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(fl, "_sampled_check", no_sampling)
        for check, extra in ((fl.mlsi_check, ()), (fl.beckner_check, (1.5,))):
            with pytest.raises(InvalidParameter, match="alpha must be positive and finite"):
                check(ch.complete(3), *extra, alpha)


class TestGradientBound:
    def test_constant_field(self):
        h2 = ch.hypercube(2)
        rep = fl.gradient_bound_check(h2, np.full(4, 1.3), 2.0, [0.1, 1.0])
        assert rep.holds

    def test_hypercube_at_certified_kappa(self, rng):
        h2 = ch.hypercube(2)
        for _ in range(10):
            f = rng.normal(size=4)
            rep = fl.gradient_bound_check(h2, f, 2.0, [0.1, 1.0])
            assert rep.holds

    def test_too_large_kappa_violated(self):
        k2 = ch.complete(2)
        rep = fl.gradient_bound_check(
            k2, np.array([0.0, 0.1]), 2.5, [0.005, 0.01, 0.05]
        )
        assert not rep.holds


    def test_one_propagator_per_time(self, monkeypatch):
        calls = []
        expm = fl.scipy.linalg.expm

        def counted(m):
            calls.append(1)
            return expm(m)

        monkeypatch.setattr(fl.scipy.linalg, "expm", counted)
        times = [0.1, 0.5, 1.0]
        assert fl.gradient_bound_check(ch.hypercube(2), np.arange(4.0), 2.0, times).holds
        assert len(calls) == len(times)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameter):
            fl.gradient_bound_check(ch.complete(2), np.zeros(2), 1.0, [0.1, -0.1])


class TestPowerEntropy:
    def test_uniform_zero(self):
        k3 = ch.complete(3)
        assert fl.p_entropy(k3, 1.5, np.ones(3)) == pytest.approx(0.0, abs=1e-15)
        assert fl.p_fisher(k3, 1.5, np.ones(3)) == pytest.approx(0.0, abs=1e-15)

    def test_fisher_two_formulas(self, rng):
        for _ in range(200):
            chain = random_reversible_chain(rng)
            rho = random_positive_density(chain, rng)
            a = fl.p_fisher(chain, 1.5, rho)
            b = fl.p_fisher_dirichlet(chain, 1.5, rho)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))

    def test_p_to_one_limits(self, rng):
        chain = random_reversible_chain(rng, 6)
        rho = random_positive_density(chain, rng)
        p = 1.0 + 1e-6
        assert fl.p_entropy(chain, p, rho) == pytest.approx(
            fl.entropy(chain, rho), rel=1e-4, abs=1e-10
        )
        assert fl.p_fisher(chain, p, rho) == pytest.approx(
            fl.fisher(chain, rho), rel=1e-4, abs=1e-10
        )

    def test_p_flow_identities(self, rng):
        k3 = ch.complete(3)
        rho0 = mild_density(k3, rng)
        tr = fl.heat_flow(k3, rho0, 0.4, 801, p=1.5)
        r1, r2 = fl.p_flow_identities(tr)
        assert r1 <= 1e-4
        assert r2 <= 1e-4

    def test_beckner_certified_from_p_condition(self):
        # bisect a certified p-curvature constant, then Beckner holds at it
        from upsilon_cd import curvature as cv

        k2 = ch.complete(2)
        p = 1.5
        lo, hi = 0.0, 4.0
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            ok = all(
                cv.cd_p_check(k2, p, mid, x, cv.CurvatureOptions(starts=16)).holds
                for x in range(2)
            )
            if ok:
                lo = mid
            else:
                hi = mid
        assert lo > 0.0
        rep = fl.beckner_check(k2, p, lo, n_samples=1000, seed=7)
        assert rep.holds, rep.worst_ratio


class TestErbarMaas:
    def test_uniform_vanishes(self):
        k3 = ch.complete(3)
        ones = np.ones(3)
        assert fl.erbar_maas_A(k3, ones, np.log(ones)) == 0.0
        rA, rB = fl.em_identity_residuals(k3, ones)
        assert rA == 0.0 and rB <= 1e-14

    def test_A_equals_fisher(self, rng):
        for _ in range(100):
            chain = random_reversible_chain(rng)
            rho = random_positive_density(chain, rng)
            assert fl.erbar_maas_A(chain, rho, np.log(rho)) == pytest.approx(
                fl.fisher(chain, rho), rel=1e-11
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ch.complete(3),
            lambda: ch.birth_death(lambda x: 1.0, lambda x: float(x), 15),
        ],
    )
    def test_identity_residuals(self, make, rng):
        chain = make()
        for _ in range(50):
            rho = random_positive_density(chain, rng)
            scale = max(1.0, fl.fisher(chain, rho))
            rA, rB = fl.em_identity_residuals(chain, rho)
            assert rA <= 1e-10 * scale
            assert rB <= 1e-10 * max(scale, abs(fl.erbar_maas_B(chain, rho, np.log(rho))))

    def test_near_equal_density_values_stable(self):
        # log-mean and its gradient at nearly equal arguments
        k3 = ch.complete(3)
        rho = np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
        rho = rho / float(k3.pi @ rho)
        rA, rB = fl.em_identity_residuals(k3, rho)
        assert rA <= 1e-12 and rB <= 1e-12


class TestStackedFlow:
    def test_channels_equal_single_row_calls(self, rng):
        chain = ch.birth_death(lambda x: 1.0 + 0.1 * x, lambda x: float(x), 12)
        rho0 = mild_density(chain, rng)
        for method in ("expm", "rk"):
            tr = fl.heat_flow(chain, rho0, 1.0, 41, p=1.4, method=method)
            assert tr.method == method
            for i, r in enumerate(tr.densities):
                assert tr.H[i] == fl.entropy(chain, r)
                assert tr.I[i] == fl.fisher(chain, r)
                logr = np.log(r)
                assert tr.d2H[i] == 2.0 * float(chain.pi @ (r * op.psi2_upsilon(chain, logr)))
                assert tr.Hp[i] == fl.p_entropy(chain, 1.4, r)
                assert tr.Ip[i] == fl.p_fisher(chain, 1.4, r)
                assert tr.d2Hp[i] == 2.0 * float(chain.pi @ (r * op.psi2_p(chain, 1.4, r)))
        assert fl.heat_flow(chain, rho0, 0.1, 5).method == "expm"

    def test_blocks_match_block_sized_pieces(self, rng):
        chain = ch.hypercube(4)
        step = fl._BLOCK_ELEMENTS // len(chain.edges[0])
        rho = np.exp(rng.normal(size=(3 * step + 5, chain.n)))
        for fn in (
            fl.entropy,
            fl.fisher,
            lambda c, r: fl.p_entropy(c, 1.5, r),
            lambda c, r: fl.p_fisher(c, 1.5, r),
        ):
            whole = fn(chain, rho)
            pieces = np.concatenate(
                [fn(chain, rho[i : i + step]) for i in range(0, len(rho), step)]
            )
            assert np.array_equal(whole, pieces)

    def test_random_density_draws_unchanged(self):
        chain = ch.weighted_complete([1.0, 2.0, 0.5, 1.5])
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        one_by_one = np.array([fl.random_density(chain, r1) for _ in range(50)])
        assert np.array_equal(one_by_one, fl._random_densities(chain, r2, 50))


class TestWorstSample:
    @pytest.mark.parametrize(
        "chain, kind",
        [(ch.hypercube(3), "tilt"), (ch.weighted_complete([1.0, 2.0, 0.5, 1.5]), "random")],
    )
    def test_worst_index_points_at_worst_ratio(self, chain, kind):
        n, alpha, p = 300, 1.0, 1.5
        for check, num, den, extra in (
            (fl.mlsi_check, fl.entropy, fl.fisher, ()),
            (
                fl.beckner_check,
                lambda c, r: fl.p_entropy(c, p, r),
                lambda c, r: fl.p_fisher(c, p, r),
                (p,),
            ),
        ):
            rep = check(chain, *extra, alpha, n_samples=n, seed=2)
            rng = np.random.default_rng(2)
            samples = [fl.random_density(chain, rng) for _ in range(n)]
            samples += list(fl._tilt_densities(chain))
            ratios = []
            for r in samples:
                d = den(chain, r)
                ratios.append(2.0 * alpha * num(chain, r) / d if d > 0 else -np.inf)
            i = rep.details["worst_index"]
            assert rep.details["worst_kind"] == kind == ("random" if i < n else "tilt")
            assert ratios[i] == rep.worst_ratio == max(ratios)
            assert max(ratios[:i], default=-np.inf) < rep.worst_ratio
            assert np.array_equal(samples[i], rep.worst_sample)
            assert rep.worst_sample.base is None  # not a view of the whole stack


class TestCsvExport:
    def test_header_and_precision(self, rng):
        k3 = ch.complete(3)
        tr = fl.heat_flow(k3, mild_density(k3, rng), 0.5, 6)
        text = tr.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,H,I,d2H"
        assert len(lines) == 7
        # 17 significant digits round-trip
        val = float(lines[3].split(",")[1])
        assert val == tr.H[2]

    def test_p_channels_in_header(self, rng):
        k3 = ch.complete(3)
        tr = fl.heat_flow(k3, mild_density(k3, rng), 0.5, 6, p=1.5)
        assert tr.to_csv().split("\n")[0] == "t,H,I,d2H,Hp,Ip"
