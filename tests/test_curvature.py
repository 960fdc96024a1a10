import collections
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from upsilon_cd import chains as ch
from upsilon_cd import curvature as cv
from upsilon_cd import operators as op
from upsilon_cd.errors import (
    ConditionNotMet,
    InvalidParameter,
    MonotonicityViolated,
    NotAStar,
)

from conftest import random_reversible_chain, random_tree

FAST = cv.CurvatureOptions(starts=24, maxiter=200)


def branched_tree5():
    # path 0-1-2 with extra leaves 3, 4 at vertex 2
    return ch.chain_from_rates(
        [str(i) for i in range(5)],
        {
            (0, 1): 1.0, (1, 0): 1.0,
            (1, 2): 1.0, (2, 1): 1.0,
            (2, 3): 1.0, (3, 2): 1.0,
            (2, 4): 1.0, (4, 2): 1.0,
        },
    )


def scaled(chain, s):
    """The chain with every rate multiplied by s, same measure."""
    table = {}
    for x in range(chain.n):
        for y, k in zip(chain.neighbors[x], chain.rates[x]):
            table[(x, int(y))] = s * float(k)
    return ch.chain_from_rates(chain.states, table, measure=list(chain.pi))


def operators_at(chain, p, f, x):
    """(Psi, Psi_2) at x by the operator pipeline: of f for p = 1, of the
    power entropy at F = exp(f) for p > 1."""
    if p == 1.0:
        return op.psi_upsilon(chain, f)[x], op.psi2_upsilon(chain, f)[x]
    F = np.exp(f)
    return op.psi_p(chain, p, F)[x], op.psi2_p(chain, p, F)[x]


class TestVertexProblem:
    def test_two_ball_locality(self, rng):
        # Psi_2(f)(x) depends on f only through the two-ball values
        chain = ch.birth_death(lambda x: 1.0, lambda x: float(x), 12)
        x = 5
        prob = cv.VertexProblem(chain, x)
        f = rng.normal(size=chain.n)
        g = f.copy()
        ball = {x} | set(map(int, prob.s1)) | set(map(int, prob.s2_shared)) | set(
            map(int, prob.s2_private)
        )
        for v in range(chain.n):
            if v not in ball:
                g[v] += rng.normal() * 10
        assert op.psi2_upsilon(chain, f)[x] == pytest.approx(
            op.psi2_upsilon(chain, g)[x], rel=1e-12
        )

    def test_reduced_matches_operators(self, rng):
        # with private values at the inner minimum, the reduced objective
        # equals the full operator pipeline at x, for the log entropy (p = 1)
        # and for the power entropy of F = exp(f) (p = 1.5)
        for p in (1.0, 1.5):
            for chain in (
                ch.cycle(5),
                ch.hypercube(3),
                branched_tree5(),
                random_reversible_chain(rng, 6),
            ):
                x = 0
                prob = cv.VertexProblem(chain, x, p)
                for _ in range(20):
                    z = rng.normal(size=prob.dim) * 1.5
                    f = prob.field_from(z)
                    _, psi_red, two_psi2 = prob._objective(z)
                    psi_ref, psi2_ref = operators_at(chain, p, f, x)
                    terms = prob.check_magnitude_batch(z, 1.0)
                    assert abs(psi_red - psi_ref) <= 1e-12 * terms
                    assert abs(0.5 * two_psi2 - psi2_ref) <= 1e-12 * terms
                    if p == 1.0:
                        f_shift = f + 0.7  # ratio invariant under constants
                        direct = op.psi2_upsilon(chain, f_shift)[x]
                        assert 0.5 * two_psi2 == pytest.approx(
                            direct, rel=1e-11, abs=1e-12
                        )
                        psi_direct = op.psi_upsilon(chain, f_shift)[x]
                        assert psi_red == pytest.approx(psi_direct, rel=1e-12, abs=1e-13)

    def test_private_reduction_is_the_inner_minimum(self, rng):
        # the raw check over explicit private values is never below the
        # reduced check, and equals it at private g(z) = u_y (3-p)/(2-p)
        for p in (1.0, 1.5):
            tested = 0
            for chain in (branched_tree5(), random_reversible_chain(rng, 8, p_edge=0.2)):
                for x in range(chain.n):
                    prob = cv.VertexProblem(chain, x, p)
                    n_priv = prob.raw_dim - prob.dim
                    if not n_priv:
                        continue
                    tested += 1
                    z = rng.normal(size=(20, prob.dim)) * 1.5
                    reduced = prob.check_batch(z, 0.7, 0.25)
                    rounding = 1e-13 * prob.check_magnitude_batch(z, 0.7, 0.25)
                    free = np.hstack([z, rng.normal(size=(20, n_priv)) * 3.0])
                    assert np.all(prob.check_batch(free, 0.7, 0.25) >= reduced - rounding)
                    # the raw form is the operator pipeline at any private values
                    for row in free[:5]:
                        f = np.zeros(chain.n)
                        f[prob.ball] = row
                        _, psi2_ref = operators_at(chain, p, f, x)
                        terms = prob.check_magnitude_batch(row, 1.0)
                        assert abs(0.5 * prob._objective(row)[2] - psi2_ref) <= 1e-12 * terms
                    priv = z[:, prob.src[-n_priv:]] * (3.0 - p) / (2.0 - p)
                    at_min = np.hstack([z, priv])
                    np.testing.assert_array_equal(
                        at_min, [prob.field_from(row)[prob.ball] for row in z]
                    )
                    np.testing.assert_allclose(
                        prob.check_batch(at_min, 0.7, 0.25), reduced, rtol=1e-12
                    )
            assert tested >= 2

    def test_rounding_bound_is_second_order_near_zero(self):
        # near f = 0 the slack is O(|z|^2); its rounding bound must be too,
        # so the terms ups and omega evaluate by their series count at their
        # series' size, not at |e^r - 1| + |r| = O(|r|)
        k4 = ch.complete(4)
        prob = cv.VertexProblem(k4, 0)
        kappa = cv.cd_upsilon_kappa(k4, 0).kappa
        v = np.array([1.0, -0.6, 0.3])
        for eps in (1e-3, 1e-6, 1e-9):
            z = eps * v
            _, psi, _ = prob._objective(z)
            terms = prob.check_magnitude_batch(z, kappa)
            assert cv._ROUNDING_ULPS * np.finfo(float).eps * terms <= 1e-12 * psi

    @pytest.mark.parametrize(
        "case",
        [
            "tree_private_edges",  # edges into x and private S2 only
            "complete_s1_edges",  # edges inside S1
            "hypercube_shared_s2",  # shared S2
            "random_weighted",
        ],
    )
    def test_gradients_match_finite_differences(self, rng, case):
        chain, x = {
            "tree_private_edges": lambda: (branched_tree5(), 2),
            "complete_s1_edges": lambda: (ch.complete(5), 0),
            "hypercube_shared_s2": lambda: (ch.hypercube(3), 0),
            "random_weighted": lambda: (random_reversible_chain(rng, 6), 0),
        }[case]()
        for p in (1.0, 1.5):
            prob = cv.VertexProblem(chain, x, p)
            zs = rng.normal(size=(10, prob.dim))
            ratios = prob.ratio_batch(zs)
            lf, psi, two_psi2 = prob._objective(zs)
            dim_ratios = (two_psi2 - 2.0 * 0.25 * lf**2) / (2.0 * psi)
            checks = prob.check_batch(zs, 0.7, 0.25)
            for z, ratio, dim_ratio, check in zip(zs, ratios, dim_ratios, checks):
                for fun, batch_val in (
                    (prob.ratio_value_grad, ratio),
                    (lambda zz: prob.ratio_value_grad(zz, 0.25), dim_ratio),
                    (lambda zz: prob.check_value_grad(zz, 0.7, 0.25), check),
                ):
                    val, grad = fun(z)
                    assert val == pytest.approx(batch_val, rel=1e-13)
                    for i in range(prob.dim):
                        h = 1e-6
                        zp, zm = z.copy(), z.copy()
                        zp[i] += h
                        zm[i] -= h
                        fd = (fun(zp)[0] - fun(zm)[0]) / (2 * h)
                        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)
            # the ratio's Hessian against central differences of its gradient
            for inv_d in (0.0, 0.25):
                val, grad, hess = prob._ratio(zs, inv_d, 2)
                for a, b in zip((val, grad), prob._ratio(zs, inv_d, 1)):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_allclose(hess, np.swapaxes(hess, 1, 2), rtol=1e-12, atol=1e-12)
                scale = np.abs(hess).max(axis=(1, 2))[:, None]
                for i in range(prob.dim):
                    h = 1e-6
                    zp, zm = zs.copy(), zs.copy()
                    zp[:, i] += h
                    zm[:, i] -= h
                    fd = (prob._ratio(zp, inv_d)[1] - prob._ratio(zm, inv_d)[1]) / (2 * h)
                    assert np.all(np.abs(hess[:, :, i] - fd) <= 1e-6 * scale)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_small_field_limit_is_the_quadratic_form(self, rng, p):
        # the ratio's limit at z -> 0 is the generalized eigenproblem of the
        # Hessians at 0; at p = 1 and inv_d = 0 that is Bakry-Emery's constant
        for chain in (ch.complete(4), ch.hypercube(3), branched_tree5(), random_reversible_chain(rng, 6)):
            prob = cv.VertexProblem(chain, 0, p)
            for inv_d in (0.0, 0.25):
                kappa0, v = prob._limit_direction(inv_d)
                if p == 1.0 and inv_d == 0.0:
                    assert kappa0 == pytest.approx(cv.bakry_emery_kappa(chain, 0)[0], rel=1e-12)
                assert np.abs(v).max() == 1.0
                ratio = lambda z: prob._ratio(z, inv_d, 0)
                # +-eps v approach kappa0, and no small field goes below it
                # by more than the O(eps) remainder
                near = ratio(1e-6 * np.outer([1.0, -1.0], v))
                assert np.all(np.abs(near - kappa0) <= 1e-4 * max(1.0, abs(kappa0)))
                zs = rng.normal(size=(500, prob.dim))
                zs = 1e-6 * zs / np.abs(zs).max(axis=1, keepdims=True)
                assert ratio(zs).min() >= kappa0 - 1e-4 * max(1.0, abs(kappa0))

    def test_power_kernel_tends_to_the_log_kernel(self, rng):
        # at p = 1 + 1e-5 every output of the kernel is within O(p - 1) of
        # the log-entropy kernel, raw and reduced, values and gradients
        for chain, x in (
            (branched_tree5(), 2),
            (ch.complete(5), 0),
            (ch.hypercube(3), 0),
            (random_reversible_chain(rng, 6), 0),
        ):
            near, log = cv.VertexProblem(chain, x, 1.0 + 1e-5), cv.VertexProblem(chain, x)
            for width in (log.dim, log.raw_dim):
                z = rng.normal(size=(10, width))
                for a, b in zip(near._objective(z, grad=True), log._objective(z, grad=True)):
                    np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)
            z = z[0, : log.dim]
            np.testing.assert_allclose(near.field_from(z), log.field_from(z), rtol=1e-4)


class TestBakryEmery:
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 2.0), (3.0, 0.5)])
    def test_two_point_closed_form(self, a, b):
        c = ch.two_point(a, b)
        k0, _ = cv.bakry_emery_kappa(c, 0)
        k1, _ = cv.bakry_emery_kappa(c, 1)
        assert k0 == pytest.approx((3 * b + a) / 2, rel=1e-12)
        assert k1 == pytest.approx((3 * a + b) / 2, rel=1e-12)
        assert min(k0, k1) == pytest.approx((a + b) / 2 + min(a, b), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_complete_graph(self, n):
        kn = ch.complete(n)
        kappa, _ = cv.bakry_emery_kappa(kn, 0)
        assert kappa == pytest.approx(1 + n / 2, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hypercube(self, n):
        hn = ch.hypercube(n)
        kappa, _ = cv.bakry_emery_kappa(hn, 0)
        assert kappa == pytest.approx(2.0, rel=1e-10)

    def test_witness_attains_eigenvalue(self, rng):
        chain = random_reversible_chain(rng, 6)
        kappa, f = cv.bakry_emery_kappa(chain, 0)
        g2 = op.gamma2(chain, f)[0]
        g = op.gamma(chain, f)[0]
        assert g > 0
        assert g2 / g == pytest.approx(kappa, rel=1e-9)


class TestCdUpsilonKappa:
    def test_complete_2(self):
        est = cv.cd_upsilon_kappa(ch.complete(2), 0)
        assert est.kappa == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hypercube_every_vertex(self, n):
        hn = ch.hypercube(n)
        for x in range(hn.n):
            est = cv.cd_upsilon_kappa(hn, x, FAST)
            assert est.kappa == pytest.approx(2.0, abs=1e-5)

    def test_complete_5_strictly_between_bounds(self):
        est = cv.cd_upsilon_kappa(ch.complete(5), 0)
        assert math.sqrt(10) - 1e-6 <= est.kappa < 3.5

    @pytest.mark.parametrize(
        "n,expect",
        [
            # frozen from the one-variable characterization oracle
            # (TestOracle.test_complete_graph_nu_characterization)
            (3, 2.465872601481),
            (4, 2.882985308639),
            (5, 3.268004215385),
            (6, 3.629708456271),
            (7, 3.973418467706),
            (8, 4.302657274378),
        ],
    )
    def test_complete_graph_regression_constants(self, n, expect):
        est = cv.cd_upsilon_kappa(ch.complete(n), 0)
        assert est.kappa == pytest.approx(expect, abs=1e-7)

    @pytest.mark.parametrize(
        "opts",
        [replace(FAST, seed=5), cv.CurvatureOptions(seed=3)],
        ids=["fast_seed5", "default_seed3"],
    )
    def test_single_start_basin(self, opts):
        # only one of 64 L-BFGS-B starts reaches this basin, through the box;
        # the others settle at 3.456 or above
        rng = np.random.default_rng([77, 4])
        chain = random_reversible_chain(rng, int(rng.integers(5, 9)))
        est = cv.cd_upsilon_kappa(chain, 2, opts)
        assert est.kappa == pytest.approx(-3.1740371704462, abs=1e-9)

    @pytest.mark.parametrize("case", ["ratio", "check", "failing_check"])
    def test_every_start_is_counted_once(self, case):
        k4 = ch.complete(4)
        if case == "check":
            diag = cv.cd_upsilon_check(k4, 2.0, 0).diagnostics
        elif case == "failing_check":
            # the 3-star centre fails CD(0) by far: the slack falls without
            # bound toward the box, and no start may be left uncounted
            s3 = ch.star([1.0] * 3, [1.0] * 3)
            diag = cv.cd_upsilon_check(s3, 0.0, 0).diagnostics
        else:
            diag = cv.cd_upsilon_kappa(k4, 0).diagnostics
        counts = diag["n_converged"], diag["n_handoff"], diag["n_fail"]
        assert sum(counts) == diag["n_starts"] == cv.DEFAULT_OPTIONS.starts
        assert diag["n_converged"] > 0

    def test_rate_scale_never_makes_kappa_minus_infinity(self):
        # the ratio is homogeneous of degree 1 in the rates: no certificate
        # applies here, so a large rate scale must give s kappa, not -inf
        chain = random_reversible_chain(np.random.default_rng([77, 2]), 6)
        opts = cv.CurvatureOptions(starts=24, seed=3)
        base = cv.cd_upsilon_kappa(chain, 1, opts)
        assert math.isfinite(base.kappa) and base.kappa < 0
        for s in (1e6, 1e7):
            est = cv.cd_upsilon_kappa(scaled(chain, s), 1, opts)
            assert est.kappa == pytest.approx(s * base.kappa, rel=1e-9)

    def test_branched_tree_minus_infinity(self):
        tree = branched_tree5()
        est2 = cv.cd_upsilon_kappa(tree, 2, FAST)
        assert est2.minus_infinity
        est1 = cv.cd_upsilon_kappa(tree, 1, FAST)
        assert est1.minus_infinity

    def test_cycle_and_lattice_flat(self):
        c5 = ch.cycle(5)
        est = cv.cd_upsilon_kappa(c5, 0, FAST)
        assert est.kappa == pytest.approx(0.0, abs=1e-4)
        lw = ch.lattice_window(1, {1: 1.0, -1: 1.0}, 4)
        est = cv.cd_upsilon_kappa(lw, lw.index("0"), FAST)
        assert est.kappa == pytest.approx(0.0, abs=1e-4)

    def test_three_star_finite_negative(self):
        s3 = ch.star([1.0] * 3, [1.0] * 3)
        est = cv.cd_upsilon_kappa(s3, 0)
        assert not est.minus_infinity
        assert est.kappa < -1e-3
        chk0 = cv.cd_upsilon_check(s3, 0.0, 0)
        assert not chk0.holds and chk0.counterexample is not None
        chk = cv.cd_upsilon_check(s3, est.kappa - 1e-6, 0)
        assert chk.holds
        for leaf in (1, 2, 3):
            assert cv.cd_upsilon_check(s3, 0.0, leaf, FAST).holds

    def test_witness_certificate(self, rng):
        for _ in range(5):
            chain = random_reversible_chain(rng, 5, p_edge=0.8)
            est = cv.cd_upsilon_kappa(chain, 0, FAST)
            if est.minus_infinity:
                continue
            psi = op.psi_upsilon(chain, est.witness)[0]
            psi2 = op.psi2_upsilon(chain, est.witness)[0]
            assert psi > 0
            assert psi2 - est.kappa * psi <= 1e-7 * psi

    def test_upsilon_below_bakry_emery(self, rng):
        for _ in range(10):
            chain = random_reversible_chain(rng, 5)
            kbe, _ = cv.bakry_emery_kappa(chain, 0)
            est = cv.cd_upsilon_kappa(chain, 0, FAST)
            assert est.kappa <= kbe + 1e-8

    def test_kernel_scaling_covariance(self, rng):
        base = random_reversible_chain(rng, 4, p_edge=1.0)
        for c in (0.5, 3.0):
            kb0, _ = cv.bakry_emery_kappa(base, 0)
            kb1, _ = cv.bakry_emery_kappa(scaled(base, c), 0)
            assert kb1 == pytest.approx(c * kb0, rel=1e-10)
            e0 = cv.cd_upsilon_kappa(base, 0, FAST)
            e1 = cv.cd_upsilon_kappa(scaled(base, c), 0, FAST)
            assert e1.kappa == pytest.approx(c * e0.kappa, rel=1e-5, abs=1e-7)


class TestChecks:
    def test_monotone_in_kappa(self, rng):
        chain = random_reversible_chain(rng, 5)
        est = cv.cd_upsilon_kappa(chain, 0, FAST)
        if est.minus_infinity:
            return
        assert cv.cd_upsilon_check(chain, est.kappa - 0.1, 0, FAST).holds
        assert cv.cd_upsilon_check(chain, est.kappa - 5.0, 0, FAST).holds
        assert not cv.cd_upsilon_check(chain, est.kappa + 0.1, 0, FAST).holds

    def test_verdict_invariant_under_rate_scaling(self, rng):
        # multiplying every rate by s scales Psi by s and Psi_2 by s^2 (also
        # for the power entropy), so CD(kappa) at s = 1 and CD(s kappa) at s
        # must get the same verdict
        base = random_reversible_chain(rng, 4, p_edge=1.0)
        est = cv.cd_upsilon_kappa(base, 0, FAST)
        assert not est.minus_infinity
        p_check = lambda chain, kappa: cv.cd_p_check(chain, 1.5, kappa, 0, FAST)
        lo, hi = -20.0, 20.0  # bisect the p-condition's constant at vertex 0
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if p_check(base, mid).holds else (lo, mid)
        assert -20.0 < lo and hi < 20.0
        cases = [
            (lambda chain, kappa: cv.cd_upsilon_check(chain, kappa, 0, FAST), k, expect)
            for k, expect in ((est.kappa - 0.1, True), (est.kappa + 0.1, False))
        ] + [(p_check, lo - 0.1, True), (p_check, hi + 0.1, False)]
        for check, kappa, expect in cases:
            assert check(base, kappa).holds == expect
            for s in (1e4, 1e8):
                assert check(scaled(base, s), s * kappa).holds == expect
        # an interior witness (max |z| = 3.1): a descent on the slack held
        # at s = 1 and 1e8 and failed at 1e4..1e7
        chain = random_reversible_chain(np.random.default_rng([77, 11]), 6)
        opts = cv.CurvatureOptions(starts=24, seed=3)
        kappa = cv.cd_upsilon_kappa(chain, 5, opts).kappa + 0.01
        for s in (1.0, 1e4, 1e6, 1e7, 1e8):
            assert not cv.cd_upsilon_check(scaled(chain, s), s * kappa, 5, opts).holds

    def test_small_violation_at_large_rates_is_reported(self):
        # Poisson window around vertex m = 1e6 (birth rate 1, death rate x):
        # 1% above the estimate the slack is about -5.6e3, small next to the
        # squared rate scale (2m)^2 = 4e12 but far above its rounding error
        m = 1e6
        win = ch.birth_death(lambda x: 1.0, lambda x: m - 2 + x, 4)
        est = cv.cd_upsilon_kappa(win, 2, FAST)
        assert cv.cd_upsilon_check(win, 0.99 * est.kappa, 2, FAST).holds
        res = cv.cd_upsilon_check(win, 1.01 * est.kappa, 2, FAST)
        assert not res.holds
        f = res.counterexample
        ratio = op.psi2_upsilon(win, f)[2] / op.psi_upsilon(win, f)[2]
        assert ratio < 1.01 * est.kappa

    def test_violation_beside_the_trivial_minimum_is_reported(self):
        # slack 0 at f = 0 pulls starts in; a descent on the slack that
        # stops there answers holds=True (slack 1.4e-25 at [77, 3] vertex 1,
        # 3.1e-21 at [77, 4] vertex 2, whose constant's witness sits on the
        # box) although the ratio is below kappa
        # [77, i], vertex, options of the constant and of the check, the
        # constant, and the check's excess over it
        cases = [
            (3, 1, replace(FAST, seed=5), cv.CurvatureOptions(seed=5, starts=24), 1.2551170, 1e-3),
            (4, 2, cv.CurvatureOptions(seed=3), cv.CurvatureOptions(seed=3), -3.1740372, 3.174e-3),
        ]
        for i, x, est_opts, check_opts, expect, excess in cases:
            rng = np.random.default_rng([77, i])
            chain = random_reversible_chain(rng, int(rng.integers(5, 9)))
            est = cv.cd_upsilon_kappa(chain, x, est_opts)
            assert est.kappa == pytest.approx(expect, abs=1e-6)
            kappa = est.kappa + excess
            res = cv.cd_upsilon_check(chain, kappa, x, check_opts)
            assert res.holds is False
            f = res.counterexample
            assert op.psi2_upsilon(chain, f)[x] / op.psi_upsilon(chain, f)[x] < kappa

    def test_limit_constant_is_decided_at_small_fields(self):
        # on K2 and H3 the constant kappa_Ups = kappa_BE = 2 is reached only
        # as f -> 0, where the ratio's minimiser sits at |z| ~ 1e-9: the
        # rounding bound there must be of the slack's own order, or a
        # constant raised by 1e-8 passes
        for chain in (ch.complete(2), ch.hypercube(3)):
            kappa = cv.cd_upsilon_kappa(chain, 0).kappa
            assert kappa == pytest.approx(2.0, abs=1e-12)
            assert not cv.cd_upsilon_check(chain, kappa + 1e-8, 0).holds
            assert cv.cd_upsilon_check(chain, kappa - 1e-8, 0).holds

    def test_certified_vertex_fails_at_every_kappa(self):
        # branched_tree5 vertex 2 is certified -inf; a descent in the +-80
        # box held there at kappa = -1e3, -1e6, -1e9 (slack 5.3e37 to 5.5e43)
        tree = branched_tree5()
        for kappa in (-10.0, -1e3, -1e6, -1e9):
            for d in (math.inf, 3.0):
                res = cv.cd_upsilon_dim_check(tree, kappa, d, 2, FAST)
                assert res.holds is False and res.worst_slack == -math.inf
                assert res.diagnostics["divergent_via"] == 1
                f = res.counterexample
                assert np.all(np.isfinite(f)) and f[2] == 0.0
                tau = res.diagnostics["tau"]
                assert tau <= -40.0 and f[1] == -tau
            if kappa == -10.0:  # tau = -40: the family's ratio still evaluates
                ratio = op.psi2_upsilon(tree, f)[2] / op.psi_upsilon(tree, f)[2]
                assert ratio < kappa

    def test_very_negative_kappa_holds(self):
        assert cv.cd_upsilon_check(ch.complete(3), -1e9, 0, FAST).holds

    def test_weighted_4cycle_certified(self, rng):
        a_plus, a_minus, b_plus, b_minus = 1.0, 2.0, 1.0, 3.0
        c4 = ch.weighted_4cycle(a_plus, a_minus, b_plus, b_minus)
        kappa = min(
            math.sqrt(2 * min(a_plus, a_minus) * (a_plus + a_minus)),
            math.sqrt(2 * min(b_plus, b_minus) * (b_plus + b_minus)),
        )
        assert kappa == pytest.approx(math.sqrt(6), rel=1e-12)
        for x in range(4):
            assert cv.cd_upsilon_check(c4, kappa, x, FAST).holds

    def test_dim_check_reduces_at_infinite_d(self, rng):
        for _ in range(10):
            chain = random_reversible_chain(rng, 5)
            kappa = rng.normal()
            r1 = cv.cd_upsilon_check(chain, kappa, 0, FAST)
            r2 = cv.cd_upsilon_dim_check(chain, kappa, math.inf, 0, FAST)
            assert r1.holds == r2.holds

    def test_dim_check_complete2(self):
        # K_2 with (kappa, d) = (0, 1): dimension term only
        res = cv.cd_upsilon_dim_check(ch.complete(2), 0.0, 1.0, 0, FAST)
        oracle = cv.check_grid_oracle_raw(
            ch.complete(2), 0, 0.0, d=1.0, lo=-8.0, hi=8.0, step=0.05
        )
        assert res.holds == oracle.holds

    def test_dim_check_lattice_against_raw_grid(self):
        lw = ch.lattice_window(1, {1: 1.0, -1: 1.0}, 4)
        x = lw.index("0")
        res = cv.cd_upsilon_dim_check(lw, 0.0, 2.0, x, FAST)
        oracle = cv.check_grid_oracle_raw(lw, x, 0.0, d=2.0, step=0.25)
        assert res.holds == oracle.holds

    def test_bad_dimension(self):
        with pytest.raises(InvalidParameter):
            cv.cd_upsilon_dim_check(ch.complete(2), 0.0, -1.0, 0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", ["upsilon", "dim", "p"])
    def test_non_finite_kappa_is_rejected_before_any_descent(self, check, kappa, monkeypatch):
        # a non-finite kappa used to leave the slack's halving loop waiting
        # for a finite value forever
        def no_descent(*args):
            raise AssertionError("descended")

        monkeypatch.setattr(cv, "_lockstep", no_descent)
        call = {
            "upsilon": lambda: cv.cd_upsilon_check(ch.complete(3), kappa, 0, FAST),
            "dim": lambda: cv.cd_upsilon_dim_check(ch.complete(3), kappa, 2.0, 0, FAST),
            "p": lambda: cv.cd_p_check(ch.complete(3), 1.5, kappa, 0, FAST),
        }[check]
        with pytest.raises(InvalidParameter, match="kappa must be finite"):
            call()


class TestOracle:
    @pytest.mark.parametrize(
        "chain,x",
        [
            (ch.two_point(1.0, 2.0), 0),
            (ch.complete(3), 0),
            (ch.cycle(5), 0),
        ],
    )
    def test_estimator_matches_grid(self, chain, x):
        est = cv.cd_upsilon_kappa(chain, x)
        oracle = cv.ratio_grid_oracle(chain, x, lo=-20.0, hi=20.0, step=0.1)
        assert abs(est.kappa - oracle) <= 1e-3

    def test_star_center_grid(self):
        s3 = ch.star([1.0] * 3, [1.0] * 3)
        est = cv.cd_upsilon_kappa(s3, 0)
        oracle = cv.ratio_grid_oracle(s3, 0, lo=-20.0, hi=20.0, step=0.2)
        assert abs(est.kappa - oracle) <= 1e-3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_complete_graph_nu_characterization(self, n):
        # the inequality at a vertex of the unit complete graph holds at
        # kappa iff nu_{n, n + 2 kappa - 1} >= 0 everywhere; for fixed r
        # that solves to kappa <= (n ups'(r) r + ups(-r) - (n-1) ups(r)) /
        # (2 ups(r)), so the optimal constant is the minimum of that curve:
        # an estimator-independent oracle for the K_n values
        from scipy.optimize import minimize_scalar
        from upsilon_cd.kernels import ups, ups_prime

        def kappa_of(r):
            return (n * ups_prime(r) * r + ups(-r) - (n - 1) * ups(r)) / (
                2.0 * ups(r)
            )

        grid = np.linspace(-60.0, 60.0, 12001)
        grid = grid[np.abs(grid) > 1e-9]
        vals = kappa_of(grid)
        i = int(np.argmin(vals))
        res = minimize_scalar(
            kappa_of,
            bounds=(grid[i] - 0.02, grid[i] + 0.02),
            method="bounded",
            options={"xatol": 1e-13},
        )
        oracle = min(float(vals[i]), float(res.fun))
        est = cv.cd_upsilon_kappa(ch.complete(n), 0)
        assert est.kappa == pytest.approx(oracle, abs=1e-7)


class TestDivergenceWitness:
    def test_tree_witness_linear_divergence(self):
        tree = branched_tree5()
        prev = 0.0
        for tau in (-10.0, -20.0, -40.0):
            f = cv.no_lower_bound_witness(tree, 2, 1, tau)
            ratio = op.psi2_upsilon(tree, f)[2] / op.psi_upsilon(tree, f)[2]
            assert ratio < prev
            # asymptote: ratio ~ margin/2 * tau = tau/2
            assert ratio == pytest.approx(tau / 2, rel=0.2)
            prev = ratio

    def test_z_window_equality_not_met(self):
        lw = ch.lattice_window(1, {1: 1.0, -1: 1.0}, 4)
        x = lw.index("0")
        y = lw.index("1")
        with pytest.raises(ConditionNotMet):
            cv.no_lower_bound_witness(lw, x, y, -40.0)

    def test_girth_too_small(self):
        k3 = ch.complete(3)
        with pytest.raises(ConditionNotMet):
            cv.no_lower_bound_witness(k3, 0, 1, -40.0)

    def test_not_adjacent(self):
        c5 = ch.cycle(5)
        with pytest.raises(ConditionNotMet):
            cv.no_lower_bound_witness(c5, 0, 2, -40.0)

    def test_perturbed_birth_death(self):
        # the chord rate eps shifts the family's ratio line up by O(1/eps),
        # the slope margin/2 stays: divergence survives any eps > 0
        bd = ch.birth_death(lambda x: 1.0, lambda x: float(x), 30)
        pbd = ch.perturbed_birth_death(bd, 2, 8, 1e-5)

        def family_ratio(tau):
            f = cv.no_lower_bound_witness(pbd, 2, 8, tau)
            return op.psi2_upsilon(pbd, f)[2] / op.psi_upsilon(pbd, f)[2]

        r40, r60, r80 = family_ratio(-40.0), family_ratio(-60.0), family_ratio(-80.0)
        assert r80 < r60 < r40
        margin = float(
            pbd.m1[2] + pbd.m1[8] - 2 * (pbd.rate(2, 8) + pbd.rate(8, 2))
        )
        slope = (r60 - r40) / -20.0
        assert slope == pytest.approx(margin / 2, rel=1e-6)
        est = cv.cd_upsilon_kappa(pbd, 2, FAST)
        assert est.minus_infinity
        # the certificate's crossing point matches the measured line
        tau_star = est.diagnostics["tau_at_threshold"]
        extrapolated = r40 + slope * (tau_star - (-40.0))
        assert extrapolated == pytest.approx(-1e6, rel=1e-2)

    def test_distant_triangle_keeps_certificate(self):
        # branching vertex 0 with a triangle 5-6-7 three hops away: the
        # global girth is 3, but the two-ball of 0 is a tree, so the
        # certificate and the witness family still apply
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6), (6, 7), (7, 5)]
        table = {}
        for a, b in edges:
            table[(a, b)] = table[(b, a)] = 1.0
        chain = ch.chain_from_rates([str(i) for i in range(8)], table)
        assert all(table.get(e) for e in [(5, 6), (6, 7), (7, 5)])
        est = cv.cd_upsilon_kappa(chain, 0, FAST)
        assert est.kappa == float("-inf")
        assert est.diagnostics["divergent_via"] == 1
        prev = 0.0
        for tau in (-10.0, -20.0, -40.0):
            f = cv.no_lower_bound_witness(chain, 0, 1, tau)
            ratio = op.psi2_upsilon(chain, f)[0] / op.psi_upsilon(chain, f)[0]
            assert ratio < prev
            prev = ratio


def _scalar_lines(chain, x):
    """Per neighbour y of x, (margin, intercept, branching) of the witness
    family's line by the chain-level scalar formulas, one pair at a time
    (the oracle of VertexProblem._family_lines)."""
    out = {}
    for y in chain.neighbors[x].tolist():
        margin = float(chain.m1[x] + chain.m1[y] - 2.0 * (chain.rate(x, y) + chain.rate(y, x)))
        c1 = chain.rate(x, y)
        offset = -c1 * chain.m1[x] + c1 * (chain.m1[y] - chain.rate(y, x))
        for z in chain.neighbors[x].tolist():
            if z != y:
                offset += chain.rate(x, z) * chain.rate(z, x)
        branching = margin > 1e-12 * float(chain.m1[x] + chain.m1[y])
        out[y] = (margin, offset / (2.0 * c1), branching)
    return out


def _tree_like(chain, x):
    """No edge inside S1 and no S2 vertex reached from two S1 vertices."""
    s1 = set(chain.neighbors[x].tolist())
    hits = collections.Counter()
    for y in s1:
        for z in chain.neighbors[y].tolist():
            if z in s1:
                return False
            if z != x:
                hits[z] += 1
    return all(k == 1 for k in hits.values())


def _triangle_chain():
    # triangle 0-1-2 with leaves 3, 4 at 1 and 5 at 0: vertex 0 has the
    # branching neighbours 1 and 2, but its two-ball is not tree-like
    table = {}
    for a, b in [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (0, 5)]:
        table[(a, b)] = table[(b, a)] = 1.0
    return ch.chain_from_rates([str(i) for i in range(6)], table)


class TestFamilyLines:
    CHAINS = {
        **{f"tree{i}": lambda i=i: random_tree(np.random.default_rng([78, i]), 100)
           for i in range(3)},
        "branched_tree5": branched_tree5,
        "perturbed_bd": lambda: ch.perturbed_birth_death(
            ch.birth_death(lambda x: 1.0, lambda x: float(x), 30), 2, 8, 1e-5
        ),
        "triangle": _triangle_chain,
    }

    @pytest.mark.parametrize("name", CHAINS)
    def test_lines_and_certificate_match_scalar_formula(self, name):
        # bit for bit: the lines, divergence_candidates and the certificate's
        # tau_at_threshold against the pairwise chain-level formulas
        chain = self.CHAINS[name]()
        for x in range(chain.n):
            oracle = _scalar_lines(chain, x)
            margin, intercept, branching = cv.VertexProblem(chain, x)._family_lines()
            assert [(float(m), float(b), bool(k)) for m, b, k in
                    zip(margin, intercept, branching)] == list(oracle.values())
            cands = [y for y, (_, _, k) in oracle.items() if k]
            assert cv.divergence_candidates(chain, x) == cands
            cert = cv.divergence_certificate(chain, x)
            if not (cands and _tree_like(chain, x)):
                assert cert is None
                continue
            taus = {y: (-1e6 - 1.0 - oracle[y][1]) * 2.0 / oracle[y][0] for y in cands}
            y1 = max(cands, key=lambda y: (taus[y], -cands.index(y)))
            assert cert[:2] == (taus[y1], y1)

    def test_triangle_declines_with_a_candidate(self):
        chain = _triangle_chain()
        assert cv.divergence_candidates(chain, 0) == [1, 2]
        assert cv.divergence_certificate(chain, 0) is None


class TestBirthDeathBound:
    def test_two_point_as_birth_death(self):
        kappa = cv.birth_death_kappa_bound([1.0, 0.0], [0.0, 1.0], 1)
        assert kappa == pytest.approx(2.0, rel=1e-12)
        est = cv.cd_upsilon_kappa(ch.complete(2), 0)
        assert est.kappa == pytest.approx(kappa, abs=1e-6)

    def test_poisson_not_strictly_monotone(self):
        with pytest.raises(MonotonicityViolated):
            cv.birth_death_kappa_bound(lambda x: 1.0, lambda x: float(x), 10)

    def test_power_rates_example(self):
        from scipy.special import polygamma

        a = lambda x: float(polygamma(1, x + 1))  # sum_{n > x} n^-2
        b = lambda x: float(sum(n**2 for n in range(1, x + 1)))
        kappa = cv.birth_death_kappa_bound(a, b, 40)
        assert kappa >= math.sqrt(2) - 1e-9

    def test_bound_is_certified(self):
        a = lambda x: 3.0 / (1.0 + x)
        b = lambda x: float(x) ** 1.5
        kappa = cv.birth_death_kappa_bound(a, b, 12)
        bd = ch.birth_death(a, b, 12)
        for x in range(2, 11):
            assert cv.cd_upsilon_check(bd, kappa, x, FAST).holds


class TestPoissonFamily:
    def test_slack_matches_operators_on_truncation(self, rng):
        bd = ch.birth_death(lambda x: 1.0, lambda x: float(x), 20)
        for n in (5, 9, 14):
            for tau in (-3.0, -1.0, 0.5, 2.0):
                f = np.zeros(bd.n)
                for v in range(n - 2, n + 3):
                    f[v] = tau * (v - n)
                kappa = 0.3
                direct = 2.0 * (
                    op.psi2_upsilon(bd, f)[n] - kappa * op.psi_upsilon(bd, f)[n]
                )
                closed = cv.poisson_family_slack(1.0, kappa, n, tau)
                assert direct == pytest.approx(closed, rel=1e-11, abs=1e-11)

    def test_violation_exists_for_positive_kappa(self):
        hit = cv.poisson_family_violation(1.0, 0.05)
        assert hit is not None
        n, tau = hit
        assert cv.poisson_family_slack(1.0, 0.05, n, tau) < 0.0
        # and the found index is far beyond any workable truncation window
        assert n > 1e6

    def test_moderate_kappa_needs_moderate_vertex(self):
        hit = cv.poisson_family_violation(1.0, 1.0)
        assert hit is not None and hit[0] < 100


class TestStarCertificate:
    def test_example_values(self):
        s = ch.star([1.0, 1.0, 1.0], [10.0, 10.0, 10.0])
        assert cv.star_kappa_certificate(s, 2.7)
        assert not cv.star_kappa_certificate(s, 1 + math.sqrt(3) + 0.01)
        assert not cv.star_kappa_certificate(ch.star([1.0] * 3, [1.0] * 3), 0.5)

    def test_certificate_implies_check(self):
        s = ch.star([1.0, 1.0, 1.0], [10.0, 10.0, 10.0])
        kappa = 2.7
        assert cv.star_kappa_certificate(s, kappa)
        for x in range(4):
            assert cv.cd_upsilon_check(s, kappa, x, FAST).holds

    def test_not_a_star(self):
        with pytest.raises(NotAStar):
            cv.star_kappa_certificate(ch.cycle(4), 1.0)
        with pytest.raises(NotAStar):
            cv.star_kappa_certificate(ch.complete(4), 1.0)


class TestCdPCheck:
    def _oracle(self, chain, p, kappa, x, grid):
        worst = np.inf
        fac = kappa / (2.0 - p)
        for g in grid:
            f = np.exp(np.array([0.0, g]))
            val = op.psi2_p(chain, p, f)[x] - fac * op.psi_p(chain, p, f)[x]
            worst = min(worst, val)
        return worst >= -1e-9

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_k2_matches_brute_grid(self, kappa):
        k2 = ch.complete(2)
        res = cv.cd_p_check(k2, 1.5, kappa, 0, FAST)
        oracle = self._oracle(k2, 1.5, kappa, 0, np.arange(-10, 10.05, 0.05))
        assert res.holds == oracle

    def test_very_negative_kappa(self):
        assert cv.cd_p_check(ch.complete(2), 1.5, -1e6, 0, FAST).holds

    def test_p_to_one_matches_log_condition(self):
        c = ch.two_point(1.0, 1.0)
        for kappa, expect in ((1.9, True), (2.1, False)):
            res = cv.cd_p_check(c, 1.0 + 1e-5, kappa, 0, FAST)
            assert res.holds == expect
            assert cv.cd_upsilon_check(c, kappa, 0, FAST).holds == expect

    def test_small_violation_at_large_rates_is_reported(self):
        # 0.1% above the constant ~1207107.4 of two_point(1, 1e6) at p = 1.5
        # the slack is about -211, small next to the squared rate scale 1e12
        # but far above its rounding error
        c = ch.two_point(1.0, 1e6)
        assert cv.cd_p_check(c, 1.5, 0.999 * 1207107.4, 0, FAST).holds
        kappa = 1208314.492
        res = cv.cd_p_check(c, 1.5, kappa, 0, FAST)
        assert res.holds is False
        F = res.counterexample
        slack = op.psi2_p(c, 1.5, F)[0] - kappa / (2.0 - 1.5) * op.psi_p(c, 1.5, F)[0]
        assert slack < 0

    def test_p_validation(self):
        with pytest.raises(InvalidParameter):
            cv.cd_p_check(ch.complete(2), 2.5, 0.0, 0)

    def test_private_minimum_near_p_two_does_not_overflow(self, recwarn):
        # at p = 1.99 the private minimum sits at d* = 100 u_y: from u_y = 7.1
        # its direct form overflows (the parent read nan at 8 of 24 starts)
        res = cv.cd_p_check(ch.cycle(5), 1.99, 1.0, 0, cv.CurvatureOptions(starts=24, maxiter=200))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert res.diagnostics["n_fail"] == 0
        # decided at the halved minimiser, not as a certified -inf
        assert "divergent_via" not in res.diagnostics
        assert res.holds is False and math.isfinite(res.worst_slack) and res.worst_slack < 0
        F = res.counterexample
        assert np.all(np.isfinite(F)) and np.all(F > 0)
        # the scaled form agrees with the direct one where both are finite
        prob = cv.VertexProblem(ch.cycle(5), 0, 1.99)
        k_u = (prob.a + 1.0 / (1.0 - prob.a)) * np.array([-3.0, 2.0, 5.9])
        u = np.concatenate([k_u, [cv._PRIVATE_SCALED + 1.0]]) / (prob.a + 1.0 / (1.0 - prob.a))
        scaled = prob._private_min(u, 2)
        a = prob.a
        for order, val in enumerate(scaled):
            t = lambda uu: np.exp(a * uu) * (
                cv.ups(uu) - (1.0 - a) * cv.ups(uu / (1.0 - a))
            ) / a
            h = 1e-5
            ref = [t(u), (t(u + h) - t(u - h)) / (2 * h),
                   (t(u + h) - 2 * t(u) + t(u - h)) / h**2][order]
            np.testing.assert_allclose(val, ref, rtol=[1e-9, 1e-6, 1e-3][order])


class TestReport:
    def test_json_schema(self, rng):
        import jsonschema
        from importlib.resources import files

        chain = ch.complete(3)
        report = cv.chain_curvature_report(chain, FAST)
        doc = report.to_json_dict()
        schema = json.loads(
            files("upsilon_cd").joinpath("schemas/curvature_report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_minus_infinity_serialized(self):
        tree = branched_tree5()
        report = cv.chain_curvature_report(tree, FAST)
        doc = report.to_json_dict()
        kus = [rec["kappa_upsilon"] for rec in doc["per_vertex"]]
        assert "minus_infinity" in kus
        assert doc["global"]["kappa_upsilon"] == "minus_infinity"

    def test_deterministic_under_seed(self):
        chain = ch.star([1.0, 2.0], [2.0, 1.0])
        r1 = cv.chain_curvature_report(chain, FAST)
        r2 = cv.chain_curvature_report(chain, FAST)
        assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def _assert_report_matches_vertices(chain, report, opts):
    """Every report row against cd_upsilon_kappa at its vertex: the same
    -inf set, kappa within 1e-12 max(1, |kappa|) and never higher, and
    bit-identical at one-variable vertices (leaves), whose kernel sums have
    one term whatever the rows beside them."""
    for rec in report.per_vertex:
        x = rec["vertex"]
        est = cv.cd_upsilon_kappa(chain, x, opts)
        got = rec["kappa_upsilon"]
        assert math.isinf(got) == est.minus_infinity, x
        if est.minus_infinity:
            assert got == -math.inf
            continue
        assert got <= est.kappa, (x, got, est.kappa)
        assert est.kappa - got <= 1e-12 * max(1.0, abs(est.kappa)), (x, got, est.kappa)
        if cv.VertexProblem(chain, x).dim == 1:
            assert got == est.kappa, x
            np.testing.assert_array_equal(rec["witness"], est.witness)


class TestBatchedReport:
    @pytest.mark.parametrize(
        "case", ["tree100", "hypercube3", "weighted_4cycle", "lattice2d", "branched_tree5"]
    )
    def test_report_agrees_with_per_vertex_solves(self, case):
        chain, opts = {
            "tree100": lambda: (
                random_tree(np.random.default_rng([78, 0]), 100), cv.CurvatureOptions(starts=16)
            ),
            "hypercube3": lambda: (ch.hypercube(3), FAST),
            "weighted_4cycle": lambda: (ch.weighted_4cycle(0.7, 1.9, 1.3, 0.4), FAST),
            "lattice2d": lambda: (
                ch.lattice_window(2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.5, (0, -1): 0.5}, 2),
                FAST,
            ),
            "branched_tree5": lambda: (branched_tree5(), FAST),
        }[case]()
        _assert_report_matches_vertices(chain, cv.chain_curvature_report(chain, opts), opts)

    def test_one_lockstep_per_group_chunk(self, monkeypatch):
        # the six vertices of C6 share one two-ball shape: one lockstep for
        # the group, or one per chunk of two once the cap holds two vertices
        chain = ch.cycle(6)
        prob = cv.VertexProblem(chain, 0)
        rows = len(cv._start_points(prob, FAST, np.random.default_rng(0)))
        calls = []
        lockstep = cv._lockstep

        def counted(fun, z, *args):
            calls.append(len(z))
            return lockstep(fun, z, *args)

        monkeypatch.setattr(cv, "_lockstep", counted)
        whole = cv.chain_curvature_report(chain, FAST)
        assert calls == [6 * rows]
        calls.clear()
        monkeypatch.setattr(cv, "_BLOCK_ELEMENTS", 2 * rows * (prob._n_red + prob.dim**2))
        chunked = cv.chain_curvature_report(chain, FAST)
        assert calls == [2 * rows] * 3
        _assert_report_matches_vertices(chain, chunked, FAST)
        assert json.dumps(chunked.to_json_dict()) == json.dumps(whole.to_json_dict())

    def test_blocks_cut_each_problem_where_it_alone_is_cut(self):
        # problem 0's five rows are cut at 4 as in a call of problem 0 alone;
        # whole pieces of problems 0 and 1 share the second call
        k = np.array([0] * 5 + [1] * 2 + [2] * 3)
        calls = []

        def fun(zz, kk):
            calls.append(kk.tolist())
            return zz[:, 0]

        z = np.arange(10.0)[:, None]
        np.testing.assert_array_equal(cv._in_blocks(fun, z, k, 4), z[:, 0])
        assert calls == [[0, 0, 0, 0], [0, 1, 1], [2, 2, 2]]

    def test_report_records_bound_and_maxiter(self):
        opts = cv.CurvatureOptions(starts=8, bound=60.0, maxiter=50)
        doc = cv.chain_curvature_report(ch.complete(3), opts).to_json_dict()
        assert doc["opts"]["bound"] == 60.0
        assert doc["opts"]["maxiter"] == 50
