import math

import numpy as np
import pytest

from upsilon_cd import chains as ch
from upsilon_cd import flow as fl
from upsilon_cd import operators as op
from upsilon_cd.errors import (
    DimensionMismatch,
    FieldTooLarge,
    InvalidParameter,
    NonPositiveField,
    NotUnweighted,
)
from upsilon_cd.kernels import (
    HALF_SQUARE,
    IDENTITY,
    LOG_BREGMAN,
    UPSILON,
    UPSILON_PRIME,
    bregman,
    phi_p_prime,
    phi_p_prime_kernel,
    phi_p_second,
    ups,
    ups_prime,
)

from conftest import random_reversible_chain, random_unweighted_graph_chain


class TestGenerator:
    def test_constant_is_killed(self):
        k3 = ch.complete(3)
        assert np.allclose(op.generator_apply(k3, np.full(3, 2.7)), 0.0)

    def test_two_point_hand_value(self):
        c = ch.two_point(1.0, 2.0)
        assert op.generator_apply(c, np.array([0.0, 1.0])) == pytest.approx([1.0, -2.0])

    def test_k3_hand_value(self):
        k3 = ch.complete(3)
        assert op.generator_apply(k3, np.array([0.0, 1.0, 2.0])) == pytest.approx(
            [3.0, 0.0, -3.0]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            op.generator_apply(ch.complete(3), np.zeros(4))


class TestEdgeCore:
    """The edge-list operators against double loops over a dense k(x, y)."""

    SEEDS = (3, 11, 29, 47)

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n=7, p_edge=0.4)
        assert not chain.is_unweighted()
        assert len({len(nb) for nb in chain.neighbors}) > 1
        k = np.array(
            [[chain.rate(x, y) for y in range(chain.n)] for x in range(chain.n)]
        )
        return rng, chain, k

    @staticmethod
    def edge_sum(k, term):
        """sum_y k(x,y) term(x, y) per x, and the summed term magnitudes."""
        n = len(k)
        val, mag = np.zeros(n), np.zeros(n)
        for x in range(n):
            for y in range(n):
                if k[x, y] > 0.0:
                    t = k[x, y] * term(x, y)
                    val[x] += t
                    mag[x] += abs(t)
        return val, mag

    @staticmethod
    def assert_close(got, ref, mag):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(mag, 1e-300))

    def test_edges_reproduce_rates(self):
        for seed in self.SEEDS:
            _, chain, k = self.draw(seed)
            src, dst, rate = chain.edges
            assert np.all(np.diff(src) >= 0)
            dense = np.zeros((chain.n, chain.n))
            dense[src, dst] = rate
            assert len(set(zip(src.tolist(), dst.tolist()))) == len(src)
            assert np.array_equal(dense, k)
            off = chain.rate_matrix - np.diag(np.diag(chain.rate_matrix))
            assert np.array_equal(off, k)
            assert np.array_equal(np.diag(chain.rate_matrix), -chain.m1)
            np.testing.assert_allclose(
                np.bincount(src, weights=rate, minlength=chain.n), chain.m1,
                rtol=1e-15,
            )

    def test_pointwise_operators(self):
        for seed in self.SEEDS:
            rng, chain, k = self.draw(seed)
            f, g = rng.normal(size=chain.n), rng.normal(size=chain.n)
            cases = [
                (op.generator_apply(chain, f), lambda x, y: f[y] - f[x]),
                (
                    op.gamma(chain, f, g),
                    lambda x, y: 0.5 * (f[y] - f[x]) * (g[y] - g[x]),
                ),
                (op.psi_upsilon(chain, f), lambda x, y: ups(f[y] - f[x])),
                (
                    op.b_h(chain, UPSILON_PRIME, f, g),
                    lambda x, y: ups_prime(f[y] - f[x]) * (g[y] - g[x]),
                ),
            ]
            for got, term in cases:
                self.assert_close(got, *self.edge_sum(k, term))

    def test_bregman_sums(self):
        for seed in self.SEEDS:
            rng, chain, k = self.draw(seed)
            w = np.exp(rng.normal(size=chain.n))
            for kernel in (UPSILON, LOG_BREGMAN, phi_p_prime_kernel(1.5)):
                ref = self.edge_sum(k, lambda x, y: bregman(kernel, w[y], w[x]))
                self.assert_close(op.bregman_sum(chain, kernel, w), *ref)

    def test_dirichlet_form(self):
        for seed in self.SEEDS:
            rng, chain, k = self.draw(seed)
            f, g = rng.normal(size=chain.n), rng.normal(size=chain.n)
            val, mag = self.edge_sum(k, lambda x, y: (f[y] - f[x]) * (g[y] - g[x]))
            ref = 0.5 * float(chain.pi @ val)
            scale = 0.5 * float(chain.pi @ mag)
            assert abs(fl.dirichlet_form(chain, f, g) - ref) <= 1e-13 * scale


def stack_chains():
    """Birth-death N=60, the 3-cube, a weighted K4 and a random chain."""
    rng = np.random.default_rng(2024)
    da, db = rng.uniform(0.5, 1.5, size=(2, 60))
    birth = np.concatenate([np.cumsum(da[::-1])[::-1], [0.0]])
    death = np.concatenate([[0.0], np.cumsum(db)])
    return [
        ch.birth_death(birth, death, 60),
        ch.hypercube(3),
        ch.weighted_complete([1.0, 2.0, 0.5, 1.5]),
        random_reversible_chain(np.random.default_rng(9), n=8),
    ]


def psi2_term_magnitudes(chain, f):
    """Summed |terms| of the expanded double sum for Psi_2(f)(x)."""
    lf = op.generator_apply(chain, f)
    out = np.zeros(chain.n)
    for x in range(chain.n):
        for y, kxy in zip(chain.neighbors[x], chain.rates[x]):
            upy = abs(ups_prime(f[y] - f[x]))
            dz = f[chain.neighbors[y]] - f[y]
            terms = np.abs(np.expm1(dz)) + np.abs(dz) + upy * np.abs(dz)
            out[x] += kxy * float(chain.rates[y] @ terms) + kxy * upy * abs(lf[x])
            out[x] += chain.m1[x] * kxy * (abs(np.expm1(f[y] - f[x])) + abs(f[y] - f[x]))
    return 0.5 * out


class TestStacks:
    """Every row of a stacked (S, n) call is the 1-D call on that row."""

    @pytest.mark.parametrize("idx", range(4))
    def test_rows_equal_single_calls(self, idx):
        chain = stack_chains()[idx]
        rng = np.random.default_rng(idx)
        g = rng.normal(scale=0.8, size=(5, chain.n))
        w = np.exp(g)
        cases = [
            (op.generator_apply, g),
            (op.psi_upsilon, g),
            (op.psi2_upsilon, g),
            (lambda c, f: op.psi_p(c, 1.5, f), w),
            (lambda c, f: op.psi2_p(c, 1.3, f), w),
            (fl.fisher, w),
            (lambda c, f: fl.p_fisher(c, 1.7, f), w),
        ]
        for fn, fields in cases:
            got = fn(chain, fields)
            assert got.shape == fields.shape[: got.ndim]
            for row, field in zip(got, fields):
                assert np.array_equal(row, fn(chain, field))
        # any leading shape for the pointwise operators
        cube = g[:4].reshape(2, 2, chain.n)
        got = op.psi2_upsilon(chain, cube)
        assert np.array_equal(got.reshape(4, chain.n), op.psi2_upsilon(chain, g[:4]))

    @pytest.mark.parametrize("idx", range(4))
    def test_stacks_match_reference_paths(self, idx):
        chain = stack_chains()[idx]
        rng = np.random.default_rng(10 + idx)
        src, dst, rate = chain.edges
        g = rng.normal(scale=0.8, size=(4, chain.n))
        psi2 = op.psi2_upsilon(chain, g)
        for row, f in zip(psi2, g):
            ref = op.psi2_upsilon_expanded(chain, f)
            mag = psi2_term_magnitudes(chain, f)
            assert np.all(np.abs(row - ref) <= 1e-13 * mag)
        rho = np.exp(g)
        p = 1.5
        fis, pfis = fl.fisher(chain, rho), fl.p_fisher(chain, p, rho)
        for i, r in enumerate(rho):
            dr, dl = r[dst] - r[src], np.log(r[dst]) - np.log(r[src])
            dp = phi_p_prime(p, r[dst]) - phi_p_prime(p, r[src])
            mag = float(chain.pi[src] @ (rate * r[src] * (np.abs(np.expm1(dl)) + np.abs(dl))))
            mag += 0.5 * float(chain.pi[src] @ (rate * np.abs(dr * dl)))
            assert abs(fis[i] - fl.fisher_dirichlet(chain, r)) <= 1e-13 * mag
            hw, hz = phi_p_prime(p, r[dst]), phi_p_prime(p, r[src])
            breg = np.abs(hw) + np.abs(hz) + phi_p_second(p, r[src]) * np.abs(dr)
            pmag = float(chain.pi[src] @ (rate * r[src] * breg)) / (2.0 - p)
            pmag += 0.5 * float(chain.pi[src] @ (rate * np.abs(dr * dp)))
            assert abs(pfis[i] - fl.p_fisher_dirichlet(chain, p, r)) <= 1e-13 * pmag

    def test_nonpositive_row_rejected(self):
        chain = ch.hypercube(3)
        w = np.exp(np.random.default_rng(1).normal(size=(6, chain.n)))
        w[4, 2] = 0.0
        for fn in (
            lambda f: op.psi_p(chain, 1.5, f),
            lambda f: op.psi2_p(chain, 1.5, f),
            lambda f: fl.fisher(chain, f),
            lambda f: fl.p_fisher(chain, 1.5, f),
            lambda f: fl.p_entropy(chain, 1.5, f),
        ):
            with pytest.raises(NonPositiveField):
                fn(w)
        fl.entropy(chain, w)  # 0 log 0 = 0
        w[1, 0] = -1.0
        with pytest.raises(NonPositiveField):
            fl.entropy(chain, w)

    def test_wrong_trailing_size_rejected(self):
        chain = ch.hypercube(3)
        bad = np.ones((3, chain.n + 1))
        for fn in (
            op.generator_apply,
            op.psi_upsilon,
            op.psi2_upsilon,
            lambda c, f: op.psi_p(c, 1.5, f),
            lambda c, f: op.psi2_p(c, 1.5, f),
            fl.entropy,
            fl.fisher,
            lambda c, f: fl.p_entropy(c, 1.5, f),
            lambda c, f: fl.p_fisher(c, 1.5, f),
        ):
            with pytest.raises(DimensionMismatch):
                fn(chain, bad)
        # the functionals take (n,) or (S, n); the references stay 1-D
        good = np.ones((2, 3, chain.n))
        for fn in (
            fl.entropy,
            fl.fisher,
            lambda c, f: fl.semigroup_apply(c, f, 0.5),
            op.psi2_upsilon_expanded,
            fl.fisher_dirichlet,
        ):
            with pytest.raises(DimensionMismatch):
                fn(chain, good)


class TestPsiAndB:
    def test_psi_identity_is_generator(self, rng):
        chain = random_reversible_chain(rng, 5)
        f = rng.normal(size=5)
        assert op.psi_h(chain, IDENTITY, f) == pytest.approx(
            list(op.generator_apply(chain, f)), rel=1e-14, abs=1e-14
        )

    def test_psi_half_square_is_gamma(self, rng):
        chain = random_reversible_chain(rng, 6)
        f = rng.normal(size=6)
        assert op.psi_h(chain, HALF_SQUARE, f) == pytest.approx(
            list(op.gamma(chain, f)), rel=1e-14
        )

    def test_psi_upsilon_two_point(self):
        c = ch.two_point(1.0, 2.0)
        psi = op.psi_upsilon(c, np.array([0.0, 1.0]))
        assert psi[0] == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_psi_upsilon_nonnegative_and_locality(self, rng):
        for _ in range(30):
            chain = random_reversible_chain(rng)
            f = rng.normal(size=chain.n)
            psi = op.psi_upsilon(chain, f)
            assert np.all(psi >= 0.0)
        # zero exactly when f is constant on the closed neighbourhood
        star = ch.star([1.0, 1.0], [1.0, 1.0])
        f = np.array([1.0, 1.0, 5.0])  # constant on {center, a1}? no: a2 differs
        assert op.psi_upsilon(star, f)[1] == 0.0  # leaf a1 sees only center
        assert op.psi_upsilon(star, f)[0] > 0.0

    def test_b_identity_is_twice_gamma(self, rng):
        chain = random_reversible_chain(rng, 5)
        f, g = rng.normal(size=5), rng.normal(size=5)
        assert op.b_h(chain, IDENTITY, f, g) == pytest.approx(
            list(2.0 * op.gamma(chain, f, g)), rel=1e-13, abs=1e-14
        )

    def test_b_constant_second_arg(self, rng):
        chain = random_reversible_chain(rng, 5)
        f = rng.normal(size=5)
        assert np.allclose(op.b_h(chain, UPSILON_PRIME, f, np.full(5, 3.0)), 0.0)

    def test_exponential_integral_identity(self, rng):
        # (1/2) int e^g B_{ups'}(g, h) dmu = - int e^g L h dmu
        for _ in range(200):
            chain = random_reversible_chain(rng)
            g = rng.normal(size=chain.n)
            h = rng.normal(size=chain.n)
            lhs = 0.5 * float(chain.pi @ (np.exp(g) * op.b_h(chain, UPSILON_PRIME, g, h)))
            rhs = -float(chain.pi @ (np.exp(g) * op.generator_apply(chain, h)))
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestGamma2:
    def test_two_point_closed_form(self):
        c = ch.two_point(1.0, 1.0)
        f = np.array([0.0, 1.0])
        assert op.gamma(c, f)[0] == pytest.approx(0.5, rel=1e-15)
        assert op.gamma2(c, f)[0] == pytest.approx(1.0, rel=1e-14)

    def test_two_point_formula_any_rates(self, rng):
        # 2 Gamma_2(f)(x) = (3 k(x,~x) k(~x,x) + k(x,~x)^2) (f(~x)-f(x))^2 / 2 ... :
        # Gamma_2(f)(x) = (3ab + a^2) t^2 / 4 at x = 0
        for _ in range(20):
            a, b = rng.uniform(0.2, 3.0, size=2)
            t = rng.normal()
            c = ch.two_point(a, b)
            g2 = op.gamma2(c, np.array([0.0, t]))
            assert g2[0] == pytest.approx((3 * a * b + a * a) * t * t / 4, rel=1e-12)

    def test_psi2_h_half_square_is_gamma2(self, rng):
        chain = random_reversible_chain(rng, 6)
        f = rng.normal(size=6)
        assert op.psi2_h(chain, HALF_SQUARE, f) == pytest.approx(
            list(op.gamma2(chain, f)), rel=1e-12, abs=1e-13
        )

    def test_lattice_identity_field_flat(self):
        lw = ch.lattice_window(1, {1: 1.0, -1: 1.0}, 3)
        f = np.array([float(s) for s in lw.states])
        mid = lw.index("0")
        assert op.gamma2(lw, f)[mid] == pytest.approx(0.0, abs=1e-14)
        assert op.gamma2_lattice(lw, f, mid) == pytest.approx(0.0, abs=1e-14)


class TestPsi2TwoPaths:
    def test_two_point_hand_value(self):
        c = ch.two_point(1.0, 1.0)
        f = np.array([0.0, 1.0])
        expect = 0.5 * (math.exp(-1.0) + math.e)
        assert op.psi2_upsilon(c, f)[0] == pytest.approx(expect, rel=1e-12)
        assert op.psi2_upsilon_expanded(c, f)[0] == pytest.approx(expect, rel=1e-12)

    def test_two_point_general(self, rng):
        # 2 Psi_2(f)(x) = k(~x,x)(e^-t - 1 + t e^t) + k(x,~x)(t e^t - e^t + 1)
        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, size=2)
            t = rng.normal() * 2
            c = ch.two_point(a, b)
            val = op.psi2_upsilon(c, np.array([0.0, t]))[0]
            expect = 0.5 * a * (
                b * (math.exp(-t) - 1 + t * math.exp(t))
                + a * (t * math.exp(t) - math.exp(t) + 1)
            )
            assert val == pytest.approx(expect, rel=1e-11)

    def test_paths_agree_on_random_draws(self, rng):
        for _ in range(1000):
            chain = random_reversible_chain(rng)
            f = rng.normal(size=chain.n) * rng.choice([0.3, 1.0, 4.0])
            a = op.psi2_upsilon(chain, f)
            b = op.psi2_upsilon_expanded(chain, f)
            scale = np.maximum(1e-12, np.abs(a) + np.abs(b))
            assert np.max(np.abs(a - b) / scale) <= 1e-11

    def test_constant_field_zero(self, rng):
        chain = random_reversible_chain(rng, 5)
        assert np.allclose(op.psi2_upsilon(chain, np.full(5, 1.3)), 0.0, atol=1e-14)

    def test_lattice_closed_form(self, rng):
        lw = ch.lattice_window(1, {1: 0.7, -1: 0.7, 2: 0.2, -2: 0.2}, 6)
        interior = lw.meta["interior"]
        for _ in range(50):
            f = rng.normal(size=lw.n)
            psi2 = op.psi2_upsilon(lw, f)
            g2 = op.gamma2(lw, f)
            for x in interior:
                c1 = op.psi2_upsilon_lattice(lw, f, x)
                c2 = op.gamma2_lattice(lw, f, x)
                assert abs(psi2[x] - c1) <= 1e-11 * max(1.0, abs(c1))
                assert abs(g2[x] - c2) <= 1e-11 * max(1.0, abs(c2))

    def test_lattice_closed_forms_2d(self, rng):
        lw = ch.lattice_window(
            2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.5, (0, -1): 0.5}, 3
        )
        assert len(lw.meta["interior"]) == 9
        for _ in range(20):
            f = rng.normal(size=lw.n)
            psi2 = op.psi2_upsilon(lw, f)
            g2 = op.gamma2(lw, f)
            for x in lw.meta["interior"]:
                assert op.psi2_upsilon_lattice(lw, f, x) == pytest.approx(
                    psi2[x], rel=1e-11, abs=1e-12
                )
                assert op.gamma2_lattice(lw, f, x) == pytest.approx(
                    g2[x], rel=1e-11, abs=1e-12
                )

    def test_second_fundamental_identity_nonnegative_on_lattice(self, rng):
        # L Psi_H(f) - B_{H'}(f, Lf) >= 0 for convex H on translation kernels
        lw = ch.lattice_window(1, {1: 1.0, -1: 1.0, 3: 0.5, -3: 0.5}, 8)
        for _ in range(50):
            f = rng.normal(size=lw.n)
            for kernel in (UPSILON, HALF_SQUARE):
                val = 2.0 * op.psi2_h(lw, kernel, f)
                for x in lw.meta["interior"]:
                    assert val[x] >= -1e-12


class TestChainRules:
    def test_log_chain_rule(self, rng):
        for _ in range(200):
            chain = random_reversible_chain(rng)
            f = np.exp(rng.normal(size=chain.n))
            assert op.log_chain_residual(chain, f) <= 1e-12 * max(
                1.0, float(np.max(chain.m1)) * float(np.max(np.abs(np.log(f))))
            )

    def test_log_chain_constant(self):
        k5 = ch.complete(5)
        assert op.log_chain_residual(k5, np.full(5, 2.0)) == 0.0

    def test_log_chain_on_hypercube_exponential(self, rng):
        h3 = ch.hypercube(3)
        g = rng.normal(size=8)
        assert op.log_chain_residual(h3, np.exp(g)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(g))) * 3
        )

    def test_log_chain_requires_positive(self):
        with pytest.raises(NonPositiveField):
            op.log_chain_residual(ch.complete(3), np.array([1.0, -1.0, 2.0]))

    @pytest.mark.parametrize(
        "kernel",
        [HALF_SQUARE, UPSILON, UPSILON_PRIME],
    )
    def test_first_fundamental_identity_free_kernels(self, kernel, rng):
        for _ in range(300):
            chain = random_reversible_chain(rng)
            f = rng.normal(size=chain.n)
            scale = max(1.0, float(np.max(chain.m1)) * math.exp(
                2 * float(np.max(np.abs(f)))
            ))
            assert op.first_fundamental_identity_residual(chain, kernel, f) <= 1e-12 * scale

    @pytest.mark.parametrize("kernel", [LOG_BREGMAN, phi_p_prime_kernel(1.5)])
    def test_first_fundamental_identity_positive_kernels(self, kernel, rng):
        for _ in range(300):
            chain = random_reversible_chain(rng)
            f = np.exp(rng.normal(size=chain.n))
            scale = max(1.0, float(np.max(chain.m1)) * float(np.max(f)))
            assert op.first_fundamental_identity_residual(chain, kernel, f) <= 1e-12 * scale


class TestPOperators:
    def test_constant_field(self):
        k4 = ch.complete(4)
        f = np.full(4, 3.0)
        assert np.allclose(op.psi_p(k4, 1.5, f), 0.0, atol=1e-14)
        assert np.allclose(op.psi2_p(k4, 1.5, f), 0.0, atol=1e-14)

    def test_hand_value_k2(self):
        k2 = ch.complete(2)
        val = op.psi_p(k2, 1.5, np.array([1.0, 4.0]))
        assert val[0] == pytest.approx(1.0, rel=1e-13)

    def test_p_to_one_limit(self, rng):
        chain = random_reversible_chain(rng, 5)
        f = np.exp(rng.normal(size=5))
        near = op.psi_p(chain, 1.0 + 1e-6, f)
        limit = op.psi_upsilon(chain, np.log(f))
        assert near == pytest.approx(list(limit), rel=1e-4, abs=1e-10)
        p2 = op.psi2_p(chain, 1.0 + 1e-6, f)
        lim2 = op.psi2_upsilon(chain, np.log(f))
        assert p2 == pytest.approx(list(lim2), rel=1e-4, abs=1e-9)

    def test_parameter_validation(self):
        k2 = ch.complete(2)
        with pytest.raises(InvalidParameter):
            op.psi_p(k2, 2.3, np.array([1.0, 2.0]))
        with pytest.raises(NonPositiveField):
            op.psi_p(k2, 1.5, np.array([1.0, -2.0]))


class TestMunchCrossCheck:
    def test_agreement_on_unweighted_graphs(self, rng):
        for _ in range(200):
            chain = random_unweighted_graph_chain(rng)
            f = np.exp(rng.normal(size=chain.n))
            a = op.munch_gamma2_log(chain, f)
            b = op.psi2_upsilon(chain, np.log(f))
            scale = np.maximum(1e-9, np.abs(a) + np.abs(b))
            assert np.max(np.abs(a - b) / scale) <= 1e-11

    def test_hypercube_and_cycle(self, rng):
        h2 = ch.hypercube(2)
        f = np.exp(rng.normal(size=4))
        assert op.munch_gamma2_log(h2, f) == pytest.approx(
            list(op.psi2_upsilon(h2, np.log(f))), rel=1e-11, abs=1e-12
        )
        c5 = ch.cycle(5)
        f = np.exp(np.eye(5)[2])
        assert op.munch_gamma2_log(c5, f) == pytest.approx(
            list(op.psi2_upsilon(c5, np.log(f))), rel=1e-11, abs=1e-12
        )

    def test_constant(self):
        h2 = ch.hypercube(2)
        assert np.allclose(op.munch_gamma2_log(h2, np.full(4, 5.0)), 0.0, atol=1e-14)

    def test_weighted_rejected(self):
        c = ch.two_point(1.0, 2.0)
        with pytest.raises(NotUnweighted):
            op.munch_gamma2_log(c, np.array([1.0, 2.0]))


class TestSmallFieldComparison:
    def test_zero_field(self):
        k4 = ch.complete(4)
        rep = op.small_field_comparison(k4, np.zeros(4), 0.01)
        assert rep.ok
        assert rep.psi_lower_slack == 0.0

    def test_small_random_field(self, rng):
        k4 = ch.complete(4)
        f = 1e-3 * rng.normal(size=4)
        f /= max(1.0, np.max(np.abs(f)) / 1e-3)
        rep = op.small_field_comparison(k4, f, 0.01)
        assert rep.ok

    def test_too_large(self):
        k4 = ch.complete(4)
        with pytest.raises(FieldTooLarge):
            op.small_field_comparison(k4, np.array([0.0, 1.0, 0.0, 0.0]), 0.01)

    def test_scaling_limits(self, rng):
        # Psi(lam f)/lam^2 -> Gamma(f), Psi_2(lam f)/lam^2 -> Gamma_2(f) with
        # error O(lam): fit the constant at the coarsest lam, check the rest
        chain = random_reversible_chain(rng, 6)
        f = rng.normal(size=6)
        g = op.gamma(chain, f)
        g2 = op.gamma2(chain, f)
        lams = (1e-2, 1e-3, 1e-4)
        errs = []
        for lam in lams:
            e1 = np.max(np.abs(op.psi_upsilon(chain, lam * f) / lam**2 - g))
            e2 = np.max(np.abs(op.psi2_upsilon(chain, lam * f) / lam**2 - g2))
            errs.append(max(e1, e2))
        fitted_c = errs[0] / lams[0]
        assert np.isfinite(fitted_c)
        for lam, err in zip(lams, errs):
            assert err <= 1.5 * fitted_c * lam
        assert errs[2] <= errs[0] * 0.02  # two decades of lam, linear decay
