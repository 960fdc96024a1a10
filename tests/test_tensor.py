import math

import numpy as np
import pytest

from upsilon_cd import chains as ch
from upsilon_cd import curvature as cv
from upsilon_cd import operators as op
from upsilon_cd import tensor as tn
from upsilon_cd.errors import InvalidParameter, PrerequisiteFailed, SizeOverflow

from conftest import random_reversible_chain

FAST = cv.CurvatureOptions(starts=24, maxiter=200)


class TestProduct:
    def test_k2_squared_is_hypercube2(self):
        prod = tn.product(ch.complete(2), ch.complete(2))
        h2 = ch.hypercube(2)
        # flat row-major order matches binary counting
        for i in range(4):
            for j in range(4):
                assert prod.chain.rate(i, j) == h2.rate(i, j)
        assert np.allclose(prod.chain.pi, h2.pi)

    def test_rate_rule(self, rng):
        c1 = random_reversible_chain(rng, 3)
        c2 = random_reversible_chain(rng, 4)
        prod = tn.product(c1, c2)
        for x1 in range(3):
            for y1 in range(4):
                for x2 in range(3):
                    for y2 in range(4):
                        expect = 0.0
                        if y1 == y2:
                            expect = c1.rate(x1, x2)
                        if x1 == x2:
                            expect = c2.rate(y1, y2)
                        got = prod.chain.rate(prod.flat(x1, y1), prod.flat(x2, y2))
                        if (x1, y1) != (x2, y2):
                            assert got == expect

    def test_measure_outer_product(self):
        prod = tn.product(ch.two_point(1.0, 2.0), ch.two_point(3.0, 4.0))
        outer = np.outer(ch.two_point(1.0, 2.0).pi, ch.two_point(3.0, 4.0).pi).ravel()
        assert np.allclose(prod.chain.pi, outer, rtol=1e-14, atol=0)

    def test_labels(self):
        prod = tn.product(ch.two_point(1.0, 2.0), ch.complete(2))
        assert prod.chain.states == ("0|0", "0|1", "1|0", "1|1")

    def test_generator_slice_additivity(self, rng):
        c1 = random_reversible_chain(rng, 3)
        c2 = random_reversible_chain(rng, 4)
        prod = tn.product(c1, c2)
        for _ in range(100):
            f = rng.normal(size=12)
            lf = op.generator_apply(prod.chain, f)
            for v in range(12):
                i1, i2 = prod.unflat(v)
                split = (
                    op.generator_apply(c1, prod.slice1(f, i2))[i1]
                    + op.generator_apply(c2, prod.slice2(f, i1))[i2]
                )
                assert lf[v] == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_psi_upsilon_splits_exactly(self, rng):
        c1 = random_reversible_chain(rng, 3)
        c2 = random_reversible_chain(rng, 3)
        prod = tn.product(c1, c2)
        for _ in range(50):
            f = rng.normal(size=9)
            psi = op.psi_upsilon(prod.chain, f)
            for v in range(9):
                i1, i2 = prod.unflat(v)
                split = (
                    op.psi_upsilon(c1, prod.slice1(f, i2))[i1]
                    + op.psi_upsilon(c2, prod.slice2(f, i1))[i2]
                )
                assert abs(psi[v] - split) <= 1e-12 * max(1.0, abs(psi[v]))

    def test_psi2_superadditive(self, rng):
        c1 = random_reversible_chain(rng, 3)
        c2 = random_reversible_chain(rng, 3)
        prod = tn.product(c1, c2)
        for _ in range(50):
            f = rng.normal(size=9)
            psi2 = op.psi2_upsilon(prod.chain, f)
            for v in range(9):
                i1, i2 = prod.unflat(v)
                split = (
                    op.psi2_upsilon(c1, prod.slice1(f, i2))[i1]
                    + op.psi2_upsilon(c2, prod.slice2(f, i1))[i2]
                )
                assert psi2[v] >= split - 1e-10

    def test_size_overflow(self):
        big = ch.cycle(1001)
        with pytest.raises(SizeOverflow):
            tn.product(big, big)

    def test_spec_roundtrip(self, tmp_path):
        prod = tn.product(ch.two_point(1.0, 2.0), ch.complete(2))
        path = tmp_path / "prod.json"
        ch.dump_spec(prod.chain, path)
        again = ch.load_spec(path)
        assert again.states == prod.chain.states
        assert np.array_equal(again.pi, prod.chain.pi)


class TestTensorCurvature:
    def test_k2_times_k2(self):
        rep = tn.tensor_curvature_check(
            ch.complete(2), 2.0, ch.complete(2), 2.0, opts=FAST
        )
        assert rep.kappa == 2.0
        assert rep.all_hold
        assert rep.superadditivity_slack >= -1e-10
        est = cv.cd_upsilon_kappa(tn.product(ch.complete(2), ch.complete(2)).chain, 0)
        assert est.kappa == pytest.approx(2.0, abs=1e-5)

    def test_h2_times_k2_is_h3(self):
        prod = tn.product(ch.hypercube(2), ch.complete(2))
        h3 = ch.hypercube(3)
        for i in range(8):
            for j in range(8):
                assert prod.chain.rate(i, j) == h3.rate(i, j)
        rep = tn.tensor_curvature_check(
            ch.hypercube(2), 2.0, ch.complete(2), 2.0, opts=FAST
        )
        assert rep.all_hold

    def test_min_rule_weighted(self):
        rep = tn.tensor_curvature_check(
            ch.two_point(1.0, 1.0), 2.0, ch.two_point(5.0, 5.0), 10.0, opts=FAST
        )
        assert rep.kappa == 2.0
        assert rep.all_hold

    @pytest.mark.parametrize("second", ["K2", "weighted_4cycle"])
    def test_batched_verdicts_match_per_vertex_checks(self, second, monkeypatch):
        c1 = ch.two_point(1.3, 0.7)
        c2 = ch.two_point(0.9, 1.6) if second == "K2" else ch.weighted_4cycle(0.7, 1.9, 1.3, 0.4)
        k1, k2 = (
            min(cv.cd_upsilon_kappa(c, x, FAST).kappa for x in range(c.n)) - 1e-5
            for c in (c1, c2)
        )
        decided = []
        decide = tn._decide

        def recorded(*args):
            decided.append(decide(*args))
            return decided[-1]

        monkeypatch.setattr(tn, "_decide", recorded)
        rep = tn.tensor_curvature_check(c1, k1, c2, k2, opts=FAST)
        prod = tn.product(c1, c2).chain
        singles = [cv.cd_upsilon_check(prod, rep.kappa, x, FAST) for x in range(prod.n)]
        batched = decided[c1.n + c2.n :]
        assert [v for v, _, _ in rep.per_vertex] == list(range(prod.n))
        assert [(holds, slack) for _, holds, slack in rep.per_vertex] == [
            (res.holds, res.worst_slack) for res in batched
        ]
        # bit for bit: the same slack, counterexample and diagnostics
        for res, single in zip(batched, singles):
            assert res.holds == single.holds
            assert res.worst_slack.hex() == single.worst_slack.hex()
            assert res.diagnostics == single.diagnostics
            if single.counterexample is None:
                assert res.counterexample is None
            else:
                np.testing.assert_array_equal(res.counterexample, single.counterexample)

    def test_k2_factors_share_one_lockstep(self, monkeypatch):
        # both K2 factors have one two-ball shape: their four vertices
        # descend in one lockstep, the product's four in a second
        calls = []
        lockstep = cv._lockstep

        def counted(fun, z, *args):
            calls.append(len(z))
            return lockstep(fun, z, *args)

        monkeypatch.setattr(cv, "_lockstep", counted)
        rep = tn.tensor_curvature_check(
            ch.complete(2), 2.0 - 1e-6, ch.two_point(1.5, 1.5), 3.0 - 1e-6, opts=FAST
        )
        assert rep.all_hold
        prob = cv.VertexProblem(ch.complete(2), 0)
        rows = len(cv._start_points(prob, FAST, np.random.default_rng(0)))
        assert len(calls) == 2 and calls[0] == 4 * rows

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_is_rejected_before_any_descent(self, kappa, monkeypatch):
        def no_descent(*args):
            raise AssertionError("descended")

        monkeypatch.setattr(cv, "_lockstep", no_descent)
        for k1, k2 in ((kappa, 1.0), (1.0, kappa)):
            with pytest.raises(InvalidParameter, match="kappa must be finite"):
                tn.tensor_curvature_check(ch.complete(2), k1, ch.complete(2), k2, opts=FAST)

    def test_prerequisite_failure_names_the_first_failing_vertex(self):
        # the 4-cycle's vertex constants differ and the lowest two sit at
        # vertices 2 and 3; above them the first failing vertex is the one a
        # per-vertex loop meets first
        c2 = ch.weighted_4cycle(1.9, 0.7, 0.4, 1.3)
        ks = sorted(cv.cd_upsilon_kappa(c2, x, FAST).kappa for x in range(c2.n))
        kappa2 = 0.5 * (ks[1] + ks[2])
        first = next(
            x for x in range(c2.n) if not cv.cd_upsilon_check(c2, kappa2, x, FAST).holds
        )
        assert first == 2
        with pytest.raises(PrerequisiteFailed, match=f"at vertex {first}$"):
            tn.tensor_curvature_check(ch.complete(2), 2.0, c2, kappa2, opts=FAST)

    def test_prerequisite_failure(self):
        with pytest.raises(PrerequisiteFailed, match="^first factor fails its own bound 5.0"):
            tn.tensor_curvature_check(
                ch.complete(2), 5.0, ch.complete(2), 2.0, opts=FAST
            )
        with pytest.raises(PrerequisiteFailed, match="^second factor fails its own bound 5.0"):
            tn.tensor_curvature_check(
                ch.complete(2), 2.0, ch.complete(2), 5.0, opts=FAST
            )
