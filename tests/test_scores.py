"""Orthonormal score construction and the shifted Legendre limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lpstats import (
    build_score_basis,
    eval_score,
    legendre_eval,
    make_sample,
    mid_ranks,
    score_quantile,
)
from lpstats.errors import (
    DegenerateSample,
    DomainError,
    OrderOutOfRange,
    OrderTooHigh,
)

from conftest import random_sample_values


def weighted_gram(basis, masses):
    t = basis.table
    return (t * masses) @ t.T


class TestLegendreEval:
    def test_closed_forms(self):
        u = np.linspace(0.0, 1.0, 11)
        assert_allclose(legendre_eval(0, u), np.ones_like(u))
        assert_allclose(legendre_eval(1, u), np.sqrt(3) * (2 * u - 1),
                        rtol=1e-14)
        assert_allclose(legendre_eval(2, u),
                        np.sqrt(5) * (6 * u * u - 6 * u + 1), rtol=1e-13,
                        atol=1e-13)

    def test_continuum_orthonormality(self):
        # Gauss-Legendre quadrature integrates the products exactly
        from numpy.polynomial.legendre import leggauss
        nodes, w = leggauss(32)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * w
        for j in range(0, 9):
            for k in range(j, 9):
                ip = np.sum(w * legendre_eval(j, u) * legendre_eval(k, u))
                assert_allclose(ip, 1.0 if j == k else 0.0, atol=1e-13)

    def test_order_cap(self):
        assert np.isfinite(legendre_eval(12, 0.3))
        with pytest.raises(OrderTooHigh):
            legendre_eval(13, 0.3)
        with pytest.raises(DomainError):
            legendre_eval(-1, 0.3)


class TestBasisConstruction:
    def test_two_atom_sample_gives_sign_scores(self):
        s = make_sample([0.0, 1.0])
        b = build_score_basis(s, 1)
        assert_allclose(b.table, [[-1.0, 1.0]], atol=1e-14)

    def test_first_score_is_standardized_mid_rank(self):
        rng = np.random.default_rng(10)
        x = random_sample_values(rng, 100)
        s = make_sample(x)
        b = build_score_basis(s, 3)
        u = s.fmid
        expected = (u - 0.5) / np.sqrt(s.mid_rank_variance)
        assert_allclose(b.table[0], expected, rtol=1e-12)

    def test_orthonormal_under_sample_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tied = bool(rng.integers(0, 2))
            x = random_sample_values(rng, int(rng.integers(6, 300)), tied)
            s = make_sample(x)
            m = min(4, s.r - 1)
            if m < 1:
                continue
            b = build_score_basis(s, m)
            assert_allclose(b.table @ s.masses, 0.0, atol=1e-12)
            assert_allclose(weighted_gram(b, s.masses), np.eye(b.max_order),
                            atol=1e-12)

    def test_order_clipped_to_atoms_minus_one(self):
        s = make_sample([1.0, 1.0, 2.0, 3.0])  # r = 3
        b = build_score_basis(s, 6)
        assert b.max_order == 2
        assert b.requested_order == 6
        # the hard cap is not a numerical failure
        assert not b.truncated

    def test_rank_deficiency_truncates_with_flag(self):
        # one atom carries almost all the mass: under the sample weights
        # the powers of T_1 collapse and Gram-Schmidt must stop early
        x = np.repeat(np.arange(13.0), [200000] + [1] * 12)
        b = build_score_basis(make_sample(x), 12)
        assert b.truncated
        assert b.max_order < 12
        # what survives is still orthonormal
        assert b.gram_error < 1e-10

    def test_single_atom_rejected(self):
        with pytest.raises(DegenerateSample):
            build_score_basis(make_sample([7.0, 7.0]), 1)

    def test_rank_only_dependence(self):
        # any strictly increasing transform leaves every score unchanged
        rng = np.random.default_rng(12)
        x = random_sample_values(rng, 150)
        b1 = build_score_basis(make_sample(x), 4)
        b2 = build_score_basis(make_sample(np.exp(0.3 * x)), 4)
        assert_allclose(b1.table, b2.table, atol=1e-11)

    def test_legendre_limit_for_continuous_data(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1500)
        s = make_sample(x)
        b = build_score_basis(s, 4)
        for j in range(1, 5):
            ref = legendre_eval(j, s.fmid)
            assert np.max(np.abs(b.table[j - 1] - ref)) < 0.05


class TestEvalScore:
    def test_step_extension(self):
        s = make_sample([1.0, 2.0, 4.0])
        b = build_score_basis(s, 2)
        # between atoms: value of the largest atom at or below x
        assert eval_score(b, 1, 3.0) == b.table[0, 1]
        assert eval_score(b, 1, 2.0) == b.table[0, 1]
        # beyond the support: clamp to the nearest atom
        assert eval_score(b, 1, -5.0) == b.table[0, 0]
        assert eval_score(b, 1, 99.0) == b.table[0, 2]

    def test_vectorized_matches_table_at_atoms(self):
        rng = np.random.default_rng(14)
        s = make_sample(random_sample_values(rng, 90))
        b = build_score_basis(s, min(3, s.r - 1))
        for j in range(1, b.max_order + 1):
            assert_allclose(eval_score(b, j, s.values), b.table[j - 1])

    def test_order_bounds(self):
        s = make_sample([1.0, 2.0, 3.0])
        b = build_score_basis(s, 2)
        with pytest.raises(OrderOutOfRange):
            eval_score(b, 0, 1.0)
        with pytest.raises(OrderOutOfRange):
            eval_score(b, 3, 1.0)


class TestScoreQuantile:
    def test_matches_composition_with_quantile(self):
        rng = np.random.default_rng(15)
        s = make_sample(random_sample_values(rng, 70))
        b = build_score_basis(s, 2)
        u = np.array([0.05, 0.3, 0.5, 0.9, 1.0])
        from lpstats import quantile
        assert_allclose(score_quantile(b, 1, u),
                        eval_score(b, 1, quantile(s, u)))

    def test_domain(self):
        s = make_sample([1.0, 2.0])
        b = build_score_basis(s, 1)
        with pytest.raises(DomainError):
            score_quantile(b, 1, 0.0)


class TestDiagnostics:
    def test_reported_errors_are_tiny(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s = make_sample(random_sample_values(rng, 500))
            b = build_score_basis(s, min(4, s.r - 1))
            assert b.mean_error < 1e-12
            assert b.gram_error < 1e-12

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=16),
           st.integers(0, 15), st.integers(1, 200_000), st.integers(1, 12))
    def test_tied_bases_are_orthonormal_and_flag_dropped_orders(
            self, counts, heavy, weight, order):
        # one atom may carry most of the mass, which makes high powers of
        # T_1 numerically dependent on the lower ones
        counts[heavy % len(counts)] = weight
        s = make_sample(np.repeat(np.arange(len(counts), dtype=float), counts))
        b = build_score_basis(s, order)
        assert b.gram_error < 1e-10
        assert b.mean_error < 1e-10
        assert b.truncated == (b.max_order < min(order, s.r - 1))
