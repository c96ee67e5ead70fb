"""Orthonormal score construction and the shifted Legendre limit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from lpstats import (
    build_score_basis,
    cli,
    legendre_eval,
    make_sample,
    mid_ranks,
)
from lpstats.errors import (
    DegenerateSample,
    DomainError,
)

from conftest import random_sample_values


def weighted_gram(basis, masses):
    t = basis.table
    return (t * masses) @ t.T


def gram_schmidt_reference(s, max_order):
    """Modified Gram-Schmidt on the powers of T_1: (table, truncated).

    Two passes per power, masses as weights; a power whose residual norm
    falls below 1e-8 of its own norm ends the basis. `build_score_basis`
    reaches the same spaces by the three-term recurrence.
    """
    p = s.masses
    t1 = (s.fmid - 0.5) / np.sqrt(s.mid_rank_variance)
    rows = []
    for k in range(1, min(max_order, s.r - 1) + 1):
        v = t1 ** k
        pre = np.sqrt(np.sum(p * v * v))
        for _ in range(2):
            v = v - np.sum(p * v)
            for w in rows:
                v = v - np.sum(p * v * w) * w
        nrm = np.sqrt(np.sum(p * v * v))
        if nrm < 1e-8 * pre:
            return np.array(rows).reshape(-1, s.r), True
        rows.append(v / nrm)
    return np.array(rows).reshape(-1, s.r), False


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
        nodes, w = leggauss(32)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * w
        for j in range(0, 9):
            for k in range(j, 9):
                ip = np.sum(w * legendre_eval(j, u) * legendre_eval(k, u))
                assert_allclose(ip, 1.0 if j == k else 0.0, atol=1e-13)

    def test_order_cap(self):
        # no cap above: orthonormal up to the CLI's highest order, under
        # the 128-node rule, which is exact to degree 255
        nodes, w = leggauss(128)
        u = 0.5 * (nodes + 1.0)
        table = np.array([legendre_eval(j, u)
                          for j in range(cli.MAX_ORDER + 1)])
        assert_allclose((table * (0.5 * w)) @ table.T,
                        np.eye(cli.MAX_ORDER + 1), rtol=0, atol=1e-12)
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

    def test_order_far_above_what_the_data_carries(self):
        # ||t1^k|| >= max|t1|^k / sqrt(n) and the monic residual is at most
        # 2 (max|t1| / 2)^k, so no basis passes order 2 + log2(1e8 sqrt(n));
        # a request far beyond it reserves no rows past that order
        s = make_sample(np.random.default_rng(17).standard_normal(100_000))
        b = build_score_basis(s, 10**6)
        table, truncated = gram_schmidt_reference(s, 40)
        assert b.truncated and truncated
        assert b.max_order == table.shape[0] < 2 + np.log2(1e8 * np.sqrt(s.n))
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

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(6, 400),
           st.integers(1, 8))
    def test_recurrence_matches_gram_schmidt_on_powers(self, seed, tied, n,
                                                       order):
        s = make_sample(random_sample_values(np.random.default_rng(seed), n,
                                             tied))
        assume(s.r >= 2)
        b = build_score_basis(s, order)
        table, truncated = gram_schmidt_reference(s, order)
        assert (b.max_order, b.truncated) == (table.shape[0], truncated)
        assert_allclose(b.table, table, rtol=0, atol=1e-10)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["tied", "untied",
                                                       "rounded"]),
           st.integers(3, 1000), st.integers(1, 30), st.integers(0, 30))
    def test_a_lower_order_is_a_prefix_bit_for_bit(self, seed, kind, n, m,
                                                  extra):
        # so an analysis at order m needs no order of its own: it is the
        # analysis of the basis built at m
        rng = np.random.default_rng(seed)
        x = random_sample_values(rng, n, kind == "tied")
        s = make_sample(np.round(x, 1) if kind == "rounded" else x)
        assume(s.r >= 2)
        small = build_score_basis(s, m).table
        big = build_score_basis(s, m + extra).table
        assert small.shape == big[:m].shape
        assert small.tobytes() == big[:m].tobytes()

    def test_legendre_limit_for_continuous_data(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1500)
        s = make_sample(x)
        b = build_score_basis(s, 4)
        for j in range(1, 5):
            ref = legendre_eval(j, s.fmid)
            assert np.max(np.abs(b.table[j - 1] - ref)) < 0.05


class TestDiagnostics:
    def test_reported_errors_are_tiny(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s = make_sample(random_sample_values(rng, 500))
            b = build_score_basis(s, min(4, s.r - 1))
            assert b.mean_error < 1e-12
            assert b.gram_error < 1e-12

    @settings(deadline=None, max_examples=300)
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
        # near the rank limit the two constructions differ in the last
        # digits (up to about 5e-6 here, both orthonormal), but they keep
        # and drop the same orders
        table, truncated = gram_schmidt_reference(s, order)
        assert (b.max_order, b.truncated) == (table.shape[0], truncated)
