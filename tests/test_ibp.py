"""Unit tests for the unbounded-cause prior over Z."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from hiddencauses import harmonic_number, log_prior_Z_ibp, sample_ibp
from hiddencauses.ibp import _poisson_draw


class TestHarmonicNumber:
    def test_known_values(self):
        assert harmonic_number(1) == 1.0
        np.testing.assert_allclose(harmonic_number(3), 11.0 / 6.0, rtol=1e-12)
        assert harmonic_number(0) == 0.0


class TestSampleIbp:
    def test_shapes_and_dtype(self):
        rng = np.random.default_rng(0)
        Z = sample_ibp(5, 2.0, rng)
        assert Z.dtype == np.int8
        assert Z.shape[0] == 5
        assert Z.ndim == 2

    def test_no_all_zero_columns(self):
        """Every sampled column is introduced by some row, so it has an edge."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            Z = sample_ibp(4, 1.5, rng)
            if Z.shape[1]:
                assert (Z.sum(axis=0) > 0).all()

    def test_alpha_zero_gives_no_columns(self):
        rng = np.random.default_rng(2)
        assert sample_ibp(3, 0.0, rng).shape == (3, 0)

    def test_seed_reproducible(self):
        a = sample_ibp(6, 2.5, np.random.default_rng(42))
        b = sample_ibp(6, 2.5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_mean_column_count_tracks_alpha_harmonic(self):
        """E[K+] = alpha * H_N: checked loosely here, tightly in acceptance."""
        rng = np.random.default_rng(3)
        draws = [sample_ibp(4, 2.0, rng).shape[1] for _ in range(4000)]
        target = 2.0 * harmonic_number(4)
        assert abs(np.mean(draws) - target) < 0.15

    def test_alpha_beyond_sequential_draw_refused(self):
        """At mean 800, exp(-mean) underflows and the sequential Poisson
        search would run to its step cap and return a wrong count."""
        with pytest.raises(ValueError, match="Poisson mean 800"):
            sample_ibp(6, 800.0, np.random.default_rng(0))
        assert _poisson_draw(700.0, np.random.default_rng(0)) > 0  # still normal

    def test_stalled_poisson_search_refused(self):
        """At mean 10 the summed pmf stops just below 1, so a uniform of 1
        never meets it: the search raises instead of returning its cap."""

        class Ones:
            def random(self):
                return 1.0

        with pytest.raises(ValueError, match="did not end"):
            _poisson_draw(10.0, Ones())


class TestLogPriorZIbp:
    def test_empty_matrix_value(self):
        """P(no causes) = exp(-alpha H_N)."""
        got = log_prior_Z_ibp(np.zeros((3, 0), dtype=np.int8), 2.0)
        np.testing.assert_allclose(got, -2.0 * harmonic_number(3), rtol=1e-12)

    def test_single_row_single_column(self):
        """N = 1: one column has probability alpha e^{-alpha} / 1 at alpha = 1."""
        got = log_prior_Z_ibp(np.array([[1]], dtype=np.int8), 1.0)
        np.testing.assert_allclose(got, -1.0, rtol=1e-12)

    def test_single_row_classes_normalize(self):
        """N = 1: k identical [1] columns carry alpha^k e^{-alpha} / k!,
        a Poisson(alpha) pmf, so the class probabilities sum to one."""
        alpha = 1.5
        total = sum(
            np.exp(log_prior_Z_ibp(np.ones((1, k), dtype=np.int8), alpha))
            for k in range(0, 30)
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-10)

    def test_column_order_invariant(self):
        Z = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int8)
        perm = Z[:, [1, 2, 0]]
        np.testing.assert_allclose(
            log_prior_Z_ibp(Z, 2.0), log_prior_Z_ibp(perm, 2.0), rtol=1e-12
        )

    def test_duplicate_columns_lower_mass_via_history_factorial(self):
        """Two identical columns divide the class weight by 2! compared with
        the product of two distinct singleton columns of equal row count."""
        alpha = 1.0
        dup = np.array([[1, 1], [0, 0]], dtype=np.int8)
        distinct = np.array([[1, 0], [0, 1]], dtype=np.int8)
        np.testing.assert_allclose(
            np.exp(log_prior_Z_ibp(dup, alpha)) * 2.0,
            np.exp(log_prior_Z_ibp(distinct, alpha)),
            rtol=1e-12,
        )

    def test_column_patterns_compared_exactly_past_64_rows(self):
        """At N = 66, columns {0, 2} and {2} are distinct patterns (K_h = 1
        each); packing rows into an int64 mapped both to -2^63."""
        alpha, n = 1.5, 66
        Z = np.zeros((n, 2), dtype=np.int8)
        Z[[0, 2], 0] = 1
        Z[2, 1] = 1
        m = Z.sum(axis=0)
        expected = (
            2 * math.log(alpha) - alpha * harmonic_number(n)
            + np.sum(gammaln(n - m + 1.0) + gammaln(m) - gammaln(n + 1.0))
        )
        np.testing.assert_allclose(log_prior_Z_ibp(Z, alpha), expected, rtol=1e-12)

    def test_rejects_all_zero_column(self):
        with pytest.raises(ValueError):
            log_prior_Z_ibp(np.array([[1, 0], [1, 0]], dtype=np.int8), 1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            log_prior_Z_ibp(np.zeros((2, 0), dtype=np.int8), 0.0)
