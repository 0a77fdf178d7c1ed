"""Unit tests for synthetic data, recovery metrics, and the enumeration oracle."""

import math

import numpy as np
import pytest

from hiddencauses import (
    ModelParams,
    SamplerState,
    UniformK,
    exact_kplus_mixture,
    exact_posterior_oracle,
    generate_dataset,
)
from hiddencauses.harness import (
    CANONICAL_STRUCTURES,
    GroundTruth,
    PosteriorSummary,
    RejectionError,
    SummaryAccumulator,
    canonical_structure,
    encode_state,
    in_degree_error,
    rejection_sample_Z,
    structure_error,
)

PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)


class TestCanonicalStructures:
    def test_known_shapes(self):
        assert canonical_structure("degree1").shape == (6, 6)
        assert canonical_structure("disconnected").shape == (8, 4)
        assert canonical_structure("undercomplete").shape == (8, 4)
        assert canonical_structure("overcomplete").shape == (6, 8)

    def test_degree1_is_identity(self):
        np.testing.assert_array_equal(canonical_structure("degree1"), np.eye(6))

    def test_disconnected_has_no_cross_block_pairs(self):
        Z = canonical_structure("disconnected")
        zzt = Z @ Z.T
        assert (zzt[:4, 4:] == 0).all()

    def test_every_row_and_column_covered(self):
        for name in CANONICAL_STRUCTURES:
            Z = canonical_structure(name)
            assert (Z.sum(axis=1) > 0).all(), name
            assert (Z.sum(axis=0) > 0).all(), name

    def test_returns_a_copy(self):
        Z = canonical_structure("degree1")
        Z[0, 0] = 0
        assert canonical_structure("degree1")[0, 0] == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown structure"):
            canonical_structure("grid")


class TestRejectionSampling:
    def test_hits_target_dimension(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            Z = rejection_sample_Z(6, k, 3.0, rng)
            assert Z.shape == (6, k)
            assert (Z.sum(axis=0) > 0).all()

    def test_deterministic(self):
        a = rejection_sample_Z(5, 2, 2.0, np.random.default_rng(32))
        b = rejection_sample_Z(5, 2, 2.0, np.random.default_rng(32))
        np.testing.assert_array_equal(a, b)

    def test_budget_exhaustion(self):
        with pytest.raises(RejectionError) as info:
            rejection_sample_Z(2, 40, 1.0, np.random.default_rng(33), max_tries=5)
        assert info.value.k_target == 40
        assert info.value.tries == 5


class TestGenerateDataset:
    def test_shapes_and_truth(self):
        Z = canonical_structure("degree1")
        data = generate_dataset(Z, 20, PARAMS, np.random.default_rng(34))
        assert data.X.shape == (6, 20)
        assert isinstance(data.truth, GroundTruth)
        np.testing.assert_array_equal(data.truth.Z, Z)
        assert data.truth.Y.shape == (6, 20)
        assert data.truth.params == PARAMS

    def test_deterministic(self):
        Z = canonical_structure("disconnected")
        a = generate_dataset(Z, 15, PARAMS, np.random.default_rng(35))
        b = generate_dataset(Z, 15, PARAMS, np.random.default_rng(35))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.truth.Y, b.truth.Y)

    def test_noise_free_limit(self):
        """lam = 1, eps = 0: X is exactly the support of Z Y."""
        params = ModelParams(epsilon=0.0, lam=1.0, p=0.5, alpha=1.0)
        Z = canonical_structure("degree1")
        data = generate_dataset(Z, 30, params, np.random.default_rng(36))
        counts = Z.astype(int) @ data.truth.Y.astype(int)
        np.testing.assert_array_equal(data.X, (counts > 0).astype(np.int8))

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            generate_dataset(np.eye(2, dtype=np.int8), 0, PARAMS, np.random.default_rng(0))


class TestSummaryAccumulator:
    def test_exact_means_over_two_states(self):
        acc = SummaryAccumulator(2)
        s1 = SamplerState.from_matrices(
            np.array([[1, 0], [0, 1]], dtype=np.int8), np.zeros((2, 3), dtype=np.int8), PARAMS
        )
        s2 = SamplerState.from_matrices(
            np.array([[1], [1]], dtype=np.int8), np.zeros((1, 3), dtype=np.int8), PARAMS
        )
        acc.add(s1)
        acc.add(s2)
        got = acc.summary()
        assert got.sample_count == 2
        assert got.mean_kplus == 1.5
        assert got.mean_k == 1.5
        want_zzt = (np.eye(2) + np.ones((2, 2))) / 2
        np.testing.assert_allclose(got.mean_zzt, want_zzt)

    def test_empty_accumulator_raises(self):
        with pytest.raises(ValueError):
            SummaryAccumulator(2).summary()


class TestRecoveryMetrics:
    def test_hand_values(self):
        Z_true = np.eye(2, dtype=np.int8)
        est = np.array([[0.5, 0.2], [0.2, 1.0]])
        np.testing.assert_allclose(in_degree_error(est, Z_true), 0.5)
        np.testing.assert_allclose(structure_error(est, Z_true), 0.2)

    def test_accepts_posterior_summary(self):
        Z_true = np.eye(2, dtype=np.int8)
        summary = PosteriorSummary(
            mean_kplus=2.0, mean_k=2.0, mean_zzt=np.eye(2), sample_count=5
        )
        assert in_degree_error(summary, Z_true) == 0.0
        assert structure_error(summary, Z_true) == 0.0

    def test_perfect_recovery_is_zero(self):
        Z = canonical_structure("overcomplete")
        zzt = (Z.astype(int) @ Z.T.astype(int)).astype(float)
        assert in_degree_error(zzt, Z) == 0.0
        assert structure_error(zzt, Z) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            in_degree_error(np.eye(3), np.eye(2, dtype=np.int8))
        with pytest.raises(ValueError):
            structure_error(np.eye(3), np.eye(2, dtype=np.int8))


class TestEncodeState:
    def test_bit_order(self):
        """Z bits sit above Y bits; the first flattened entry is the MSB."""
        code = encode_state([[1, 0]], [[1], [0]])
        assert code == (0b10 << 2) | 0b10
        assert encode_state([[0, 0]], [[0], [0]]) == 0
        assert encode_state([[1, 1]], [[1], [1]]) == 0b1111

    def test_bijective_on_small_grid(self):
        seen = set()
        for z0 in (0, 1):
            for z1 in (0, 1):
                for y0 in (0, 1):
                    seen.add(encode_state([[z0, z1]], [[y0], [0]]))
        assert len(seen) == 8


class TestExactPosteriorOracle:
    def test_single_cell_hand_case(self):
        """N = K = T = 1, eps = .2, lam = .5, p = .4, x = 1: the four
        states weigh (.06, .04, .06, .12), so P(z=1) = 9/14 and the fully
        active state carries 3/7."""
        params = ModelParams(epsilon=0.2, lam=0.5, p=0.4, alpha=1.0)
        X = np.array([[1]], dtype=np.int8)
        oracle = exact_posterior_oracle(X, 1, params)
        np.testing.assert_allclose(oracle.probs.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(oracle.z_marginals, [[9.0 / 14.0]], rtol=1e-12)
        np.testing.assert_allclose(oracle.kplus_dist, [5.0 / 14.0, 9.0 / 14.0], rtol=1e-12)
        np.testing.assert_allclose(oracle.log_evidence, math.log(0.28), rtol=1e-12)
        for z, want in ((1, 3.0 / 7.0), (0, 1.0 / 7.0)):
            code = encode_state([[z]], [[1]])  # z's bit above the K T = 1 bit of Y
            np.testing.assert_allclose(oracle.probs[code >> 1, code & 1], want, rtol=1e-12)

    def test_normalization_and_marginal_bounds(self):
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.0)
        X = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
        oracle = exact_posterior_oracle(X, 2, params)
        np.testing.assert_allclose(oracle.probs.sum(), 1.0, atol=1e-10)
        np.testing.assert_allclose(oracle.kplus_dist.sum(), 1.0, atol=1e-10)
        assert ((oracle.z_marginals >= 0) & (oracle.z_marginals <= 1)).all()

    def test_state_space_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            exact_posterior_oracle(np.zeros((4, 10), dtype=np.int8), 3, PARAMS)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_posterior_oracle(np.zeros((1, 1), dtype=np.int8), 0, PARAMS)

    def test_mixture_matches_manual_weighting(self):
        params = ModelParams(epsilon=0.2, lam=0.5, p=0.4, alpha=1.0)
        X = np.array([[1, 0]], dtype=np.int8)
        prior = UniformK(k_max=2)
        got = exact_kplus_mixture(X, params, prior, k_values=(1, 2))
        o1 = exact_posterior_oracle(X, 1, params)
        o2 = exact_posterior_oracle(X, 2, params)
        w = np.array([o1.log_evidence, o2.log_evidence])  # uniform P(K) cancels
        w = np.exp(w - w.max())
        w /= w.sum()
        want = np.zeros(3)
        want[:2] += w[0] * o1.kplus_dist
        want += w[1] * o2.kplus_dist
        np.testing.assert_allclose(got, want, rtol=1e-10)
        np.testing.assert_allclose(got.sum(), 1.0, atol=1e-12)
