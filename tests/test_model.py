"""Unit tests for the observation model, priors, and sampler state."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from helpers import check_consistency
from hiddencauses import (
    DegenerateModelError,
    ModelParams,
    SamplerState,
    log_joint,
    log_likelihood,
    log_prior_Z_finite,
    log_prior_Z_ibp,
)
from hiddencauses.model import (
    _finite_column_log_priors,
    as_binary_matrix,
    log_pmf_noisy_or,
    log_prior_Y,
    log_prior_Z_finite_from_sums,
)

PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)

# 2-D arrays of many dtypes, some with entries that are not 0 or 1
ENTRY_CHECK_CASES = [
    np.array([[0, 1], [1, 1]], dtype=np.int8),
    np.array([[0, 2], [1, 1]], dtype=np.int8),
    np.array([[0.0, 1.0], [1.0, 1.0]]),
    np.array([[0.0, np.nan], [1.0, 1.0]]),
    np.array([[0.5, 1.0], [1.0, 1.0]]),
    np.array([[False, True], [True, True]]),
    np.array([[0, 1], [1, 1]], dtype=complex),
    np.array([[0, 1j], [1, 1]]),
    np.array([[0, 1], [1, 1]], dtype=object),
    np.array([[0, "a"], [1, 1]], dtype=object),
    np.array([[None, 1], [1, 1]], dtype=object),
    np.array([["0", "1"], ["1", "1"]]),
]


class TestModelParams:
    def test_valid_ranges_accepted(self):
        """Boundary values inside the documented ranges construct fine."""
        ModelParams(epsilon=0.0, lam=0.0, p=0.0, alpha=1e-9)
        ModelParams(epsilon=0.999, lam=1.0, p=1.0, alpha=100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 1.0},
            {"epsilon": -0.1},
            {"lam": 1.5},
            {"lam": -0.1},
            {"p": 1.01},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"alpha": math.inf},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        base = {"epsilon": 0.01, "lam": 0.9, "p": 0.1, "alpha": 3.0}
        with pytest.raises(ValueError):
            ModelParams(**{**base, **kwargs})

    def test_replace_returns_new_instance(self):
        changed = PARAMS.replace(lam=0.5)
        assert changed.lam == 0.5
        assert changed.epsilon == PARAMS.epsilon
        assert PARAMS.lam == 0.9

    def test_frozen(self):
        with pytest.raises(Exception):
            PARAMS.lam = 0.2


class TestAsBinaryMatrix:
    def test_converts_to_int8(self):
        arr = as_binary_matrix([[0, 1], [1, 0]])
        assert arr.dtype == np.int8
        assert arr.shape == (2, 2)

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError, match="0 or 1"):
            as_binary_matrix([[0, 2]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            as_binary_matrix([0, 1, 1])

    def test_empty_allowed(self):
        arr = as_binary_matrix(np.zeros((0, 3)))
        assert arr.shape == (0, 3)

    def test_name_in_message(self):
        with pytest.raises(ValueError, match="Z entries"):
            as_binary_matrix([[3]], "Z")

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    @pytest.mark.parametrize("arr", ENTRY_CHECK_CASES, ids=lambda a: str(a.dtype))
    def test_entry_check_matches_isin(self, arr):
        """as_binary_matrix and log_prior_Z_ibp refuse exactly the arrays
        in which np.isin finds an entry other than 0 and 1."""
        for check in (as_binary_matrix, lambda a: log_prior_Z_ibp(a, 1.0)):
            if np.isin(arr, (0, 1)).all():
                check(arr)
            else:
                with pytest.raises(ValueError, match="entries must be 0 or 1"):
                    check(arr)


class TestNoisyOr:
    def test_hand_values(self):
        """P(x = 1 | c) = 1 - (1-lam)^c (1-eps) at lam=0.9, eps=0.01 for c = 0, 1, 2."""
        on = np.exp(log_pmf_noisy_or(1, np.arange(3), PARAMS.lam, PARAMS.epsilon))
        np.testing.assert_allclose(on, [0.01, 0.901, 0.9901])

    def test_monotone_in_count(self):
        on = np.exp(log_pmf_noisy_or(1, np.arange(6), PARAMS.lam, PARAMS.epsilon))
        assert (np.diff(on) > 0).all()

    def test_log_pmf_matches_probabilities(self):
        counts = np.array([[0, 1], [2, 3]])
        x = np.array([[1, 0], [1, 0]])
        got = log_pmf_noisy_or(x, counts, 0.9, 0.01)
        want = np.where(
            x == 1,
            np.log(1.0 - 0.1**counts * 0.99),
            np.log(0.1**counts * 0.99),
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_float_counts_accepted(self):
        counts = np.array([[0, 1], [2, 3]])
        x = np.array([[1, 0], [1, 0]])
        np.testing.assert_array_equal(
            log_pmf_noisy_or(x, counts.astype(np.float64), 0.9, 0.01),
            log_pmf_noisy_or(x, counts, 0.9, 0.01),
        )

    def test_boundary_gives_neg_inf_not_nan(self):
        """x = 1 with eps = 0 and no active cause has zero probability."""
        got = log_pmf_noisy_or(np.array([1]), np.array([0]), 0.5, 0.0)
        assert got[0] == -math.inf
        got = log_pmf_noisy_or(np.array([0]), np.array([1]), 1.0, 0.0)
        assert got[0] == -math.inf
        assert not np.isnan(
            log_pmf_noisy_or(np.array([[0, 1]]), np.array([[0, 0]]), 1.0, 0.0)
        ).any()


class TestLogLikelihood:
    def test_hand_case(self):
        """Four entries, one of each (x, active-count) combination."""
        Z = [[1], [1]]
        Y = [[1, 0]]
        X = [[1, 0], [0, 1]]
        params = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=1.0)
        want = math.log(0.901) + math.log(0.99) + math.log(0.099) + math.log(0.01)
        np.testing.assert_allclose(log_likelihood(X, Z, Y, params), want, rtol=1e-12)

    def test_empty_dimensions_give_zero(self):
        assert log_likelihood(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((2, 3)), PARAMS) == 0.0
        assert log_likelihood(np.zeros((2, 0)), np.zeros((2, 1)), np.zeros((1, 0)), PARAMS) == 0.0

    def test_no_causes(self):
        """With K = 0 every observation is explained by the leak alone."""
        X = np.array([[1, 0]])
        got = log_likelihood(X, np.zeros((1, 0)), np.zeros((0, 2)), PARAMS)
        np.testing.assert_allclose(got, math.log(0.01) + math.log(0.99), rtol=1e-12)

    @pytest.mark.parametrize(
        "z_shape,y_shape",
        [((3, 2), (2, 4)), ((2, 2), (2, 5)), ((2, 3), (2, 4))],
    )
    def test_shape_mismatch_raises(self, z_shape, y_shape):
        X = np.zeros((2, 4), dtype=np.int8)
        with pytest.raises(ValueError):
            log_likelihood(X, np.zeros(z_shape, dtype=np.int8), np.zeros(y_shape, dtype=np.int8), PARAMS)

    @pytest.mark.parametrize("score", [log_likelihood, log_joint])
    @pytest.mark.parametrize("name, X, Z, Y", [
        ("X", [[2, 0], [1, -1]], [[1], [1]], [[1, 0]]),
        ("Z", [[1, 0], [0, 1]], [[3], [1]], [[1, 0]]),
        ("Y", [[1, 0], [0, 1]], [[1], [1]], [[2, 0]]),
    ])
    def test_non_binary_entries_raise(self, score, name, X, Z, Y):
        """An entry outside {0, 1} would read a wrong table entry; it is refused."""
        with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
            score(X, Z, Y, PARAMS)


class TestLogPriorY:
    def test_hand_value(self):
        np.testing.assert_allclose(log_prior_Y([[1, 0]], 0.1), math.log(0.1 * 0.9), rtol=1e-12)

    def test_boundary_p(self):
        """p = 0 tolerates all-zero Y and forbids any 1, and symmetrically."""
        assert log_prior_Y([[0, 0]], 0.0) == 0.0
        assert log_prior_Y([[1, 0]], 0.0) == -math.inf
        assert log_prior_Y([[1, 1]], 1.0) == 0.0
        assert log_prior_Y([[1, 0]], 1.0) == -math.inf

    def test_empty(self):
        assert log_prior_Y(np.zeros((0, 4)), 0.3) == 0.0


class TestFinitePriorZ:
    def test_single_cell_hand_values(self):
        """N = 1, K = 1, alpha = 1: both states carry probability 1/2."""
        np.testing.assert_allclose(np.exp(log_prior_Z_finite([[0]], 1, 1.0)), 0.5, rtol=1e-12)
        np.testing.assert_allclose(np.exp(log_prior_Z_finite([[1]], 1, 1.0)), 0.5, rtol=1e-12)

    def test_column_exchangeable(self):
        Z = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=np.int8)
        perm = Z[:, [2, 0, 1]]
        np.testing.assert_allclose(
            log_prior_Z_finite(Z, 3, 2.0), log_prior_Z_finite(perm, 3, 2.0), rtol=1e-12
        )

    def test_normalizes_spot_check(self):
        """Probabilities over all Z sum to one (N = 2, K = 2, alpha = 1.7)."""
        total = 0.0
        for code in range(16):
            Z = np.array([[code >> 3 & 1, code >> 2 & 1], [code >> 1 & 1, code & 1]])
            total += np.exp(log_prior_Z_finite(Z, 2, 1.7))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_column_count_must_match_k(self):
        with pytest.raises(ValueError):
            log_prior_Z_finite([[1, 0]], 3, 1.0)

    def test_k_zero_from_sums(self):
        assert log_prior_Z_finite_from_sums(np.zeros(0), 2, 0, 1.0) == 0.0

    def test_table_gather_equals_per_column_expression(self):
        """Bit for bit, the sums gathered from the cached column table equal
        the per-column gammaln expression summed in column order, and the
        table is shared and read-only."""
        rng = np.random.default_rng(19)
        for _ in range(300):
            n, k = int(rng.integers(1, 97)), int(rng.integers(1, 40))
            alpha = float(rng.choice([rng.uniform(0.01, 10.0), 0.5, 1.0, 2.0]))
            sums = rng.integers(0, n + 1, size=k)
            m, ak = sums.astype(np.float64), alpha / k
            per_col = (math.log(ak) + gammaln(m + ak) + gammaln(n - m + 1.0)
                       - gammaln(n + 1.0 + ak))
            assert log_prior_Z_finite_from_sums(sums, n, k, alpha) == float(per_col.sum())
        table = _finite_column_log_priors(4, 2, 1.5)
        assert table is _finite_column_log_priors(4, 2, 1.5)
        with pytest.raises(ValueError):
            table[0] = 0.0


class TestLogJoint:
    def test_decomposes_into_parts(self):
        from hiddencauses import log_prior_Z_ibp

        Z = np.array([[1, 0], [1, 1]], dtype=np.int8)
        Y = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        X = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int8)
        want = (
            log_likelihood(X, Z, Y, PARAMS)
            + log_prior_Y(Y, PARAMS.p)
            + log_prior_Z_ibp(Z, PARAMS.alpha)
        )
        np.testing.assert_allclose(log_joint(X, Z, Y, PARAMS, prior="ibp"), want, rtol=1e-12)
        want_fin = (
            log_likelihood(X, Z, Y, PARAMS)
            + log_prior_Y(Y, PARAMS.p)
            + log_prior_Z_finite(Z, 2, PARAMS.alpha)
        )
        np.testing.assert_allclose(
            log_joint(X, Z, Y, PARAMS, prior="finite"), want_fin, rtol=1e-12
        )

    def test_unknown_prior_rejected(self):
        with pytest.raises(ValueError):
            log_joint([[0]], [[0]], [[0]], PARAMS, prior="flat")


class TestSamplerState:
    def test_caches_computed_on_build(self):
        Z = np.array([[1, 0], [1, 1]], dtype=np.int8)
        Y = np.array([[1, 0], [1, 1]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        np.testing.assert_array_equal(state.column_sums, [2, 1])
        np.testing.assert_array_equal(state.counts, Z.astype(int) @ Y.astype(int))
        check_consistency(state)

    def test_dimension_properties(self):
        state = SamplerState.from_matrices(
            np.array([[1, 0, 0], [0, 0, 0]], dtype=np.int8),
            np.zeros((3, 4), dtype=np.int8),
            PARAMS,
        )
        assert state.n_rows == 2
        assert state.n_trials == 4
        assert state.k == 3
        assert state.kplus == 1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            SamplerState.from_matrices(
                np.ones((2, 2), dtype=np.int8), np.ones((1, 2), dtype=np.int8), PARAMS
            )

    def test_degenerate_error_is_runtime_error(self):
        assert issubclass(DegenerateModelError, RuntimeError)
