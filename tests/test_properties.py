"""Property tests: the likelihood table against the elementwise kernel,
the shared tables under changing parameters, the samplers' caches under
random move sequences, and the IBP prior under column permutation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln, xlogy

from hiddencauses import (
    FiniteState,
    ModelParams,
    birth_acceptance,
    compact_state,
    death_acceptance,
    finite_conditional_z,
    gibbs_sample_z_entry,
    log_prior_Z_ibp,
    marginal_on_prob,
    sample_new_causes,
)
from hiddencauses import gibbs
from hiddencauses.gibbs import MAX_NEW_CAUSES, resample_y_row
from hiddencauses.model import (
    log_likelihood_from_counts,
    log_pmf_noisy_or,
    log_pmf_table,
    shared_log_pmf_table,
)

C_MAX = 130

lams = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
epsilons = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
pairs = st.integers(0, C_MAX).flatmap(
    lambda c_max: st.tuples(
        st.just(c_max),
        arrays(np.int8, 20, elements=st.integers(0, 1)),
        arrays(np.int32, 20, elements=st.integers(0, c_max)),
    )
)
extras = arrays(
    np.float64, st.integers(1, 4), elements=st.floats(-50.0, 0.0)
) | st.just(np.array([-np.inf, 0.0]))


class TestLogPmfTable:
    @given(lam=lams, epsilon=epsilons, pairs=pairs)
    def test_gather_equals_elementwise(self, lam, epsilon, pairs):
        c_max, x, c = pairs
        got = log_pmf_table(lam, epsilon, c_max)[x, c]
        want = log_pmf_noisy_or(x, c, lam, epsilon)
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(got, want)
        total = log_likelihood_from_counts(x.astype(np.float64), c, lam, epsilon)
        assert total == float(want.sum())

    @given(lam=lams, epsilon=epsilons, pairs=pairs, extra=extras)
    def test_gather_equals_elementwise_with_extra(self, lam, epsilon, pairs, extra):
        c_max, x, c = pairs
        got = log_pmf_table(lam, epsilon, c_max, extra[:, None, None])[:, x, c]
        want = log_pmf_noisy_or(x, c, lam, epsilon, extra[:, None])
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(got, want)


MOVES = st.lists(
    st.tuples(st.sampled_from(("z", "fresh", "y", "birth", "death")),
              st.integers(0, 63), st.integers(0, 63)),
    min_size=1,
    max_size=25,
)


class TestCachesUnderMoves:
    @given(
        X=arrays(np.int8, st.tuples(st.integers(1, 5), st.integers(1, 6)),
                 elements=st.integers(0, 1)),
        moves=MOVES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_moves_keep_caches_consistent(self, X, moves, seed):
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.5)
        rng = np.random.default_rng(seed)
        n, t = X.shape
        state = FiniteState.from_matrices(
            np.zeros((n, 1), dtype=np.int8), np.zeros((1, t), dtype=np.int8), params
        )
        for move, a, b in moves:
            i, k = a % n, b % state.k
            if move == "z":
                if state.column_sums[k] - state.Z[i, k] > 0:
                    gibbs_sample_z_entry(state, i, k, X, rng)
                else:
                    finite_conditional_z(state, i, k, X, rng)
            elif move == "fresh":
                sample_new_causes(state, i, X, rng)
            elif move == "y":
                resample_y_row(state, k, X, rng)
            elif move == "birth" and state.column_sums[k] > 0:
                birth_acceptance(state, (rng.random(t) < params.p).astype(np.int8), rng)
            elif move == "death" and state.column_sums[k] == 0:
                death_acceptance(state, k, rng)
            state.check_consistency()


# ---------------------------------------------------------------------------
# shared tables: every gather follows the current (lam, epsilon, p) and K
# ---------------------------------------------------------------------------


def _z_log_weights(state, i, k, X):
    """(logw1, logw0) that the z-entry draw sees, at prior weight 1/2."""
    seen = []

    def record(logw1, logw0, rng):
        seen.append((logw1, logw0))
        return int(state.Z[i, k])  # keep z: the state stays as it is

    with mock.patch.object(gibbs, "_two_point_draw", record):
        gibbs._sample_z_given_theta(state, i, k, X, None, 0.5)
    return seen[0]


def _assert_gathers_match_elementwise(state, X):
    params = state.params
    lam, eps = params.lam, params.epsilon
    n = state.n_rows
    for i in range(n):
        for k in range(state.k):
            active = state.Y[k].nonzero()[0]
            base = state.counts[i, active] - state.Z[i, k]
            x = X[i, active]
            ll1 = float(log_pmf_noisy_or(x, base + 1, lam, eps).sum()) if active.size else 0.0
            ll0 = float(log_pmf_noisy_or(x, base, lam, eps).sum()) if active.size else 0.0
            assert _z_log_weights(state, i, k, X) == (math.log(0.5) + ll1, math.log1p(-0.5) + ll0)
    for k in range(state.k):
        rows = state.Z[:, k].nonzero()[0]
        got = gibbs._y_conditional_log_odds(state, k, X, rows)
        log_p1, log_p0 = float(np.log(params.p)), float(np.log1p(-params.p))
        if rows.size:
            base = state.counts[rows] - state.Y[k]
            ll1 = log_pmf_noisy_or(X[rows], base + 1, lam, eps).sum(axis=0)
            ll0 = log_pmf_noisy_or(X[rows], base, lam, eps).sum(axis=0)
            want = (log_p1 + ll1) - (log_p0 + ll0)
        else:
            want = np.full(state.n_trials, log_p1 - log_p0)
        np.testing.assert_array_equal(got, want)
    ks = np.arange(MAX_NEW_CAUSES + 1)
    log_rate, log_fact = xlogy(ks, params.alpha / n), gammaln(ks + 1.0)
    extra = xlogy(ks, 1.0 - lam * params.p)
    for i in range(n):
        got = gibbs._fresh_cause_log_weights(state, i, X, MAX_NEW_CAUSES)
        # per_trial[t, k]; its [k, t] transpose sums over trials in the
        # order sample_new_causes adds them
        per_trial = log_pmf_noisy_or(X[i][:, None], state.counts[i][:, None], lam, eps, extra)
        np.testing.assert_array_equal(
            got, per_trial.T.sum(axis=1) + log_rate - log_fact
        )
        eta = (1.0 - lam) ** state.counts[i]
        want = []
        for k in ks:
            on = marginal_on_prob(eta, k, params)
            off = (1.0 - eps) * eta * (1.0 - lam * params.p) ** k
            want.append(np.log(np.where(X[i] == 1, on, off)).sum())
        want = np.array(want) + log_rate - log_fact
        np.testing.assert_allclose(got, want, rtol=1e-12)
    total = log_likelihood_from_counts(X, state.counts, lam, eps)
    assert total == float(log_pmf_noisy_or(X, state.counts, lam, eps).sum())


PARAM_POOLS = st.lists(
    st.tuples(st.floats(0.05, 0.95), st.floats(0.01, 0.5), st.floats(0.05, 0.95)),
    min_size=1,
    max_size=3,
)
STEPS = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(("fresh", "birth", "death", "compact", "z", "y")),
              st.integers(0, 63), st.integers(0, 63)),
    min_size=1,
    max_size=10,
)


class TestSharedTables:
    @given(
        X=arrays(np.int8, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                 elements=st.integers(0, 1)),
        pool=PARAM_POOLS,
        steps=STEPS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gathers_follow_params_and_k(self, X, pool, steps, seed):
        """Parameters revisit earlier values and K grows and shrinks; every
        gather still equals the elementwise kernel under the current ones."""
        rng = np.random.default_rng(seed)
        n, t = X.shape
        state = FiniteState.from_matrices(
            np.zeros((n, 1), dtype=np.int8), np.zeros((1, t), dtype=np.int8),
            ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.5),
        )
        for j, move, a, b in steps:
            lam, eps, p = pool[j % len(pool)]
            state.params = state.params.replace(lam=lam, epsilon=eps, p=p)
            i, k = a % n, b % state.k
            if move == "fresh":
                sample_new_causes(state, i, X, rng)
            elif move == "birth" and state.column_sums[k] > 0:
                birth_acceptance(state, (rng.random(t) < p).astype(np.int8), rng)
            elif move == "death" and state.column_sums[k] == 0:
                death_acceptance(state, k, rng)
            elif move == "compact" and state.kplus:
                compact_state(state)
            elif move == "z":
                finite_conditional_z(state, i, k, X, rng)
            elif move == "y":
                resample_y_row(state, k, X, rng)
            _assert_gathers_match_elementwise(state, X)

    def test_shared_tables_are_read_only(self):
        for args in ((0.9, 0.01, 4), (0.9, 0.01, 4, 0.1, MAX_NEW_CAUSES)):
            table = shared_log_pmf_table(*args)
            assert shared_log_pmf_table(*args) is table
            with pytest.raises(ValueError):
                table[..., 0, 0] = 0.0
            with pytest.raises(ValueError):
                table.ravel()[0] = 0.0


# ---------------------------------------------------------------------------
# IBP prior: exact pattern multiplicities at any N
# ---------------------------------------------------------------------------


@st.composite
def ibp_cases(draw):
    """A Z with no all-zero column and repeated patterns, and a column order."""
    n = draw(st.one_of(st.integers(1, 128), st.sampled_from((63, 64, 65, 66, 127, 128))))
    patterns = draw(arrays(np.int8, (n, draw(st.integers(1, 5))), elements=st.integers(0, 1)))
    for col in (patterns.sum(axis=0) == 0).nonzero()[0]:
        patterns[draw(st.integers(0, n - 1)), col] = 1
    repeats = draw(st.lists(st.integers(1, 3), min_size=patterns.shape[1],
                            max_size=patterns.shape[1]))
    Z = np.repeat(patterns, repeats, axis=1)
    return Z, draw(st.permutations(range(Z.shape[1])))


def _collision_case():
    """66 rows: an int64 packing of columns {0, 2} and {2} collides."""
    Z = np.zeros((66, 3), dtype=np.int8)
    Z[[0, 2], 0] = 1
    Z[2, 1] = 1
    Z[[0, 2], 2] = 1
    return Z, [2, 0, 1]


class TestIbpPriorPermutation:
    @given(case=ibp_cases(), alpha=st.floats(0.1, 5.0))
    @example(case=_collision_case(), alpha=2.0)
    def test_invariant_under_column_permutation(self, case, alpha):
        Z, perm = case
        n, kplus = Z.shape
        _, multiplicities = np.unique(Z.T, axis=0, return_counts=True)
        m = Z.sum(axis=0)
        want = (
            kplus * math.log(alpha)
            - sum(math.lgamma(kh + 1.0) for kh in multiplicities)
            - alpha * math.fsum(1.0 / r for r in range(1, n + 1))
            + sum(math.lgamma(n - mk + 1.0) + math.lgamma(mk) - math.lgamma(n + 1.0) for mk in m)
        )
        got = log_prior_Z_ibp(Z, alpha)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(log_prior_Z_ibp(Z[:, perm], alpha), got, rtol=1e-12)
