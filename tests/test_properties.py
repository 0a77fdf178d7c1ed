"""Property tests: the likelihood table against the elementwise kernel,
and the samplers' caches under random move sequences."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiddencauses import (
    FiniteState,
    ModelParams,
    birth_acceptance,
    death_acceptance,
    finite_conditional_z,
    gibbs_sample_z_entry,
    sample_new_causes,
)
from hiddencauses.gibbs import resample_y_row
from hiddencauses.model import log_likelihood_from_counts, log_pmf_noisy_or, log_pmf_table

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
