"""Unit tests for the finite-dimension sampler and its birth/death moves."""

import copy
import math

import numpy as np
import pytest
from scipy.special import gammaln

from helpers import check_consistency
from hiddencauses import (FiniteState, ModelParams, UniformK, finite_gibbs_sweep,
                          log_prior_Z_finite, rjmcmc_sweep)
from hiddencauses import rjmcmc
from hiddencauses.gibbs import active_layout, sweep_index
from hiddencauses.rjmcmc import (
    GeometricK,
    ShiftedPoissonK,
    birth_acceptance,
    death_acceptance,
    finite_theta_bar,
    make_k_prior,
)

PARAMS = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.0)


class TestKPriors:
    def test_shifted_poisson_normalizes(self):
        prior = ShiftedPoissonK(mean=2.0)
        total = sum(math.exp(prior.log_pmf(k)) for k in range(1, 80))
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)
        assert prior.log_pmf(0) == -math.inf
        np.testing.assert_allclose(prior.log_pmf(1), -2.0, rtol=1e-12)

    def test_geometric_pmf(self):
        prior = GeometricK(q=0.25)
        np.testing.assert_allclose(math.exp(prior.log_pmf(1)), 0.25, rtol=1e-12)
        np.testing.assert_allclose(math.exp(prior.log_pmf(3)), 0.25 * 0.75**2, rtol=1e-12)
        total = sum(math.exp(prior.log_pmf(k)) for k in range(1, 300))
        np.testing.assert_allclose(total, 1.0, rtol=1e-10)
        assert prior.log_pmf(0) == -math.inf

    def test_uniform_support(self):
        prior = UniformK(k_max=4)
        for k in range(1, 5):
            np.testing.assert_allclose(math.exp(prior.log_pmf(k)), 0.25, rtol=1e-12)
        assert prior.log_pmf(0) == -math.inf
        assert prior.log_pmf(5) == -math.inf

    def test_make_k_prior_dispatch(self):
        assert make_k_prior("poisson", mean=3.0) == ShiftedPoissonK(mean=3.0)
        assert make_k_prior("geometric", q=0.2) == GeometricK(q=0.2)
        assert make_k_prior("uniform", k_max=9) == UniformK(k_max=9)
        with pytest.raises(ValueError):
            make_k_prior("zipf")


class TestFiniteState:
    def test_requires_at_least_one_column(self):
        with pytest.raises(ValueError):
            FiniteState.from_matrices(
                np.zeros((2, 0), dtype=np.int8), np.zeros((0, 3), dtype=np.int8), PARAMS
            )

    def test_default_k_prior(self):
        state = FiniteState.from_matrices(
            np.ones((2, 1), dtype=np.int8), np.ones((1, 2), dtype=np.int8), PARAMS
        )
        assert state.k_prior == GeometricK(q=0.5)

    def test_custom_k_prior_kept(self):
        state = FiniteState.from_matrices(
            np.ones((2, 1), dtype=np.int8),
            np.ones((1, 2), dtype=np.int8),
            PARAMS,
            k_prior=UniformK(k_max=3),
        )
        assert state.k_prior == UniformK(k_max=3)


class TestFiniteThetaBar:
    def test_hand_value(self):
        """m_minus = 1 of N = 2 at K = 1, alpha = 1: (1+1)/(2+1) = 2/3."""
        np.testing.assert_allclose(finite_theta_bar(1, 2, 1, 1.0), 2.0 / 3.0, rtol=1e-12)

    def test_matches_prior_ratio(self):
        """The predictive weight equals the exact conditional from the
        integrated column prior: w(m) = Gamma(m + a/K) Gamma(N - m + 1)."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, 6))
            alpha = float(rng.uniform(0.2, 5.0))
            m_minus = int(rng.integers(0, n))
            ak = alpha / k

            def w(m):
                return gammaln(m + ak) + gammaln(n - m + 1.0)

            want = 1.0 / (1.0 + math.exp(w(m_minus) - w(m_minus + 1)))
            got = finite_theta_bar(m_minus, n, k, alpha)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_plain_variant_clamped(self):
        """The m/N form exceeds 1 once alpha/K >= 1 and is clamped."""
        assert finite_theta_bar(2, 2, 1, 3.0, predictive=False) == 1.0
        np.testing.assert_allclose(
            finite_theta_bar(1, 4, 2, 1.0, predictive=False), (1 + 0.5) / 4, rtol=1e-12
        )

    def test_valid_at_empty_column(self):
        """Unlike the unbounded sampler, m_minus = 0 is a legal finite draw.
        Row 0 of three draws an unlinked column at K = 1, alpha = 1:
        theta = (0 + 1) / (3 + 1) = 1/4, and x = 1 on the active trial gives
        w1 = 1/4 * (1 - .2 * .95) against w0 = 3/4 * .05.  Each row draw goes
        through the sweep's own prior table, log-odds and comparison."""
        state = FiniteState.from_matrices(
            np.zeros((3, 1), dtype=np.int8), np.array([[1, 0]], dtype=np.int8), PARAMS
        )
        X = np.array([[1, 0], [0, 0], [0, 0]], dtype=np.int8)
        rng = np.random.default_rng(6)
        n_draws = 20_000
        hits = 0
        with sweep_index(state, X) as index:
            for _ in range(n_draws):
                rjmcmc._z_pass(state, 0, index[0], active_layout(state.Y), rng)
                hits += int(state.Z[0, 0])
        check_consistency(state)
        want = 0.81 / (0.81 + 0.15)
        assert abs(hits / n_draws - want) < 4 * math.sqrt(want * (1 - want) / n_draws)


def _linked_state(k_prior=GeometricK(q=0.5), n=3, k=2, t=4, seed=14):
    rng = np.random.default_rng(seed)
    Z = (rng.random((n, k)) < 0.7).astype(np.int8)
    Z[0] = 1  # every column linked
    Y = (rng.random((k, t)) < 0.4).astype(np.int8)
    return FiniteState.from_matrices(Z, Y, PARAMS, k_prior=k_prior)


def _random_finite_state(rng, k_prior, duplicate_row_factor, k=None):
    """A state with at least one linked column; some columns may be unlinked."""
    n, t = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    k = int(rng.integers(1, 6)) if k is None else k
    Z = (rng.random((n, k)) < rng.uniform(0.1, 0.9)).astype(np.int8)
    Z[int(rng.integers(n)), int(rng.integers(k))] = 1
    Y = (rng.random((k, t)) < 0.5).astype(np.int8)
    params = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=float(rng.uniform(0.2, 5.0)))
    return FiniteState.from_matrices(Z, Y, params, k_prior=k_prior,
                                     duplicate_row_factor=duplicate_row_factor)


def _closed_form_log_ratio(state, Z_new, Y_new, moved_row):
    """log r of the move from state to (Z_new, Y_new), from the explicit
    matrices: the prior ratio of Z and of K, the K/K+ proposal terms and,
    in the variant, delta / K' for a birth and K / delta for a death, delta
    counting the activation rows equal to the moved row in the larger Y."""
    k, k_new, kplus = state.k, Z_new.shape[1], state.kplus
    alpha, prior = state.params.alpha, state.k_prior
    r = (log_prior_Z_finite(Z_new, k_new, alpha) + prior.log_pmf(k_new)
         - log_prior_Z_finite(state.Z, k, alpha) - prior.log_pmf(k))
    birth = k_new > k
    r += math.log(k) - math.log(kplus) if birth else math.log(kplus) - math.log(k_new)
    if state.duplicate_row_factor:
        delta = int(((Y_new if birth else state.Y) == moved_row).all(axis=1).sum())
        r += math.log(delta) - math.log(k_new) if birth else math.log(k) - math.log(delta)
    return r


def _min_one_exp(r):
    return 1.0 if r >= 0 else math.exp(r)


K_PRIORS = (ShiftedPoissonK(mean=2.5), GeometricK(q=0.4), UniformK(k_max=3))


class TestBirthDeathMoves:
    def test_acceptance_probs_are_reciprocal(self):
        """A birth returns min(1, e^r) with r in closed form, and the death
        that undoes it returns min(1, e^-r), under each K prior (the
        uniform cap binds at K = 3) and both ratio variants."""
        rng = np.random.default_rng(15)
        for k_prior in K_PRIORS:
            for variant in (False, True):
                for _ in range(40):
                    state = _random_finite_state(rng, k_prior, variant, k=int(rng.integers(1, 4)))
                    proposed = (rng.random(state.n_trials) < 0.5).astype(np.int8)
                    Z_new = np.concatenate([state.Z, np.zeros((state.n_rows, 1), np.int8)], axis=1)
                    Y_new = np.concatenate([state.Y, proposed[None, :]], axis=0)
                    r = _closed_form_log_ratio(state, Z_new, Y_new, proposed)
                    post = FiniteState.from_matrices(Z_new, Y_new, state.params, k_prior=k_prior,
                                                     duplicate_row_factor=variant)
                    prob_b, _ = birth_acceptance(state, proposed, rng)
                    prob_d, _ = death_acceptance(post, post.k - 1, rng)
                    np.testing.assert_allclose(prob_b, _min_one_exp(r), rtol=1e-12, atol=0)
                    np.testing.assert_allclose(prob_d, _min_one_exp(-r), rtol=1e-12, atol=0)

    def test_death_ratio_matches_closed_form(self):
        """Deleting any unlinked column k returns min(1, e^r), r from the
        explicit matrices before and after the deletion."""
        rng = np.random.default_rng(20)
        checked = 0
        for k_prior in K_PRIORS:
            for variant in (False, True):
                for _ in range(40):
                    state = _random_finite_state(rng, k_prior, variant)
                    if k_prior.log_pmf(state.k) == -math.inf:
                        continue  # a K the uniform prior excludes is never reached
                    for k in np.flatnonzero(state.column_sums == 0):
                        Z_new, Y_new = np.delete(state.Z, k, axis=1), np.delete(state.Y, k, axis=0)
                        r = _closed_form_log_ratio(state, Z_new, Y_new, state.Y[k])
                        prob, _ = death_acceptance(copy.deepcopy(state), k, rng)
                        np.testing.assert_allclose(prob, _min_one_exp(r), rtol=1e-12, atol=0)
                        checked += 1
        assert checked > 100

    def test_duplicate_row_factor_scales_ratio_by_delta(self):
        """The variant multiplies the birth ratio by delta / (K+1), with
        delta counting activation rows equal to the proposal (itself
        included).  A growth-averse P(K) keeps both probs below 1 so the
        ratio of probs is the ratio of ratios."""
        k_prior = GeometricK(q=0.95)
        proposed = np.array([1, 0, 1, 0], dtype=np.int8)

        state = _linked_state(k_prior=k_prior)

        def birth_probs():
            variant = copy.deepcopy(state)
            variant.duplicate_row_factor = True
            plain, _ = birth_acceptance(copy.deepcopy(state), proposed, np.random.default_rng(0))
            dup, _ = birth_acceptance(variant, proposed, np.random.default_rng(0))
            return plain, dup

        state.Y[:] = [[1, 1, 1, 1], [0, 0, 0, 0]]  # no row matches: delta = 1
        prob_plain, prob_dup = birth_probs()
        assert prob_plain < 1.0 and prob_dup < 1.0
        np.testing.assert_allclose(prob_dup / prob_plain, 1.0 / (state.k + 1), rtol=1e-10)

        state.Y[:] = [proposed, proposed]  # every row matches: delta = K + 1
        prob_plain, prob_dup = birth_probs()
        np.testing.assert_allclose(prob_dup, prob_plain, rtol=1e-10)

    def test_birth_mutates_only_on_accept(self):
        state = _linked_state(k_prior=GeometricK(q=0.999))  # r tiny: reject
        proposed = np.zeros(state.n_trials, dtype=np.int8)
        Z_before = state.Z.copy()
        prob, accepted = birth_acceptance(state, proposed, np.random.default_rng(16))
        assert not accepted
        np.testing.assert_array_equal(state.Z, Z_before)
        check_consistency(state)

    def test_accepted_birth_appends_unlinked_column(self):
        state = _linked_state(k_prior=ShiftedPoissonK(mean=20.0))  # r > 1: accept
        proposed = np.array([1, 0, 0, 1], dtype=np.int8)
        counts_before = state.counts.copy()
        prob, accepted = birth_acceptance(state, proposed, np.random.default_rng(17))
        assert prob == 1.0 and accepted
        assert state.column_sums[-1] == 0
        np.testing.assert_array_equal(state.Y[-1], proposed)
        np.testing.assert_array_equal(state.counts, counts_before)
        check_consistency(state)

    def test_accepted_death_removes_column(self):
        state = _linked_state(k_prior=GeometricK(q=0.95))
        state.Z = np.concatenate([state.Z, np.zeros((state.n_rows, 1), dtype=np.int8)], axis=1)
        state.column_sums = np.concatenate([state.column_sums, [0]])
        state.Y = np.concatenate([state.Y, np.ones((1, state.n_trials), dtype=np.int8)], axis=0)
        k_before = state.k
        prob, accepted = death_acceptance(state, k_before - 1, np.random.default_rng(18))
        assert accepted  # growth-averse prior makes shrinking near-certain
        assert state.k == k_before - 1
        check_consistency(state)

    def test_death_rejected_at_k_one(self):
        state = FiniteState.from_matrices(
            np.zeros((2, 1), dtype=np.int8), np.zeros((1, 2), dtype=np.int8), PARAMS
        )
        prob, accepted = death_acceptance(state, 0, np.random.default_rng(0))
        assert (prob, accepted) == (0.0, False)

    def test_death_requires_unlinked_column(self):
        state = _linked_state()
        with pytest.raises(ValueError):
            death_acceptance(state, 0, np.random.default_rng(0))

    def test_birth_requires_a_linked_column(self):
        state = FiniteState.from_matrices(
            np.zeros((3, 2), dtype=np.int8), np.zeros((2, 4), dtype=np.int8), PARAMS
        )
        with pytest.raises(ValueError):
            birth_acceptance(state, np.zeros(4, dtype=np.int8), np.random.default_rng(0))

    def test_birth_rejects_wrong_length_proposal(self):
        state = _linked_state()
        with pytest.raises(ValueError):
            birth_acceptance(state, np.zeros(99, dtype=np.int8), np.random.default_rng(0))


class TestSweeps:
    def test_finite_sweep_preserves_dimension_and_invariants(self):
        rng = np.random.default_rng(19)
        X = (rng.random((3, 5)) < 0.5).astype(np.int8)
        state = FiniteState.from_matrices(
            np.ones((3, 2), dtype=np.int8), np.zeros((2, 5), dtype=np.int8), PARAMS
        )
        for _ in range(25):
            finite_gibbs_sweep(state, X, rng)
            assert state.k == 2
            check_consistency(state)

    def test_rjmcmc_sweep_respects_uniform_cap(self):
        """Births past the cap carry -inf prior mass and never accept."""
        rng = np.random.default_rng(20)
        X = (rng.random((3, 5)) < 0.5).astype(np.int8)
        state = FiniteState.from_matrices(
            np.zeros((3, 1), dtype=np.int8),
            np.zeros((1, 5), dtype=np.int8),
            PARAMS,
            k_prior=UniformK(k_max=3),
        )
        for _ in range(200):
            rjmcmc_sweep(state, X, rng)
            assert 1 <= state.k <= 3
            check_consistency(state)

    def test_rjmcmc_sweep_deterministic(self):
        X = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)

        def run(seed):
            state = FiniteState.from_matrices(
                np.zeros((2, 1), dtype=np.int8),
                np.zeros((1, 3), dtype=np.int8),
                PARAMS,
                k_prior=UniformK(k_max=4),
            )
            rng = np.random.default_rng(seed)
            for _ in range(50):
                rjmcmc_sweep(state, X, rng)
            return state

        a, b = run(21), run(21)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.Y, b.Y)
