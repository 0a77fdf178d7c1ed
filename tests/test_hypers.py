"""Unit tests for hyperparameter resampling."""

import math

import numpy as np
import pytest

from hiddencauses import ModelParams, SamplerState, sample_alpha, sample_p
from hiddencauses.hypers import RATE_NAMES, mh_step_rate
from hiddencauses.model import likelihood_index, log_likelihood_at


class TestSampleP:
    def test_empty_y_draws_from_uniform(self):
        """K = 0 gives Beta(1, 1); the draws should fill (0, 1) evenly."""
        rng = np.random.default_rng(22)
        draws = np.array([sample_p(np.zeros((0, 5)), rng) for _ in range(5000)])
        assert ((draws > 0) & (draws < 1)).all()
        assert abs(draws.mean() - 0.5) < 0.02

    def test_tracks_sufficient_statistics(self):
        """Mean of Beta(1 + S, 1 + KT - S) is (1 + S) / (2 + KT)."""
        Y = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.int8)  # S=5, KT=8
        rng = np.random.default_rng(23)
        draws = np.array([sample_p(Y, rng) for _ in range(5000)])
        want = 6.0 / 10.0
        assert abs(draws.mean() - want) < 0.01

    def test_deterministic_given_seed(self):
        Y = np.ones((2, 2), dtype=np.int8)
        a = sample_p(Y, np.random.default_rng(24))
        b = sample_p(Y, np.random.default_rng(24))
        assert a == b


class TestSampleAlpha:
    def test_moments_track_conditional(self):
        """Gamma(1 + K+, rate 1 + H_N) has mean (1 + K+) / (1 + H_N)."""
        rng = np.random.default_rng(25)
        draws = np.array([sample_alpha(4, 3, rng) for _ in range(5000)])
        want = 5.0 / (1.0 + 11.0 / 6.0)
        assert abs(draws.mean() - want) < 0.05
        assert (draws > 0).all()

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_alpha(-1, 3, rng)
        with pytest.raises(ValueError):
            sample_alpha(2, 0, rng)


def _scalar_state(params, z=1):
    return SamplerState.from_matrices(
        np.array([[z]], dtype=np.int8), np.array([[1]], dtype=np.int8), params
    )


class _ScriptedRng:
    """Hands out a fixed proposal offset and acceptance uniform, and
    counts the acceptance draws."""

    def __init__(self, offset, u):
        self.offset, self.u, self.draws = offset, u, 0

    def uniform(self, low, high):
        return self.offset

    def random(self):
        self.draws += 1
        return self.u


# name, (epsilon, lam), z, x, proposal offset, uniform, accepted, acceptance draws
MH_BRANCHES = {
    "accept": ("lam", (0.2, 0.5), 1, 1, 0.1, 0.5, True, 1),
    "mh_reject": ("lam", (0.2, 0.5), 1, 1, -0.1, 0.999, False, 1),
    "out_of_range": ("epsilon", (0.98, 0.5), 1, 1, 0.05, 0.5, False, 0),
    # eps = 0 and no active cause leave x = 1 impossible at every lam
    "neg_inf_proposal": ("lam", (0.0, 0.5), 0, 1, 0.1, 0.5, False, 0),
}


class TestMhStepRate:
    def test_unknown_name_rejected(self):
        state = _scalar_state(ModelParams(0.1, 0.5, 0.3, 1.0))
        with pytest.raises(ValueError):
            mh_step_rate("alpha", state, np.array([[1]]), np.random.default_rng(0))
        assert RATE_NAMES == ("lam", "epsilon")

    def test_mutates_only_on_accept(self):
        state = _scalar_state(ModelParams(0.1, 0.5, 0.3, 1.0))
        X = np.array([[1]], dtype=np.int8)
        rng = np.random.default_rng(26)
        for _ in range(200):
            before = state.params.lam
            value, accepted, _ = mh_step_rate("lam", state, X, rng)
            assert 0.0 < state.params.lam < 1.0
            if accepted:
                assert state.params.lam == value
            else:
                assert state.params.lam == before == value

    def test_flat_likelihood_accepts_in_range_proposals(self):
        """With no active causes and x = 0...0 explained by the leak alone,
        the likelihood is constant in lam, so every in-range proposal lands."""
        params = ModelParams(epsilon=0.3, lam=0.5, p=0.3, alpha=1.0)
        state = SamplerState.from_matrices(
            np.array([[0]], dtype=np.int8), np.array([[0]], dtype=np.int8), params
        )
        X = np.array([[0]], dtype=np.int8)
        rng = np.random.default_rng(27)
        results = [mh_step_rate("lam", state, X, rng, step_size=0.3) for _ in range(300)]
        # rejections can only come from proposals outside (0, 1), which a
        # step of 0.3 produces less than half the time from any interior point
        accepted_frac = np.mean([ok for _, ok, _ in results])
        assert accepted_frac > 0.5
        assert 0.0 < state.params.lam < 1.0

    def test_lam_chain_matches_grid_posterior(self):
        """Single observation x = 1 through one active cause: the lam
        posterior under a flat prior is proportional to 0.2 + 0.8 lam
        (eps = 0.2), whose mean is 11/18.  A long Metropolis chain on lam
        alone must reproduce it."""
        params = ModelParams(epsilon=0.2, lam=0.5, p=0.3, alpha=1.0)
        state = _scalar_state(params)
        X = np.array([[1]], dtype=np.int8)
        rng = np.random.default_rng(28)
        total, n = 0.0, 20_000
        for _ in range(n):
            value, _, _ = mh_step_rate("lam", state, X, rng, step_size=0.2)
            total += state.params.lam
        want = (0.1 + 0.8 / 3.0) / 0.6
        assert abs(total / n - want) < 0.02

    def test_epsilon_chain_matches_grid_posterior(self):
        """Same setup for epsilon at lam = 0.5: posterior proportional to
        0.5 + 0.5 eps, mean 5/9."""
        params = ModelParams(epsilon=0.5, lam=0.5, p=0.3, alpha=1.0)
        state = _scalar_state(params)
        X = np.array([[1]], dtype=np.int8)
        rng = np.random.default_rng(29)
        total, n = 0.0, 20_000
        for _ in range(n):
            mh_step_rate("epsilon", state, X, rng, step_size=0.2)
            total += state.params.epsilon
        want = (0.25 + 1.0 / 6.0) / 0.75
        assert abs(total / n - want) < 0.02

    def test_rejects_zero_likelihood_proposal(self):
        """From eps = 0, lam = 0, x = 1 is impossible: likelihood stays
        -inf and any jump to positive likelihood is auto-accepted."""
        params = ModelParams(epsilon=0.0, lam=0.5, p=0.3, alpha=1.0)
        state = SamplerState.from_matrices(
            np.array([[0]], dtype=np.int8), np.array([[0]], dtype=np.int8), params
        )
        X = np.array([[1]], dtype=np.int8)  # only the leak can explain this
        rng = np.random.default_rng(30)
        moved = False
        for _ in range(50):
            value, accepted, _ = mh_step_rate("epsilon", state, X, rng, step_size=0.1)
            if accepted:
                moved = True
                assert value > 0.0
        assert moved  # -inf current likelihood accepts the first valid jump

    @pytest.mark.parametrize("given_ll", [False, True])
    @pytest.mark.parametrize("branch", list(MH_BRANCHES))
    def test_returned_ll_is_the_likelihood_at_the_returned_parameters(self, branch, given_ll):
        """Every branch returns, bit for bit, the log-likelihood over the
        counts at the parameters the state holds after the step."""
        name, (eps, lam), z, x, offset, u, accepted, draws = MH_BRANCHES[branch]
        state = _scalar_state(ModelParams(epsilon=eps, lam=lam, p=0.3, alpha=1.0), z)
        X = np.array([[x]], dtype=np.int8)
        before = log_likelihood_at(likelihood_index(X, state.counts), lam, eps)
        rng = _ScriptedRng(offset, u)
        value, ok, ll = mh_step_rate(name, state, X, rng, ll_cur=before if given_ll else None)
        assert (ok, rng.draws) == (accepted, draws)
        assert value == getattr(state.params, name)
        params = state.params
        want = log_likelihood_at(likelihood_index(X, state.counts), params.lam, params.epsilon)
        assert ll == want
        assert (ll == before) == (not accepted)

    def test_threaded_ll_follows_a_chain(self):
        """Handing each step's ll to the next, as runner.step does, keeps it
        equal to the likelihood at the state's parameters."""
        rng = np.random.default_rng(31)
        Z = (rng.random((4, 3)) < 0.5).astype(np.int8)
        Y = (rng.random((3, 40)) < 0.3).astype(np.int8)
        X = (rng.random((4, 40)) < 0.4).astype(np.int8)
        state = SamplerState.from_matrices(Z, Y, ModelParams(0.1, 0.6, 0.3, 1.0))
        ll, hits = None, 0
        for j in range(400):
            _, ok, ll = mh_step_rate(RATE_NAMES[j % 2], state, X, rng, 0.2, ll)
            hits += ok
            params = state.params
            assert ll == log_likelihood_at(likelihood_index(X, state.counts), params.lam,
                                           params.epsilon)
        assert 0 < hits < 400
