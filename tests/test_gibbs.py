"""Unit tests for the collapsed Gibbs sampler over (Z, Y)."""

import copy
import itertools
import math

import numpy as np
import pytest
from scipy.special import xlogy

from helpers import check_consistency, gibbs_sample_y_entry, reference_z_log_odds, row_index
from hiddencauses import (
    DegenerateModelError,
    ModelParams,
    SamplerState,
    gibbs_sweep,
    log_prior_Z_ibp,
    marginal_on_prob,
)
from hiddencauses.gibbs import (
    MAX_NEW_CAUSES,
    compact_state,
    gibbs_sample_z_entry,
    resample_all_y,
    resample_y_row,
    sample_new_causes,
)
from hiddencauses.model import log_pmf_noisy_or, log_pmf_table

PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=1.0)


def _two_cause_state(X_unused=None):
    Z = np.array([[0], [1]], dtype=np.int8)
    Y = np.array([[1, 0]], dtype=np.int8)
    return SamplerState.from_matrices(Z, Y, PARAMS)


class TestZEntryConditional:
    """The two-point draw of z[i, k] follows Bayes' rule with prior weight
    m_minus / N; checked by Monte Carlo against hand-computed odds."""

    def _frequency(self, X, n_draws=20_000, seed=0):
        state = _two_cause_state()
        rng = np.random.default_rng(seed)
        row_idx = row_index(state, 0, X)  # each flip updates it
        active = state.Y[0].nonzero()[0]
        hits = sum(gibbs_sample_z_entry(state, 0, 0, row_idx, active, rng,
                                        reference_z_log_odds(state, 0, 0, X))
                   for _ in range(n_draws))
        check_consistency(state)
        return hits / n_draws

    def test_frequency_matches_posterior_positive_evidence(self):
        """X[0, 0] = 1 on the active trial: w1 = .5 * .901, w0 = .5 * .01."""
        X = np.array([[1, 0], [0, 0]], dtype=np.int8)
        want = 0.901 / (0.901 + 0.01)
        got = self._frequency(X)
        sigma = math.sqrt(want * (1 - want) / 20_000)
        assert abs(got - want) < 4 * sigma

    def test_frequency_matches_posterior_negative_evidence(self):
        """X[0, 0] = 0 on the active trial: w1 = .5 * .099, w0 = .5 * .99."""
        X = np.zeros((2, 2), dtype=np.int8)
        want = 0.099 / (0.099 + 0.99)
        got = self._frequency(X, seed=1)
        sigma = math.sqrt(want * (1 - want) / 20_000)
        assert abs(got - want) < 4 * sigma

    def test_inactive_cause_draws_prior(self):
        """With y[k] all zero the likelihood cancels and P(z=1) = m_minus/N."""
        Z = np.array([[0], [1]], dtype=np.int8)
        Y = np.array([[0, 0]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        X = np.array([[1, 1], [1, 1]], dtype=np.int8)
        rng = np.random.default_rng(2)
        row_idx, active = row_index(state, 0, X), state.Y[0].nonzero()[0]
        draws = [gibbs_sample_z_entry(state, 0, 0, row_idx, active, rng,
                                      reference_z_log_odds(state, 0, 0, X))
                 for _ in range(20_000)]
        freq = np.mean(draws)
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / 20_000)

    def test_singleton_column_rejected(self):
        """Columns only row i uses belong to the fresh-cause move instead."""
        Z = np.array([[1], [0]], dtype=np.int8)
        Y = np.array([[1, 0]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        X = np.zeros((2, 2), dtype=np.int8)
        row_idx, active = row_index(state, 0, X), state.Y[0].nonzero()[0]
        with pytest.raises(ValueError):
            gibbs_sample_z_entry(state, 0, 0, row_idx, active, np.random.default_rng(0),
                                 reference_z_log_odds(state, 0, 0, X))


class TestYEntryConditional:
    def _frequency(self, x_val, n_draws=20_000, seed=3):
        Z = np.array([[1]], dtype=np.int8)
        Y = np.array([[0]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        X = np.array([[x_val]], dtype=np.int8)
        rng = np.random.default_rng(seed)
        hits = sum(gibbs_sample_y_entry(state, 0, 0, X, rng) for _ in range(n_draws))
        check_consistency(state)
        return hits / n_draws

    def test_frequency_matches_posterior_x_on(self):
        """x = 1: w1 = .1 * .901, w0 = .9 * .01."""
        want = 0.1 * 0.901 / (0.1 * 0.901 + 0.9 * 0.01)
        got = self._frequency(1)
        sigma = math.sqrt(want * (1 - want) / 20_000)
        assert abs(got - want) < 4 * sigma

    def test_frequency_matches_posterior_x_off(self):
        """x = 0: w1 = .1 * .099, w0 = .9 * .99."""
        want = 0.1 * 0.099 / (0.1 * 0.099 + 0.9 * 0.99)
        got = self._frequency(0, seed=4)
        sigma = math.sqrt(want * (1 - want) / 20_000)
        assert abs(got - want) < 4 * sigma

    def test_unlinked_cause_draws_prior(self):
        Z = np.array([[0]], dtype=np.int8)
        Y = np.array([[0]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        X = np.array([[1]], dtype=np.int8)
        rng = np.random.default_rng(5)
        freq = np.mean(
            [gibbs_sample_y_entry(state, 0, 0, X, rng) for _ in range(20_000)]
        )
        sigma = math.sqrt(PARAMS.p * (1 - PARAMS.p) / 20_000)
        assert abs(freq - PARAMS.p) < 4 * sigma


class TestRowResampleEquivalence:
    def test_vectorized_row_update_matches_entry_loop(self):
        """resample_y_row must draw the same uniforms in the same order as
        the per-entry Gibbs updates, so both paths give identical states."""
        rng_setup = np.random.default_rng(6)
        Z = (rng_setup.random((4, 2)) < 0.6).astype(np.int8)
        Z[0, 0] = 1  # keep cause 0 linked
        Y = (rng_setup.random((2, 7)) < 0.4).astype(np.int8)
        X = (rng_setup.random((4, 7)) < 0.5).astype(np.int8)
        a = SamplerState.from_matrices(Z, Y, PARAMS)
        b = copy.deepcopy(a)
        resample_y_row(a, 0, X, np.random.default_rng(7).random(7))
        rng_b = np.random.default_rng(7)
        for t in range(7):
            gibbs_sample_y_entry(b, 0, t, X, rng_b)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.counts, b.counts)
        check_consistency(a)
        check_consistency(b)


class TestMarginalOnProb:
    def test_no_new_causes_reduces_to_leak_times_eta(self):
        got = marginal_on_prob(np.array([1.0, 0.5]), 0, PARAMS)
        np.testing.assert_allclose(got, [1 - 0.99, 1 - 0.99 * 0.5], rtol=1e-12)

    def test_matches_binomial_enumeration(self):
        """The closed form equals the explicit sum over activation vectors."""
        params = ModelParams(epsilon=0.1, lam=0.6, p=0.35, alpha=1.0)
        eta = 0.7
        for k in range(5):
            brute = sum(
                params.p ** sum(bits)
                * (1 - params.p) ** (k - sum(bits))
                * (1 - (1 - params.epsilon) * eta * (1 - params.lam) ** sum(bits))
                for bits in itertools.product((0, 1), repeat=k)
            )
            np.testing.assert_allclose(
                marginal_on_prob(eta, k, params), brute, rtol=1e-12
            )

    def test_fresh_cause_table_matches_closed_form(self):
        """The x = 1 entries of the table sample_new_causes gathers from,
        with log_off_extra = k log(1 - lam p), equal the closed form."""
        params = ModelParams(epsilon=0.1, lam=0.6, p=0.35, alpha=1.0)
        c_max = 6
        c = np.arange(c_max + 1)
        for k in range(MAX_NEW_CAUSES + 1):
            extra = xlogy(k, 1.0 - params.lam * params.p)
            table = log_pmf_table(params.lam, params.epsilon, c_max, extra)
            np.testing.assert_allclose(
                np.exp(table[1]),
                marginal_on_prob((1.0 - params.lam) ** c, k, params),
                rtol=1e-12,
            )


class TestSampleNewCauses:
    def test_empirical_distribution_matches_enumeration(self):
        """Fresh-cause counts follow Poisson(alpha/N) reweighted by the
        Y-marginalized likelihood; the oracle enumerates activations."""
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=2.0)
        X = np.array([[1]], dtype=np.int8)
        want = np.zeros(MAX_NEW_CAUSES + 1)
        for k in range(MAX_NEW_CAUSES + 1):
            like = sum(
                params.p ** sum(bits)
                * (1 - params.p) ** (k - sum(bits))
                * (1 - (1 - params.epsilon) * (1 - params.lam) ** sum(bits))
                for bits in itertools.product((0, 1), repeat=k)
            )
            want[k] = math.exp(-2.0) * 2.0**k / math.factorial(k) * like
        want /= want.sum()

        rng = np.random.default_rng(8)
        n_draws = 30_000
        tally = np.zeros(MAX_NEW_CAUSES + 1)
        for _ in range(n_draws):
            state = SamplerState.from_matrices(
                np.zeros((1, 0), dtype=np.int8), np.zeros((0, 1), dtype=np.int8), params
            )
            tally[sample_new_causes(state, 0, X, row_index(state, 0, X), rng)] += 1
        got = tally / n_draws
        sigma = np.sqrt(want * (1 - want) / n_draws)
        assert (np.abs(got - want) < 4 * sigma + 1e-4).all()

    def test_expands_state_consistently(self):
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=5.0)
        X = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.int8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = SamplerState.from_matrices(
                np.zeros((2, 0), dtype=np.int8), np.zeros((0, 3), dtype=np.int8), params
            )
            k_new = sample_new_causes(state, 1, X, row_index(state, 1, X), rng)
            assert state.k == k_new
            assert k_new <= MAX_NEW_CAUSES
            if k_new:
                np.testing.assert_array_equal(state.Z[0], np.zeros(k_new))
                np.testing.assert_array_equal(state.Z[1], np.ones(k_new))
            check_consistency(state)

    def test_degenerate_parameters_raise(self):
        """eps = lam = 0 leaves an observed 1 with no possible explanation."""
        params = ModelParams(epsilon=0.0, lam=0.0, p=0.5, alpha=1.0)
        state = SamplerState.from_matrices(
            np.zeros((1, 0), dtype=np.int8), np.zeros((0, 1), dtype=np.int8), params
        )
        X = np.array([[1]], dtype=np.int8)
        with pytest.raises(DegenerateModelError):
            sample_new_causes(state, 0, X, row_index(state, 0, X), np.random.default_rng(0))


class TestCompaction:
    def test_drops_zero_columns_and_their_rows(self):
        Z = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int8)
        Y = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        compact_state(state)
        np.testing.assert_array_equal(state.Z, [[1, 0], [0, 1]])
        np.testing.assert_array_equal(state.Y, [[1, 0], [0, 1]])
        check_consistency(state)

    def test_noop_when_all_columns_linked(self):
        Z = np.array([[1], [1]], dtype=np.int8)
        Y = np.array([[1, 1]], dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        Z_before = state.Z
        compact_state(state)
        assert state.Z is Z_before


class TestGibbsSweep:
    def test_preserves_invariants(self):
        rng = np.random.default_rng(10)
        X = (rng.random((4, 6)) < 0.4).astype(np.int8)
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.2, alpha=1.5)
        state = SamplerState.from_matrices(
            np.zeros((4, 0), dtype=np.int8), np.zeros((0, 6), dtype=np.int8), params
        )
        for _ in range(30):
            gibbs_sweep(state, X, rng)
            check_consistency(state)
            assert (state.column_sums > 0).all()  # compacted

    def test_deterministic_given_seed(self):
        X = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int8)
        params = ModelParams(epsilon=0.05, lam=0.8, p=0.2, alpha=1.0)

        def run(seed):
            state = SamplerState.from_matrices(
                np.zeros((3, 0), dtype=np.int8), np.zeros((0, 3), dtype=np.int8), params
            )
            rng = np.random.default_rng(seed)
            for _ in range(20):
                gibbs_sweep(state, X, rng)
            return state

        a, b = run(11), run(11)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_matches_exact_unbounded_posterior(self):
        """End-to-end correctness: the chain's K+ distribution on a 2x2
        instance matches exact enumeration over lof classes (Y summed out
        trial by trial), total variation below 0.05."""
        params = ModelParams(epsilon=0.2, lam=0.7, p=0.3, alpha=1.0)
        X = np.array([[1, 0], [0, 1]], dtype=np.int8)
        patterns = [(0, 1), (1, 0), (1, 1)]
        kmax = 8
        exact = np.zeros(kmax + 1)
        for kp in range(kmax + 1):
            for combo in itertools.combinations_with_replacement(patterns, kp):
                Z = np.array(combo, dtype=np.int8).T.reshape(2, kp)
                lp = log_prior_Z_ibp(Z, params.alpha)
                ll = 0.0
                for trial in range(2):
                    tot = 0.0
                    for y in itertools.product((0, 1), repeat=kp):
                        ya = np.array(y)
                        w = params.p ** ya.sum() * (1 - params.p) ** (kp - ya.sum())
                        c = Z @ ya
                        tot += w * np.exp(
                            log_pmf_noisy_or(X[:, trial], c, params.lam, params.epsilon).sum()
                        )
                    ll += math.log(tot)
                exact[kp] += math.exp(lp + ll)
        exact /= exact.sum()

        rng = np.random.default_rng(0)
        state = SamplerState.from_matrices(
            np.zeros((2, 0), dtype=np.int8), np.zeros((0, 2), dtype=np.int8), params
        )
        sweeps = 20_000
        tally = np.zeros(32)
        for _ in range(sweeps):
            gibbs_sweep(state, X, rng)
            tally[state.kplus] += 1
        emp = tally / sweeps
        tv = 0.5 * (np.abs(emp[: exact.size] - exact).sum() + emp[exact.size :].sum())
        assert tv < 0.05, f"TV(K+) = {tv:.4f}"

    def test_resample_all_y_covers_every_row(self):
        rng = np.random.default_rng(12)
        Z = np.ones((2, 3), dtype=np.int8)
        Y = np.zeros((3, 4), dtype=np.int8)
        X = np.ones((2, 4), dtype=np.int8)
        state = SamplerState.from_matrices(Z, Y, PARAMS)
        resample_all_y(state, X, rng)
        check_consistency(state)
