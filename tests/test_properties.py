"""Property tests: the likelihood table against the elementwise kernel,
the shared tables under changing parameters, the samplers' caches under
random move sequences, and the IBP prior under column permutation."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, gammaln, xlogy

from helpers import (
    check_consistency,
    reference_fresh_cause_log_weights,
    reference_resample_all_y,
    reference_z_entry,
    reference_z_log_likelihoods,
    reference_z_log_odds,
    row_index,
)
from hiddencauses import (
    DegenerateModelError,
    FiniteState,
    ModelParams,
    SamplerState,
    log_prior_Z_ibp,
    marginal_on_prob,
)
from hiddencauses import gibbs, model, rjmcmc, runner
from hiddencauses.gibbs import (
    MAX_NEW_CAUSES,
    compact_state,
    gibbs_sample_z_entry,
    resample_all_y,
    resample_y_row,
    sample_new_causes,
)
from hiddencauses.model import (
    draw_tables,
    flat_index,
    fresh_cause_table,
    log_likelihood_from_counts,
    log_pmf_noisy_or,
    log_pmf_table,
    shared_log_pmf_table,
)
from hiddencauses.rjmcmc import birth_acceptance, death_acceptance, finite_conditional_z

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
                entry = (state, i, k, row_index(state, i, X), state.Y[k].nonzero()[0], rng,
                         reference_z_log_odds(state, i, k, X))
                if state.column_sums[k] - state.Z[i, k] > 0:
                    gibbs_sample_z_entry(*entry)
                else:
                    finite_conditional_z(*entry)
            elif move == "fresh":
                sample_new_causes(state, i, X, row_index(state, i, X), rng)
            elif move == "y":
                resample_y_row(state, k, X, rng.random(t))
            elif move == "birth" and state.column_sums[k] > 0:
                birth_acceptance(state, (rng.random(t) < params.p).astype(np.int8), rng)
            elif move == "death" and state.column_sums[k] == 0:
                death_acceptance(state, k, rng)
            check_consistency(state)


# ---------------------------------------------------------------------------
# shared tables: every gather follows the current (lam, epsilon, p) and K
# ---------------------------------------------------------------------------


def _on_prob_gather(state, k, X, rows):
    """What cause k (one or two rows) reads from the on-probability table:
    entry [b, a] for the rows' flat indices a and b, [K, a] for one row."""
    params = state.params
    table = draw_tables(params.lam, params.epsilon, params.p, state.k).on_prob
    idx = flat_index(X[rows], state.counts[rows], state.k) - state.Y[k]
    return table[idx[1] if rows.size == 2 else state.k, idx[0]]


def _elementwise_log_weights(state, k, X, rows):
    """(logw1, logw0) of y[k, :] from the elementwise kernel: the pair
    the summed log-odds replaced, which tells where both states have
    zero mass."""
    params = state.params
    base = state.counts[rows] - state.Y[k]
    with np.errstate(divide="ignore"):
        log_p1, log_p0 = float(np.log(params.p)), float(np.log1p(-params.p))
    ll1 = log_pmf_noisy_or(X[rows], base + 1, params.lam, params.epsilon).sum(axis=0)
    ll0 = log_pmf_noisy_or(X[rows], base, params.lam, params.epsilon).sum(axis=0)
    return log_p1 + ll1, log_p0 + ll0


def _elementwise_log_odds(state, k, X, rows):
    """Log-odds of y[k, :] = 1 from the elementwise kernel: the prior's,
    plus log P(x | c + 1) - log P(x | c) summed over the rows in order."""
    params = state.params
    base = state.counts[rows] - state.Y[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (log_pmf_noisy_or(X[rows], base + 1, params.lam, params.epsilon)
                 - log_pmf_noisy_or(X[rows], base, params.lam, params.epsilon))
        return float(np.log(params.p) - np.log1p(-params.p)) + terms.sum(axis=0)


def _assert_gathers_match_elementwise(state, X):
    params = state.params
    lam, eps = params.lam, params.epsilon
    n = state.n_rows
    for i in range(n):
        cols = list(range(state.k))
        got = gibbs.z_log_odds(state, i, cols, row_index(state, i, X),
                               [state.Y[k].nonzero()[0] for k in cols])
        assert got == [reference_z_log_odds(state, i, k, X) for k in cols]
    for k in range(state.k):
        rows = state.Z[:, k].nonzero()[0]
        got = gibbs._y_conditional_log_odds(state, k, X, rows)
        want = _elementwise_log_odds(state, k, X, rows)
        np.testing.assert_array_equal(got, want)
        if 0 < rows.size <= 2:
            np.testing.assert_array_equal(_on_prob_gather(state, k, X, rows), expit(want))
    ks = np.arange(MAX_NEW_CAUSES + 1)
    log_rate, log_fact = xlogy(ks, params.alpha / n), gammaln(ks + 1.0)
    for i in range(n):
        got = gibbs._fresh_cause_log_weights(state, row_index(state, i, X))
        np.testing.assert_array_equal(
            got, reference_fresh_cause_log_weights(state, i, X, MAX_NEW_CAUSES)
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
                sample_new_causes(state, i, X, row_index(state, i, X), rng)
            elif move == "birth" and state.column_sums[k] > 0:
                birth_acceptance(state, (rng.random(t) < p).astype(np.int8), rng)
            elif move == "death" and state.column_sums[k] == 0:
                death_acceptance(state, k, rng)
            elif move == "compact" and state.kplus:
                compact_state(state)
            elif move == "z":
                finite_conditional_z(state, i, k, row_index(state, i, X), state.Y[k].nonzero()[0],
                                     rng, reference_z_log_odds(state, i, k, X))
            elif move == "y":
                resample_y_row(state, k, X, rng.random(t))
            _assert_gathers_match_elementwise(state, X)

    def test_shared_tables_are_read_only(self):
        tables = draw_tables(0.9, 0.01, 0.1, 4)
        fresh = fresh_cause_table(0.9, 0.01, 0.1, 4)
        for table in (shared_log_pmf_table(0.9, 0.01, 4), tables.log_odds, tables.on_prob, fresh):
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.0
            with pytest.raises(ValueError):
                table.ravel()[0] = 0.0
        assert shared_log_pmf_table(0.9, 0.01, 4) is shared_log_pmf_table(0.9, 0.01, 4)
        assert draw_tables(0.9, 0.01, 0.1, 4) is tables
        assert fresh_cause_table(0.9, 0.01, 0.1, 4) is fresh


# ---------------------------------------------------------------------------
# one flat index per z row, one block of uniforms per Y pass: the same
# draws as the per-entry gather and the per-row Y loop
# ---------------------------------------------------------------------------


# inside values first: hypothesis favours a one_of's first branch
probs = st.one_of(st.floats(0.02, 0.98), st.sampled_from((0.0, 1.0)))
leaks = st.one_of(st.floats(0.001, 0.5), st.just(0.0))


@st.composite
def matrices(draw, min_k=0):
    """(Z, Y, X, params): a random set of linked columns, each with at
    least one edge, beside unlinked ones; lam, epsilon and p at their
    boundaries as well as inside."""
    n, t, k = draw(st.integers(1, 6)), draw(st.integers(1, 10)), draw(st.integers(min_k, 6))
    linked = np.zeros(k, dtype=bool)
    linked[draw(st.permutations(range(k)))[:draw(st.integers(0, k))]] = True
    Z = draw(arrays(np.int8, (n, k), elements=st.integers(0, 1))) * linked
    for col in linked.nonzero()[0]:
        Z[draw(st.integers(0, n - 1)), col] = 1
    Y = draw(arrays(np.int8, (k, t), elements=st.integers(0, 1)))
    X = draw(arrays(np.int8, (n, t), elements=st.integers(0, 1)))
    params = ModelParams(epsilon=draw(leaks), lam=draw(probs), p=draw(probs), alpha=1.5)
    return Z, Y, X, params


def _assert_same_state(a, b):
    for name in ("Z", "Y", "counts", "column_sums"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def _reference_passes(X, entries):
    """Patches that run the sweeps on the reference z gather and Y loop,
    and the fresh-cause draw on an index built from the counts.  Each z
    entry is drawn by ``reference_z_entry``, which ignores the pair the
    sweep hands over, and leaves the row's index built from the counts;
    entries gets (i, k, old, new) per entry."""
    real_fresh = gibbs.sample_new_causes

    def draw(state, i, k, row_idx, rng, theta_bar):
        old = int(state.Z[i, k])
        new = reference_z_entry(state, i, k, X, rng, theta_bar)
        row_idx[:] = row_index(state, i, X)
        entries.append((i, k, old, new))
        return new

    def gibbs_entry(state, i, k, row_idx, active, rng, log_odds):
        m_minus = int(state.column_sums[k]) - int(state.Z[i, k])
        return draw(state, i, k, row_idx, rng, m_minus / state.n_rows)

    def finite_entry(state, i, k, row_idx, active, rng, log_odds):
        m_minus = int(state.column_sums[k]) - int(state.Z[i, k])
        return draw(state, i, k, row_idx, rng, rjmcmc.finite_theta_bar(
            m_minus, state.n_rows, state.k, state.params.alpha, state.predictive))

    def fresh(state, i, X, row_idx, rng):
        return real_fresh(state, i, X, row_index(state, i, X), rng)

    return [mock.patch.object(gibbs, "gibbs_sample_z_entry", gibbs_entry),
            mock.patch.object(rjmcmc, "finite_conditional_z", finite_entry)] + [
        mock.patch.object(module, "resample_all_y", reference_resample_all_y)
        for module in (gibbs, rjmcmc)] + [
        mock.patch.object(gibbs, "sample_new_causes", fresh)]


def _checked_row_index(X, entries):
    """Patches that assert, at every z entry, that the active trials and
    the log-odds handed over are cause k's and equal the reference sum,
    and after it and at every fresh-cause draw, that the row's
    flat index still equals one built from the counts; entries gets
    (i, k, old, new) per entry."""
    real_gibbs, real_finite = gibbs.gibbs_sample_z_entry, rjmcmc.finite_conditional_z
    real_fresh = gibbs.sample_new_causes

    def checked(draw, state, i, k, row_idx, active, log_odds):
        np.testing.assert_array_equal(active, state.Y[k].nonzero()[0])
        np.testing.assert_array_equal(log_odds, reference_z_log_odds(state, i, k, X))
        old = int(state.Z[i, k])
        new = draw()
        np.testing.assert_array_equal(row_idx, row_index(state, i, X))
        entries.append((i, k, old, new))
        return new

    def gibbs_entry(state, i, k, row_idx, active, rng, log_odds):
        return checked(lambda: real_gibbs(state, i, k, row_idx, active, rng, log_odds),
                       state, i, k, row_idx, active, log_odds)

    def finite_entry(state, i, k, row_idx, active, rng, log_odds):
        return checked(lambda: real_finite(state, i, k, row_idx, active, rng, log_odds),
                       state, i, k, row_idx, active, log_odds)

    def fresh(state, i, X, row_idx, rng):
        np.testing.assert_array_equal(row_idx, row_index(state, i, X))
        return real_fresh(state, i, X, row_idx, rng)

    return [mock.patch.object(gibbs, "gibbs_sample_z_entry", gibbs_entry),
            mock.patch.object(rjmcmc, "finite_conditional_z", finite_entry),
            mock.patch.object(gibbs, "sample_new_causes", fresh)]


def _run(sweep, state, X, seed, patches):
    rng = np.random.default_rng(seed)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        try:
            sweep(state, X, rng)
        except DegenerateModelError:
            return None
    return rng.bit_generator.state


SWEEPS = {
    "gibbs": (SamplerState, gibbs.gibbs_sweep),
    "finite": (FiniteState, rjmcmc.finite_gibbs_sweep),
    "rjmcmc": (FiniteState, rjmcmc.rjmcmc_sweep),
}


# one row, an empty active list, a column with z = 1, and -inf table
# entries from epsilon = 0 and lam = 1
_KERNEL_EXAMPLE = (
    np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int8),
    np.array([[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 1]], dtype=np.int8),
    np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.int8),
    ModelParams(epsilon=0.0, lam=1.0, p=0.3, alpha=1.5),
)


class TestRowKernel:
    @given(case=matrices(min_k=1), i=st.integers(0, 63), order=st.permutations(range(6)),
           size=st.integers(1, 6))
    @example(case=_KERNEL_EXAMPLE, i=0, order=[2, 1, 0, 3, 4, 5], size=3)
    def test_log_odds_equal_elementwise_sums(self, case, i, order, size):
        """Bit for bit, each column's log-odds from the row's one gather
        equals the elementwise sum of ``reference_z_log_odds``, NaN where
        it is NaN."""
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        i %= state.n_rows
        cols = [k for k in order if k < state.k][:size]
        actives = [state.Y[k].nonzero()[0] for k in cols]
        got = gibbs.z_log_odds(state, i, cols, row_index(state, i, X), actives)
        np.testing.assert_array_equal(got, [reference_z_log_odds(state, i, k, X) for k in cols])


class TestPassesMatchReference:
    @given(case=matrices(), seed=st.integers(0, 2**32 - 1))
    def test_y_pass_matches_per_row_loop(self, case, seed):
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        ref = SamplerState.from_matrices(Z, Y, params)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            resample_all_y(state, X, rng)
        except DegenerateModelError:
            # the same linked row raises; unlinked rows are set only after
            # every linked row has been drawn
            with pytest.raises(DegenerateModelError):
                reference_resample_all_y(ref, X, ref_rng)
            linked = state.column_sums > 0
            np.testing.assert_array_equal(state.Y[linked], ref.Y[linked])
            np.testing.assert_array_equal(state.Y[~linked], Y[~linked])
            np.testing.assert_array_equal(state.counts, ref.counts)
            return
        reference_resample_all_y(ref, X, ref_rng)
        _assert_same_state(state, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        check_consistency(state)

    @given(case=matrices(min_k=1), i=st.integers(0, 63),
           thetas=st.lists(probs, min_size=6, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_z_entries_match_per_entry_gather(self, case, i, thetas, seed):
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        ref = SamplerState.from_matrices(Z, Y, params)
        i %= state.n_rows
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        row_idx = row_index(state, i, X)
        for k in range(state.k):
            active = state.Y[k].nonzero()[0]
            try:
                got = gibbs._sample_z_given_theta(state, i, k, row_idx, active, rng, thetas[k],
                                                  reference_z_log_odds(state, i, k, X))
            except DegenerateModelError:
                with pytest.raises(DegenerateModelError):
                    reference_z_entry(ref, i, k, X, ref_rng, thetas[k])
                got = None
            else:
                assert got == reference_z_entry(ref, i, k, X, ref_rng, thetas[k])
            _assert_same_state(state, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            np.testing.assert_array_equal(row_idx, row_index(state, i, X))
            if got is None:
                return

    @settings(max_examples=40)  # each example runs 18 parameter settings
    @given(case=matrices(min_k=1), seed=st.integers(0, 2**32 - 1))
    def test_z_draws_match_reference_at_boundaries(self, case, seed):
        """At every (epsilon, lam, p) of ``BOUNDARY_PARAMS``, and with the
        predictive=False prior weight clamped at 1 (alpha / K >= N), a z
        draw from the row kernel's log-odds raises exactly where the
        reference pair has both weights at -inf, and elsewhere draws the
        reference's value from the same uniform."""
        Z, Y, X, drawn = case
        n, k = Z.shape
        for eps, lam, p in BOUNDARY_PARAMS:
            for predictive, alpha in ((True, drawn.alpha), (False, float(n * k))):
                params = drawn.replace(epsilon=eps, lam=lam, p=p, alpha=alpha)
                state = FiniteState.from_matrices(Z, Y, params, predictive=predictive)
                ref = FiniteState.from_matrices(Z, Y, params, predictive=predictive)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                active = [y.nonzero()[0] for y in state.Y]
                for i in range(n):
                    row_idx = row_index(state, i, X)
                    for c, log_odds in gibbs.z_row(state, i, list(range(k)), row_idx, active):
                        m_minus = int(ref.column_sums[c]) - int(ref.Z[i, c])
                        theta = rjmcmc.finite_theta_bar(m_minus, n, k, alpha, predictive)
                        assert predictive or theta == 1.0
                        ll0, ll1 = reference_z_log_likelihoods(ref, i, c, X)
                        zero_mass = ((theta == 0.0 or ll1 == -math.inf)
                                     and (theta == 1.0 or ll0 == -math.inf))
                        entry = (state, i, c, row_idx, active[c], rng, log_odds)
                        if zero_mass:
                            with pytest.raises(DegenerateModelError):
                                rjmcmc.finite_conditional_z(*entry)
                            with pytest.raises(DegenerateModelError):
                                reference_z_entry(ref, i, c, X, ref_rng, theta)
                            break
                        got = rjmcmc.finite_conditional_z(*entry)
                        assert got == reference_z_entry(ref, i, c, X, ref_rng, theta)
                        _assert_same_state(state, ref)
                        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @given(case=matrices(min_k=1), seed=st.integers(0, 2**32 - 1))
    def test_sweeps_match_reference_passes(self, sweep, case, seed):
        """Whole sweeps build each row's index and each cause's active
        trials where the z entries need them: the same draws as sweeps on
        the reference passes, the active trials of cause k at every entry,
        and after it an index equal to one built from the counts."""
        Z, Y, X, params = case
        cls, run = SWEEPS[sweep]
        state = cls.from_matrices(Z, Y, params)
        ref = cls.from_matrices(Z, Y, params)
        entries, ref_entries = [], []
        got = _run(run, state, X, seed, _checked_row_index(X, entries))
        want = _run(run, ref, X, seed, _reference_passes(X, ref_entries))
        assert (got is None) == (want is None)
        assert entries == ref_entries
        if got is not None:
            assert got == want
            _assert_same_state(state, ref)
            check_consistency(state)
            # every row of a finite state draws each of its K >= 1 entries
            assert sweep == "gibbs" or len(entries) >= state.n_rows

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_entries_after_a_flip_read_the_moved_index(self, sweep):
        """Row 0's first entry must flip (x = 1 with no cause and no leak),
        which moves row 0's counts on trial 0, shared by all three causes.
        Each later entry reads them: on the pre-flip counts, cause 1 would
        meet both states at zero mass.  Row 1 links every cause, so the
        gibbs sweep visits all three columns of row 0."""
        Z = np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int8)
        Y = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.int8)
        X = np.array([[1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.int8)
        params = ModelParams(epsilon=0.0, lam=1.0, p=0.3, alpha=1.5)
        cls, run = SWEEPS[sweep]
        for seed in range(5):
            state = cls.from_matrices(Z, Y, params)
            ref = cls.from_matrices(Z, Y, params)
            entries, ref_entries = [], []
            got = _run(run, state, X, seed, _checked_row_index(X, entries))
            want = _run(run, ref, X, seed, _reference_passes(X, ref_entries))
            assert got is not None and got == want
            assert entries == ref_entries
            assert entries[:3] == [(0, 0, 0, 1), (0, 1, 0, 0), (0, 2, 0, 0)]
            _assert_same_state(state, ref)


# ---------------------------------------------------------------------------
# the on-probability table of causes that link one or two rows
# ---------------------------------------------------------------------------


# (epsilon, lam, p) at the ends of their ranges, beside inside values
BOUNDARY_PARAMS = [(eps, lam, p) for eps in (0.0, 0.05) for lam in (0.0, 0.7, 1.0)
                   for p in (0.0, 0.3, 1.0)]


class TestOnProbTable:
    @given(case=matrices(min_k=1))
    def test_table_equals_summed_path(self, case):
        """Bit for bit, a one- or two-row cause's tabulated on-probability
        is expit of the summed log-odds, which is NaN on exactly the trials
        where the pair of log-likelihoods it replaced has both states at
        zero mass.  A cause with any number of rows that raises finds the
        table degenerate."""
        Z, Y, X, drawn = case
        for eps, lam, p in [(drawn.epsilon, drawn.lam, drawn.p)] + BOUNDARY_PARAMS:
            state = SamplerState.from_matrices(Z, Y, drawn.replace(epsilon=eps, lam=lam, p=p))
            for k in range(state.k):
                rows = state.Z[:, k].nonzero()[0]
                logw1, logw0 = _elementwise_log_weights(state, k, X, rows)
                zero_mass = np.isneginf(logw1) & np.isneginf(logw0)
                log_odds = _elementwise_log_odds(state, k, X, rows)
                np.testing.assert_array_equal(np.isnan(log_odds), zero_mass)
                if zero_mass.any():
                    assert draw_tables(lam, eps, p, state.k).degenerate
                    with pytest.raises(DegenerateModelError):
                        gibbs._y_conditional_log_odds(state, k, X, rows)
                else:
                    np.testing.assert_array_equal(
                        gibbs._y_conditional_log_odds(state, k, X, rows), log_odds)
                want = expit(log_odds)
                if 0 < rows.size <= 2:
                    got = _on_prob_gather(state, k, X, rows)
                    np.testing.assert_array_equal(np.isnan(got), zero_mass)
                    np.testing.assert_array_equal(got, want)


class TestDrawTables:
    @given(lam=lams, eps=epsilons, p=st.floats(0.0, 1.0))
    def test_fields_equal_their_reference_builds(self, lam, eps, p):
        """Bit for bit, each field of the bundle and the fresh-cause table
        is the table its readers once built themselves, every array is
        read-only, and one key returns one object."""
        ks = np.arange(MAX_NEW_CAUSES + 1, dtype=np.float64)
        for eps, lam, p in [(eps, lam, p)] + BOUNDARY_PARAMS:
            for k in (0, 1, 4):
                tables = draw_tables(lam, eps, p, k)
                assert draw_tables(lam, eps, p, k) is tables
                fresh_table = fresh_cause_table(lam, eps, p, k)
                assert fresh_cause_table(lam, eps, p, k) is fresh_table
                fresh = log_pmf_table(lam, eps, k, xlogy(ks, 1.0 - lam * p)[:, None, None])
                table = log_pmf_table(lam, eps, k)
                log_odds = np.zeros_like(table)
                with np.errstate(divide="ignore", invalid="ignore"):
                    for x in (0, 1):
                        for c in range(k):
                            log_odds[x, c] = table[x, c + 1] - table[x, c]
                    prior_log_odds = np.log(p) - np.log1p(-p)
                for got, want in ((tables.log_odds, log_odds.ravel()),
                                  (fresh_table, fresh.reshape(MAX_NEW_CAUSES + 1, -1)),
                                  (np.array(tables.prior_log_odds), prior_log_odds)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                assert tables.on_prob.shape == (2 * k + 2, 2 * k + 2)
                assert tables.degenerate is bool(np.isnan(tables.on_prob).any())
                for table in (tables.log_odds, tables.on_prob, fresh_table):
                    assert not table.flags.writeable


class TestFreshCauseBoundaries:
    @given(case=matrices())
    def test_histogram_weights_at_boundaries(self, case):
        """The histogram weights are never NaN, even where an empty bin
        holds a -inf entry, and are -inf exactly where the elementwise sum
        over trials is; a row whose every weight is -inf, and only such a
        row, makes sample_new_causes refuse."""
        Z, Y, X, drawn = case
        ks = np.arange(MAX_NEW_CAUSES + 1)
        for eps, lam, p in [(drawn.epsilon, drawn.lam, drawn.p)] + BOUNDARY_PARAMS:
            params = drawn.replace(epsilon=eps, lam=lam, p=p)
            extra = xlogy(ks, 1.0 - lam * p)
            for i in range(X.shape[0]):
                state = SamplerState.from_matrices(Z, Y, params)
                row_idx = row_index(state, i, X)
                got = gibbs._fresh_cause_log_weights(state, row_idx)
                per_trial = log_pmf_noisy_or(
                    X[i][:, None], state.counts[i][:, None], lam, eps, extra
                )
                zero_mass = np.isneginf(per_trial.sum(axis=0))
                assert not np.isnan(got).any()
                np.testing.assert_array_equal(np.isneginf(got), zero_mass)
                if zero_mass.all():
                    with pytest.raises(DegenerateModelError):
                        sample_new_causes(state, i, X, row_idx, np.random.default_rng(0))
                else:
                    sample_new_causes(state, i, X, row_idx, np.random.default_rng(0))
                    check_consistency(state)


# ---------------------------------------------------------------------------
# long T: the drawn states above have T <= 10
# ---------------------------------------------------------------------------


LONG_PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)


def _long_state():
    """6 x 5000: causes that link rows {0}, {1}, {2, 3}, {4, 5} and
    {0, 2, 4}, and one that links none."""
    rng = np.random.default_rng(2024)
    Z = np.zeros((6, 6), dtype=np.int8)
    for k, rows in enumerate(([0], [1], [2, 3], [4, 5], [0, 2, 4])):
        Z[rows, k] = 1
    Y = (rng.random((6, 5000)) < 0.1).astype(np.int8)
    X = (rng.random((6, 5000)) < 0.3).astype(np.int8)
    return SamplerState.from_matrices(Z, Y, LONG_PARAMS), X


def _summed_y_row(state, k, X, u):
    """A Y-row update that draws u < expit of the summed log-odds."""
    rows = state.Z[:, k].nonzero()[0]
    new = (u < expit(gibbs._y_conditional_log_odds(state, k, X, rows))).astype(np.int8)
    state.counts[rows] += new - state.Y[k]
    state.Y[k] = new


class TestLongRows:
    def test_y_pass_matches_per_row_loop(self):
        state, X = _long_state()
        ref, _ = _long_state()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        resample_all_y(state, X, rng)
        reference_resample_all_y(ref, X, ref_rng)
        _assert_same_state(state, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        check_consistency(state)

    def test_fresh_rows_match_summed_draws(self):
        state, X = _long_state()
        ref, _ = _long_state()
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        added = 0
        for i in range(state.n_rows):
            added += sample_new_causes(state, i, X, row_index(state, i, X), rng)
            with mock.patch.object(gibbs, "resample_y_row", _summed_y_row):
                sample_new_causes(ref, i, X, row_index(ref, i, X), ref_rng)
            _assert_same_state(state, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert added > 0
        check_consistency(state)


# ---------------------------------------------------------------------------
# the trace: the log-likelihood the rate steps hand on, or the cached counts
# ---------------------------------------------------------------------------


TRACE_ITERATIONS = 8


class TestTraceValues:
    @pytest.mark.parametrize("infer_hypers", [False, True])
    @pytest.mark.parametrize("sampler", runner.SAMPLERS)
    def test_log_joint_matches_a_fresh_evaluation(self, sampler, infer_hypers):
        """Through ``run_chain``'s loop of ``step``, every trace record's
        log-joint equals ``model.log_joint`` of a copy of that iteration's
        Z and Y, bit for bit, on 6 x 400 data at
        every (epsilon, lam, p) of ``BOUNDARY_PARAMS``.  A chain that meets
        a degenerate draw stops there, and its earlier records are still
        checked; the one inside every range runs to the end."""
        rng = np.random.default_rng(2025)
        X = (rng.random((6, 400)) < 0.3).astype(np.int8)
        real = runner.log_joint
        completed = set()
        for eps, lam, p in BOUNDARY_PARAMS:
            seen = []

            def snapshot(X, Z, Y, params, **kwargs):
                want = model.log_joint(X, Z.copy(), Y.copy(), params, prior=kwargs["prior"])
                seen.append((real(X, Z, Y, params, **kwargs), want))
                return seen[-1][0]

            params = ModelParams(epsilon=eps, lam=lam, p=p, alpha=1.5)
            with mock.patch.object(runner, "log_joint", snapshot):
                try:
                    result = runner.run_chain(X, sampler=sampler, iterations=TRACE_ITERATIONS,
                                              params=params, seed=7, init="random10",
                                              infer_hypers=infer_hypers)
                except DegenerateModelError:
                    result = None
            assert seen
            for got, want in seen:
                assert got == want
            if result is not None:
                completed.add((eps, lam, p))
                assert [rec.log_joint for rec in result.trace] == [got for got, _ in seen]
        assert (0.05, 0.7, 0.3) in completed


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
