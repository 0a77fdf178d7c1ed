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
    check_index,
    reference_fresh_cause_log_weights,
    reference_resample_all_y,
    reference_z_entry,
    reference_z_log_odds,
    zy_counts,
    zy_index,
)
from hiddencauses import (
    DegenerateModelError,
    FiniteState,
    ModelParams,
    SamplerState,
    UniformK,
    log_prior_Z_ibp,
    marginal_on_prob,
)
from hiddencauses import gibbs, model, rjmcmc, runner
from hiddencauses.gibbs import (
    MAX_NEW_CAUSES,
    compact_state,
    gibbs_sample_z_entry,
    rebase,
    resample_all_y,
    resample_y_row,
    sample_new_causes,
    sweep_index,
)
from hiddencauses.model import (
    draw_tables,
    flat_index,
    log_likelihood,
    log_likelihood_at,
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
        total = log_likelihood_at(flat_index(x, c, c_max), c_max, lam, epsilon)
        assert total == float(want.sum())

    # epsilon at 1 too, a value ModelParams refuses but the table takes
    @given(lam=lams, epsilon=lams, caps=st.tuples(st.integers(0, 200), st.integers(0, 200)))
    @example(lam=0.0, epsilon=1.0, caps=(200, 0))
    @example(lam=1.0, epsilon=0.0, caps=(200, 1))
    @example(lam=1.0, epsilon=1.0, caps=(7, 3))
    def test_a_smaller_cap_is_a_prefix(self, lam, epsilon, caps):
        """The table at cap m is the first m + 1 columns of the table at any
        cap K >= m, bit for bit, so one likelihood gathered at cap K by the
        sweeps' index equals it gathered at the largest count."""
        m, k = sorted(caps)
        assert log_pmf_table(lam, epsilon, k)[:, :m + 1].tobytes() == \
            log_pmf_table(lam, epsilon, m).tobytes()

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


def _apply_move(state, X, index, move, i, k, rng):
    """Apply one move of a random sequence to state and its sweep index:
    a z entry, a fresh-cause draw, an activation row (all rows at once
    when cause k is unlinked), or a birth or death, whose acceptance
    rebases the index to the new K as a sweep does."""
    t = state.n_trials
    if move == "z":
        logit = _log_odds(_theta_bar(state, i, k)) + reference_z_log_odds(state, i, k, X)
        shared = state.column_sums[k] - state.Z[i, k] > 0
        (gibbs_sample_z_entry if shared else finite_conditional_z)(
            state, i, k, index[i], state.Y[k].nonzero()[0], rng.random(), logit)
    elif move == "fresh":
        sample_new_causes(state, i, X, index, rng)
    elif move == "y":
        rows = state.Z[:, k].nonzero()[0]
        if rows.size:
            params = state.params
            resample_y_row(state, k, rows, index, rng.random(t),
                           draw_tables(params.lam, params.epsilon, params.p, state.k))
        else:
            resample_all_y(state, index, rng)
    elif move == "birth" and state.column_sums[k] > 0:
        if birth_acceptance(state, (rng.random(t) < state.params.p).astype(np.int8), rng)[1]:
            rebase(index, X, 1)
    elif move == "death" and state.column_sums[k] == 0:
        if death_acceptance(state, k, rng)[1]:
            rebase(index, X, -1)


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
        with sweep_index(state, X) as index:
            for move, a, b in moves:
                _apply_move(state, X, index, move, a % n, b % state.k, rng)
                check_index(state, X, index)
        check_consistency(state)


# ---------------------------------------------------------------------------
# shared tables: every gather follows the current (lam, epsilon, p) and K
# ---------------------------------------------------------------------------


def _y_row_index(state, k, X, rows):
    """The flat index of cause k's rows on every trial, y[k, t] dropped."""
    return flat_index(X[rows], state.counts[rows], state.k) - state.Y[k]


def _on_prob_gather(state, k, X, rows):
    """What cause k (one or two rows) reads from the on-probability table:
    entry [b, a] for the rows' flat indices a and b, [K, a] for one row."""
    params = state.params
    table = draw_tables(params.lam, params.epsilon, params.p, state.k).on_prob
    idx = _y_row_index(state, k, X, rows)
    return table[idx[1] if rows.size == 2 else state.k, idx[0]]


def _summed_log_odds(state, k, X, rows):
    """The summed path's log-odds of y[k, :] = 1, as ``resample_y_row`` reads them."""
    params = state.params
    tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
    return gibbs._y_conditional_log_odds(tables, _y_row_index(state, k, X, rows))


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
    seg, cat, _ = gibbs.active_layout(state.Y)
    for i in range(n):
        got = gibbs.z_log_odds(state, i, zy_index(state, X)[i], seg, cat)
        want = [reference_z_log_odds(state, i, k, X) for k in range(state.k)]
        np.testing.assert_array_equal(got, want)
    for k in range(state.k):
        rows = state.Z[:, k].nonzero()[0]
        got = _summed_log_odds(state, k, X, rows)
        want = _elementwise_log_odds(state, k, X, rows)
        np.testing.assert_array_equal(got, want)
        if 0 < rows.size <= 2:
            np.testing.assert_array_equal(_on_prob_gather(state, k, X, rows), expit(want))
    ks = np.arange(MAX_NEW_CAUSES + 1)
    log_rate, log_fact = xlogy(ks, params.alpha / n), gammaln(ks + 1.0)
    for i in range(n):
        got = gibbs._fresh_cause_log_weights(state, zy_index(state, X)[i])
        np.testing.assert_array_equal(
            got, reference_fresh_cause_log_weights(state, i, X, MAX_NEW_CAUSES)
        )
        # the prior's terms, cached per (alpha, N), add as the uncached expression did
        fresh = draw_tables(lam, eps, params.p, state.k).fresh
        hist = np.bincount(zy_index(state, X)[i], minlength=fresh.shape[1])
        seen = hist.nonzero()[0]
        loglik = (fresh.T[seen] * hist[seen, None]).sum(axis=0)
        assert got.tobytes() == (loglik + log_rate - log_fact).tobytes()
        eta = (1.0 - lam) ** state.counts[i]
        want = []
        for k in ks:
            on = marginal_on_prob(eta, k, params)
            off = (1.0 - eps) * eta * (1.0 - lam * params.p) ** k
            want.append(np.log(np.where(X[i] == 1, on, off)).sum())
        want = np.array(want) + log_rate - log_fact
        np.testing.assert_allclose(got, want, rtol=1e-12)
    total = log_likelihood_at(flat_index(X, state.counts, state.k), state.k, lam, eps)
    assert total == float(log_pmf_noisy_or(X, state.counts, lam, eps).sum())
    assert total == log_likelihood(X, state.Z, state.Y, params)


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
            if move == "compact":
                if state.kplus:
                    compact_state(state)  # as a gibbs sweep does, after its index is written back
            else:
                with sweep_index(state, X) as index:
                    _apply_move(state, X, index, move, i, k, rng)
                    check_index(state, X, index)
            _assert_gathers_match_elementwise(state, X)

    def test_shared_tables_are_read_only(self):
        tables = draw_tables(0.9, 0.01, 0.1, 4)
        for table in (shared_log_pmf_table(0.9, 0.01, 4), tables.log_odds, tables.on_prob,
                      tables.fresh):
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.0
            with pytest.raises(ValueError):
                table.ravel()[0] = 0.0
        assert shared_log_pmf_table(0.9, 0.01, 4) is shared_log_pmf_table(0.9, 0.01, 4)
        assert draw_tables(0.9, 0.01, 0.1, 4) is tables
        assert draw_tables(0.9, 0.01, 0.1, 4).fresh is tables.fresh


# ---------------------------------------------------------------------------
# one active layout per Y, one block of uniforms per z row and per Y pass:
# the same draws as the per-entry gather and the per-row Y loop
# ---------------------------------------------------------------------------


# inside values first: hypothesis favours a one_of's first branch
probs = st.one_of(st.floats(0.02, 0.98), st.sampled_from((0.0, 1.0)))
leaks = st.one_of(st.floats(0.001, 0.5), st.just(0.0))


@st.composite
def matrices(draw, min_k=0, shared=False):
    """(Z, Y, X, params): a random set of linked columns, each with at
    least one edge, beside unlinked ones; lam, epsilon and p at their
    boundaries as well as inside.  shared links column 0 to two rows, so
    that the first row of every sweep draws a z entry."""
    n = draw(st.integers(2 if shared else 1, 6))
    t, k = draw(st.integers(1, 10)), draw(st.integers(max(min_k, shared), 6))
    linked = np.zeros(k, dtype=bool)
    linked[draw(st.permutations(range(k)))[:draw(st.integers(0, k))]] = True
    Z = draw(arrays(np.int8, (n, k), elements=st.integers(0, 1))) * linked
    for col in linked.nonzero()[0]:
        Z[draw(st.integers(0, n - 1)), col] = 1
    if shared:
        Z[draw(st.permutations(range(n)))[:2], 0] = 1
    Y = draw(arrays(np.int8, (k, t), elements=st.integers(0, 1)))
    X = draw(arrays(np.int8, (n, t), elements=st.integers(0, 1)))
    params = ModelParams(epsilon=draw(leaks), lam=draw(probs), p=draw(probs), alpha=1.5)
    return Z, Y, X, params


def _assert_same_state(a, b, names=("Z", "Y", "counts", "column_sums")):
    for name in names:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def _log_odds(theta):
    """log theta - log(1 - theta), +-inf at theta in {0, 1}."""
    with np.errstate(divide="ignore"):
        return np.log(theta) - np.log1p(-theta)


def _theta_bar(state, i, k):
    """The prior weight on z[i, k] = 1 of the state's sampler."""
    m_minus = state.column_sums[k] - state.Z[i, k]
    if isinstance(state, FiniteState):
        return rjmcmc.finite_theta_bar(m_minus, state.n_rows, state.k, state.params.alpha,
                                       state.predictive)
    return m_minus / state.n_rows


def _reference_passes(X, entries):
    """Patches that run the sweeps on per-entry z rows and the reference Y
    loop.  Both read and move counts, which they take from Z and Y; the
    rows of the sweep index they moved are then rebuilt from those counts.
    A z row draws each entry the sweep names through ``reference_z_entry``,
    one ``rng.random()`` each, at its sampler's prior weight; entries gets
    (i, k, old, new) per entry."""

    def row(state, i, cols, prior, row_idx, layout, rng, entry):
        state.counts[...] = zy_counts(state)
        for k in cols.tolist():
            old = int(state.Z[i, k])
            entries.append((i, k, old, reference_z_entry(state, i, k, X, rng,
                                                         _theta_bar(state, i, k))))
        row_idx[:] = flat_index(X[i], state.counts[i], state.k)

    def y_pass(state, index, rng):
        state.counts[...] = zy_counts(state)
        reference_resample_all_y(state, X, rng)
        index[...] = flat_index(X, state.counts, state.k)

    return [mock.patch.object(module, name, patch) for module in (gibbs, rjmcmc)
            for name, patch in (("draw_z_row", row), ("resample_all_y", y_pass))]


def _checked_passes(X, entries, flips):
    """Patches that assert, at every z row, that the sweep hands over its
    sampler's columns (the shared ones of a gibbs row, all of a finite
    one), the prior's log-odds at each, the active layout of the current
    Y and the row's index built from Z and Y (``zy_index``); at every call
    of an entry function, that the active trials handed over are cause k's
    and the logit, bit for bit, the row's prior at k plus the reference
    sum of ``reference_z_log_odds``, and after it and at the end of the
    row, that the row's index equals one built from Z and Y; before and
    after every fresh-cause draw, rjmcmc dimension move and activation
    row, that the whole sweep index does (``check_index``), and that an
    activation row gets its cause's rows and the state's tables.  entries
    gets (i, k, old, new) per entry of every row that ends, flips the same
    per entry call."""
    real_row, real_fresh = gibbs.draw_z_row, gibbs.sample_new_causes
    real_y_row, real_move = gibbs.resample_y_row, rjmcmc._dimension_move
    real_gibbs, real_finite = gibbs.gibbs_sample_z_entry, rjmcmc.finite_conditional_z
    row_prior = {}  # column -> the prior's log-odds handed to the current row

    def row(state, i, cols, prior, row_idx, layout, rng, entry):
        finite = isinstance(state, FiniteState)
        m_minus = state.column_sums - state.Z[i]
        np.testing.assert_array_equal(cols, np.arange(state.k) if finite else m_minus.nonzero()[0])
        theta = np.array([_theta_bar(state, i, k) for k in cols.tolist()], dtype=np.float64)
        assert prior.tobytes() == _log_odds(theta).tobytes()
        for got, want in zip(layout, gibbs.active_layout(state.Y)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(row_idx, zy_index(state, X)[i])
        old = state.Z[i, cols].tolist()
        row_prior.clear()
        row_prior.update(zip(cols.tolist(), prior.tolist()))
        real_row(state, i, cols, prior, row_idx, layout, rng, entry)
        np.testing.assert_array_equal(row_idx, zy_index(state, X)[i])
        entries.extend(zip([i] * len(old), cols.tolist(), old, state.Z[i, cols].tolist()))

    def checked(draw, state, i, k, row_idx, active, logit):
        np.testing.assert_array_equal(active, state.Y[k].nonzero()[0])
        np.testing.assert_array_equal(logit, row_prior[k] + reference_z_log_odds(state, i, k, X))
        old = int(state.Z[i, k])
        new = draw()
        np.testing.assert_array_equal(row_idx, zy_index(state, X)[i])
        flips.append((i, k, old, new))
        return new

    def gibbs_entry(state, i, k, row_idx, active, u, logit):
        return checked(lambda: real_gibbs(state, i, k, row_idx, active, u, logit),
                       state, i, k, row_idx, active, logit)

    def finite_entry(state, i, k, row_idx, active, u, logit):
        return checked(lambda: real_finite(state, i, k, row_idx, active, u, logit),
                       state, i, k, row_idx, active, logit)

    def fresh(state, i, X, index, rng):
        check_index(state, X, index)
        k_new = real_fresh(state, i, X, index, rng)
        check_index(state, X, index)
        return k_new

    def y_row(state, k, rows, index, u, tables):
        params = state.params
        np.testing.assert_array_equal(rows, state.Z[:, k].nonzero()[0])
        assert tables is draw_tables(params.lam, params.epsilon, params.p, state.k)
        check_index(state, X, index)
        real_y_row(state, k, rows, index, u, tables)
        check_index(state, X, index)

    def move(state, X, index, rng):
        check_index(state, X, index)
        real_move(state, X, index, rng)
        check_index(state, X, index)

    return [mock.patch.object(gibbs, "draw_z_row", row),
            mock.patch.object(rjmcmc, "draw_z_row", row),
            mock.patch.object(gibbs, "gibbs_sample_z_entry", gibbs_entry),
            mock.patch.object(rjmcmc, "finite_conditional_z", finite_entry),
            mock.patch.object(gibbs, "sample_new_causes", fresh),
            mock.patch.object(gibbs, "resample_y_row", y_row),
            mock.patch.object(rjmcmc, "_dimension_move", move)]


def _run(sweep, state, X, seed, patches, sweeps=1):
    rng = np.random.default_rng(seed)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        try:
            for _ in range(sweeps):
                sweep(state, X, rng)
        except DegenerateModelError:
            return None
    return rng.bit_generator.state


def _flips(entries):
    return [entry for entry in entries if entry[2] != entry[3]]


def _row_matches_reference(state, ref, i, X, prior, entry, thetas, rng, ref_rng):
    """Draw row i of state through ``gibbs.draw_z_row`` with prior
    log-odds prior and entry function entry, and of ref entry by entry
    through ``reference_z_entry`` at prior weights thetas; assert the same
    flips in order, the same raise and the same state, and without a raise
    the same stream position and a row index built from Z and Y.  Returns
    whether the row raised."""
    row_idx, flips, ref_flips = zy_index(state, X)[i], [], []

    def record(state, i, k, row_idx, active, u, logit):
        old = int(state.Z[i, k])
        flips.append((i, k, old, entry(state, i, k, row_idx, active, u, logit)))
        return flips[-1][3]

    try:
        gibbs.draw_z_row(state, i, np.arange(state.k), prior, row_idx,
                         gibbs.active_layout(state.Y), rng, record)
        raised = False
    except DegenerateModelError:
        raised = True
    try:
        for k in range(ref.k):
            old = int(ref.Z[i, k])
            ref_flips.append((i, k, old, reference_z_entry(ref, i, k, X, ref_rng, thetas[k])))
        ref_raised = False
    except DegenerateModelError:
        ref_raised = True
    assert raised == ref_raised
    assert flips == _flips(ref_flips)
    _assert_same_state(state, ref, ("Z", "Y", "column_sums"))  # the row moves no counts
    if not raised:
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_array_equal(row_idx, zy_index(state, X)[i])
    return raised


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
    @given(case=matrices(min_k=1), i=st.integers(0, 63), start=st.integers(0, 6))
    @example(case=_KERNEL_EXAMPLE, i=0, start=0)
    @example(case=_KERNEL_EXAMPLE, i=0, start=1)
    def test_log_odds_equal_elementwise_sums(self, case, i, start):
        """The active layout holds each cause's active trials, and, bit for
        bit, the row kernel on its pairs from cause start on gives each
        later cause the elementwise sum of ``reference_z_log_odds``, NaN
        where it is NaN, and each earlier cause 0."""
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        i %= state.n_rows
        start = min(start, state.k)
        seg, cat, starts = gibbs.active_layout(state.Y)
        assert starts[state.k] == cat.size
        for k in range(state.k):
            np.testing.assert_array_equal(cat[starts[k]:starts[k + 1]], state.Y[k].nonzero()[0])
            np.testing.assert_array_equal(seg[starts[k]:starts[k + 1]], k)
        b = starts[start]
        got = gibbs.z_log_odds(state, i, zy_index(state, X)[i], seg[b:], cat[b:])
        want = [0.0] * start + [reference_z_log_odds(state, i, k, X)
                                for k in range(start, state.k)]
        np.testing.assert_array_equal(got, want)


class TestPassesMatchReference:
    @given(case=matrices(), seed=st.integers(0, 2**32 - 1))
    def test_y_pass_matches_per_row_loop(self, case, seed):
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        ref = SamplerState.from_matrices(Z, Y, params)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            with sweep_index(state, X) as index:
                resample_all_y(state, index, rng)
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
        """A row drawn from one block of uniforms, at any prior weights
        including 0 and 1, flips and raises where the per-entry gather
        does, one uniform per entry."""
        Z, Y, X, params = case
        state = SamplerState.from_matrices(Z, Y, params)
        ref = SamplerState.from_matrices(Z, Y, params)
        i %= state.n_rows
        prior = _log_odds(np.array(thetas[:state.k]))
        _row_matches_reference(state, ref, i, X, prior, gibbs.draw_z_entry, thetas,
                               np.random.default_rng(seed), np.random.default_rng(seed))

    @settings(max_examples=40)  # each example runs 18 parameter settings
    @given(case=matrices(min_k=1), seed=st.integers(0, 2**32 - 1))
    def test_z_draws_match_reference_at_boundaries(self, case, seed):
        """At every (epsilon, lam, p) of ``BOUNDARY_PARAMS``, and with the
        predictive=False prior weight clamped at 1 (alpha / K >= N), rows
        drawn through ``finite_conditional_z`` raise exactly where the
        reference pair has both weights at -inf, and elsewhere flip where
        the reference does, from the same uniforms."""
        Z, Y, X, drawn = case
        n, k = Z.shape
        for eps, lam, p in BOUNDARY_PARAMS:
            for predictive, alpha in ((True, drawn.alpha), (False, float(n * k))):
                params = drawn.replace(epsilon=eps, lam=lam, p=p, alpha=alpha)
                state = FiniteState.from_matrices(Z, Y, params, predictive=predictive)
                ref = FiniteState.from_matrices(Z, Y, params, predictive=predictive)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for i in range(n):
                    thetas = [_theta_bar(ref, i, c) for c in range(k)]
                    assert predictive or thetas == [1.0] * k
                    prior = _log_odds(np.array(thetas, dtype=np.float64))
                    if _row_matches_reference(state, ref, i, X, prior, rjmcmc.finite_conditional_z,
                                              thetas, rng, ref_rng):
                        break

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @given(case=matrices(min_k=1, shared=True), seed=st.integers(0, 2**32 - 1))
    def test_sweeps_match_reference_passes(self, sweep, case, seed):
        """Whole sweeps hand each row its columns, prior, layout and index,
        and reach an entry function only to flip or raise: the same flips
        in the same order as sweeps whose rows draw entry by entry, the
        same state and the same stream position.  Column 0 links two rows,
        so every sweep draws entries."""
        Z, Y, X, params = case
        cls, run = SWEEPS[sweep]
        state = cls.from_matrices(Z, Y, params)
        ref = cls.from_matrices(Z, Y, params)
        entries, flips, ref_entries = [], [], []
        got = _run(run, state, X, seed, _checked_passes(X, entries, flips))
        want = _run(run, ref, X, seed, _reference_passes(X, ref_entries))
        assert (got is None) == (want is None)
        assert ref_entries or want is None  # only a raise at the first entry leaves none
        # a row that raises records no entries; the reference's stop at the raise
        assert entries == ref_entries[:len(entries)]
        assert flips == _flips(ref_entries)
        if got is not None:
            assert entries == ref_entries
            assert got == want
            _assert_same_state(state, ref)
            check_consistency(state)
            # every row of a finite state draws each of its K >= 1 entries
            assert sweep == "gibbs" or len(ref_entries) >= state.n_rows

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_stream_after_sweeps_matches_reference(self, sweep):
        """On 12 x 200 data, five sweeps leave the generator where five
        sweeps of per-entry rows leave it, with the same flips and state:
        a row's block of uniforms is the stream of one per entry."""
        rng = np.random.default_rng(31)
        Z = (rng.random((12, 6)) < 0.3).astype(np.int8)
        Z[:2] = 1
        Y = (rng.random((6, 200)) < 0.2).astype(np.int8)
        X = (rng.random((12, 200)) < 0.3).astype(np.int8)
        params = ModelParams(epsilon=0.02, lam=0.8, p=0.2, alpha=2.0)
        cls, run = SWEEPS[sweep]
        state = cls.from_matrices(Z, Y, params)
        ref = cls.from_matrices(Z, Y, params)
        entries, flips, ref_entries = [], [], []
        got = _run(run, state, X, 4, _checked_passes(X, entries, flips), sweeps=5)
        want = _run(run, ref, X, 4, _reference_passes(X, ref_entries), sweeps=5)
        assert got is not None and got == want
        assert entries == ref_entries
        assert flips and flips == _flips(ref_entries)
        assert len(ref_entries) > len(flips)
        _assert_same_state(state, ref)

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
            entries, flips, ref_entries = [], [], []
            got = _run(run, state, X, seed, _checked_passes(X, entries, flips))
            want = _run(run, ref, X, seed, _reference_passes(X, ref_entries))
            assert got is not None and got == want
            assert entries == ref_entries
            assert flips == _flips(ref_entries)
            assert ref_entries[:3] == [(0, 0, 0, 1), (0, 1, 0, 0), (0, 2, 0, 0)]
            _assert_same_state(state, ref)

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_nan_before_a_flip_raises(self, sweep):
        """Row 0's cause 0 meets x = 1 and x = 0 at count 0 with no leak
        and lam = 1, so its log-odds is +inf - inf: both states at zero
        mass, while z[0, 0] = 0 equals any comparison with the NaN.  Cause
        1 would flip z[0, 1] (x = 1 at count 0).  The sweep raises at entry
        0 and leaves z[0, 1] as it was."""
        Z = np.array([[0, 0], [1, 1]], dtype=np.int8)
        Y = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int8)
        X = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.int8)
        params = ModelParams(epsilon=0.0, lam=1.0, p=0.3, alpha=1.5)
        cls, run = SWEEPS[sweep]
        for seed in range(5):
            state = cls.from_matrices(Z, Y, params)
            entries, flips = [], []
            assert _run(run, state, X, seed, _checked_passes(X, entries, flips)) is None
            assert entries == flips == []
            np.testing.assert_array_equal(state.Z[:, :2], Z)

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_raise_mid_sweep_writes_counts_back(self, sweep):
        """Row 0's z[0, 0] must flip (x = 1 with no cause and no leak), which
        moves the sweep index.  Cause 0 then links row 1, which meets x = 1
        and x = 0 at count 0 on its trials with lam = 1: both states at zero
        mass.  Row 1's z draw raises, or first, in rjmcmc, the Y pass after
        row 0 does (a prior on K = 1 alone refuses every birth).  The
        counts the sweep leaves equal Z @ Y, flip included."""
        Z = np.array([[0], [1]], dtype=np.int8)
        Y = np.array([[1, 1]], dtype=np.int8)
        X = np.array([[1, 1], [1, 0]], dtype=np.int8)
        params = ModelParams(epsilon=0.0, lam=1.0, p=0.3, alpha=1.5)
        cls, run = SWEEPS[sweep]
        fields = {"k_prior": UniformK(1)} if cls is FiniteState else {}
        for seed in range(5):
            state = cls.from_matrices(Z, Y, params, **fields)
            before = state.counts.copy()
            with pytest.raises(DegenerateModelError):
                run(state, X, np.random.default_rng(seed))
            assert state.Z[0, 0] == 1
            assert not np.array_equal(state.counts, before)
            check_consistency(state)

    @pytest.mark.parametrize("sweep", ["gibbs", "rjmcmc"])
    def test_sweep_past_int8_columns_matches_reference(self, sweep):
        """At K = 130 an int8 X times K + 1 no longer fits in int8, so the
        index, each rebase and the write-back, which a gibbs sweep makes
        before it compacts, must go through intp: one sweep still matches
        the reference passes, flip for flip, with the same state and
        stream position."""
        rng = np.random.default_rng(130)
        Z = (rng.random((6, 130)) < 0.3).astype(np.int8)
        Z[:2] = 1  # every column shared, so each row draws them all
        Y = (rng.random((130, 20)) < 0.05).astype(np.int8)
        X = (rng.random((6, 20)) < 0.6).astype(np.int8)
        params = ModelParams(epsilon=0.05, lam=0.3, p=0.05, alpha=2.0)
        cls, run = SWEEPS[sweep]
        state = cls.from_matrices(Z, Y, params)
        ref = cls.from_matrices(Z, Y, params)
        entries, flips, ref_entries = [], [], []
        got = _run(run, state, X, 5, _checked_passes(X, entries, flips))
        want = _run(run, ref, X, 5, _reference_passes(X, ref_entries))
        assert got is not None and got == want
        assert entries == ref_entries
        assert flips and flips == _flips(ref_entries)
        _assert_same_state(state, ref)
        check_consistency(state)


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
                        _summed_log_odds(state, k, X, rows)
                else:
                    np.testing.assert_array_equal(
                        _summed_log_odds(state, k, X, rows), log_odds)
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
                fresh = log_pmf_table(lam, eps, k, xlogy(ks, 1.0 - lam * p)[:, None, None])
                table = log_pmf_table(lam, eps, k)
                log_odds = np.zeros_like(table)
                with np.errstate(divide="ignore", invalid="ignore"):
                    for x in (0, 1):
                        for c in range(k):
                            log_odds[x, c] = table[x, c + 1] - table[x, c]
                    prior_log_odds = np.log(p) - np.log1p(-p)
                for got, want in ((tables.log_odds, log_odds.ravel()),
                                  (tables.fresh, fresh.reshape(MAX_NEW_CAUSES + 1, -1)),
                                  (np.array(tables.prior_log_odds), prior_log_odds)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                assert tables.on_prob.shape == (2 * k + 2, 2 * k + 2)
                assert tables.degenerate is bool(np.isnan(tables.on_prob).any())
                for table in (tables.log_odds, tables.on_prob, tables.fresh):
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
                got = gibbs._fresh_cause_log_weights(state, zy_index(state, X)[i])
                per_trial = log_pmf_noisy_or(
                    X[i][:, None], state.counts[i][:, None], lam, eps, extra
                )
                zero_mass = np.isneginf(per_trial.sum(axis=0))
                assert not np.isnan(got).any()
                np.testing.assert_array_equal(np.isneginf(got), zero_mass)
                with sweep_index(state, X) as index:
                    if zero_mass.all():
                        with pytest.raises(DegenerateModelError):
                            sample_new_causes(state, i, X, index, np.random.default_rng(0))
                    else:
                        sample_new_causes(state, i, X, index, np.random.default_rng(0))
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


def _summed_y_row(state, k, rows, index, u, tables):
    """A Y-row update that draws u < expit of the summed log-odds."""
    idx = index[rows] - state.Y[k]
    new = u < expit(gibbs._y_conditional_log_odds(tables, idx))
    index[rows] = idx + new
    state.Y[k] = new


class TestLongRows:
    def test_y_pass_matches_per_row_loop(self):
        state, X = _long_state()
        ref, _ = _long_state()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        with sweep_index(state, X) as index:
            resample_all_y(state, index, rng)
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
            with sweep_index(state, X) as index:
                added += sample_new_causes(state, i, X, index, rng)
            with mock.patch.object(gibbs, "resample_y_row", _summed_y_row), \
                    sweep_index(ref, X) as ref_index:
                sample_new_causes(ref, i, X, ref_index, ref_rng)
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
