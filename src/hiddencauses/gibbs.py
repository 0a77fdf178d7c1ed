"""Collapsed Gibbs sampler over (Z, Y) with an unbounded number of causes.

One sweep visits rows of Z in ascending order.  For row i, every column
still linked to another row gets a two-point draw on z[i, k]; columns
whose only edge is at row i are zeroed and replaced by a Poisson-weighted
draw of fresh singleton columns whose activations have been summed out of
the likelihood.  A full pass over Y and a compaction of empty columns
finish the sweep.

Y changes only in that end-of-sweep pass and in the fresh rows a
``sample_new_causes`` draw appends, so a sweep builds the active layout
of Y at its start and again after each addition.

A sweep builds one flat table index of every entry of X,
``flat_index(X, counts, K)`` (``sweep_index``), and until it ends that
index is the only record of counts = Z @ Y.  Row i's z draws read and
move the view ``index[i]``; the fresh-cause weights read it through its
histogram: 2(K+1) bins, one product with the fresh-cause table.  A change
of K moves every entry by x times the change (``rebase``), and each
activation row gathers its causes' rows of the index and scatters them
back.  When the sweep ends, by return or by raise, it writes counts back
from the index once.

A row's (x, count) pairs move only during its own visit: earlier rows
change other rows of Z, or append columns whose entry at this row is 0,
and a rebase moves flat indices, not pairs.  So right after the index
is built, a gibbs sweep scores every row at once against the k0 columns
it starts with: the z log-odds (``z_log_odds_rows``) and the fresh-cause
cdfs (``fresh_cause_cdfs``), each bit for bit what the per-row call
would give at the row's turn.  Row i's first z scan reads its scores and
adds those of the columns appended since (k >= k0) from the layout
suffix; a flip rescans the columns after it per row, as before.  Row i's
fresh-cause draw reads its cdf, unless a flip or a singleton removal of
its own moved its pairs: then the same scorer runs on that row alone.
rjmcmc's Y changes after every row, so its rows are scored per row.

Every conditional draw is two-point: it adds the prior's log-odds to the
entries of ``model.draw_tables(...).log_odds`` at the flat indices it
touches, and a NaN sum, both states at zero mass, raises
``DegenerateModelError``.  A row draws its z entries at once
(``draw_z_row``): one block of uniforms, one scan of the layout and one
comparison.  About 1% of entries flip on wide data; Python work is left
to the first that flips or meets a NaN, and the columns after it are
scanned again.

An activation row whose cause links one or two rows (every fresh cause,
and most causes on long data) gathers its on-probabilities from the
bundle's ``on_prob``, which adds in the summed path's order, so the
draws are those of the summed path, which causes with three or more rows
keep.  The fresh-cause draw reads the bundle's ``fresh`` rows.
"""

import math
from bisect import bisect_right
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.special import expit, gammaln, xlogy

from .model import (FRESH_COUNTS, MAX_NEW_CAUSES, TABLE_CACHE_SIZE, DegenerateModelError,
                    DrawTables, SamplerState, check_binary, draw_tables, flat_index)


# log k! for k = 0..MAX_NEW_CAUSES fresh causes, their Poisson prior's term free of alpha and N
_FRESH_LOG_FACTORIALS = gammaln(FRESH_COUNTS + 1.0)


def rebase(index: np.ndarray, X, dk: int) -> None:
    """Move a flat index from K to K + dk columns in place: each entry
    x (K + 1) + c becomes x (K + dk + 1) + c."""
    index += np.multiply(X, dk, dtype=np.intp)  # an int8 X times dk could wrap


@contextmanager
def sweep_index(state: SamplerState, X):
    """Yield ``flat_index(X, state.counts, state.k)``, which the sweep
    keeps current through every change of Z, Y and K in place of counts;
    on exit, by return or by raise, write counts = index - X (K + 1).
    X entries outside {0, 1} raise ValueError before the state changes."""
    check_binary(X)
    index = flat_index(X, state.counts, state.k)
    try:
        yield index
    finally:
        rebase(index, X, -(state.k + 1))
        state.counts[...] = index


def _set_z(state: SamplerState, i: int, k: int, new: int, row_idx: np.ndarray,
           active: np.ndarray) -> None:
    """Set z[i, k] to new and move column_sums[k] and row i's flat index
    on cause k's active trials with it."""
    diff = new - int(state.Z[i, k])
    state.Z[i, k] = new
    state.column_sums[k] += diff
    row_idx[active] += diff


def active_layout(Y: np.ndarray) -> tuple:
    """(seg, cat, starts): the cause and trial of every active entry of Y in
    cause order, then trial order; cat[starts[k]:starts[k + 1]] are cause k's."""
    seg, cat = np.divmod((Y != 0).ravel().nonzero()[0], Y.shape[1])
    return seg, cat, seg.searchsorted(np.arange(Y.shape[0] + 1)).tolist()


def z_log_odds(state: SamplerState, i: int, row_idx: np.ndarray, seg: np.ndarray,
               cat: np.ndarray) -> np.ndarray:
    """[k]: the log-likelihood ratio of z[i, k] = 1 against z[i, k] = 0,
    from the (cause, trial) pairs (seg, cat), a suffix of ``active_layout``.

    row_idx is row i of the sweep index; it drops
    z[i, k] on cause k's pairs, D is read there, and ``np.bincount`` sums
    each cause's terms in trial order, one after another.  A cause with no
    pair gets 0.  NaN marks both states at zero mass."""
    params = state.params
    log_odds = draw_tables(params.lam, params.epsilon, params.p, state.k).log_odds
    idx = row_idx.take(cat)
    idx -= state.Z[i].take(seg)
    return np.bincount(seg, weights=log_odds.take(idx), minlength=state.k)


def z_log_odds_rows(state: SamplerState, index: np.ndarray, seg: np.ndarray,
                    cat: np.ndarray) -> np.ndarray:
    """[i, k]: ``z_log_odds`` of every row i of the sweep index at once, on
    the layout (seg, cat) of all K causes.  Row i's terms come in its own
    block, in the per-row order, and one ``np.bincount`` over bins
    i K + k sums each block's causes as the per-row call does."""
    n, k = index.shape[0], state.k
    params = state.params
    log_odds = draw_tables(params.lam, params.epsilon, params.p, k).log_odds
    idx = index.take(cat, axis=1)
    idx -= state.Z.take(seg, axis=1)
    weights = log_odds.take(idx)
    np.add(seg, np.arange(n)[:, None] * k, out=idx)  # idx now holds the bins
    return np.bincount(idx.ravel(), weights=weights.ravel(), minlength=n * k).reshape(n, k)


def draw_z_row(state: SamplerState, i: int, cols: np.ndarray, prior: np.ndarray,
               row_idx: np.ndarray, layout: tuple, rng: np.random.Generator, entry,
               log_odds: np.ndarray | None = None) -> bool:
    """Draw z[i, k] for each k in cols in order from ``rng.random(len(cols))``,
    the stream of one ``rng.random()`` per entry.  prior[j] is the prior's
    log-odds of entry cols[j], which no draw of row i moves; layout is
    ``active_layout(state.Y)``; log_odds, when given, is
    ``z_log_odds`` of row i over all K causes, which the first scan then
    reads.  Only the first entry whose draw changes z[i, k] or whose logit
    is NaN goes through entry(state, i, k, row_idx, active, u, logit),
    which flips it or raises; the flip moves row_idx, so the columns after
    it are scanned again.  Returns whether an entry flipped."""
    seg, cat, starts = layout
    u = rng.random(len(cols))
    old = state.Z[i].take(cols)
    j = 0
    while j < len(cols):
        if log_odds is None:
            b = starts[cols[j]]
            log_odds = z_log_odds(state, i, row_idx, seg[b:], cat[b:])
        with np.errstate(invalid="ignore"):  # +inf + -inf: both states at zero mass
            logit = prior[j:] + log_odds.take(cols[j:])
        event = ((u[j:] < expit(logit)) != old[j:]) | np.isnan(logit)
        first = int(event.argmax())
        if not event[first]:
            break
        k = int(cols[j + first])
        entry(state, i, k, row_idx, cat[starts[k]:starts[k + 1]], u[j + first], logit[first])
        j += first + 1
        log_odds = None
    return j > 0


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def prior_log_odds(theta_bar, n_rows: int, *key) -> np.ndarray:
    """[m]: log theta - log(1 - theta), +-inf at theta in {0, 1}, for the prior weight
    theta = theta_bar(m, n_rows, *key) at m_minus = m; built once per key, read-only."""
    with np.errstate(divide="ignore"):
        theta = theta_bar(np.arange(n_rows + 1), n_rows, *key)
        table = np.log(theta) - np.log1p(-theta)
    table.flags.writeable = False
    return table


def draw_z_entry(state: SamplerState, i: int, k: int, row_idx: np.ndarray, active: np.ndarray,
                 u: float, logit: float) -> int:
    """Set z[i, k] to u < expit(logit); NaN marks both states at zero mass."""
    if math.isnan(logit):
        raise DegenerateModelError("both states of a binary draw have zero mass")
    new = int(u < expit(logit))
    if new != state.Z[i, k]:
        _set_z(state, i, k, new, row_idx, active)
    return new


def gibbs_sample_z_entry(state: SamplerState, i: int, k: int, row_idx: np.ndarray,
                         active: np.ndarray, u: float, logit: float) -> int:
    """Draw z[i, k] given everything else from the uniform u, for a column
    some other row still uses (m_minus > 0).  row_idx is row i's flat table
    index, active cause k's active trials and logit the prior's log-odds at
    weight m_minus / N plus the entry's log-likelihood ratio (``draw_z_row``).
    A sweep calls it only where the draw flips z[i, k] or its logit is NaN."""
    if state.column_sums[k] <= state.Z[i, k]:
        raise ValueError("column is a singleton of row i; handled by sample_new_causes")
    return draw_z_entry(state, i, k, row_idx, active, u, logit)


def marginal_on_prob(eta, k_new: int, params) -> np.ndarray:
    """P(x = 1) on a trial when k_new fresh causes, each active with
    probability p, attach to the row: 1 - (1-eps) eta (1 - lam p)^k_new.

    eta = (1-lam)^(existing active count) may be an array over trials.
    The binomial sum over the fresh activations collapses to this form.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return 1.0 - (1.0 - params.epsilon) * eta * (1.0 - params.lam * params.p) ** k_new


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _fresh_cause_log_rates(alpha: float, n: int) -> np.ndarray:
    """k log(alpha / n) for k = 0..MAX_NEW_CAUSES, built once per key, read-only."""
    rates = xlogy(FRESH_COUNTS, alpha / n)
    rates.flags.writeable = False
    return rates


def _fresh_cause_log_weights(state: SamplerState, index: np.ndarray) -> np.ndarray:
    """[r, k]: unnormalized log-probabilities of k = 0..MAX_NEW_CAUSES fresh
    causes at the row whose row of the sweep index is index[r].

    A row's likelihood depends on its trials only through the histogram of
    their (x, count) pairs, that is of its index row, so it is one product
    of that histogram with the fresh-cause table, summed bin by bin in
    ascending flat index.  An empty bin adds +0.0, not 0 * -inf = NaN, and
    no partial sum is -0.0, so each row keeps the bits of a sum over its
    occupied bins alone."""
    params = state.params
    fresh = draw_tables(params.lam, params.epsilon, params.p, state.k).fresh
    n, bins = index.shape[0], fresh.shape[1]
    hist = np.bincount((index + np.arange(n)[:, None] * bins).ravel(), minlength=n * bins)
    hist = hist.reshape(n, bins, 1)
    # bins on axis 1, not last: the sum adds them in order, not pairwise
    terms = np.zeros((n, bins, fresh.shape[0]))
    np.multiply(hist, fresh.T, out=terms, where=hist > 0)
    logw = terms.sum(axis=1)
    logw += _fresh_cause_log_rates(params.alpha, state.n_rows)
    logw -= _FRESH_LOG_FACTORIALS
    return logw


def fresh_cause_cdfs(state: SamplerState, index: np.ndarray) -> list:
    """Per row of index, the running sums of exp(w - max w) over the
    weights w of ``_fresh_cause_log_weights``, as floats; all 0.0 for a
    row whose every weight is -inf."""
    logw = _fresh_cause_log_weights(state, index)
    top = logw.max(axis=1, keepdims=True)
    top[top == -math.inf] = 0.0
    logw -= top
    return np.cumsum(np.exp(logw, out=logw), axis=1).tolist()


def sample_new_causes(
    state: SamplerState, i: int, X, index: np.ndarray, rng: np.random.Generator,
    cdf: list | None = None,
) -> int:
    """Draw how many fresh causes attach to row i and expand the state.

    Weights over k in 0..MAX_NEW_CAUSES combine a Poisson(alpha / N) prior with
    the likelihood of row i after summing out the new activations, read
    from row i of the sweep index: cdf is their ``fresh_cause_cdfs`` row,
    scored here when not given.  Each accepted cause appends a column with
    a single 1 at row i and a zero activation row that is then
    Gibbs-resampled once; the index is rebased to the new K first.
    """
    n, t = state.n_rows, state.n_trials
    if cdf is None:
        cdf = fresh_cause_cdfs(state, index[i:i + 1])[0]
    if cdf[-1] == 0.0:
        raise DegenerateModelError("no feasible number of fresh causes for this row")
    k_new = min(bisect_right(cdf, rng.random() * cdf[-1]), MAX_NEW_CAUSES)
    if k_new:
        cols = np.zeros((n, k_new), dtype=np.int8)
        cols[i] = 1
        state.Z = np.concatenate([state.Z, cols], axis=1)
        state.column_sums = np.concatenate(
            [state.column_sums, np.ones(k_new, dtype=np.int64)]
        )
        state.Y = np.concatenate([state.Y, np.zeros((k_new, t), dtype=np.int8)], axis=0)
        rebase(index, X, k_new)
        params = state.params
        tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
        rows = np.array([i])
        for j in range(state.k - k_new, state.k):
            resample_y_row(state, j, rows, index, rng.random(t), tables)
    return k_new


def _y_conditional_log_odds(tables: DrawTables, idx: np.ndarray) -> np.ndarray:
    """Log-odds of y[k, t] = 1 for all trials at once (trials are
    conditionally independent given the rest of the state); idx[r, t] is
    the flat index of linked row r on trial t without y[k, t]."""
    terms = tables.log_odds.take(idx)
    if not tables.degenerate:  # then no sum meets +inf and -inf
        return tables.prior_log_odds + terms.sum(axis=0)
    with np.errstate(invalid="ignore"):  # +inf + -inf: both states at zero mass
        log_odds = tables.prior_log_odds + terms.sum(axis=0)
    if np.isnan(log_odds).any():
        raise DegenerateModelError("both states of an activation draw have zero mass")
    return log_odds


def resample_y_row(state: SamplerState, k: int, rows: np.ndarray, index: np.ndarray,
                   u: np.ndarray, tables: DrawTables) -> None:
    """One Gibbs pass over y[k, :], vectorized across trials, from the T
    uniforms u; the per-entry update would draw the same ones in order.

    rows are the rows linked to cause k, at least one, and tables the
    state's ``draw_tables``.  The rows of the sweep index give one flat
    index per (row, trial), with y[k, t] dropped.  A cause linked to one or
    two rows gathers its on-probabilities from the ``on_prob`` entry of
    that pair, one per trial; any other sums its rows' log-odds
    (``_y_conditional_log_odds``).  The new y[k] is added back and the rows
    are scattered into the index."""
    idx = index.take(rows, axis=0)
    idx -= state.Y[k]
    if rows.size <= 2:
        # a single row pairs with index K, which holds log-odds 0
        pair = (idx[1] if rows.size == 2 else state.k) * tables.on_prob.shape[0] + idx[0]
        prob = tables.on_prob.take(pair)
        if tables.degenerate and np.isnan(prob).any():
            raise DegenerateModelError("both states of an activation draw have zero mass")
    else:
        prob = expit(_y_conditional_log_odds(tables, idx))
    new = u < prob
    idx += new
    index[rows] = idx
    state.Y[k] = new


def resample_all_y(state: SamplerState, index: np.ndarray, rng: np.random.Generator) -> None:
    """Resample every activation row from one (K, T) block of uniforms,
    row k from block row k: the stream of K calls of ``rng.random(T)``.
    Linked rows go in index order, each moving its rows of the sweep
    index; an unlinked row draws from its prior alone and moves no count,
    so all of them take one comparison."""
    u = rng.random((state.k, state.n_trials))
    params = state.params
    tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
    linked = state.column_sums > 0
    for k in linked.nonzero()[0].tolist():
        resample_y_row(state, k, state.Z[:, k].nonzero()[0], index, u[k], tables)
    if not linked.all():
        unlinked = ~linked
        state.Y[unlinked] = u[unlinked] < expit(tables.prior_log_odds)


def compact_state(state: SamplerState) -> SamplerState:
    """Drop all-zero columns of Z and their activation rows.  The counts
    cache is untouched: an unlinked cause contributes nothing to Z @ Y."""
    keep = state.column_sums > 0
    if not keep.all():
        state.Z = np.ascontiguousarray(state.Z[:, keep])
        state.Y = np.ascontiguousarray(state.Y[keep])
        state.column_sums = state.column_sums[keep]
    return state


def gibbs_sweep(state: SamplerState, X, rng: np.random.Generator) -> SamplerState:
    """One full sweep: per row, resample shared columns, zero singletons,
    draw fresh causes; then resample all of Y and compact.

    Columns appended while processing earlier rows are visited by later
    rows; compaction happens only at the end of the sweep.  Every row is
    scored once against the k0 columns the sweep starts with; see the
    module docstring for when a row is scored again.
    """
    layout = active_layout(state.Y)
    with sweep_index(state, X) as index:
        k0 = state.k
        scores = z_log_odds_rows(state, index, *layout[:2])
        cdfs = fresh_cause_cdfs(state, index)
        for i in range(state.n_rows):
            row_idx = index[i]
            seg, cat, starts = layout
            log_odds = scores[i]
            if state.k > k0:  # columns appended by earlier rows
                b = starts[k0]
                appended = z_log_odds(state, i, row_idx, seg[b:], cat[b:])[k0:]
                log_odds = np.concatenate((log_odds, appended))
            # no entry of row i moves m_minus: a flip moves z[i, k] and column_sums[k] together
            m_minus = state.column_sums - state.Z[i]
            shared = m_minus.nonzero()[0]
            prior = prior_log_odds(np.true_divide, state.n_rows).take(m_minus.take(shared))
            moved = draw_z_row(state, i, shared, prior, row_idx, layout, rng,
                               gibbs_sample_z_entry, log_odds)
            singletons = (state.Z[i] > m_minus).nonzero()[0].tolist()  # m_minus = 0
            for k in singletons:
                _set_z(state, i, k, 0, row_idx, cat[starts[k]:starts[k + 1]])
            cdf = None if moved or singletons else cdfs[i]
            if sample_new_causes(state, i, X, index, rng, cdf):
                layout = active_layout(state.Y)
        resample_all_y(state, index, rng)
    return compact_state(state)
