"""Collapsed Gibbs sampler over (Z, Y) with an unbounded number of causes.

One sweep visits rows of Z in ascending order.  For row i, every column
still linked to another row gets a two-point draw on z[i, k]; columns
whose only edge is at row i are zeroed and replaced by a Poisson-weighted
draw of fresh singleton columns whose activations have been summed out of
the likelihood.  A full pass over Y and a compaction of empty columns
finish the sweep.

Y changes only in that end-of-sweep pass and in the fresh rows a
``sample_new_causes`` draw appends, so a sweep scans each activation row
for its active trials once, appends the fresh causes' lists, and hands
cause k's list to every z entry on k and to row i's singleton removal.
Row i's flat table index is built once per row; the z flips and the
singleton removal keep it current, and the fresh-cause weights read it
through its histogram: 2(K+1) bins, one product with the fresh-cause
table, where T runs to thousands of trials.

A row's z entries take their two log-likelihoods from one kernel,
``z_log_likelihoods``: one gather of the row's index on the joined
active-trial lists and one take of both states' terms, where gathering
each entry's few dozen trials apart costs more in numpy calls than in
arithmetic.  ``z_row`` hands the pairs out in column order and, after a
flip has moved the index, computes the remaining columns' pairs again.
The entries still draw one by one, one uniform each, in order: each
entry's prior weight and every later pair depend on the draws before it.

Every draw reads its lookups from ``model.draw_tables``, built once per
(lam, epsilon, p, K), and the fresh-cause draw from
``model.fresh_cause_table``.  An activation row whose cause links one or two
rows (every fresh cause, and most causes on long data) gathers its
on-probabilities from the bundle's ``on_prob``: the table applies the
summed log-odds' floating-point operations in their order, so the draws
are those of the summed path, which causes with three or more rows keep.
"""

import math
from itertools import accumulate

import numpy as np
from scipy.special import expit, gammaln, xlogy

from .model import (MAX_NEW_CAUSES, DegenerateModelError, SamplerState, draw_tables, flat_index,
                    fresh_cause_table)


_BOTH_STATES = np.array([[0], [1]])  # z = 0 and z = 1 from an index that leaves cause k out


def _two_point_draw(logw1: float, logw0: float, rng: np.random.Generator) -> int:
    """Draw from {0, 1} with P(1) proportional to exp(logw1)."""
    if logw1 == -math.inf and logw0 == -math.inf:
        raise DegenerateModelError("both states of a binary draw have zero mass")
    return 1 if rng.random() < expit(logw1 - logw0) else 0


def _set_z(state: SamplerState, i: int, k: int, new: int, row_idx: np.ndarray,
           active: np.ndarray) -> None:
    """Set z[i, k] to new and move the caches with it: column_sums[k], and
    counts[i] and row i's flat index on cause k's active trials."""
    diff = new - int(state.Z[i, k])
    state.Z[i, k] = new
    state.column_sums[k] += diff
    state.counts[i, active] += diff
    row_idx[active] += diff


def z_log_likelihoods(
    state: SamplerState, i: int, cols: list[int], row_idx: np.ndarray, actives: list,
) -> list[list[float]]:
    """[ll0, ll1], the log-likelihoods of z[i, k] = 0 and 1, for each k in
    cols, actives[j] holding the active trials of cause cols[j].

    row_idx is ``flat_index(X[i], state.counts[i], state.k)``.  The row's
    index is gathered once on the joined lists, the segments of causes
    with z[i, k] = 1 drop that cause's count, and one take reads both
    states' terms.  Each column sums its own segment, which adds in the
    order of a per-entry ``take(idx).sum()`` (``np.add.reduceat`` does
    not), so the pairs equal the per-entry gathers bit for bit.  A cause
    with no active trials gets [0.0, 0.0]: it leaves the likelihood
    untouched."""
    params = state.params
    table = draw_tables(params.lam, params.epsilon, params.p, state.k).log_pmf
    idx = row_idx.take(np.concatenate(actives))
    ends = list(accumulate(map(len, actives)))
    starts = [0, *ends[:-1]]
    z = state.Z[i].tolist()
    for k, s, e in zip(cols, starts, ends):
        if z[k]:
            idx[s:e] -= 1
    both = table.take(idx + _BOTH_STATES)
    return [np.add.reduce(both[:, s:e], 1).tolist() for s, e in zip(starts, ends)]


def z_row(state: SamplerState, i: int, cols: list[int], row_idx: np.ndarray, active: list):
    """Yield (k, [ll0, ll1]) for each k in cols in order, active[k] being
    cause k's active trials, for the caller to draw z[i, k] from.

    The row's pairs come from one ``z_log_likelihoods`` call.  Once a
    draw flips z[i, k], row_idx has moved on cause k's trials, so the
    pairs of the columns still to come are computed again."""
    while cols:
        pairs = z_log_likelihoods(state, i, cols, row_idx, [active[k] for k in cols])
        z = state.Z[i].tolist()
        for j, (k, ll) in enumerate(zip(cols, pairs), 1):
            yield k, ll
            if state.Z[i, k] != z[k]:
                cols = cols[j:]
                break
        else:
            return


def _sample_z_given_theta(
    state: SamplerState, i: int, k: int, row_idx: np.ndarray, active: np.ndarray,
    rng: np.random.Generator, theta_bar: float, ll: list[float] | None = None,
) -> int:
    """Two-point draw of z[i, k] with prior weight theta_bar on 1.

    row_idx is ``flat_index(X[i], state.counts[i], state.k)``; a flip
    updates it along with the counts.  active is ``state.Y[k].nonzero()[0]``,
    the trials on which cause k is active.  ll is the entry's [ll0, ll1]
    from ``z_log_likelihoods``, computed here when not given."""
    if ll is None:
        (ll,) = z_log_likelihoods(state, i, [k], row_idx, [active])
    ll0, ll1 = ll
    logw1 = (math.log(theta_bar) if theta_bar > 0 else -math.inf) + ll1
    logw0 = (math.log1p(-theta_bar) if theta_bar < 1 else -math.inf) + ll0
    new = _two_point_draw(logw1, logw0, rng)
    if new != state.Z[i, k]:
        _set_z(state, i, k, new, row_idx, active)
    return new


def gibbs_sample_z_entry(
    state: SamplerState, i: int, k: int, row_idx: np.ndarray, active: np.ndarray,
    rng: np.random.Generator, ll: list[float] | None = None,
) -> int:
    """Resample z[i, k] given everything else, for a column some other row
    still uses (m_minus > 0).  The prior weight on z = 1 is m_minus / N.
    row_idx is row i's flat table index, active cause k's active trials
    and ll the entry's log-likelihood pair (see ``_sample_z_given_theta``).
    """
    m_minus = int(state.column_sums[k]) - int(state.Z[i, k])
    if m_minus <= 0:
        raise ValueError("column is a singleton of row i; handled by sample_new_causes")
    theta_bar = m_minus / state.n_rows
    return _sample_z_given_theta(state, i, k, row_idx, active, rng, theta_bar, ll)


def marginal_on_prob(eta, k_new: int, params) -> np.ndarray:
    """P(x = 1) on a trial when k_new fresh causes, each active with
    probability p, attach to the row: 1 - (1-eps) eta (1 - lam p)^k_new.

    eta = (1-lam)^(existing active count) may be an array over trials.
    The binomial sum over the fresh activations collapses to this form.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return 1.0 - (1.0 - params.epsilon) * eta * (1.0 - params.lam * params.p) ** k_new


def _fresh_cause_log_weights(state: SamplerState, row_idx: np.ndarray) -> np.ndarray:
    """Unnormalized log-probabilities of k = 0..MAX_NEW_CAUSES fresh causes
    at row i, whose flat table index ``flat_index(X[i], state.counts[i], state.k)``
    is row_idx.

    The row's likelihood depends on its trials only through the histogram
    of their (x, count) pairs, that is of row_idx, so it is one product of
    that histogram with the fresh-cause table, summed bin by bin in
    ascending flat index.  Only occupied bins enter the product: an empty
    bin at a -inf entry would add 0 * -inf = NaN."""
    params = state.params
    fresh = fresh_cause_table(params.lam, params.epsilon, params.p, state.k)
    hist = np.bincount(row_idx, minlength=fresh.shape[1])
    seen = hist.nonzero()[0]
    # one row per occupied bin: a sum over axis 0 adds the rows in order
    loglik = (fresh.T[seen] * hist[seen, None]).sum(axis=0)
    ks = np.arange(MAX_NEW_CAUSES + 1, dtype=np.float64)
    return loglik + xlogy(ks, params.alpha / state.n_rows) - gammaln(ks + 1.0)


def sample_new_causes(
    state: SamplerState, i: int, X, row_idx: np.ndarray, rng: np.random.Generator,
) -> int:
    """Draw how many fresh causes attach to row i and expand the state.

    Weights over k in 0..MAX_NEW_CAUSES combine a Poisson(alpha / N) prior with
    the likelihood of row i after summing out the new activations; row_idx
    is row i's flat table index (see ``_fresh_cause_log_weights``), stale
    once a cause is added.  Each accepted cause appends a column with a
    single 1 at row i and a zero activation row that is then
    Gibbs-resampled once.
    """
    n, t = state.n_rows, state.n_trials
    logw = _fresh_cause_log_weights(state, row_idx)
    top = logw.max()
    if top == -math.inf:
        raise DegenerateModelError("no feasible number of fresh causes for this row")
    w = np.exp(logw - top)
    cdf = np.cumsum(w)
    k_new = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    k_new = min(k_new, MAX_NEW_CAUSES)
    if k_new:
        cols = np.zeros((n, k_new), dtype=np.int8)
        cols[i] = 1
        state.Z = np.concatenate([state.Z, cols], axis=1)
        state.column_sums = np.concatenate(
            [state.column_sums, np.ones(k_new, dtype=np.int64)]
        )
        state.Y = np.concatenate([state.Y, np.zeros((k_new, t), dtype=np.int8)], axis=0)
        for j in range(state.Y.shape[0] - k_new, state.Y.shape[0]):
            resample_y_row(state, j, X, rng.random(t))
    return k_new


def _y_conditional_log_odds(state: SamplerState, k: int, X, rows: np.ndarray) -> np.ndarray:
    """Log-odds of y[k, t] = 1 for all trials at once (trials are
    conditionally independent given the rest of the state); rows are the
    rows of Z linked to cause k."""
    params = state.params
    tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
    idx = flat_index(X[rows], state.counts[rows], state.k)
    idx -= state.Y[k]
    ll0 = tables.log_pmf.take(idx).sum(axis=0)
    idx += 1
    ll1 = tables.log_pmf.take(idx).sum(axis=0)
    logw1 = tables.log_p1 + ll1
    logw0 = tables.log_p0 + ll0
    if tables.degenerate and (np.isneginf(logw1) & np.isneginf(logw0)).any():
        raise DegenerateModelError("both states of an activation draw have zero mass")
    return logw1 - logw0


def resample_y_row(state: SamplerState, k: int, X, u: np.ndarray) -> None:
    """One Gibbs pass over y[k, :], vectorized across trials, from the T
    uniforms u; the per-entry update would draw the same ones in order.

    A cause linked to one or two rows gathers its on-probabilities from
    the ``draw_tables`` entry of its rows' flat indices, one per trial;
    any other sums its rows' log-likelihoods."""
    rows = state.Z[:, k].nonzero()[0]
    if 0 < rows.size <= 2:
        params = state.params
        tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
        idx = flat_index(X[rows], state.counts[rows], state.k)
        idx -= state.Y[k]
        # a single row pairs with index K, which holds log-likelihood 0
        pair = (idx[1] if rows.size == 2 else state.k) * tables.on_prob.shape[0] + idx[0]
        prob = tables.on_prob.take(pair)
        if tables.degenerate and np.isnan(prob).any():
            raise DegenerateModelError("both states of an activation draw have zero mass")
    else:
        prob = expit(_y_conditional_log_odds(state, k, X, rows))
    new = u < prob
    diff = new - state.Y[k]
    if rows.size and diff.any():
        state.counts[rows] += diff
    state.Y[k] = new


def resample_all_y(state: SamplerState, X, rng: np.random.Generator) -> None:
    """Resample every activation row from one (K, T) block of uniforms,
    row k from block row k: the stream of K calls of ``rng.random(T)``.
    Linked rows go in index order; an unlinked row draws from its prior
    alone and moves no count, so all of them take one comparison."""
    u = rng.random((state.k, state.n_trials))
    linked = state.column_sums > 0
    for k in linked.nonzero()[0]:
        resample_y_row(state, k, X, u[k])
    if not linked.all():
        params = state.params
        tables = draw_tables(params.lam, params.epsilon, params.p, state.k)
        unlinked = ~linked
        state.Y[unlinked] = u[unlinked] < expit(tables.log_p1 - tables.log_p0)


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
    rows; compaction happens only at the end of the sweep.  active[k]
    holds cause k's active trials for the whole sweep.
    """
    active = [y.nonzero()[0] for y in state.Y]
    for i in range(state.n_rows):
        row_idx = flat_index(X[i], state.counts[i], state.k)
        # no entry of row i moves m_minus: a flip moves z[i, k] and column_sums[k] together
        m_minus = (state.column_sums - state.Z[i]).tolist()
        shared = [k for k, m in enumerate(m_minus) if m > 0]
        for k, ll in z_row(state, i, shared, row_idx, active):
            gibbs_sample_z_entry(state, i, k, row_idx, active[k], rng, ll)
        for k, m in enumerate(m_minus):
            if m == 0 and state.Z[i, k]:
                _set_z(state, i, k, 0, row_idx, active[k])
        k_new = sample_new_causes(state, i, X, row_idx, rng)
        active.extend(y.nonzero()[0] for y in state.Y[state.k - k_new:])
    resample_all_y(state, X, rng)
    return compact_state(state)
