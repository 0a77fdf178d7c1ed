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

An activation row whose cause links one or two rows (every fresh cause,
and most causes on long data) gathers its on-probabilities from
``shared_y_on_prob_table``, keyed on (lam, epsilon, p, K): the table
applies the summed log-odds' floating-point operations in their order,
so the draws are those of the summed path, which causes with three or
more rows keep.  Each Y pass looks its tables and log p up once.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import expit, gammaln, xlogy

from .model import (DegenerateModelError, SamplerState, flat_index, log_p_pair,
                    shared_log_pmf_table, shared_y_on_prob_table)

MAX_NEW_CAUSES = 10  # truncation of the per-row Poisson draw of fresh columns


def _two_point_draw(logw1: float, logw0: float, rng: np.random.Generator) -> int:
    """Draw from {0, 1} with P(1) proportional to exp(logw1)."""
    if logw1 == -math.inf and logw0 == -math.inf:
        raise DegenerateModelError("both states of a binary draw have zero mass")
    return 1 if rng.random() < expit(logw1 - logw0) else 0


def _sample_z_given_theta(
    state: SamplerState, i: int, k: int, row_idx: np.ndarray, active: np.ndarray,
    rng: np.random.Generator, theta_bar: float,
) -> int:
    """Two-point draw of z[i, k] with prior weight theta_bar on 1.

    row_idx is ``flat_index(X[i], state.counts[i], state.k)``; a flip
    updates it along with the counts.  active is ``state.Y[k].nonzero()[0]``,
    the trials on which cause k is active."""
    params = state.params
    old = int(state.Z[i, k])
    if active.size:
        # Z Y <= K, so a table up to K covers every count
        table = shared_log_pmf_table(params.lam, params.epsilon, state.k).ravel()
        idx = row_idx[active]
        idx -= old
        ll0 = float(table.take(idx).sum())
        idx += 1
        ll1 = float(table.take(idx).sum())
    else:
        ll0 = ll1 = 0.0  # an inactive cause leaves the likelihood untouched
    logw1 = (math.log(theta_bar) if theta_bar > 0 else -math.inf) + ll1
    logw0 = (math.log1p(-theta_bar) if theta_bar < 1 else -math.inf) + ll0
    new = _two_point_draw(logw1, logw0, rng)
    if new != old:
        state.Z[i, k] = new
        state.column_sums[k] += new - old
        if active.size:
            state.counts[i, active] += new - old
            row_idx[active] += new - old
    return new


def gibbs_sample_z_entry(
    state: SamplerState, i: int, k: int, row_idx: np.ndarray, active: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Resample z[i, k] given everything else, for a column some other row
    still uses (m_minus > 0).  The prior weight on z = 1 is m_minus / N.
    row_idx is row i's flat table index and active cause k's active
    trials (see ``_sample_z_given_theta``).
    """
    m_minus = int(state.column_sums[k]) - int(state.Z[i, k])
    if m_minus <= 0:
        raise ValueError("column is a singleton of row i; handled by sample_new_causes")
    theta_bar = m_minus / state.n_rows
    return _sample_z_given_theta(state, i, k, row_idx, active, rng, theta_bar)


def marginal_on_prob(eta, k_new: int, params) -> np.ndarray:
    """P(x = 1) on a trial when k_new fresh causes, each active with
    probability p, attach to the row: 1 - (1-eps) eta (1 - lam p)^k_new.

    eta = (1-lam)^(existing active count) may be an array over trials.
    The binomial sum over the fresh activations collapses to this form.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return 1.0 - (1.0 - params.epsilon) * eta * (1.0 - params.lam * params.p) ** k_new


def _fresh_cause_log_weights(state: SamplerState, row_idx: np.ndarray, max_new: int) -> np.ndarray:
    """Unnormalized log-probabilities of k = 0..max_new fresh causes at row
    i, whose flat table index ``flat_index(X[i], state.counts[i], state.k)``
    is row_idx.

    The row's likelihood depends on its trials only through the histogram
    of their (x, count) pairs, that is of row_idx, so it is one product of
    that histogram with the fresh-cause table, summed bin by bin in
    ascending flat index.  Only occupied bins enter the product: an empty
    bin at a -inf entry would add 0 * -inf = NaN."""
    params = state.params
    ks = np.arange(max_new + 1, dtype=np.float64)
    # table[k, x, c]: k fresh causes, their activations summed out
    table = shared_log_pmf_table(params.lam, params.epsilon, state.k, params.p, max_new)
    hist = np.bincount(row_idx, minlength=2 * (state.k + 1))
    seen = hist.nonzero()[0]
    # one row per occupied bin: a sum over axis 0 adds the rows in order
    loglik = (table.reshape(max_new + 1, -1).T[seen] * hist[seen, None]).sum(axis=0)
    return loglik + xlogy(ks, params.alpha / state.n_rows) - gammaln(ks + 1.0)


def sample_new_causes(
    state: SamplerState, i: int, X, row_idx: np.ndarray, rng: np.random.Generator,
    max_new: int = MAX_NEW_CAUSES,
) -> int:
    """Draw how many fresh causes attach to row i and expand the state.

    Weights over k in 0..max_new combine a Poisson(alpha / N) prior with
    the likelihood of row i after summing out the new activations; row_idx
    is row i's flat table index (see ``_fresh_cause_log_weights``), stale
    once a cause is added.  Each accepted cause appends a column with a
    single 1 at row i and a zero activation row that is then
    Gibbs-resampled once.
    """
    n, t = state.n_rows, state.n_trials
    logw = _fresh_cause_log_weights(state, row_idx, max_new)
    top = logw.max()
    if top == -math.inf:
        raise DegenerateModelError("no feasible number of fresh causes for this row")
    w = np.exp(logw - top)
    cdf = np.cumsum(w)
    k_new = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    k_new = min(k_new, max_new)
    if k_new:
        cols = np.zeros((n, k_new), dtype=np.int8)
        cols[i] = 1
        state.Z = np.concatenate([state.Z, cols], axis=1)
        state.column_sums = np.concatenate(
            [state.column_sums, np.ones(k_new, dtype=np.int64)]
        )
        state.Y = np.concatenate([state.Y, np.zeros((k_new, t), dtype=np.int8)], axis=0)
        terms = _y_terms(state)
        for j in range(state.Y.shape[0] - k_new, state.Y.shape[0]):
            resample_y_row(state, j, X, rng.random(t), terms)
    return k_new


class _YTerms(NamedTuple):
    """What every activation draw of a Y pass reads, looked up once."""

    log_p1: float
    log_p0: float
    log_pmf: np.ndarray  # shared_log_pmf_table, raveled
    on_prob: np.ndarray  # shared_y_on_prob_table
    degenerate: bool  # on_prob holds a NaN


def _y_terms(state: SamplerState) -> _YTerms:
    """The lookups of a Y pass under the state's parameters and K.

    Unless ``degenerate``, no activation draw meets both states at zero
    mass, whatever its number of rows: no log term is +inf, so that takes
    a -inf on each side, and the table entry of the two rows (or of one
    row and none) that carry them would be NaN."""
    params = state.params
    on_prob = shared_y_on_prob_table(params.lam, params.epsilon, params.p, state.k)
    return _YTerms(*log_p_pair(params.p),
                   shared_log_pmf_table(params.lam, params.epsilon, state.k).ravel(),
                   on_prob, bool(np.isnan(on_prob).any()))


def _y_conditional_log_odds(
    state: SamplerState, k: int, X, rows: np.ndarray, terms: _YTerms | None = None
) -> np.ndarray:
    """Log-odds of y[k, t] = 1 for all trials at once (trials are
    conditionally independent given the rest of the state); rows are the
    rows of Z linked to cause k."""
    log_p1, log_p0, table, _, degenerate = terms or _y_terms(state)
    idx = flat_index(X[rows], state.counts[rows], state.k)
    idx -= state.Y[k]
    ll0 = table.take(idx).sum(axis=0)
    idx += 1
    ll1 = table.take(idx).sum(axis=0)
    logw1 = log_p1 + ll1
    logw0 = log_p0 + ll0
    if degenerate and (np.isneginf(logw1) & np.isneginf(logw0)).any():
        raise DegenerateModelError("both states of an activation draw have zero mass")
    return logw1 - logw0


def resample_y_row(state: SamplerState, k: int, X, u: np.ndarray,
                   terms: _YTerms | None = None) -> None:
    """One Gibbs pass over y[k, :], vectorized across trials, from the T
    uniforms u; the per-entry update would draw the same ones in order.

    A cause linked to one or two rows gathers its on-probabilities from
    ``shared_y_on_prob_table``, one entry per trial; any other sums its
    rows' log-likelihoods.  terms are the pass's ``_y_terms``."""
    terms = terms or _y_terms(state)
    rows = state.Z[:, k].nonzero()[0]
    if 0 < rows.size <= 2:
        idx = flat_index(X[rows], state.counts[rows], state.k)
        idx -= state.Y[k]
        if rows.size == 1:  # table row K pairs the row with none
            prob = terms.on_prob[state.k].take(idx[0])
        else:
            pair = idx[1] * terms.on_prob.shape[0]
            pair += idx[0]
            prob = terms.on_prob.take(pair)
        if terms.degenerate and np.isnan(prob).any():
            raise DegenerateModelError("both states of an activation draw have zero mass")
    else:
        prob = expit(_y_conditional_log_odds(state, k, X, rows, terms))
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
    terms = _y_terms(state)
    linked = state.column_sums > 0
    for k in linked.nonzero()[0]:
        resample_y_row(state, k, X, u[k], terms)
    if not linked.all():
        unlinked = ~linked
        state.Y[unlinked] = u[unlinked] < expit(terms.log_p1 - terms.log_p0)


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
        k_at_entry = state.Z.shape[1]
        row_idx = flat_index(X[i], state.counts[i], state.k)
        singletons = []
        for k in range(k_at_entry):
            if state.column_sums[k] - state.Z[i, k] > 0:
                gibbs_sample_z_entry(state, i, k, row_idx, active[k], rng)
            else:
                singletons.append(k)
        for k in singletons:
            if state.Z[i, k]:
                state.Z[i, k] = 0
                state.column_sums[k] -= 1
                state.counts[i, active[k]] -= 1
                row_idx[active[k]] -= 1
        k_new = sample_new_causes(state, i, X, row_idx, rng)
        active.extend(y.nonzero()[0] for y in state.Y[state.k - k_new:])
    resample_all_y(state, X, rng)
    return compact_state(state)
