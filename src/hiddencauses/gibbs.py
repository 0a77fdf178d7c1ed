"""Collapsed Gibbs sampler over (Z, Y) with an unbounded number of causes.

One sweep visits rows of Z in ascending order.  For row i, every column
still linked to another row gets a two-point draw on z[i, k]; columns
whose only edge is at row i are zeroed and replaced by a Poisson-weighted
draw of fresh singleton columns whose activations have been summed out of
the likelihood.  A full pass over Y and a compaction of empty columns
finish the sweep.
"""

import math

import numpy as np
from scipy.special import expit, gammaln, xlogy

from .model import (
    DegenerateModelError,
    SamplerState,
    flat_index,
    log_pmf_noisy_or,
    shared_log_pmf_table,
)

MAX_NEW_CAUSES = 10  # truncation of the per-row Poisson draw of fresh columns


def _two_point_draw(logw1: float, logw0: float, rng: np.random.Generator) -> int:
    """Draw from {0, 1} with P(1) proportional to exp(logw1)."""
    if logw1 == -math.inf and logw0 == -math.inf:
        raise DegenerateModelError("both states of a binary draw have zero mass")
    return 1 if rng.random() < expit(logw1 - logw0) else 0


def _sample_z_given_theta(
    state: SamplerState, i: int, k: int, X, rng: np.random.Generator, theta_bar: float
) -> int:
    """Two-point draw of z[i, k] with prior weight theta_bar on 1."""
    params = state.params
    old = int(state.Z[i, k])
    active = state.Y[k].nonzero()[0]
    if active.size:
        # Z Y <= K, so a table up to K covers every count
        table = shared_log_pmf_table(params.lam, params.epsilon, state.k).ravel()
        idx = flat_index(X[i, active], state.counts[i, active], state.k)
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
    return new


def gibbs_sample_z_entry(state: SamplerState, i: int, k: int, X, rng: np.random.Generator) -> int:
    """Resample z[i, k] given everything else, for a column some other row
    still uses (m_minus > 0).  The prior weight on z = 1 is m_minus / N.
    """
    m_minus = int(state.column_sums[k]) - int(state.Z[i, k])
    if m_minus <= 0:
        raise ValueError("column is a singleton of row i; handled by sample_new_causes")
    theta_bar = m_minus / state.n_rows
    return _sample_z_given_theta(state, i, k, X, rng, theta_bar)


def marginal_on_prob(eta, k_new: int, params) -> np.ndarray:
    """P(x = 1) on a trial when k_new fresh causes, each active with
    probability p, attach to the row: 1 - (1-eps) eta (1 - lam p)^k_new.

    eta = (1-lam)^(existing active count) may be an array over trials.
    The binomial sum over the fresh activations collapses to this form.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return 1.0 - (1.0 - params.epsilon) * eta * (1.0 - params.lam * params.p) ** k_new


def _fresh_cause_log_weights(state: SamplerState, i: int, X, max_new: int) -> np.ndarray:
    """Unnormalized log-probabilities of k = 0..max_new fresh causes at row i."""
    params = state.params
    ks = np.arange(max_new + 1, dtype=np.float64)
    # table[k, x, c]: k fresh causes, their activations summed out
    table = shared_log_pmf_table(params.lam, params.epsilon, state.k, params.p, max_new)
    idx = flat_index(X[i], state.counts[i], state.k)
    # gathered trial-major (the layout of table[:, x, c]) so that the sum
    # over trials adds in the same order
    per_trial = table.reshape(max_new + 1, -1).T.take(idx, axis=0).T
    return per_trial.sum(axis=1) + xlogy(ks, params.alpha / state.n_rows) - gammaln(ks + 1.0)


def sample_new_causes(
    state: SamplerState, i: int, X, rng: np.random.Generator, max_new: int = MAX_NEW_CAUSES
) -> int:
    """Draw how many fresh causes attach to row i and expand the state.

    Weights over k in 0..max_new combine a Poisson(alpha / N) prior with
    the likelihood of row i after summing out the new activations.  Each
    accepted cause appends a column with a single 1 at row i and a zero
    activation row that is then Gibbs-resampled once.
    """
    n, t = state.n_rows, state.n_trials
    logw = _fresh_cause_log_weights(state, i, X, max_new)
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
        for j in range(state.Y.shape[0] - k_new, state.Y.shape[0]):
            resample_y_row(state, j, X, rng)
    return k_new


def _y_conditional_log_odds(state: SamplerState, k: int, X, rows: np.ndarray) -> np.ndarray:
    """Log-odds of y[k, t] = 1 for all trials at once (trials are
    conditionally independent given the rest of the state); rows are the
    rows of Z linked to cause k."""
    params = state.params
    with np.errstate(divide="ignore"):
        log_p1 = float(np.log(params.p))
        log_p0 = float(np.log1p(-params.p))
    if rows.size == 0:
        return np.full(state.n_trials, log_p1 - log_p0)
    table = shared_log_pmf_table(params.lam, params.epsilon, state.k).ravel()
    idx = flat_index(X[rows], state.counts[rows], state.k)
    idx -= state.Y[k]
    ll0 = table.take(idx).sum(axis=0)
    idx += 1
    ll1 = table.take(idx).sum(axis=0)
    logw1 = log_p1 + ll1
    logw0 = log_p0 + ll0
    if (np.isneginf(logw1) & np.isneginf(logw0)).any():
        raise DegenerateModelError("both states of an activation draw have zero mass")
    return logw1 - logw0


def gibbs_sample_y_entry(state: SamplerState, k: int, t: int, X, rng: np.random.Generator) -> int:
    """Resample y[k, t] given everything else.  Only rows linked to cause
    k enter the likelihood ratio; with none, the draw is the prior p."""
    params = state.params
    rows = state.Z[:, k].nonzero()[0]
    old = int(state.Y[k, t])
    if rows.size == 0:
        new = 1 if rng.random() < params.p else 0
        state.Y[k, t] = new
        return new
    base = state.counts[rows, t] - old
    x = X[rows, t]
    with np.errstate(divide="ignore"):
        ll1 = log_pmf_noisy_or(x, base + 1, params.lam, params.epsilon).sum()
        ll0 = log_pmf_noisy_or(x, base, params.lam, params.epsilon).sum()
        logw1 = float(np.log(params.p) + ll1)
        logw0 = float(np.log1p(-params.p) + ll0)
    new = _two_point_draw(logw1, logw0, rng)
    if new != old:
        state.Y[k, t] = new
        state.counts[rows, t] += new - old
    return new


def resample_y_row(state: SamplerState, k: int, X, rng: np.random.Generator) -> None:
    """One Gibbs pass over y[k, :], vectorized across trials; draws the
    same uniforms, in the same order, as the per-entry update would."""
    rows = state.Z[:, k].nonzero()[0]
    delta = _y_conditional_log_odds(state, k, X, rows)
    new = (rng.random(state.n_trials) < expit(delta)).astype(np.int8)
    diff = new.astype(np.int32) - state.Y[k].astype(np.int32)
    if rows.size and diff.any():
        state.counts[rows] += diff[None, :]
    state.Y[k] = new


def resample_all_y(state: SamplerState, X, rng: np.random.Generator) -> None:
    for k in range(state.Y.shape[0]):
        resample_y_row(state, k, X, rng)


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
    rows; compaction happens only at the end of the sweep.
    """
    for i in range(state.n_rows):
        k_at_entry = state.Z.shape[1]
        singletons = []
        for k in range(k_at_entry):
            if state.column_sums[k] - state.Z[i, k] > 0:
                gibbs_sample_z_entry(state, i, k, X, rng)
            else:
                singletons.append(k)
        for k in singletons:
            if state.Z[i, k]:
                state.Z[i, k] = 0
                state.column_sums[k] -= 1
                active = state.Y[k].nonzero()[0]
                if active.size:
                    state.counts[i, active] -= 1
        sample_new_causes(state, i, X, rng)
    resample_all_y(state, X, rng)
    return compact_state(state)
