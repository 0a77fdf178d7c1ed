"""Reference code that tests compare the package against.

``check_consistency`` recomputes a state's caches from Z and Y;
``zy_index`` builds the flat index a sweep keeps in place of the counts
from Z and Y alone, and ``check_index`` compares a sweep's index with it;
``gibbs_sample_y_entry`` is the per-entry activation update that the
vectorized ``resample_y_row`` must reproduce draw for draw.
``reference_z_entry`` and ``reference_resample_all_y`` are the z-entry
gather, one uniform per entry, and the per-row Y pass as they were before
the samplers kept one flat index per row, drew a row's z entries and a
whole Y pass each from one block of uniforms and summed log-odds in place
of a pair of log-likelihoods; the samplers must still match them draw for
draw.  ``reference_z_log_odds`` is the log-odds the samplers' z kernel
must equal bit for bit, from the elementwise kernel, summed in the
kernel's order, at counts computed from Z and Y, so that it holds inside
a sweep, whose counts are written back only when it ends.
``reference_fresh_cause_log_weights`` builds the fresh-cause weights from
the elementwise kernel, one term per distinct (x, count) pair in the order
of the histogram the sampler sums over.
"""

import math

import numpy as np
from scipy.special import expit, gammaln, xlogy

from hiddencauses.model import (
    DegenerateModelError,
    SamplerState,
    flat_index,
    log_pmf_noisy_or,
    shared_log_pmf_table,
)


def _two_point_draw(logw1: float, logw0: float, rng: np.random.Generator) -> int:
    """Draw from {0, 1} with P(1) proportional to exp(logw1)."""
    if logw1 == -math.inf and logw0 == -math.inf:
        raise DegenerateModelError("both states of a binary draw have zero mass")
    return 1 if rng.random() < expit(logw1 - logw0) else 0


def zy_counts(state: SamplerState) -> np.ndarray:
    """Z @ Y, computed from Z and Y alone."""
    return state.Z.astype(np.int32) @ state.Y.astype(np.int32)


def zy_index(state: SamplerState, X) -> np.ndarray:
    """``flat_index(X, Z @ Y, K)``: the index a sweep must hold, computed
    from Z and Y alone; row i is the row index the z-entry draws keep."""
    return flat_index(X, zy_counts(state), state.k)


def check_index(state: SamplerState, X, index: np.ndarray) -> None:
    """Assert a sweep's index and column_sums match Z and Y exactly."""
    np.testing.assert_array_equal(state.column_sums, state.Z.sum(axis=0))
    np.testing.assert_array_equal(index, zy_index(state, X))


def check_consistency(state: SamplerState) -> None:
    """Assert the caches match Z and Y exactly."""
    assert state.Z.shape[1] == state.Y.shape[0]
    assert np.isin(state.Z, (0, 1)).all() and np.isin(state.Y, (0, 1)).all()
    np.testing.assert_array_equal(state.column_sums, state.Z.sum(axis=0))
    np.testing.assert_array_equal(state.counts, zy_counts(state))


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


def reference_z_log_likelihoods(state: SamplerState, i: int, k: int, X) -> list[float]:
    """[ll0, ll1] of z[i, k] = 0 and 1, gathered from X and the counts on
    cause k's active trials alone."""
    params = state.params
    active = state.Y[k].nonzero()[0]
    if not active.size:
        return [0.0, 0.0]
    table = shared_log_pmf_table(params.lam, params.epsilon, state.k).ravel()
    idx = flat_index(X[i, active], state.counts[i, active], state.k)
    idx -= state.Z[i, k]
    ll0 = float(table.take(idx).sum())
    idx += 1
    return [ll0, float(table.take(idx).sum())]


def reference_z_log_odds(state: SamplerState, i: int, k: int, X) -> float:
    """log P(x | c + 1) - log P(x | c) from the elementwise kernel on cause
    k's active trials, c row i's counts there without cause k, computed
    from Z and Y, summed in trial order one term after another; NaN where
    both states of z[i, k] have zero mass."""
    params = state.params
    active = state.Y[k].nonzero()[0]
    base = zy_counts(state)[i, active] - state.Z[i, k]
    x = X[i, active]
    with np.errstate(invalid="ignore"):
        terms = (log_pmf_noisy_or(x, base + 1, params.lam, params.epsilon)
                 - log_pmf_noisy_or(x, base, params.lam, params.epsilon))
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def reference_z_entry(
    state: SamplerState, i: int, k: int, X, rng: np.random.Generator, theta_bar: float
) -> int:
    """Two-point draw of z[i, k] that gathers from X and the counts at
    each call (``reference_z_log_likelihoods``)."""
    old = int(state.Z[i, k])
    active = state.Y[k].nonzero()[0]
    ll0, ll1 = reference_z_log_likelihoods(state, i, k, X)
    logw1 = (math.log(theta_bar) if theta_bar > 0 else -math.inf) + ll1
    logw0 = (math.log1p(-theta_bar) if theta_bar < 1 else -math.inf) + ll0
    new = _two_point_draw(logw1, logw0, rng)
    if new != old:
        state.Z[i, k] = new
        state.column_sums[k] += new - old
        if active.size:
            state.counts[i, active] += new - old
    return new


def reference_resample_all_y(state: SamplerState, X, rng: np.random.Generator) -> None:
    """The Y pass row by row: each row computes its log-odds, then draws
    its T uniforms, linked or not."""
    params = state.params
    with np.errstate(divide="ignore"):
        log_p1 = float(np.log(params.p))
        log_p0 = float(np.log1p(-params.p))
    for k in range(state.k):
        rows = state.Z[:, k].nonzero()[0]
        if rows.size == 0:
            delta = np.full(state.n_trials, log_p1 - log_p0)
        else:
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
            delta = logw1 - logw0
        new = (rng.random(state.n_trials) < expit(delta)).astype(np.int8)
        diff = new.astype(np.int32) - state.Y[k].astype(np.int32)
        if rows.size and diff.any():
            state.counts[rows] += diff[None, :]
        state.Y[k] = new


def reference_fresh_cause_log_weights(state: SamplerState, i: int, X, max_new: int) -> np.ndarray:
    """Log-weights of k = 0..max_new fresh causes at row i: the elementwise
    log-probability of each distinct (x, count) pair of the row times the
    number of trials that carry it, added pair by pair, ascending by x
    then count."""
    params = state.params
    ks = np.arange(max_new + 1, dtype=np.float64)
    pairs, n_trials = np.unique(np.stack([X[i], state.counts[i]]), axis=1, return_counts=True)
    extra = xlogy(ks, 1.0 - params.lam * params.p)[:, None]
    per_pair = log_pmf_noisy_or(pairs[0], pairs[1], params.lam, params.epsilon, extra)
    loglik = np.zeros(max_new + 1)
    for term, n in zip(per_pair.T, n_trials):
        loglik += term * n
    return loglik + xlogy(ks, params.alpha / state.n_rows) - gammaln(ks + 1.0)
