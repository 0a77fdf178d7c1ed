"""Independent model arithmetic for the benchmark's correctness checks.

Everything here is written from the model's definition, not from the
package: the noisy-OR likelihood, the Bernoulli activation prior, the
finite beta-Bernoulli prior over Z, and the left-ordered-form class
probability of the unbounded prior, whose pattern multiplicities K_h are
counted with ``np.unique`` over columns.  The checks compare these values
and the recomputed caches against what a chain reports.
"""

import math

import numpy as np

# log-joint agreement: the package sums log P(x | count) over N*T entries
# through expm1/xlogy, this module through power and log, so the two can
# differ by rounding only (well below 1e-9 of the total).
REL_TOL = 1e-9


def noisy_or_log_likelihood(X, Z, Y, lam: float, epsilon: float) -> float:
    """log P(X | Z, Y): P(x = 0 | c active linked causes) = (1-lam)^c (1-eps)."""
    counts = Z.astype(np.int64) @ Y.astype(np.int64)
    p_off = np.power(1.0 - lam, counts) * (1.0 - epsilon)
    with np.errstate(divide="ignore"):
        per_entry = np.where(X == 1, np.log1p(-p_off), np.log(p_off))
    return float(per_entry.sum())


def activation_log_prior(Y, p: float) -> float:
    """log P(Y | p) for iid Bernoulli(p) activations."""
    on = int(Y.sum())
    off = Y.size - on
    total = 0.0
    if on:
        total += on * math.log(p) if p > 0 else -math.inf
    if off:
        total += off * math.log1p(-p) if p < 1 else -math.inf
    return total


def finite_log_prior(Z, alpha: float) -> float:
    """Finite K-column prior with each column's rate integrated against
    Beta(alpha/K, 1): per column (alpha/K) B(m + alpha/K, N - m + 1)."""
    n, k = Z.shape
    if k == 0:
        return 0.0
    ak = alpha / k
    total = 0.0
    for m in Z.sum(axis=0).tolist():
        total += (
            math.log(ak)
            + math.lgamma(m + ak)
            + math.lgamma(n - m + 1)
            - math.lgamma(n + 1 + ak)
        )
    return total


def ibp_log_prior(Z, alpha: float) -> float:
    """Left-ordered-form class probability of the unbounded prior:
    K+ log alpha - sum_h log K_h! - alpha H_N
        + sum_k [log (N - m_k)! + log (m_k - 1)! - log N!]."""
    n, kplus = Z.shape
    harmonic = sum(1.0 / i for i in range(1, n + 1))
    if kplus == 0:
        return -alpha * harmonic
    m = Z.sum(axis=0)
    if (m == 0).any():
        raise ValueError("the unbounded prior has no mass on all-zero columns")
    _, multiplicity = np.unique(Z.T, axis=0, return_counts=True)
    total = kplus * math.log(alpha) - alpha * harmonic
    total -= sum(math.lgamma(c + 1) for c in multiplicity.tolist())
    for mk in m.tolist():
        total += math.lgamma(n - mk + 1) + math.lgamma(mk) - math.lgamma(n + 1)
    return total


def log_joint(X, Z, Y, params, prior: str) -> float:
    """log P(X, Z, Y) with prior "ibp" (gibbs) or "finite" (rjmcmc)."""
    z_prior = ibp_log_prior if prior == "ibp" else finite_log_prior
    return (
        noisy_or_log_likelihood(X, Z, Y, params.lam, params.epsilon)
        + activation_log_prior(Y, params.p)
        + z_prior(Z, params.alpha)
    )


def check_state(X, state, prior: str, reported_log_joint: float) -> list[str]:
    """Problems with a final sampler state; an empty list means it passed.

    Recomputes the cached counts = Z @ Y and column sums, and compares
    the independent log-joint with the value the chain reported.
    """
    problems = []
    Z = np.asarray(state.Z)
    Y = np.asarray(state.Y)
    if Z.shape[1] != Y.shape[0] or Z.shape[0] != X.shape[0] or Y.shape[1] != X.shape[1]:
        return [f"shapes disagree: X {X.shape}, Z {Z.shape}, Y {Y.shape}"]
    if not (np.isin(Z, (0, 1)).all() and np.isin(Y, (0, 1)).all()):
        problems.append("Z or Y has an entry outside {0, 1}")
    if not np.array_equal(np.asarray(state.column_sums), Z.sum(axis=0)):
        problems.append("cached column sums differ from Z's column sums")
    if not np.array_equal(np.asarray(state.counts), Z.astype(np.int64) @ Y.astype(np.int64)):
        problems.append("cached counts differ from Z @ Y")
    if prior == "ibp" and (Z.sum(axis=0) == 0).any():
        problems.append("the unbounded sampler kept an all-zero column")
        return problems
    expected = log_joint(X, Z, Y, state.params, prior)
    if not math.isfinite(reported_log_joint) or abs(expected - reported_log_joint) > REL_TOL * (
        1.0 + abs(expected)
    ):
        problems.append(
            f"reported log-joint {reported_log_joint!r} differs from the independent "
            f"value {expected!r}"
        )
    return problems


def structure_error(mean_zzt, Z_true) -> float:
    """Sum over pairs i < j of |true shared-cause count - estimated count|."""
    truth = Z_true.astype(np.int64) @ Z_true.T.astype(np.int64)
    iu = np.triu_indices(truth.shape[0], k=1)
    return float(np.abs(truth[iu] - np.asarray(mean_zzt, dtype=np.float64)[iu]).sum())
