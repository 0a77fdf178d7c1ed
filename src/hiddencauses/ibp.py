"""Indian buffet process: the K -> infinity limit of the finite Z prior.

Provides forward sampling (the sequential buffet scheme) and the
probability of a left-ordered-form equivalence class, used as the prior
over bipartite graphs with an unbounded number of causes.
"""

import math
import sys
from collections import Counter

import numpy as np
from scipy.special import gammaln


def harmonic_number(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i; H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return float(sum(1.0 / i for i in range(1, n + 1)))


def _poisson_draw(mean: float, rng: np.random.Generator) -> int:
    """Poisson draw by inversion with sequential search (small means).

    Raises ValueError when exp(-mean) is not a normal double (mean above
    about 708), where the search would return a wrong count.
    """
    if mean <= 0.0:
        return 0
    pmf = math.exp(-mean)
    if pmf < sys.float_info.min:
        raise ValueError(f"Poisson mean {mean:g} is too large for the sequential draw")
    u = rng.random()
    k = 0
    cdf = pmf
    while u > cdf:
        k += 1
        pmf *= mean / k
        cdf += pmf
        if k > 100_000:
            raise ValueError(f"Poisson draw at mean {mean:g} did not end in 100000 steps")
    return k


def sample_ibp(n_rows: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Draw Z from the buffet scheme: row i joins an existing column with
    probability m_k / i (m_k counting earlier rows) and opens
    Poisson(alpha / i) new columns.

    Returns an n_rows x K+ int8 matrix in order of column creation; every
    column has at least one 1.  alpha = 0 gives a matrix with 0 columns.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    Z = np.zeros((n_rows, 0), dtype=np.int8)
    for i in range(1, n_rows + 1):
        m = Z.sum(axis=0, dtype=np.int64)  # earlier-row counts: rows i and on are still 0
        Z[i - 1] = rng.random(m.size) < m / i
        fresh = _poisson_draw(alpha / i, rng)
        if fresh:
            Z = np.concatenate([Z, np.zeros((n_rows, fresh), dtype=np.int8)], axis=1)
            Z[i - 1, -fresh:] = 1
    return Z


def log_prior_Z_ibp(Z, alpha: float) -> float:
    """Log-probability of Z's left-ordered-form equivalence class:

        K+ log(alpha) - sum_h log(K_h!) - alpha H_N
            + sum_k [ log (N - m_k)! + log (m_k - 1)! - log N! ]

    Z must have no all-zero columns; an empty Z gives -alpha H_N.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[0] < 1:
        raise ValueError("Z must be 2-D with at least one row")
    if Z.size and not ((Z == 0) | (Z == 1)).all():
        raise ValueError("Z entries must be 0 or 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    n, kplus = Z.shape
    hn = harmonic_number(n)
    if kplus == 0:
        return -alpha * hn
    m = Z.sum(axis=0, dtype=np.int64)
    if (m == 0).any():
        raise ValueError("Z has an all-zero column")
    # K_h: multiplicity of each distinct column pattern, compared exactly
    patterns = Counter(map(bytes, np.ascontiguousarray(Z.T)))
    log_multiplicity = sum(gammaln(kh + 1.0) for kh in patterns.values())
    per_col = gammaln(n - m + 1.0) + gammaln(m.astype(np.float64)) - gammaln(n + 1.0)
    return float(kplus * math.log(alpha) - log_multiplicity - alpha * hn + per_col.sum())
