"""Generative model for binary observations driven by unobserved binary causes.

Matrices (dense 0/1 arrays, row-major):

    X   N x T   observations: N variables measured over T trials
    Z   N x K   bipartite graph: Z[i, k] = 1 links cause k to variable i
    Y   K x T   activations: Y[k, t] = 1 if cause k is active on trial t

An observation turns on through a noisy-OR: every active cause linked to
variable i trips it independently with probability ``lam``, and a leak
trips it with probability ``epsilon``, so

    P(X[i, t] = 1 | Z, Y) = 1 - (1 - lam)^(Z[i] . Y[:, t]) * (1 - epsilon).

Activations are iid Bernoulli(p).  Two priors over Z are supported: a
finite K-column beta-Bernoulli prior with per-column weight alpha / K,
and its K -> infinity limit (see :mod:`hiddencauses.ibp`).

The likelihood depends on (Z, Y) only through counts = Z @ Y, and on each
entry only through the pair (x, count).  ``log_pmf_noisy_or`` is the one
kernel that computes log P(x | count); ``log_pmf_table`` evaluates it on
every (x, count) pair up to a cap.  ``shared_log_pmf_table`` builds that
table once per (lam, epsilon, cap) and hands out the same read-only
array, and the MH step and the trace gather their likelihood terms from
it by flat index x (cap + 1) + count.  ``draw_tables`` builds, once per
(lam, epsilon, p, K), everything the conditional draws of both samplers
read: that table at cap K, its fresh-cause rows, and the on-probability
of an activation whose cause links one or two rows.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import expit, gammaln, xlogy


class DegenerateModelError(RuntimeError):
    """Every candidate in a conditional draw carries zero posterior mass.

    Raised when a Gibbs update finds all its options at log-probability
    -inf, which only happens for degenerate parameter settings (for
    example epsilon = 0 with an observation no cause can explain).
    """


@dataclass(frozen=True)
class ModelParams:
    """Model hyperparameters.

    epsilon : baseline (leak) probability that an observation is on, in [0, 1)
    lam     : transmission probability of an active linked cause, in [0, 1]
    p       : prior activation probability of a cause per trial, in [0, 1]
    alpha   : expected-structure intensity of the prior over Z, > 0
    """

    epsilon: float
    lam: float
    p: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def replace(self, **changes) -> "ModelParams":
        import dataclasses

        return dataclasses.replace(self, **changes)


def as_binary_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D int8 array with entries in {0, 1}."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.int8)


def log_pmf_noisy_or(x, counts, lam: float, epsilon: float, log_off_extra=0.0) -> np.ndarray:
    """Elementwise log P(x | counts) under the noisy-OR observation model.

    ``x``, ``counts`` and ``log_off_extra`` broadcast together;
    ``log_off_extra`` is added last to log P(x = 0 | counts), as when
    further causes of known off-probability attach.  Returns -inf (never
    NaN) for zero-probability entries at parameter boundaries.
    """
    x = np.asarray(x)
    counts = np.asarray(counts)
    with np.errstate(divide="ignore"):
        # log P(x=0 | c) = c log(1 - lam) + log(1 - epsilon) [+ extra]
        log_off = xlogy(counts, 1.0 - lam) + np.log1p(-epsilon) + log_off_extra
        # log P(x=1 | c) = log(1 - exp(log_off)), computed stably
        log_on = np.log(-np.expm1(log_off))
    return np.where(x == 1, log_on, log_off)


def log_pmf_table(lam: float, epsilon: float, c_max: int, log_off_extra=0.0) -> np.ndarray:
    """``log_pmf_noisy_or`` at x in {0, 1} and c in 0..c_max, indexed
    ``table[..., x, c]`` (leading axes come from ``log_off_extra``)."""
    x = np.arange(2)[:, None]
    return log_pmf_noisy_or(x, np.arange(c_max + 1), lam, epsilon, log_off_extra)


TABLE_CACHE_SIZE = 64  # covers the K values of a chain; each MH proposal adds a key
MAX_NEW_CAUSES = 10  # truncation of the per-row Poisson draw of fresh columns


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def shared_log_pmf_table(lam: float, epsilon: float, c_max: int) -> np.ndarray:
    """``log_pmf_table(lam, epsilon, c_max)``, built once per key, read-only.

    Callers share the returned array and must not write to it.
    """
    table = log_pmf_table(lam, epsilon, c_max)
    table.flags.writeable = False
    return table


class DrawTables(NamedTuple):
    """What the conditional draws read under one (lam, epsilon, p, K);
    every array is read-only.  See ``draw_tables``."""

    log_pmf: np.ndarray  # shared_log_pmf_table(lam, epsilon, K), raveled
    fresh: np.ndarray  # [j, i]: log_pmf[i] with j fresh causes of rate p summed out
    on_prob: np.ndarray  # [b, a]: P(y = 1 | rest) of a cause on rows at flat indices a, b
    degenerate: bool  # on_prob holds a NaN
    log_p1: float  # log p
    log_p0: float  # log(1 - p)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def draw_tables(lam: float, epsilon: float, p: float, k: int) -> DrawTables:
    """The lookups of every conditional draw at K = k, built once per key.

    Z Y <= K, so tables up to count K cover every row.  ``fresh`` serves
    j = 0..MAX_NEW_CAUSES fresh causes of activation probability p: summed
    out, they multiply the off probability by (1 - lam p)^j, so row j is
    ``log_pmf_table(lam, epsilon, k, xlogy(j, 1 - lam p))``, raveled.

    ``on_prob`` serves an activation whose cause links one or two rows,
    taken with the cause's own activation left out, so count <= K - 1.
    Index K (x = 0, count = K) is never a row's and holds log-likelihood
    0 in both states, so row K serves a cause with one row: L + 0.0 == L.
    Every entry applies the floating-point operations of the summed
    log-odds in their order, so it equals expit of them bit for bit; NaN
    marks both states at zero mass.  Unless ``degenerate``, no activation
    draw meets both states at zero mass, whatever its number of rows: no
    log term is +inf, so that takes a -inf on each side, and the entry of
    the two rows (or of one row and none) that carry them would be NaN.
    """
    table = shared_log_pmf_table(lam, epsilon, k)
    ks = np.arange(MAX_NEW_CAUSES + 1, dtype=np.float64)
    fresh = log_pmf_table(lam, epsilon, k, xlogy(ks, 1.0 - lam * p)[:, None, None])
    fresh = fresh.reshape(MAX_NEW_CAUSES + 1, -1)
    off, on = np.zeros_like(table), np.zeros_like(table)
    off[:, :-1] = table[:, :-1]
    on[:, :-1] = table[:, 1:]
    off, on = off.ravel(), on.ravel()
    with np.errstate(divide="ignore"):
        log_p1, log_p0 = float(np.log(p)), float(np.log1p(-p))
    with np.errstate(invalid="ignore"):  # -inf - -inf is the NaN wanted
        on_prob = expit((log_p1 + (on[:, None] + on)) - (log_p0 + (off[:, None] + off)))
    fresh.flags.writeable = on_prob.flags.writeable = False
    return DrawTables(table.ravel(), fresh, on_prob, bool(np.isnan(on_prob).any()),
                      log_p1, log_p0)


def flat_index(x, counts, c_max: int) -> np.ndarray:
    """Index x (c_max + 1) + counts into a raveled table, built in place."""
    idx = x.astype(np.intp)  # an int8 x times c_max + 1 could wrap
    idx *= c_max + 1
    idx += counts
    return idx


def log_likelihood_from_counts(X, counts, lam: float, epsilon: float) -> float:
    """Total log-likelihood given the cause-count matrix counts = Z @ Y."""
    counts = np.asarray(counts)
    c_max = int(counts.max(initial=0))
    table = shared_log_pmf_table(lam, epsilon, c_max).ravel()
    idx = flat_index(np.asarray(X) == 1, counts, c_max)  # as log_pmf_noisy_or reads x
    return float(table.take(idx).sum())


def log_likelihood(X, Z, Y, params: ModelParams) -> float:
    """log P(X | Z, Y) summed over all N x T entries.

    Raises ValueError on inconsistent shapes.  Empty products (T = 0 or
    N = 0) give 0.0.
    """
    X = np.asarray(X)
    Z = np.asarray(Z)
    Y = np.asarray(Y)
    n, t = X.shape
    if Z.shape[0] != n:
        raise ValueError(f"Z has {Z.shape[0]} rows, X has {n}")
    if Y.shape[1] != t:
        raise ValueError(f"Y has {Y.shape[1]} trials, X has {t}")
    if Z.shape[1] != Y.shape[0]:
        raise ValueError(f"Z has {Z.shape[1]} columns, Y has {Y.shape[0]} rows")
    counts = Z.astype(np.int32) @ Y.astype(np.int32)
    return log_likelihood_from_counts(X, counts, params.lam, params.epsilon)


def log_prior_Y(Y, p: float) -> float:
    """log P(Y | p) for iid Bernoulli(p) entries; 0.0 for an empty Y."""
    Y = np.asarray(Y)
    s = float(Y.sum())
    total = float(Y.size)
    # xlogy(0, 0) = 0, so p in {0, 1} yields -inf only when Y disagrees
    return float(xlogy(s, p) + xlogy(total - s, 1.0 - p))


def log_prior_Z_finite_from_sums(column_sums, n_rows: int, k: int, alpha: float) -> float:
    """Finite-model column-exchangeable prior evaluated from column sums.

    Each of the k columns contributes

        (alpha/k) Gamma(m + alpha/k) Gamma(n - m + 1) / Gamma(n + 1 + alpha/k)

    where m is the column sum (the per-column Bernoulli rate has been
    integrated out against Beta(alpha/k, 1)).
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    if k == 0:
        return 0.0
    m = np.asarray(column_sums, dtype=np.float64)
    if m.shape != (k,):
        raise ValueError(f"expected {k} column sums, got shape {m.shape}")
    ak = alpha / k
    per_col = (
        math.log(ak)
        + gammaln(m + ak)
        + gammaln(n_rows - m + 1.0)
        - gammaln(n_rows + 1.0 + ak)
    )
    return float(per_col.sum())


def log_prior_Z_finite(Z, k: int, alpha: float) -> float:
    """log P(Z | K = k, alpha) under the finite beta-Bernoulli prior.

    Z must have exactly k columns (all-zero columns included); alpha > 0.
    """
    Z = as_binary_matrix(Z, "Z")
    if Z.shape[1] != k:
        raise ValueError(f"Z has {Z.shape[1]} columns, expected k = {k}")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return log_prior_Z_finite_from_sums(Z.sum(axis=0), Z.shape[0], k, alpha)


def log_joint(X, Z, Y, params: ModelParams, prior: str = "ibp",
              log_lik: float | None = None) -> float:
    """log P(X, Z, Y) under the chosen prior over Z.

    prior="ibp" uses the unbounded-cause prior (Z must have no all-zero
    columns); prior="finite" uses the prior over Z's column count.
    log_lik, when given, is taken as ``log_likelihood(X, Z, Y, params)``,
    as a sampler that holds counts = Z @ Y computes it from them.
    """
    # looked up at call time because perfbench/tracing.py patches
    # ibp.log_prior_Z_ibp; a module-level import would keep the unpatched
    # function, and ibp.log_prior.self_s would read 0
    from .ibp import log_prior_Z_ibp

    ll = log_likelihood(X, Z, Y, params) if log_lik is None else log_lik
    lp_y = log_prior_Y(Y, params.p)
    if prior == "ibp":
        lp_z = log_prior_Z_ibp(Z, params.alpha)
    elif prior == "finite":
        lp_z = log_prior_Z_finite(Z, np.asarray(Z).shape[1], params.alpha)
    else:
        raise ValueError(f"unknown prior {prior!r}")
    return ll + lp_y + lp_z


@dataclass
class SamplerState:
    """Mutable sampler state: the pair (Z, Y), parameters, and caches.

    ``column_sums`` holds Z's column sums and ``counts`` holds Z @ Y;
    both are maintained incrementally by the samplers and must never be
    mutated elsewhere.
    """

    Z: np.ndarray
    Y: np.ndarray
    params: ModelParams
    column_sums: np.ndarray = field(repr=False, default=None)
    counts: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.column_sums is None:
            self.column_sums = self.Z.sum(axis=0, dtype=np.int64)
        if self.counts is None:
            self.counts = self.Z.astype(np.int32) @ self.Y.astype(np.int32)

    @classmethod
    def from_matrices(cls, Z, Y, params: ModelParams, **fields) -> "SamplerState":
        """Validate Z and Y and build the state; fields set a subclass's
        extra fields (a finite state's ``k_prior`` and its variants)."""
        Z = as_binary_matrix(Z, "Z")
        Y = as_binary_matrix(Y, "Y")
        if Z.shape[1] != Y.shape[0]:
            raise ValueError(f"Z has {Z.shape[1]} columns, Y has {Y.shape[0]} rows")
        return cls(Z=Z, Y=Y, params=params, **fields)

    @property
    def n_rows(self) -> int:
        return self.Z.shape[0]

    @property
    def n_trials(self) -> int:
        return self.Y.shape[1]

    @property
    def k(self) -> int:
        """Number of columns currently represented (zero columns included)."""
        return self.Z.shape[1]

    @property
    def kplus(self) -> int:
        """Number of columns with at least one edge."""
        return int(np.count_nonzero(self.column_sums))
