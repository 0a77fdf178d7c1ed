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
array; every reader gathers from it at cap K by the flat index
x (K + 1) + count that each sweep keeps (``flat_index``).
``draw_tables`` builds, once per (lam, epsilon, p, K), what the
conditional draws of both samplers read: the log-odds table
D[x, c] = L[x, c + 1] - L[x, c] of that table at cap K, the prior's
log-odds, the on-probability of an activation whose cause links one
or two rows, and the table's rows with fresh causes summed out, which
the unbounded sampler's fresh-cause draw reads.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import expit, gammaln, xlogy

from . import ibp


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
    alpha   : expected-structure intensity of the prior over Z, in (0, inf)
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
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    def replace(self, **changes) -> "ModelParams":
        import dataclasses

        return dataclasses.replace(self, **changes)


def check_binary(values, name: str = "X") -> None:
    """Raise ValueError unless every entry of values is 0 or 1.  An int8
    array takes one max over its bytes, where -1 reads 255."""
    arr = np.asarray(values)
    if not arr.size:
        return
    if arr.dtype == np.int8:
        binary = arr.view(np.uint8).max() <= 1
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValueError(f"{name} entries must be 0 or 1")


def as_binary_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D int8 array with entries in {0, 1}."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    check_binary(arr, name)
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
FRESH_COUNTS = np.arange(MAX_NEW_CAUSES + 1, dtype=np.float64)  # j = 0..MAX_NEW_CAUSES


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

    log_odds: np.ndarray  # D[x, c] = L[x, c + 1] - L[x, c], 0 at c = K, raveled
    on_prob: np.ndarray  # [b, a]: P(y = 1 | rest) of a cause on rows at flat indices a, b
    degenerate: bool  # on_prob holds a NaN
    prior_log_odds: float  # log p - log(1 - p)
    fresh: np.ndarray  # [j, i]: entry i of the raveled table with j fresh causes summed out


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def draw_tables(lam: float, epsilon: float, p: float, k: int) -> DrawTables:
    """The lookups of the conditional draws at K = k, built once per key.

    A two-point draw needs only the log-odds of a 1 against a 0: the
    prior's plus, over the entries it touches, D[x, c] at flat index
    x (K + 1) + c, c the entry's count without the drawn variable, so
    c <= K - 1.  Index K (x = 0, count = K) holds 0, so row K of
    ``on_prob`` serves a cause with one row: D + 0.0 == D.  ``on_prob``
    adds in the summed path's order, so it equals expit of it bit for bit.

    A sum is NaN exactly when both states have zero mass: it holds
    -inf - (-inf), or +inf and -inf, the prior included.  Unless
    ``degenerate``, no activation sum is NaN, whatever its number of
    rows: the infinities it meets sit in one entry, or in two (or one
    and the prior) whose ``on_prob`` entry is NaN.

    ``fresh`` row j, j = 0..MAX_NEW_CAUSES, sums out j fresh causes of
    activation probability p; they multiply the off probability by
    (1 - lam p)^j, so it is ``log_pmf_table(lam, epsilon, k, xlogy(j, 1 - lam p))``.
    """
    fresh = log_pmf_table(lam, epsilon, k, xlogy(FRESH_COUNTS, 1.0 - lam * p)[:, None, None])
    fresh = fresh.reshape(MAX_NEW_CAUSES + 1, -1)
    table = shared_log_pmf_table(lam, epsilon, k)
    log_odds = np.zeros_like(table)
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf - -inf is the NaN wanted
        log_odds[:, :-1] = table[:, 1:] - table[:, :-1]
        log_odds = log_odds.ravel()
        prior_log_odds = float(np.log(p) - np.log1p(-p))
        on_prob = expit(prior_log_odds + (log_odds[:, None] + log_odds))
    for array in (log_odds, on_prob, fresh):
        array.flags.writeable = False
    return DrawTables(log_odds, on_prob, bool(np.isnan(on_prob).any()), prior_log_odds, fresh)


def flat_index(x, counts, c_max: int) -> np.ndarray:
    """Index x (c_max + 1) + counts into a raveled table, built in place."""
    idx = x.astype(np.intp)  # an int8 x times c_max + 1 could wrap
    idx *= c_max + 1
    idx += counts
    return idx


def log_likelihood_at(index: np.ndarray, k: int, lam: float, epsilon: float) -> float:
    """Total log-likelihood at ``index = flat_index(X, counts, k)``, the
    index a sweep keeps; every count is at most K = k."""
    return float(shared_log_pmf_table(lam, epsilon, k).ravel().take(index).sum())


def log_likelihood(X, Z, Y, params: ModelParams) -> float:
    """log P(X | Z, Y) summed over all N x T entries.

    Raises ValueError on entries outside {0, 1} and on inconsistent
    shapes.  Empty products (T = 0 or N = 0) give 0.0.
    """
    X = as_binary_matrix(X, "X")
    Z = as_binary_matrix(Z, "Z")
    Y = as_binary_matrix(Y, "Y")
    n, t = X.shape
    if Z.shape[0] != n:
        raise ValueError(f"Z has {Z.shape[0]} rows, X has {n}")
    if Y.shape[1] != t:
        raise ValueError(f"Y has {Y.shape[1]} trials, X has {t}")
    if Z.shape[1] != Y.shape[0]:
        raise ValueError(f"Z has {Z.shape[1]} columns, Y has {Y.shape[0]} rows")
    counts, k = Z.astype(np.int32) @ Y.astype(np.int32), Z.shape[1]
    return log_likelihood_at(flat_index(X, counts, k), k, params.lam, params.epsilon)


def log_prior_Y(Y, p: float) -> float:
    """log P(Y | p) for iid Bernoulli(p) entries; 0.0 for an empty Y."""
    Y = np.asarray(Y)
    s = float(Y.sum())
    total = float(Y.size)
    # xlogy(0, 0) = 0, so p in {0, 1} yields -inf only when Y disagrees
    return float(xlogy(s, p) + xlogy(total - s, 1.0 - p))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _finite_column_log_priors(n_rows: int, k: int, alpha: float) -> np.ndarray:
    """[m]: one column's term of ``log_prior_Z_finite_from_sums`` at column
    sum m = 0..n_rows, built once per key, read-only."""
    m = np.arange(n_rows + 1, dtype=np.float64)
    ak = alpha / k
    table = math.log(ak) + gammaln(m + ak) + gammaln(n_rows - m + 1.0) - gammaln(n_rows + 1.0 + ak)
    table.flags.writeable = False
    return table


def log_prior_Z_finite_from_sums(column_sums, n_rows: int, k: int, alpha: float) -> float:
    """Finite-model column-exchangeable prior evaluated from column sums.

    Each of the k columns contributes

        (alpha/k) Gamma(m + alpha/k) Gamma(n - m + 1) / Gamma(n + 1 + alpha/k)

    where m is the column sum (the per-column Bernoulli rate has been
    integrated out against Beta(alpha/k, 1)); the terms are gathered from
    a table over m = 0..n and summed in column order.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    if k == 0:
        return 0.0
    m = np.asarray(column_sums)
    if m.shape != (k,):
        raise ValueError(f"expected {k} column sums, got shape {m.shape}")
    return float(_finite_column_log_priors(n_rows, k, alpha).take(m).sum())


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
    as a sampler that holds counts = Z @ Y computes it from them.  Entries
    outside {0, 1} raise ValueError.
    """
    Y = as_binary_matrix(Y, "Y")  # the priors over Z check Z
    ll = log_likelihood(X, Z, Y, params) if log_lik is None else log_lik
    lp_y = log_prior_Y(Y, params.p)
    if prior == "ibp":
        lp_z = ibp.log_prior_Z_ibp(Z, params.alpha)
    elif prior == "finite":
        lp_z = log_prior_Z_finite(Z, np.asarray(Z).shape[1], params.alpha)
    else:
        raise ValueError(f"unknown prior {prior!r}")
    return ll + lp_y + lp_z


@dataclass
class SamplerState:
    """Mutable sampler state: the pair (Z, Y), parameters, and caches.

    ``column_sums`` holds Z's column sums and ``counts`` holds Z @ Y;
    both are maintained by the samplers and must never be mutated
    elsewhere.  Inside a sweep a flat index over X and the counts stands
    in for ``counts``, which the sweep writes back when it ends.
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
