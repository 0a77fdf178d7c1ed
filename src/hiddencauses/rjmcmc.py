"""Reversible-jump sampler over (K, Z, Y) with a finite prior over K.

The model keeps an explicit dimension K >= 1 with the finite beta-
Bernoulli prior over Z's columns and a prior P(K) over the dimension.
One sweep visits rows in ascending order; each row gets one birth/death
proposal on a uniformly chosen column, a Gibbs pass over its Z entries,
and a full resample of Y.  The Gibbs pass draws the row at once with the
unbounded sampler's ``gibbs.draw_z_row``: one block of uniforms, one scan
of the active layout built after the move, and ``finite_conditional_z``
only where an entry flips or meets zero mass.

Birth appends an all-zero column of Z plus a fresh Bernoulli(p) row of Y
and is accepted with probability

    min[1, K P(Z'|K+1) P(K+1) / (K+ P(Z|K) P(K))],

death of an unlinked column k mirrors it with

    min[1, K+ P(Z''|K-1) P(K-1) / ((K-1) P(Z|K) P(K))],

where K+ counts linked columns.  These ratios follow from detailed
balance on column multisets: the prior over Z is column-exchangeable and
the likelihood depends on (Z, Y) only through Z Y, so the proposal
multiplicity of duplicate (column, activation-row) pairs cancels against
the ordering count of the multiset, leaving no duplicate-row factor.

A classical variant instead scales the birth ratio by delta / (K+1) and
the death ratio by K / delta, with delta counting rows of Y identical to
the proposed (or deleted) activation row, that row included.  The two
variants have reciprocal log-ratios either way, but only the default
holds the joint posterior invariant (the variant's chain visibly tilts
toward small K on enumerable instances).  A state built with
duplicate_row_factor=True takes the variant.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy

from .gibbs import active_layout, draw_z_entry, draw_z_row, prior_log_odds, resample_all_y
from .model import SamplerState, flat_index, log_prior_Z_finite_from_sums


# ---------------------------------------------------------------------------
# priors over the dimension K
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedPoissonK:
    """K - 1 ~ Poisson(mean), supported on K >= 1."""

    mean: float

    def log_pmf(self, k: int) -> float:
        if k < 1:
            return -math.inf
        j = k - 1
        return float(xlogy(j, self.mean)) - self.mean - float(gammaln(j + 1.0))


@dataclass(frozen=True)
class GeometricK:
    """P(K = k) = q (1-q)^(k-1), supported on K >= 1."""

    q: float

    def log_pmf(self, k: int) -> float:
        if k < 1:
            return -math.inf
        return math.log(self.q) + (k - 1) * math.log1p(-self.q)


@dataclass(frozen=True)
class UniformK:
    """Uniform over 1..k_max; birth proposals beyond the cap get zero mass."""

    k_max: int

    def log_pmf(self, k: int) -> float:
        if 1 <= k <= self.k_max:
            return -math.log(self.k_max)
        return -math.inf


def make_k_prior(name: str, *, mean: float = 1.0, q: float = 0.5, k_max: int = 50):
    if name == "poisson":
        return ShiftedPoissonK(mean=mean)
    if name == "geometric":
        return GeometricK(q=q)
    if name == "uniform":
        return UniformK(k_max=k_max)
    raise ValueError(f"unknown K prior {name!r}")


# ---------------------------------------------------------------------------
# finite-dimensional state
# ---------------------------------------------------------------------------


@dataclass
class FiniteState(SamplerState):
    """Sampler state with an explicit dimension K = Z.shape[1] >= 1, a
    prior over K and the sampler's variants: ``predictive`` (see
    ``finite_theta_bar``) and ``duplicate_row_factor`` (see the module
    docstring).  Zero columns of Z are kept, not compacted."""

    k_prior: object = field(default_factory=lambda: GeometricK(q=0.5))
    predictive: bool = True
    duplicate_row_factor: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.Z.shape[1] < 1:
            raise ValueError("finite state needs K >= 1")


def _matching_rows(Y: np.ndarray, row: np.ndarray) -> int:
    return int((Y == row[None, :]).all(axis=1).sum())


def _move_log_ratio(state: FiniteState, sums_new: np.ndarray, log_proposal_factor: float) -> float:
    """log [P(Z'|K') P(K') / (P(Z|K) P(K))] plus the move's K/K+ proposal
    factor, where Z' has column sums sums_new and K' = len(sums_new)."""
    n, alpha, k, k_new = state.n_rows, state.params.alpha, state.k, sums_new.size
    return (
        log_proposal_factor
        + log_prior_Z_finite_from_sums(sums_new, n, k_new, alpha)
        + state.k_prior.log_pmf(k_new)
        - log_prior_Z_finite_from_sums(state.column_sums, n, k, alpha)
        - state.k_prior.log_pmf(k)
    )


def _accept(log_ratio: float, rng: np.random.Generator) -> tuple[float, bool]:
    prob = 1.0 if log_ratio >= 0 else math.exp(log_ratio)
    return prob, bool(rng.random() < prob)


# ---------------------------------------------------------------------------
# dimension moves
# ---------------------------------------------------------------------------


def birth_acceptance(
    state: FiniteState, proposed_y_row, rng: np.random.Generator
) -> tuple[float, bool]:
    """Propose growing K by one: an all-zero Z column plus the given Y row.

    Applies the move on acceptance and returns (acceptance prob, accepted).
    The state's duplicate_row_factor multiplies the ratio by delta / (K+1),
    delta the number of identical activation rows (see module docstring).
    """
    proposed = np.asarray(proposed_y_row, dtype=np.int8)
    if proposed.shape != (state.n_trials,):
        raise ValueError("proposed activation row has the wrong length")
    k = state.k
    kplus = state.kplus
    if kplus == 0:
        raise ValueError("birth requires the chosen column to be linked")
    sums_new = np.concatenate([state.column_sums, [0]])
    log_ratio = _move_log_ratio(state, sums_new, math.log(k) - math.log(kplus))
    if state.duplicate_row_factor:
        delta = _matching_rows(state.Y, proposed) + 1  # the new row matches itself
        log_ratio += math.log(delta) - math.log(k + 1)
    prob, accepted = _accept(log_ratio, rng)
    if accepted:
        n = state.n_rows
        state.Z = np.concatenate([state.Z, np.zeros((n, 1), dtype=np.int8)], axis=1)
        state.column_sums = sums_new
        state.Y = np.concatenate([state.Y, proposed[None, :]], axis=0)
        # counts unchanged: the new column is unlinked
    return prob, accepted


def death_acceptance(state: FiniteState, k: int, rng: np.random.Generator) -> tuple[float, bool]:
    """Propose deleting unlinked column k (and its activation row).

    Auto-rejects at K = 1 and when no linked columns remain.  Applies the
    move on acceptance and returns (acceptance prob, accepted).  The state's
    duplicate_row_factor multiplies the ratio by K / delta with delta the
    number of identical activation rows (see module docstring).
    """
    if state.column_sums[k] != 0:
        raise ValueError("death requires an unlinked column")
    kk = state.k
    if kk == 1:
        return 0.0, False
    kplus = state.kplus
    if kplus == 0:
        return 0.0, False
    sums_new = np.concatenate([state.column_sums[:k], state.column_sums[k + 1:]])
    log_ratio = _move_log_ratio(state, sums_new, math.log(kplus) - math.log(kk - 1))
    if state.duplicate_row_factor:
        delta = _matching_rows(state.Y, state.Y[k])  # includes row k itself
        log_ratio += math.log(kk) - math.log(delta)
    prob, accepted = _accept(log_ratio, rng)
    if accepted:
        state.Z = np.concatenate([state.Z[:, :k], state.Z[:, k + 1:]], axis=1)
        state.Y = np.concatenate([state.Y[:k], state.Y[k + 1:]])
        state.column_sums = sums_new
        # counts unchanged: the deleted column was unlinked
    return prob, accepted


# ---------------------------------------------------------------------------
# within-dimension Gibbs
# ---------------------------------------------------------------------------


def finite_theta_bar(m_minus, n_rows: int, k: int, alpha: float, predictive: bool = True):
    """Prior weight on z = 1 given the rest of the column, elementwise.

    The integrated beta-Bernoulli predictive is (m_minus + alpha/K) over
    (N + alpha/K).  predictive=False divides by N instead; that variant
    can exceed 1 when alpha/K >= 1 and is clamped to [0, 1].
    """
    ak = alpha / k
    if predictive:
        return (m_minus + ak) / (n_rows + ak)
    return np.minimum(1.0, (m_minus + ak) / n_rows)


# ``_z_pass``'s entry draw at any m_minus: its logit holds the finite prior, so it is
# ``draw_z_entry``, under a name perfbench/tracing.py counts apart from gibbs's
finite_conditional_z = draw_z_entry


def _z_pass(state: FiniteState, i: int, X, layout: tuple, rng: np.random.Generator) -> None:
    """Draw every z entry of row i; layout is ``gibbs.active_layout(state.Y)``."""
    prior = prior_log_odds(finite_theta_bar, state.n_rows, state.k, state.params.alpha,
                           state.predictive).take(state.column_sums - state.Z[i])
    draw_z_row(state, i, np.arange(state.k), prior, flat_index(X[i], state.counts[i], state.k),
               layout, rng, finite_conditional_z)


def finite_gibbs_sweep(state: FiniteState, X, rng: np.random.Generator) -> FiniteState:
    """One fixed-dimension sweep: every z entry, then every activation row.
    Y is fixed until then, so the active layout is built once."""
    layout = active_layout(state.Y)
    for i in range(state.n_rows):
        _z_pass(state, i, X, layout, rng)
    resample_all_y(state, X, rng)
    return state


def rjmcmc_sweep(state: FiniteState, X, rng: np.random.Generator) -> FiniteState:
    """One full sweep.  Per row: one dimension move on a uniformly chosen
    column (birth if it is linked, death if not), a Gibbs pass over the
    row's Z entries, and a resample of all of Y.  Y changes after every
    row, so each row builds the active layout once, after its move."""
    params = state.params
    for i in range(state.n_rows):
        k_pick = int(rng.integers(state.k))
        if state.column_sums[k_pick] > 0:
            proposed = (rng.random(state.n_trials) < params.p).astype(np.int8)
            birth_acceptance(state, proposed, rng)
        else:
            death_acceptance(state, k_pick, rng)
        _z_pass(state, i, X, active_layout(state.Y), rng)
        resample_all_y(state, X, rng)
    return state
