"""Chain orchestration: initialization, sweep loop, hyperparameter
schedule, trace records, and posterior summaries."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import params_record
from .gibbs import gibbs_sweep
from .harness import PosteriorSummary, SummaryAccumulator
from .hypers import MH_STEP, mh_step_rate, sample_alpha, sample_p
from .ibp import harmonic_number
from .model import (ModelParams, SamplerState, as_binary_matrix, flat_index, log_joint,
                    log_likelihood_at)
from .rjmcmc import FiniteState, ShiftedPoissonK, rjmcmc_sweep

SAMPLERS = ("gibbs", "rjmcmc")
INITS = ("empty", "random10")
RANDOM_INIT_K = 10


@dataclass
class TraceRecord:
    """One sampler iteration: dimension stats, parameters, log-joint.

    Iteration 0 records the initial state.  k equals kplus for the
    unbounded sampler; wall_ms is populated only when timing is on.
    """

    iteration: int
    kplus: int
    k: int
    params: ModelParams
    log_joint: float
    wall_ms: float | None = None

    def to_dict(self) -> dict:
        """The fields in order, params spelled as on disk; wall_ms only when set."""
        rec = {"iteration": self.iteration, "kplus": self.kplus, "k": self.k,
               **params_record(self.params), "log_joint": self.log_joint}
        if self.wall_ms is not None:
            rec["wall_ms"] = self.wall_ms
        return rec


@dataclass
class RunResult:
    trace: list[TraceRecord]
    summary: PosteriorSummary
    snapshots: dict[int, PosteriorSummary]
    state: SamplerState
    mh_acceptance: dict[str, float] = field(default_factory=dict)
    elapsed_ms: float = 0.0


def initial_state(
    X,
    sampler: str,
    init: str,
    params: ModelParams,
    rng: np.random.Generator,
    k_prior=None,
    predictive: bool = True,
    duplicate_row_factor: bool = False,
) -> SamplerState:
    """Build the starting state; the sampler name picks its class.

    empty: no structure. The unbounded sampler starts with zero columns;
    the finite sampler needs K >= 1 and starts with one unlinked column
    and a zero activation row.

    random10: K = K+ = 10 with iid Bernoulli(0.5) entries in Z and Y;
    any all-zero Z column gets a single 1 at a random row so every
    column is linked.

    The finite sampler's prior over K defaults to ``default_k_prior``, and
    a start K outside its support raises ValueError.
    """
    X = np.asarray(X)
    n, t = X.shape
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if init not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    k0 = start_dimension(sampler, init)
    if init == "empty":
        Z = np.zeros((n, k0), dtype=np.int8)
        Y = np.zeros((k0, t), dtype=np.int8)
    else:
        Z = (rng.random((n, k0)) < 0.5).astype(np.int8)
        Y = (rng.random((k0, t)) < 0.5).astype(np.int8)
        for col in np.flatnonzero(Z.sum(axis=0) == 0):
            Z[int(rng.integers(n)), col] = 1
    if sampler == "gibbs":
        return SamplerState(Z=Z, Y=Y, params=params)
    if k_prior is None:
        k_prior = default_k_prior(params.alpha, n)
    if k_prior.log_pmf(k0) == -math.inf:
        raise ValueError(f"the {init} start K = {k0} has zero mass under {k_prior}")
    return FiniteState(Z=Z, Y=Y, params=params, k_prior=k_prior, predictive=predictive,
                       duplicate_row_factor=duplicate_row_factor)


def start_dimension(sampler: str, init: str) -> int:
    """The start state's K: RANDOM_INIT_K under random10; under empty, 0
    for the unbounded sampler and 1 for the finite one, which needs K >= 1."""
    if init == "random10":
        return RANDOM_INIT_K
    return 0 if sampler == "gibbs" else 1


def default_k_prior(alpha: float, n_rows: int) -> ShiftedPoissonK:
    """Shifted Poisson centered at the unbounded model's mean dimension."""
    return ShiftedPoissonK(mean=alpha * harmonic_number(n_rows))


def _likelihood(state: SamplerState, X) -> tuple[np.ndarray, float]:
    """``flat_index(X, state.counts, state.k)``, the index a sweep keeps,
    and the log-likelihood gathered at it under the state's (lam, epsilon)."""
    index = flat_index(X, state.counts, state.k)
    return index, log_likelihood_at(index, state.k, state.params.lam, state.params.epsilon)


def _trace_record(iteration, state, X, log_lik: float, wall_ms=None) -> TraceRecord:
    """The record of the state as it stands; log_lik is its log-likelihood
    (``_likelihood``'s, or the value ``step`` returns)."""
    prior = "finite" if isinstance(state, FiniteState) else "ibp"
    lj = log_joint(X, state.Z, state.Y, state.params, prior=prior, log_lik=log_lik)
    return TraceRecord(iteration=iteration, kplus=state.kplus, k=state.k, params=state.params,
                       log_joint=lj, wall_ms=wall_ms)


def step(
    state: SamplerState, X, rng: np.random.Generator, infer_hypers: bool = False,
    mh_step: float = MH_STEP,
) -> tuple[bool, bool, float]:
    """One iteration: an ``rjmcmc_sweep`` for a finite state, else a
    ``gibbs_sweep``, then inferred hyperparameters in the order lam,
    epsilon, p, alpha (the unbounded model's alpha only).  Returns whether
    the lam and epsilon Metropolis moves were accepted, and the final
    state's log-likelihood: ``_likelihood``'s after the sweep, as the
    epsilon move hands it on; p and alpha do not enter it."""
    finite = isinstance(state, FiniteState)
    (rjmcmc_sweep if finite else gibbs_sweep)(state, X, rng)
    index, ll = _likelihood(state, X)  # neither rate step moves the counts
    if not infer_hypers:
        return False, False, ll
    _, lam_accepted, ll = mh_step_rate("lam", state, X, rng, mh_step, ll, index)
    _, eps_accepted, ll = mh_step_rate("epsilon", state, X, rng, mh_step, ll, index)
    state.params = state.params.replace(p=sample_p(state.Y, rng))
    if not finite:
        state.params = state.params.replace(alpha=sample_alpha(state.kplus, state.n_rows, rng))
    return lam_accepted, eps_accepted, ll


def run_chain(
    X,
    *,
    sampler: str = "gibbs",
    iterations: int = 500,
    params: ModelParams,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    init: str = "empty",
    infer_hypers: bool = False,
    mh_step: float = MH_STEP,
    k_prior=None,
    predictive: bool = True,
    duplicate_row_factor: bool = False,
    burn_in: int = 0,
    snapshot_iterations=(),
    timing: bool = False,
) -> RunResult:
    """Run one chain and accumulate posterior summaries.

    The chain is ``initial_state`` followed by ``iterations`` calls of
    ``step``.  States from iterations > burn_in enter the summary; with
    none eligible, the summary falls back to the final state.
    """
    X = as_binary_matrix(X, "X")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    state = initial_state(X, sampler, init, params, rng, k_prior, predictive,
                          duplicate_row_factor)
    acc = SummaryAccumulator(X.shape[0])
    snapshots: dict[int, PosteriorSummary] = {}
    snapshot_at = set(int(s) for s in snapshot_iterations)
    lam_hits = eps_hits = 0
    start = time.perf_counter()
    trace = [_trace_record(0, state, X, _likelihood(state, X)[1])]
    for it in range(1, iterations + 1):
        tick = time.perf_counter()
        lam_accepted, eps_accepted, ll = step(state, X, rng, infer_hypers, mh_step)
        lam_hits += lam_accepted
        eps_hits += eps_accepted
        if it > burn_in:
            acc.add(state)
        wall = (time.perf_counter() - tick) * 1e3 if timing else None
        trace.append(_trace_record(it, state, X, ll, wall_ms=wall))
        if it in snapshot_at and acc.count:
            snapshots[it] = acc.summary()
    if acc.count == 0:
        acc.add(state)
    elapsed = (time.perf_counter() - start) * 1e3
    rates = ({"lam": lam_hits / iterations, "epsilon": eps_hits / iterations}
             if infer_hypers and iterations else {})
    return RunResult(trace=trace, summary=acc.summary(), snapshots=snapshots, state=state,
                     mh_acceptance=rates, elapsed_ms=elapsed)
