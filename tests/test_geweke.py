"""Geweke's "getting it right" test (JASA 2004) of both full transition
kernels, hyperparameter moves included.

The marginal-conditional simulator draws (theta, Z, Y) independently from
the prior the samplers assume: alpha ~ Gamma(1, 1), p ~ Beta(1, 1) and
lam, epsilon ~ U(0, 1); Z ~ IBP(alpha) for the unbounded model, and for
the finite model K ~ UniformK(K_MAX) and Z from the finite beta-Bernoulli
prior at a fixed alpha.  The successive-conditional simulator starts from
one such draw and alternates X ~ P(X | Z, Y, theta) with one
``runner.step(state, X, rng, infer_hypers=True)``.  If the step leaves the
posterior invariant, the chain's states are draws from the same prior, so
every statistic has the same mean under both simulators.  Each statistic
is compared by a z-score: iid standard error on the marginal side, batch
means on the chain.

N and T are tiny so that the chain mixes in a few steps.  The rate steps
use a wider random walk than the CLI's default, which is as valid a
kernel and mixes faster on data this small.
"""

import numpy as np
import pytest

from hiddencauses import FiniteState, ModelParams, SamplerState, UniformK, sample_ibp
from hiddencauses.runner import step

N_ROWS, N_TRIALS = 3, 3
K_MAX = 4  # the finite model's prior over K is uniform on 1..K_MAX
FINITE_ALPHA = 2.0  # the finite sampler does not update alpha
MH_STEP = 0.5
MARGINAL_DRAWS = 10_000
CHAIN_STEPS = {"gibbs": 14_400, "rjmcmc": 12_000}
N_BATCHES = 24
Z_BOUND = 4.0
SEEDS = {"gibbs": 2004, "rjmcmc": 2005}
STAT_NAMES = ("kplus", "mean_in_degree", "p", "lam", "epsilon")


def _prior_state(sampler: str, rng: np.random.Generator) -> SamplerState:
    lam, epsilon, p = rng.uniform(size=3)
    if sampler == "gibbs":
        alpha = float(rng.gamma(1.0))
        Z = sample_ibp(N_ROWS, alpha, rng)
    else:
        alpha = FINITE_ALPHA
        k = int(rng.integers(1, K_MAX + 1))
        theta = rng.beta(alpha / k, 1.0, size=k)
        Z = (rng.random((N_ROWS, k)) < theta).astype(np.int8)
    Y = (rng.random((Z.shape[1], N_TRIALS)) < p).astype(np.int8)
    params = ModelParams(epsilon=float(epsilon), lam=float(lam), p=float(p), alpha=alpha)
    if sampler == "gibbs":
        return SamplerState.from_matrices(Z, Y, params)
    return FiniteState.from_matrices(Z, Y, params, k_prior=UniformK(K_MAX))


def _draw_x(state: SamplerState, rng: np.random.Generator) -> np.ndarray:
    """X ~ P(X | Z, Y, theta), from Z @ Y itself: a stale counts cache
    would then show as a mismatch instead of feeding its own data."""
    params = state.params
    counts = state.Z.astype(np.int64) @ state.Y.astype(np.int64)
    on_prob = 1.0 - (1.0 - params.epsilon) * (1.0 - params.lam) ** counts
    return (rng.random(counts.shape) < on_prob).astype(np.int8)


def _statistics(sampler: str, state: SamplerState) -> list[float]:
    params = state.params
    stats = [state.kplus, state.Z.sum() / state.n_rows, params.p, params.lam, params.epsilon]
    # alpha moves only in the unbounded model, K only in the finite one
    return stats + [params.alpha if sampler == "gibbs" else state.k]


def geweke_z_scores(sampler: str, seed: int) -> dict[str, float]:
    """Marginal-conditional against successive-conditional means, one
    z-score per statistic."""
    marginal_rng, chain_rng = (np.random.default_rng(s)
                               for s in np.random.SeedSequence(seed).spawn(2))
    marginal = np.array([_statistics(sampler, _prior_state(sampler, marginal_rng))
                         for _ in range(MARGINAL_DRAWS)])
    state = _prior_state(sampler, chain_rng)
    chain = []
    for _ in range(CHAIN_STEPS[sampler]):
        X = _draw_x(state, chain_rng)
        step(state, X, chain_rng, infer_hypers=True, mh_step=MH_STEP)
        chain.append(_statistics(sampler, state))
    batches = np.array(chain).reshape(N_BATCHES, -1, marginal.shape[1]).mean(axis=1)
    se2 = (marginal.var(axis=0, ddof=1) / MARGINAL_DRAWS
           + batches.var(axis=0, ddof=1) / N_BATCHES)
    z = (batches.mean(axis=0) - marginal.mean(axis=0)) / np.sqrt(se2)
    names = STAT_NAMES + ("alpha" if sampler == "gibbs" else "k",)
    return dict(zip(names, z.tolist()))


@pytest.mark.parametrize("sampler", ["gibbs", "rjmcmc"])
def test_chain_keeps_the_prior(sampler):
    """A kernel that leaves the posterior invariant, run in alternation
    with X drawn from the likelihood, keeps the joint prior's marginals."""
    z = geweke_z_scores(sampler, SEEDS[sampler])
    far = {name: round(v, 2) for name, v in z.items() if not abs(v) < Z_BOUND}
    assert not far, f"statistics beyond |z| < {Z_BOUND}: {far} (all: {z})"
