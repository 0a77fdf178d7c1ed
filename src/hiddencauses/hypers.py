"""Hyperparameter resampling: conjugate draws for p and alpha, symmetric
random-walk Metropolis for the rate parameters lam and epsilon.

With Beta(1, 1) priors, p given Y is Beta(1 + S, 1 + KT - S) where S
counts active entries, since the activation prior is a product of KT
Bernoulli(p) terms.

With a Gamma(1, 1) prior, alpha given an unbounded-cause Z depends only
on the prior factor alpha^K+ e^(-alpha H_N), so the posterior is
Gamma(1 + K+, rate 1 + H_N).  This conjugacy is specific to that prior;
the finite-dimension sampler does not update alpha.

lam and epsilon have no conjugate form: each gets a uniform proposal on
[cur - step, cur + step], rejected outright outside (0, 1), and accepted
with the likelihood ratio (the flat prior cancels).  The likelihood
depends on (Z, Y) only through ``state.counts``, which neither step
changes, so each step hands on the log-likelihood at the parameters it
leaves: one iteration of ``runner.step`` builds the sweeps' flat index
``flat_index(X, counts, K)`` once, evaluates the likelihood at it once at
the current (lam, epsilon) after the sweep and once per in-range
proposal, and the trace reads the carried value, never Z @ Y.
"""

import math

import numpy as np

from .model import SamplerState, check_binary, flat_index, log_likelihood_at
from .ibp import harmonic_number

RATE_NAMES = ("lam", "epsilon")
MH_STEP = 0.05  # default half-width of the rate parameters' uniform proposal


def sample_p(Y, rng: np.random.Generator) -> float:
    """Draw p from its conditional Beta(1 + S, 1 + KT - S)."""
    Y = np.asarray(Y)
    s = int(Y.sum())
    return float(rng.beta(1.0 + s, 1.0 + Y.size - s))


def sample_alpha(kplus: int, n_rows: int, rng: np.random.Generator) -> float:
    """Draw alpha from its conditional Gamma(1 + K+, rate 1 + H_N)."""
    if kplus < 0 or n_rows < 1:
        raise ValueError("need kplus >= 0 and n_rows >= 1")
    rate = 1.0 + harmonic_number(n_rows)
    return float(rng.gamma(shape=1.0 + kplus, scale=1.0 / rate))


def mh_step_rate(
    name: str, state: SamplerState, X, rng: np.random.Generator, step_size: float = MH_STEP,
    ll_cur: float | None = None, index: np.ndarray | None = None,
) -> tuple[float, bool, float]:
    """One Metropolis step on params.lam or params.epsilon.

    Mutates state.params on acceptance.  Returns (current value, accepted,
    ll), where ll is the log-likelihood over ``state.counts`` at the
    parameters the state holds after the step.  ll_cur is that value before
    the step and index is ``flat_index(X, state.counts, state.k)``, each
    computed here when not given.  Proposals outside (0, 1) are rejected
    without a likelihood or an acceptance draw.  X entries outside {0, 1}
    raise ValueError before anything is drawn.
    """
    if name not in RATE_NAMES:
        raise ValueError(f"name must be one of {RATE_NAMES}, got {name!r}")
    check_binary(X)
    params, k = state.params, state.k
    if index is None:
        index = flat_index(X, state.counts, k)
    if ll_cur is None:
        ll_cur = log_likelihood_at(index, k, params.lam, params.epsilon)
    current = getattr(params, name)
    proposal = current + rng.uniform(-step_size, step_size)
    if not 0.0 < proposal < 1.0:
        return current, False, ll_cur
    lam, eps = (proposal, params.epsilon) if name == "lam" else (params.lam, proposal)
    ll_new = log_likelihood_at(index, k, lam, eps)
    if ll_new == -math.inf:
        return current, False, ll_cur
    u = rng.random()
    accept = ll_cur == -math.inf or u == 0.0 or math.log(u) < ll_new - ll_cur
    if accept:
        state.params = params.replace(**{name: proposal})
        return proposal, True, ll_new
    return current, False, ll_cur
