"""Hidden-cause discovery for binary data.

Infers a bipartite cause-to-observation graph Z and per-trial cause
activations Y from a binary observation matrix X under a noisy-OR
likelihood, using either a collapsed Gibbs sampler with an unbounded
number of causes or a reversible-jump sampler over finite dimensions.

The names below are the documented API; everything else is imported
from its submodule.
"""

from .dataio import file_digest, read_trace, write_dataset_bundle
from .gibbs import gibbs_sweep, marginal_on_prob
from .harness import exact_kplus_mixture, exact_posterior_oracle, generate_dataset
from .hypers import mh_step_rate, sample_alpha, sample_p
from .ibp import harmonic_number, log_prior_Z_ibp, sample_ibp
from .model import (
    DegenerateModelError,
    ModelParams,
    SamplerState,
    log_joint,
    log_likelihood,
    log_prior_Z_finite,
)
from .rjmcmc import FiniteState, UniformK, finite_gibbs_sweep, rjmcmc_sweep
from .runner import run_chain

__version__ = "0.1.0"

__all__ = [
    "DegenerateModelError",
    "FiniteState",
    "ModelParams",
    "SamplerState",
    "UniformK",
    "exact_kplus_mixture",
    "exact_posterior_oracle",
    "file_digest",
    "finite_gibbs_sweep",
    "generate_dataset",
    "gibbs_sweep",
    "harmonic_number",
    "log_joint",
    "log_likelihood",
    "log_prior_Z_finite",
    "log_prior_Z_ibp",
    "marginal_on_prob",
    "mh_step_rate",
    "read_trace",
    "rjmcmc_sweep",
    "run_chain",
    "sample_alpha",
    "sample_ibp",
    "sample_p",
    "write_dataset_bundle",
    "__version__",
]
