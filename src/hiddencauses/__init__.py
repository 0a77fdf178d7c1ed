"""Hidden-cause discovery for binary data.

Infers a bipartite cause-to-observation graph Z and per-trial cause
activations Y from a binary observation matrix X under a noisy-OR
likelihood, using either a collapsed Gibbs sampler with an unbounded
number of causes or a reversible-jump sampler over finite dimensions.
"""

from .dataio import (
    TruncatedTraceError,
    file_digest,
    load_observations,
    read_dataset_bundle,
    read_matrix_csv,
    read_trace,
    write_dataset_bundle,
    write_matrix_csv,
    write_trace,
)
from .gibbs import (
    compact_state,
    gibbs_sample_y_entry,
    gibbs_sample_z_entry,
    gibbs_sweep,
    marginal_on_prob,
    sample_new_causes,
)
from .harness import (
    Dataset,
    GroundTruth,
    PosteriorSummary,
    RejectionError,
    SummaryAccumulator,
    canonical_structure,
    exact_kplus_mixture,
    exact_posterior_oracle,
    generate_dataset,
    in_degree_error,
    rejection_sample_Z,
    structure_error,
)
from .hypers import mh_step_rate, sample_alpha, sample_p
from .ibp import harmonic_number, log_prior_Z_ibp, sample_ibp
from .model import (
    DegenerateModelError,
    ModelParams,
    SamplerState,
    as_binary_matrix,
    log_joint,
    log_likelihood,
    log_prior_Y,
    log_prior_Z_finite,
    noisy_or_prob,
)
from .rjmcmc import (
    FiniteState,
    GeometricK,
    ShiftedPoissonK,
    UniformK,
    birth_acceptance,
    death_acceptance,
    finite_conditional_z,
    finite_gibbs_sweep,
    make_k_prior,
    rjmcmc_sweep,
)
from .runner import RunResult, TraceRecord, default_k_prior, initial_state, run_chain

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DegenerateModelError",
    "FiniteState",
    "GeometricK",
    "GroundTruth",
    "ModelParams",
    "PosteriorSummary",
    "RejectionError",
    "RunResult",
    "SamplerState",
    "ShiftedPoissonK",
    "SummaryAccumulator",
    "TraceRecord",
    "TruncatedTraceError",
    "UniformK",
    "as_binary_matrix",
    "birth_acceptance",
    "canonical_structure",
    "compact_state",
    "death_acceptance",
    "default_k_prior",
    "exact_kplus_mixture",
    "exact_posterior_oracle",
    "file_digest",
    "finite_conditional_z",
    "finite_gibbs_sweep",
    "generate_dataset",
    "gibbs_sample_y_entry",
    "gibbs_sample_z_entry",
    "gibbs_sweep",
    "harmonic_number",
    "in_degree_error",
    "initial_state",
    "load_observations",
    "log_joint",
    "log_likelihood",
    "log_prior_Y",
    "log_prior_Z_finite",
    "log_prior_Z_ibp",
    "make_k_prior",
    "marginal_on_prob",
    "mh_step_rate",
    "noisy_or_prob",
    "read_dataset_bundle",
    "read_matrix_csv",
    "read_trace",
    "rejection_sample_Z",
    "rjmcmc_sweep",
    "run_chain",
    "sample_alpha",
    "sample_ibp",
    "sample_new_causes",
    "sample_p",
    "structure_error",
    "write_dataset_bundle",
    "write_matrix_csv",
    "write_trace",
    "__version__",
]
