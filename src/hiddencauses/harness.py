"""Synthetic-data generation, recovery metrics, and an exact enumeration
oracle for validating the samplers on tiny instances.

Because Z is identifiable only up to a permutation of its columns, all
recovery metrics compare Z Z^T (co-assignment and in-degree structure)
instead of Z itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import (
    ModelParams,
    as_binary_matrix,
    log_pmf_noisy_or,
    log_prior_Y,
    log_prior_Z_finite_from_sums,
)

# ---------------------------------------------------------------------------
# ground-truth structures and synthetic data
# ---------------------------------------------------------------------------

# Fixed evaluation graphs.  degree1: each observation has exactly one cause.
# disconnected: two identical blocks with no cross edges, so the true
# co-assignment matrix is block-diagonal.  undercomplete / overcomplete:
# frozen draws (Bernoulli(0.35), patched for full row and column coverage)
# with fewer / more causes than observations.
CANONICAL_STRUCTURES: dict[str, np.ndarray] = {
    "degree1": np.eye(6, dtype=np.int8),
    "disconnected": np.array(
        [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ],
        dtype=np.int8,
    ),
    "undercomplete": np.array(
        [
            [0, 0, 0, 1],
            [1, 0, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [1, 1, 0, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.int8,
    ),
    "overcomplete": np.array(
        [
            [1, 0, 1, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 0, 0, 0, 0, 1, 1],
        ],
        dtype=np.int8,
    ),
}


def canonical_structure(name: str) -> np.ndarray:
    """Return a copy of one of the fixed evaluation graphs."""
    try:
        return CANONICAL_STRUCTURES[name].copy()
    except KeyError:
        raise ValueError(
            f"unknown structure {name!r}; choose from {sorted(CANONICAL_STRUCTURES)}"
        ) from None


@dataclass
class GroundTruth:
    Z: np.ndarray
    Y: np.ndarray
    params: ModelParams


@dataclass
class Dataset:
    X: np.ndarray
    truth: GroundTruth | None = None


MAX_TRIES = 100_000  # default rejection budget of rejection_sample_Z


class RejectionError(RuntimeError):
    """Rejection sampling exhausted its budget without an acceptance."""

    def __init__(self, k_target: int, tries: int):
        super().__init__(
            f"no draw with exactly {k_target} causes in {tries} tries; "
            "the target dimension is improbable at these settings"
        )
        self.k_target = k_target
        self.tries = tries


def rejection_sample_Z(
    n_rows: int,
    k_target: int,
    alpha: float,
    rng: np.random.Generator,
    max_tries: int = MAX_TRIES,
) -> np.ndarray:
    """Draw Z from the unbounded-cause prior conditioned on K+ = k_target."""
    # looked up at call time because perfbench/tracing.py patches
    # ibp.sample_ibp; a module-level import would keep the unpatched
    # function, and ibp.sample.calls would read 0
    from .ibp import sample_ibp

    for _ in range(max_tries):
        Z = sample_ibp(n_rows, alpha, rng)
        if Z.shape[1] == k_target:
            return Z
    raise RejectionError(k_target, max_tries)


def generate_dataset(Z_true, n_trials: int, params: ModelParams, rng: np.random.Generator) -> Dataset:
    """Sample activations and observations from the generative model."""
    Z = as_binary_matrix(Z_true, "Z_true")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    k = Z.shape[1]
    Y = (rng.random((k, n_trials)) < params.p).astype(np.int8)
    counts = Z.astype(np.int32) @ Y.astype(np.int32)
    on_prob = 1.0 - (1.0 - params.lam) ** counts * (1.0 - params.epsilon)
    X = (rng.random(counts.shape) < on_prob).astype(np.int8)
    return Dataset(X=X, truth=GroundTruth(Z=Z, Y=Y, params=params))


# ---------------------------------------------------------------------------
# posterior summaries and recovery metrics
# ---------------------------------------------------------------------------


@dataclass
class PosteriorSummary:
    """Monte Carlo posterior means accumulated over sampler iterations."""

    mean_kplus: float
    mean_k: float
    mean_zzt: np.ndarray
    sample_count: int


class SummaryAccumulator:
    """Running sums of K+, K, and Z Z^T over visited states."""

    def __init__(self, n_rows: int):
        self._zzt = np.zeros((n_rows, n_rows), dtype=np.float64)
        self._kplus = 0.0
        self._k = 0.0
        self.count = 0

    def add(self, state) -> None:
        Z = state.Z.astype(np.float64)
        self._zzt += Z @ Z.T
        self._kplus += state.kplus
        self._k += state.k
        self.count += 1

    def summary(self) -> PosteriorSummary:
        if self.count == 0:
            raise ValueError("no states accumulated")
        return PosteriorSummary(
            mean_kplus=self._kplus / self.count,
            mean_k=self._k / self.count,
            mean_zzt=self._zzt / self.count,
            sample_count=self.count,
        )


def _estimate_and_truth(summary, Z_true) -> tuple[np.ndarray, np.ndarray]:
    """The posterior mean of Z Z^T (a PosteriorSummary's, or the matrix
    itself) and the true Z, checked to be over the same observations."""
    est = summary.mean_zzt if isinstance(summary, PosteriorSummary) else summary
    est = np.asarray(est, dtype=np.float64)
    Z = as_binary_matrix(Z_true, "Z_true")
    if est.shape != (Z.shape[0], Z.shape[0]):
        raise ValueError(f"summary is over {est.shape[0]} observations, truth has {Z.shape[0]}")
    return est, Z


def in_degree_error(summary, Z_true) -> float:
    """Sum over observations of |true in-degree - posterior mean in-degree|;
    in-degrees are the diagonal of Z Z^T."""
    est, Z = _estimate_and_truth(summary, Z_true)
    true_diag = np.einsum("ik,ik->i", Z, Z).astype(np.float64)
    return float(np.abs(true_diag - np.diag(est)).sum())


def structure_error(summary, Z_true) -> float:
    """Sum over unordered pairs i < j of |true shared-cause count -
    posterior mean shared-cause count| (off-diagonal of Z Z^T)."""
    est, Z = _estimate_and_truth(summary, Z_true)
    true_zzt = (Z.astype(np.int64) @ Z.T.astype(np.int64)).astype(np.float64)
    iu = np.triu_indices(Z.shape[0], k=1)
    return float(np.abs(true_zzt[iu] - est[iu]).sum())


# ---------------------------------------------------------------------------
# exact enumeration oracle (tiny instances only)
# ---------------------------------------------------------------------------


def encode_state(Z, Y) -> int:
    """Bijective integer code of (Z, Y): Z's bits (row-major, first entry
    most significant) above Y's bits."""
    Z = np.asarray(Z).ravel()
    Y = np.asarray(Y).ravel()
    code = 0
    for bit in Z:
        code = (code << 1) | int(bit)
    for bit in Y:
        code = (code << 1) | int(bit)
    return code


def _enumerate_bits(n_items: int, length: int) -> np.ndarray:
    codes = np.arange(n_items, dtype=np.int64)
    shifts = np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)


@dataclass
class OracleResult:
    """Exact finite-model posterior over (Z, Y) by total enumeration.

    probs[zc, yc] is the posterior mass of the state whose Z bits encode
    to zc and Y bits to yc: ``encode_state(Z, Y)`` is zc above K T bits of yc.
    """

    probs: np.ndarray
    z_marginals: np.ndarray
    kplus_dist: np.ndarray
    log_evidence: float


def exact_posterior_oracle(
    X, k: int, params: ModelParams, max_states: int = 1 << 20
) -> OracleResult:
    """Enumerate every (Z, Y) at fixed dimension k and normalize the joint.

    Exponential in N*K + K*T; refuses instances beyond max_states.
    """
    X = as_binary_matrix(X, "X")
    n, t = X.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    zbits, ybits = n * k, k * t
    if 2 ** (zbits + ybits) > max_states:
        raise ValueError(
            f"state space 2^{zbits + ybits} exceeds the cap of {max_states}"
        )
    n_z, n_y = 2**zbits, 2**ybits
    Zs = _enumerate_bits(n_z, zbits).reshape(n_z, n, k)
    Ys = _enumerate_bits(n_y, ybits).reshape(n_y, k, t)

    col_sums = Zs.sum(axis=1)  # (n_z, k)
    lp_z = np.array(
        [log_prior_Z_finite_from_sums(col_sums[zc], n, k, params.alpha) for zc in range(n_z)]
    )
    lp_y = np.array([log_prior_Y(Ys[yc], params.p) for yc in range(n_y)])

    counts = np.einsum("ank,bkt->abnt", Zs.astype(np.int32), Ys.astype(np.int32))
    ll = log_pmf_noisy_or(X[None, None, :, :], counts, params.lam, params.epsilon).sum(
        axis=(2, 3)
    )
    log_joint = lp_z[:, None] + lp_y[None, :] + ll
    log_evidence = float(logsumexp(log_joint))
    probs = np.exp(log_joint - log_evidence)

    z_marg = np.einsum("ab,ank->nk", probs, Zs.astype(np.float64))
    kplus_per_z = (col_sums > 0).sum(axis=1)
    z_mass = probs.sum(axis=1)
    kplus_dist = np.zeros(k + 1)
    np.add.at(kplus_dist, kplus_per_z, z_mass)
    return OracleResult(
        probs=probs,
        z_marginals=z_marg,
        kplus_dist=kplus_dist,
        log_evidence=log_evidence,
    )


def exact_kplus_mixture(
    X, params: ModelParams, k_prior, k_values, max_states: int = 1 << 20
) -> np.ndarray:
    """Posterior over K+ when K itself carries prior k_prior, obtained by
    mixing fixed-dimension oracles with weights P(K) * evidence(K).

    k_values must cover the support of k_prior (exactly so for a capped
    prior; otherwise the result truncates the mixture).
    """
    k_values = sorted(k_values)
    dist = np.zeros(max(k_values) + 1)
    log_weights = []
    per_k = []
    for k in k_values:
        oracle = exact_posterior_oracle(X, k, params, max_states)
        log_weights.append(k_prior.log_pmf(k) + oracle.log_evidence)
        per_k.append(oracle.kplus_dist)
    log_weights = np.array(log_weights)
    weights = np.exp(log_weights - logsumexp(log_weights))
    for w, kd in zip(weights, per_k):
        dist[: kd.size] += w * kd
    return dist
