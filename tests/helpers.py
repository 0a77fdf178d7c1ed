"""Reference code that tests compare the package against.

``check_consistency`` recomputes a state's caches from Z and Y;
``gibbs_sample_y_entry`` is the per-entry activation update that the
vectorized ``resample_y_row`` must reproduce draw for draw.
"""

import numpy as np

from hiddencauses.gibbs import _two_point_draw
from hiddencauses.model import SamplerState, log_pmf_noisy_or


def check_consistency(state: SamplerState) -> None:
    """Assert the caches match Z and Y exactly."""
    assert state.Z.shape[1] == state.Y.shape[0]
    assert np.isin(state.Z, (0, 1)).all() and np.isin(state.Y, (0, 1)).all()
    np.testing.assert_array_equal(state.column_sums, state.Z.sum(axis=0))
    np.testing.assert_array_equal(
        state.counts, state.Z.astype(np.int32) @ state.Y.astype(np.int32)
    )


def gibbs_sample_y_entry(state: SamplerState, k: int, t: int, X, rng: np.random.Generator) -> int:
    """Resample y[k, t] given everything else.  Only rows linked to cause
    k enter the likelihood ratio; with none, the draw is the prior p."""
    params = state.params
    rows = state.Z[:, k].nonzero()[0]
    old = int(state.Y[k, t])
    if rows.size == 0:
        new = 1 if rng.random() < params.p else 0
        state.Y[k, t] = new
        return new
    base = state.counts[rows, t] - old
    x = X[rows, t]
    with np.errstate(divide="ignore"):
        ll1 = log_pmf_noisy_or(x, base + 1, params.lam, params.epsilon).sum()
        ll0 = log_pmf_noisy_or(x, base, params.lam, params.epsilon).sum()
        logw1 = float(np.log(params.p) + ll1)
        logw0 = float(np.log1p(-params.p) + ll0)
    new = _two_point_draw(logw1, logw0, rng)
    if new != old:
        state.Y[k, t] = new
        state.counts[rows, t] += new - old
    return new
