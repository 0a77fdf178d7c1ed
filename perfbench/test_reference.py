"""Self-tests of the benchmark's correctness checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from hiddencauses.model import ModelParams, SamplerState, log_joint  # noqa: E402

PARAMS = ModelParams(epsilon=0.02, lam=0.85, p=0.15, alpha=2.5)


def random_state(rng, n, t, k, linked=True):
    Z = (rng.random((n, k)) < 0.4).astype(np.int8)
    if linked:
        for col in np.flatnonzero(Z.sum(axis=0) == 0):
            Z[rng.integers(n), col] = 1
    if k > 1:
        Z[:, 1] = Z[:, 0]  # a repeated pattern, so the K_h! term is not zero
    Y = (rng.random((k, t)) < 0.3).astype(np.int8)
    X = (rng.random((n, t)) < 0.3).astype(np.int8)
    return X, SamplerState(Z=Z, Y=Y, params=PARAMS)


@pytest.mark.parametrize("prior", ["ibp", "finite"])
@pytest.mark.parametrize("n", [1, 6, 31, 63])
def test_independent_log_joint_matches_package(prior, n):
    rng = np.random.default_rng(n)
    for k in (0, 1, 3, 7):
        if prior == "finite" and k == 0:
            continue
        X, state = random_state(rng, n, 40, k)
        ours = reference.log_joint(X, state.Z, state.Y, PARAMS, prior)
        theirs = log_joint(X, state.Z, state.Y, PARAMS, prior=prior)
        assert math.isclose(ours, theirs, rel_tol=reference.REL_TOL, abs_tol=1e-9)
        assert reference.check_state(X, state, prior, theirs) == []


def test_counts_cache_off_by_one_fails():
    X, state = random_state(np.random.default_rng(1), 8, 30, 3)
    lj = log_joint(X, state.Z, state.Y, PARAMS)
    state.counts[2, 5] += 1
    assert any("counts" in p for p in reference.check_state(X, state, "ibp", lj))


def test_column_sums_off_by_one_fails():
    X, state = random_state(np.random.default_rng(2), 8, 30, 3)
    lj = log_joint(X, state.Z, state.Y, PARAMS)
    state.column_sums[0] -= 1
    assert any("column sums" in p for p in reference.check_state(X, state, "ibp", lj))


def test_wrong_prior_term_fails():
    # Dropping log K_h! for the repeated pattern is the error a pattern
    # histogram makes when it merges or splits identical columns.
    X, state = random_state(np.random.default_rng(3), 8, 30, 3)
    lj = log_joint(X, state.Z, state.Y, PARAMS)
    assert reference.check_state(X, state, "ibp", lj + math.log(2)) != []
    finite = log_joint(X, state.Z, state.Y, PARAMS, prior="finite")
    assert reference.check_state(X, state, "ibp", finite) != []


def test_structure_error_counts_shared_causes():
    Z = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8)
    assert reference.structure_error(Z @ Z.T, Z) == 0.0
    assert reference.structure_error(np.zeros((3, 3)), Z) == 2.0
