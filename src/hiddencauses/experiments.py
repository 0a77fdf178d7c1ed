"""Batch experiment protocols over synthetic data.

Two studies, each run over freshly sampled datasets per condition:

dimension recovery   vary the true number of causes (graphs drawn from
                     the unbounded prior conditioned on K+), fit with
                     both samplers and both initializations, and compare
                     the posterior mean dimension to the truth.

structure recovery   fix one of the canonical graphs, fit, and track
                     in-degree and pairwise structure errors of the
                     running posterior mean of Z Z^T at checkpoints.

Both run one pipeline: specs -> one worker -> one table writer.  The run
record types supply what differs: the dataset, the score and the table rows.

Datasets are derived only from (master seed, condition, dataset index),
never from sampler or init, so every sampler/init pair sees identical
data within a condition.
"""

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .harness import (
    Dataset,
    canonical_structure,
    generate_dataset,
    in_degree_error,
    rejection_sample_Z,
    structure_error,
)
from .model import ModelParams
from .runner import INITS, SAMPLERS, run_chain

DEFAULT_PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)
DEFAULT_CHECKPOINTS = (1, 2, 5, 10, 25, 50, 100, 250, 500)

_DATASET_TAG = 0xD5
_CHAIN_TAG = 0xC4


def _dataset_rng(master_seed: int, condition: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, condition, index, _DATASET_TAG))
    )


def _chain_rng(master_seed: int, condition: int, index: int, sampler: str, init: str):
    """The chain's generator; sampler and init enter as their places in
    ``runner.SAMPLERS`` and ``runner.INITS``."""
    return np.random.default_rng(np.random.SeedSequence(
        (master_seed, condition, index, _CHAIN_TAG, SAMPLERS.index(sampler), INITS.index(init))
    ))


@dataclass(frozen=True)
class _Study:
    """Settings shared by every run of one study."""

    seed: int
    iterations: int
    params: ModelParams
    n_trials: int
    n_rows: int = 0  # dimension recovery only


class _Run:
    """Shared by the run records, which supply the seed code `condition`,
    the chain's `checkpoints`, `dataset`, `score`, `HEADER` and `rows`."""

    @classmethod
    def write_table(cls, path, runs) -> None:
        """Write HEADER, then the rows of each group of runs (named by the
        first three columns) in sorted order, over its runs that succeeded."""
        groups: dict[tuple, list] = {}
        for run in runs:
            group = groups.setdefault(tuple(getattr(run, c) for c in cls.HEADER[:3]), [])
            if not run.error:
                group.append(run)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cls.HEADER)
            for group in sorted(groups):
                writer.writerows(cls.rows(group, groups[group]))


def _mean_sd(values) -> list[str]:
    """Mean and sample standard deviation (ddof 1; 0 for a single value;
    nan for none) as table cells."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return ["nan", "nan"]
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return [f"{float(arr.mean()):.4f}", f"{sd:.4f}"]


# ---------------------------------------------------------------------------
# dimension recovery
# ---------------------------------------------------------------------------


@dataclass
class DimensionRun(_Run):
    k_true: int
    dataset_index: int
    sampler: str
    init: str
    mean_dimension: float = float("nan")  # E[K]; gibbs compacts, so E[K] = E[K+]
    mean_kplus: float = float("nan")
    error: str | None = None

    HEADER: ClassVar = ["k_true", "sampler", "init", "runs",
                        "mean_dimension", "sd_dimension", "mean_kplus", "sd_kplus"]
    checkpoints: ClassVar = ()

    @property
    def condition(self) -> int:
        return self.k_true

    def dataset(self, study: _Study) -> Dataset:
        return make_dimension_dataset(
            study.seed, self.k_true, self.dataset_index, study.n_rows, study.n_trials,
            study.params,
        )

    def score(self, result, data: Dataset) -> None:
        summary = result.summary
        self.mean_dimension = summary.mean_k
        self.mean_kplus = summary.mean_kplus

    @staticmethod
    def rows(group: tuple, ok: list) -> list[list]:
        """One row per group; a group whose runs all failed reads runs = 0, nan."""
        return [[*group, len(ok), *_mean_sd(r.mean_dimension for r in ok),
                 *_mean_sd(r.mean_kplus for r in ok)]]


def make_dimension_dataset(
    master_seed: int,
    k_true: int,
    index: int,
    n_rows: int,
    n_trials: int,
    params: ModelParams,
) -> Dataset:
    rng = _dataset_rng(master_seed, k_true, index)
    Z = rejection_sample_Z(n_rows, k_true, params.alpha, rng)
    return generate_dataset(Z, n_trials, params, rng)


def dimension_recovery_experiment(
    *,
    master_seed: int = 0,
    k_values=(1, 2, 3, 4),
    samplers=("gibbs", "rjmcmc"),
    inits=("empty", "random10"),
    datasets_per_condition: int = 10,
    n_rows: int = 6,
    n_trials: int = 500,
    iterations: int = 500,
    params: ModelParams = DEFAULT_PARAMS,
    jobs: int = 1,
) -> list[DimensionRun]:
    study = _Study(master_seed, iterations, params, n_trials, n_rows)
    specs = [(DimensionRun(k_true, index, sampler, init), study)
             for k_true in k_values for index in range(datasets_per_condition)
             for sampler in samplers for init in inits]
    return _run_specs(specs, jobs)


# ---------------------------------------------------------------------------
# structure recovery
# ---------------------------------------------------------------------------


_STRUCTURE_CONDITION = {"degree1": 101, "disconnected": 102, "undercomplete": 103, "overcomplete": 104}


@dataclass
class StructureRun(_Run):
    structure: str
    dataset_index: int
    sampler: str
    init: str
    checkpoints: list[int]
    in_degree_errors: list[float] = field(default_factory=list)
    structure_errors: list[float] = field(default_factory=list)
    error: str | None = None

    HEADER: ClassVar = ["structure", "sampler", "init", "iteration", "runs",
                        "mean_in_degree_error", "sd_in_degree_error",
                        "mean_structure_error", "sd_structure_error"]

    @property
    def condition(self) -> int:
        return _STRUCTURE_CONDITION[self.structure]

    def dataset(self, study: _Study) -> Dataset:
        rng = _dataset_rng(study.seed, self.condition, self.dataset_index)
        return generate_dataset(canonical_structure(self.structure), study.n_trials,
                                study.params, rng)

    def score(self, result, data: Dataset) -> None:
        snaps = [result.snapshots[c] for c in self.checkpoints]
        Z_true = data.truth.Z
        self.in_degree_errors, self.structure_errors = (
            [in_degree_error(s, Z_true) for s in snaps],
            [structure_error(s, Z_true) for s in snaps],
        )

    @staticmethod
    def rows(group: tuple, ok: list) -> list[list]:
        """One row per checkpoint; a group whose runs all failed has none."""
        if not ok:
            return []
        return [
            [*group, checkpoint, len(ok), *_mean_sd(r.in_degree_errors[ci] for r in ok),
             *_mean_sd(r.structure_errors[ci] for r in ok)]
            for ci, checkpoint in enumerate(ok[0].checkpoints)
        ]


def structure_recovery_experiment(
    *,
    master_seed: int = 0,
    structures=("degree1", "disconnected", "undercomplete", "overcomplete"),
    samplers=("gibbs", "rjmcmc"),
    inits=("empty",),
    datasets_per_condition: int = 10,
    n_trials: int = 150,
    iterations: int = 500,
    checkpoints=DEFAULT_CHECKPOINTS,
    params: ModelParams = DEFAULT_PARAMS,
    jobs: int = 1,
) -> list[StructureRun]:
    late = [c for c in checkpoints if c > iterations]
    if late:
        raise ValueError(f"checkpoints {late} lie beyond {iterations} iterations")
    study = _Study(master_seed, iterations, params, n_trials)
    specs = [(StructureRun(structure, index, sampler, init, list(checkpoints)), study)
             for structure in structures for index in range(datasets_per_condition)
             for sampler in samplers for init in inits]
    return _run_specs(specs, jobs)


# ---------------------------------------------------------------------------
# shared pipeline
# ---------------------------------------------------------------------------


def _run_specs(specs: list[tuple], jobs: int) -> list:
    """Run each (run record, study) spec, in order; results keep that order."""
    workers = worker_count(jobs, len(specs))
    if workers == 1:
        return [_run_one(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, specs))


def worker_count(jobs: int, n_specs: int) -> int:
    """Processes a study uses: no more than asked for, than it has runs, or
    than the machine has cores, and at least one."""
    return max(1, min(jobs, n_specs, os.cpu_count() or 1))


def _run_one(spec: tuple) -> _Run:
    """Fit one chain and score it; any error is recorded on the run, so the
    rest of the study goes on."""
    run, study = spec
    try:
        data = run.dataset(study)
        rng = _chain_rng(study.seed, run.condition, run.dataset_index, run.sampler, run.init)
        result = run_chain(
            data.X,
            sampler=run.sampler,
            iterations=study.iterations,
            params=study.params,
            rng=rng,
            init=run.init,
            snapshot_iterations=run.checkpoints,
        )
        run.score(result, data)
    except Exception as exc:  # reported per run, the study continues
        run.error = f"{type(exc).__name__}: {exc}"
    return run
