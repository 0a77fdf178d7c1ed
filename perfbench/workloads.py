"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in ``setup``.
``run_round(index)`` then runs one round: a fixed amount of work (fixed
sweep counts, never a fixed duration) on the pool inputs and chain seeds
that belong to that index.  One chain's cost depends on its data and on
the dimensions it wanders through, so a run takes the median over many
rounds.  The timed phase runs through ``timed`` (a plain call, or a
tracer).  A round returns that phase's wall time, each sampler's sweeps
and stage wall time, how many operations it attempted and how many
failed, and the problems its correctness checks found; checks run
outside the timed phase.
"""

import contextlib
import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hiddencauses.cli as hc_cli
import hiddencauses.runner as hc_runner
from hiddencauses import dataio, experiments
from hiddencauses.harness import generate_dataset
from hiddencauses.ibp import sample_ibp
from hiddencauses.model import ModelParams

import reference

TRUE_PARAMS = ModelParams(epsilon=0.01, lam=0.9, p=0.1, alpha=3.0)
SAMPLERS = ("gibbs", "rjmcmc")


@dataclass
class RoundResult:
    run_s: float = 0.0
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(SAMPLERS, 0.0))
    sweeps: dict = field(default_factory=lambda: dict.fromkeys(SAMPLERS, 0))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _seed(*words) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(words))


def _call(fn):
    return fn()


def _wall(timed, phase) -> float:
    """Wall time of the timed phase, run through `timed` (a tracer or a plain call)."""
    tick = perf_counter()
    timed(phase)
    return perf_counter() - tick


def _timed_cli(argv) -> tuple[int, float]:
    """Call the CLI in-process (its progress lines are not the benchmark's)."""
    tick = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = hc_cli.main(argv)
    return code, perf_counter() - tick


class Fig3Study:
    """``replicate fig3`` (dimension recovery, N=6, T=500, true K 1..4, both
    inits), once with --samplers gibbs and once with --samplers rjmcmc.
    Round r replicates study seed r mod STUDIES, so a run's median spans
    several studies' datasets."""

    K_VALUES = (1, 2, 3, 4)
    INITS = ("empty", "random10")
    N, T = 6, 500
    STUDIES = 6
    DATASETS = 2
    ITERATIONS = {"gibbs": 100, "rjmcmc": 50}
    # Gibbs posterior mean dimension minus the true K, per condition, as
    # the median over the run's rounds.  The study keeps every sweep, so a
    # random10 start (K+ = 10) pulls the mean up; single studies with seeds
    # 600-611 gave offsets from -0.5 to +2.2.
    GIBBS_DIM_OFFSET = (-1.0, 3.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dims = {}  # (init, k) -> gibbs mean dimension per round

    def setup(self) -> None:
        self.study_seeds = [
            int(np.random.SeedSequence((self.seed, 0xF163, i)).generate_state(1)[0])
            for i in range(self.STUDIES)
        ]
        # The studies' own datasets, rebuilt from the same seeds, to confirm
        # each condition's graph has the dimension the study claims.
        self.wrong_dimension = [
            (study, k, idx)
            for study in self.study_seeds
            for k in self.K_VALUES
            for idx in range(self.DATASETS)
            if experiments.make_dimension_dataset(
                study, k, idx, self.N, self.T, TRUE_PARAMS).truth.Z.shape[1] != k
        ]

    def _argv(self, sampler: str, study: int, out: Path) -> list[str]:
        return [
            "replicate", "fig3", "--out", str(out),
            "--datasets", str(self.DATASETS), "--iterations", str(self.ITERATIONS[sampler]),
            "--seed", str(study), "--jobs", "1",
            "--n", str(self.N), "--t", str(self.T),
            "--k-range", ",".join(map(str, self.K_VALUES)),
            "--inits", ",".join(self.INITS), "--samplers", sampler,
        ]

    def run_round(self, index: int, timed=_call) -> RoundResult:
        res = RoundResult()
        chains_per_call = len(self.K_VALUES) * self.DATASETS * len(self.INITS)
        study = self.study_seeds[index % self.STUDIES]
        tables = {}

        def phase():
            for sampler in SAMPLERS:
                out = self.workdir / f"fig3-{sampler}"
                code, wall = _timed_cli(self._argv(sampler, study, out))
                res.stage_s[sampler] = wall
                tables[sampler] = (code, out / "fig3_results.csv")

        res.run_s = _wall(timed, phase)
        for sampler, (code, table) in tables.items():
            res.attempted += chains_per_call
            if code != 0 or not table.exists():
                res.failed += chains_per_call
                res.problems.append(f"replicate fig3 --samplers {sampler} exited {code}")
                continue
            with open(table, newline="") as fh:
                rows = list(csv.DictReader(fh))
            done = sum(int(r["runs"]) for r in rows)
            res.failed += chains_per_call - done
            res.sweeps[sampler] += done * self.ITERATIONS[sampler]
            res.problems += self._check(sampler, rows)
        if self.wrong_dimension:
            res.problems.append(f"study datasets with the wrong dimension: {self.wrong_dimension}")
        return res

    def _check(self, sampler: str, rows: list[dict]) -> list[str]:
        problems = []
        expected = {(k, sampler, init) for k in self.K_VALUES for init in self.INITS}
        seen = {(int(r["k_true"]), r["sampler"], r["init"]) for r in rows}
        if seen != expected:
            problems.append(f"fig3 {sampler}: conditions {sorted(seen)} != {sorted(expected)}")
        for r in rows:
            if int(r["runs"]) != self.DATASETS:
                problems.append(f"fig3 {sampler}: row {r} has runs != {self.DATASETS}")
            elif sampler == "gibbs":
                key = (r["init"], int(r["k_true"]))
                self.dims.setdefault(key, []).append(float(r["mean_dimension"]))
        return problems

    def finish(self) -> list[str]:
        problems = []
        lo, hi = self.GIBBS_DIM_OFFSET
        for init in self.INITS:
            dims = [statistics.median(self.dims.get((init, k), [math.nan])) for k in self.K_VALUES]
            if not dims[-1] > dims[0]:
                problems.append(f"fig3 gibbs/{init}: median mean dimension does not rise: {dims}")
            for k, d in zip(self.K_VALUES, dims):
                if not lo <= d - k <= hi:
                    problems.append(f"fig3 gibbs/{init}: median mean dimension {d} at true K {k}")
        return problems


def wide_graph(rng: np.random.Generator, n: int, k: int, degree: int) -> np.ndarray:
    """n x k graph whose k distinct columns each link `degree` random rows."""
    while True:
        Z = np.zeros((n, k), dtype=np.int8)
        for col in range(k):
            Z[rng.choice(n, size=degree, replace=False), col] = 1
        if np.unique(Z.T, axis=0).shape[0] == k:
            return Z


class Wide:
    """``run_chain`` in-process, one gibbs and one rjmcmc chain from empty per
    32x500 dataset (true K = 8), hyperparameters fixed; plus one gibbs fit
    on a fixed 96x300 dataset that is counted, not timed."""

    N, T, K, DEGREE = 32, 500, 8, 6
    POOL = 24  # datasets built at set-up; round r takes the next PER_ROUND
    PER_ROUND = 3
    SWEEPS = {"gibbs": 20, "rjmcmc": 15}
    BURN_IN = 10  # gibbs only
    # Run-level recovery: medians over the run's gibbs chains.  From empty,
    # gibbs settles at the true K or splits a few causes; the bounds were
    # set from benchmark seeds 500-503, not the ones used for steadiness.
    KPLUS_MEDIAN_RANGE = (7.5, 13.0)
    MAX_MEDIAN_STRUCTURE_ERROR = 60.0  # an all-zero estimate scores K * C(DEGREE, 2) = 120
    TALL_N, TALL_T, TALL_SWEEPS = 96, 300, 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.recovery = []  # (mean K+, structure error) per gibbs chain

    def setup(self) -> None:
        self.datasets = []
        for idx in range(self.POOL):
            rng = _seed(self.seed, 0x31DE, idx)
            Z = wide_graph(rng, self.N, self.K, self.DEGREE)
            self.datasets.append(generate_dataset(Z, self.T, TRUE_PARAMS, rng))
        # Fixed inputs, independent of the benchmark seed: this fit fails at
        # the parent commit on every run, so its share of failures is fixed.
        rng = np.random.default_rng(96)
        self.tall = generate_dataset(sample_ibp(self.TALL_N, TRUE_PARAMS.alpha, rng),
                                     self.TALL_T, TRUE_PARAMS, rng)

    def run_round(self, index: int, timed=_call) -> RoundResult:
        res = RoundResult()
        results = []
        picks = [(index * self.PER_ROUND + j) % self.POOL for j in range(self.PER_ROUND)]

        def phase():
            for idx in picks:
                for code, sampler in enumerate(SAMPLERS):
                    sweeps = self.SWEEPS[sampler]
                    start = perf_counter()
                    result = hc_runner.run_chain(
                        self.datasets[idx].X, sampler=sampler, iterations=sweeps,
                        params=TRUE_PARAMS, rng=_seed(self.seed, 0xC4A1, index, idx, code),
                        init="empty", burn_in=self.BURN_IN if sampler == "gibbs" else 0,
                    )
                    res.stage_s[sampler] += perf_counter() - start
                    res.sweeps[sampler] += sweeps
                    results.append((self.datasets[idx], sampler, result, sweeps))

        res.run_s = _wall(timed, phase)
        res.attempted += len(results)
        for data, sampler, result, sweeps in results:
            res.problems += self._check(data, sampler, result, sweeps)
            if sampler == "gibbs":
                self.recovery.append((result.summary.mean_kplus, reference.structure_error(
                    result.summary.mean_zzt, data.truth.Z)))
        res.attempted += 1
        try:
            tall = hc_runner.run_chain(self.tall.X, sampler="gibbs", iterations=self.TALL_SWEEPS,
                                       params=TRUE_PARAMS, seed=0)
        except ValueError:
            res.failed += 1  # LOF overflow at N >= 64 (see README)
        else:
            res.problems += self._check(self.tall, "gibbs", tall, self.TALL_SWEEPS)
        return res

    def _check(self, data, sampler, result, sweeps) -> list[str]:
        prior = "ibp" if sampler == "gibbs" else "finite"
        tag = f"{data.X.shape[0]}x{data.X.shape[1]} {sampler}"
        problems = [f"{tag}: {p}" for p in
                    reference.check_state(data.X, result.state, prior, result.trace[-1].log_joint)]
        if len(result.trace) != sweeps + 1:
            problems.append(f"{tag}: {len(result.trace)} trace records after {sweeps} sweeps")
        return problems

    def finish(self) -> list[str]:
        problems = []
        kplus = statistics.median(k for k, _ in self.recovery)
        err = statistics.median(e for _, e in self.recovery)
        lo, hi = self.KPLUS_MEDIAN_RANGE
        if not lo <= kplus <= hi:
            problems.append(f"wide gibbs: median mean K+ {kplus} outside [{lo}, {hi}]")
        if not err <= self.MAX_MEDIAN_STRUCTURE_ERROR:
            problems.append(f"wide gibbs: median structure error {err} "
                            f"> {self.MAX_MEDIAN_STRUCTURE_ERROR}")
        return problems


def block_graph(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k causes on disjoint blocks of n // k rows, rows in random order."""
    Z = np.zeros((n, k), dtype=np.int8)
    rows = rng.permutation(n)
    size = n // k
    for col in range(k):
        Z[rows[col * size:(col + 1) * size], col] = 1
    return Z


class LongHypers:
    """``fit --infer-hypers`` through the CLI on 6x5000 bundles (true K = 3),
    hyperparameters started away from the truth: per round one gibbs fit
    and RJMCMC_FITS shorter rjmcmc fits, whose cost hangs on how many
    causes each chain keeps linked."""

    N, T, K = 6, 5000, 3
    BUNDLES = 6  # written at set-up; round r fits bundle r mod BUNDLES
    ITERATIONS = {"gibbs": 120, "rjmcmc": 20}
    RJMCMC_FITS = 3
    BURN_IN = 10
    START = {"lambda": 0.6, "epsilon": 0.05, "p": 0.2}
    INIT = "random10"
    # Run-level gibbs recovery (medians over the run's gibbs fits), set
    # from benchmark seeds 500-502, not the ones used for steadiness: a
    # single fit collapses to K+ <= 1 now and then, a median does not.
    LAMBDA_RANGE = (0.75, 1.0)
    EPSILON_MAX = 0.03
    P_RANGE = (0.06, 0.15)
    MAX_STRUCTURE_ERROR = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.recovery = []  # final lambda, epsilon, p, structure error, MH rates per gibbs fit

    def setup(self) -> None:
        self.bundles = []
        for idx in range(self.BUNDLES):
            rng = _seed(self.seed, 0x1046, idx)
            data = generate_dataset(block_graph(rng, self.N, self.K), self.T, TRUE_PARAMS, rng)
            path = self.workdir / f"long-bundle-{idx}"
            dataio.write_dataset_bundle(path, data)
            self.bundles.append((path, data.truth.Z))

    def _argv(self, sampler: str, fit: int, index: int, bundle: Path, out: Path) -> list[str]:
        chain_seed = np.random.SeedSequence(
            (self.seed, 0xF17, index, SAMPLERS.index(sampler), fit))
        return [
            "fit", "--data", str(bundle), "--out", str(out), "--sampler", sampler,
            "--iterations", str(self.ITERATIONS[sampler]), "--burn-in", str(self.BURN_IN),
            "--seed", str(chain_seed.generate_state(1)[0]), "--init", self.INIT,
            "--infer-hypers", "--lambda", str(self.START["lambda"]),
            "--epsilon", str(self.START["epsilon"]), "--p", str(self.START["p"]),
        ]

    def run_round(self, index: int, timed=_call) -> RoundResult:
        res = RoundResult()
        bundle, Z_true = self.bundles[index % self.BUNDLES]
        fits = [("gibbs", 0)] + [("rjmcmc", j) for j in range(self.RJMCMC_FITS)]
        outs = []

        def phase():
            for sampler, j in fits:
                out = self.workdir / f"long-{sampler}-{j}"
                code, wall = _timed_cli(self._argv(sampler, j, index, bundle, out))
                res.stage_s[sampler] += wall
                res.sweeps[sampler] += self.ITERATIONS[sampler] if code == 0 else 0
                outs.append((sampler, code, out))

        res.run_s = _wall(timed, phase)
        for sampler, code, out in outs:
            res.attempted += 1
            if code != 0:
                res.failed += 1
                res.problems.append(f"fit --sampler {sampler} exited {code}")
                continue
            res.problems += self._check(sampler, out, Z_true)
        return res

    def _check(self, sampler: str, out: Path, Z_true) -> list[str]:
        problems = []
        iterations = self.ITERATIONS[sampler]
        with open(out / "trace.jsonl") as fh:
            trace = [json.loads(line) for line in fh]
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        if [r["iteration"] for r in trace] != list(range(iterations + 1)):
            return [f"long {sampler}: trace has {len(trace)} records, want {iterations + 1}"]
        kept = [r["kplus"] for r in trace if r["iteration"] > self.BURN_IN]
        if not math.isclose(summary["mean_kplus"], sum(kept) / len(kept), rel_tol=1e-12):
            problems.append(f"long {sampler}: summary mean K+ disagrees with the trace")
        for name, key in (("lambda", "lam"), ("epsilon", "epsilon")):
            # a proposal equals the current value with probability zero, so
            # the acceptance rate is the share of sweeps where the value moved
            moves = sum(a[name] != b[name] for a, b in zip(trace, trace[1:]))
            rate = summary["mh_acceptance"][key]
            if not math.isclose(rate, moves / iterations, abs_tol=1e-12):
                problems.append(f"long {sampler}: {key} acceptance {rate} but {moves} moves")
            # 1.0 is possible: a chain that keeps no linked cause has a
            # likelihood flat in both rates and accepts every proposal
            if not 0.0 <= rate <= 1.0:
                problems.append(f"long {sampler}: {key} acceptance {rate} out of range")
        if sampler == "gibbs":
            final = summary["final"]["params"]
            err = reference.structure_error(np.array(summary["mean_zzt"]), Z_true)
            self.recovery.append((final["lambda"], final["epsilon"], final["p"], err,
                                  summary["mh_acceptance"]["lam"],
                                  summary["mh_acceptance"]["epsilon"]))
        return problems

    def finish(self) -> list[str]:
        lam, eps, p, err, acc_lam, acc_eps = (statistics.median(v) for v in zip(*self.recovery))
        problems = []
        if not (0.0 < acc_lam < 1.0 and 0.0 < acc_eps < 1.0):
            problems.append(f"long gibbs: median MH acceptance {acc_lam}, {acc_eps} not in (0, 1)")
        if not self.LAMBDA_RANGE[0] <= lam <= self.LAMBDA_RANGE[1]:
            problems.append(f"long gibbs: median final lambda {lam} outside {self.LAMBDA_RANGE}")
        if not 0.0 < eps <= self.EPSILON_MAX:
            problems.append(f"long gibbs: median final epsilon {eps} > {self.EPSILON_MAX}")
        if not self.P_RANGE[0] <= p <= self.P_RANGE[1]:
            problems.append(f"long gibbs: median final p {p} outside {self.P_RANGE}")
        if not err <= self.MAX_STRUCTURE_ERROR:
            problems.append(f"long gibbs: median structure error {err} "
                            f"> {self.MAX_STRUCTURE_ERROR}")
        return problems


WORKLOADS = {"fig3-study": Fig3Study, "wide-32x500": Wide, "long-6x5000-hypers": LongHypers}
