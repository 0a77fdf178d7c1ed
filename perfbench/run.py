"""Benchmark of the hiddencauses samplers, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload wide-32x500 --seed 1 --seconds 35 --trace 0

Workloads: fig3-study, wide-32x500, long-6x5000-hypers (see README.md).
The run sets up its inputs from --seed, then repeats whole rounds of a
fixed amount of work while the next round is expected to end within
--seconds, checks every round's outputs, and prints one JSON line last:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are end to end (pooled over rounds); with --trace 1 the run
alternates plain and traced rounds and reports per-layer metrics from
the traced ones.
"""

import os
import sys
import time

START = time.perf_counter()
# One BLAS thread: the load of every workload comes from this process alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_work"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig3-study", "wide-32x500", "long-6x5000-hypers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def setup_sample(args) -> float:
    """Set up in a fresh interpreter and return its set-up time."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up run failed: {out.stderr.strip()}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def median_of(rounds, key):
    return statistics.median(key(r) for r in rounds)


def pooled_rate(rounds, sampler: str) -> float:
    """A sampler's sweeps over its stages' wall time, both summed over all rounds.

    A round's cost follows the dimensions its chains wander through, so a
    per-round rate varies with the round's inputs; the pooled rate weighs
    every chain of the run alike.
    """
    return sum(r.sweeps[sampler] for r in rounds) / sum(r.stage_s[sampler] for r in rounds)


def end_to_end(rounds, setup_s: float) -> dict:
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.fmean(r.run_s for r in rounds), "s"),
        "gibbs_sweeps_per_s": (pooled_rate(rounds, "gibbs"), "sweeps/s"),
        "rjmcmc_sweeps_per_s": (pooled_rate(rounds, "rjmcmc"), "sweeps/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(traced, plain) -> dict:
    """Medians over traced rounds of each layer's counts and self times."""
    samples = {name: [] for name, _, _ in LAYERS}
    for tracer, rnd in traced:
        own = tracer.self_times()
        values = dict(tracer.counts)
        values.update({f"{k}.self_s": v for k, v in own.items()})
        root = own.get(tracing.ROOT_SPAN, 0.0)
        values["bench.traced_run_s"] = rnd.run_s
        values["bench.unattributed_s"] = root
        values["bench.coverage"] = 1.0 - root / sum(own.values())
        for name in samples:
            samples[name].append(values.get(name, 0))
    out = {name: statistics.median(v) for name, v in samples.items() if v}
    out["bench.plain_run_s"] = median_of(plain, lambda r: r.run_s)
    out["bench.trace_overhead"] = out["bench.traced_run_s"] / out["bench.plain_run_s"]
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in LAYERS}


# name, unit, better: every per-layer metric the traced run reports
LAYER_METRICS = """
gibbs.z_entry.calls count lower
gibbs.z_entry.self_s s lower
gibbs.z_entry.flips count higher
gibbs.new_causes.calls count lower
gibbs.new_causes.self_s s lower
gibbs.new_causes.added count lower
gibbs.y_row.calls count lower
gibbs.y_row.self_s s lower
gibbs.compact.self_s s lower
gibbs.sweep.self_s s lower
rjmcmc.z_entry.calls count lower
rjmcmc.z_entry.self_s s lower
rjmcmc.y_pass.calls count lower
rjmcmc.y_pass.self_s s lower
rjmcmc.birth.calls count lower
rjmcmc.birth.accepted count higher
rjmcmc.birth.self_s s lower
rjmcmc.death.calls count lower
rjmcmc.death.accepted count higher
rjmcmc.death.self_s s lower
rjmcmc.sweep.self_s s lower
hypers.mh_rate.calls count lower
hypers.mh_rate.accepted count higher
hypers.mh_rate.self_s s lower
hypers.conjugate.self_s s lower
runner.trace.calls count lower
runner.trace.self_s s lower
model.log_likelihood.self_s s lower
ibp.log_prior.self_s s lower
runner.chain.self_s s lower
harness.summary_add.calls count lower
harness.summary_add.self_s s lower
harness.rejection.calls count lower
harness.rejection.self_s s lower
ibp.sample.calls count lower
harness.generate.self_s s lower
dataio.read_matrix.self_s s lower
dataio.write_trace.self_s s lower
dataio.write_trace.bytes bytes lower
experiments.study.self_s s lower
cli.main.self_s s lower
bench.unattributed_s s lower
bench.coverage ratio higher
bench.traced_run_s s lower
bench.plain_run_s s lower
bench.trace_overhead ratio lower
"""
LAYERS = [tuple(line.split()) for line in LAYER_METRICS.strip().splitlines()]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hiddencauses" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = [time.perf_counter() - START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        return measure(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s: list) -> int:
    if not args.trace:
        setup_s += [setup_sample(args) for _ in range(SETUP_REPEATS - 1)]
    plain, traced, problems = [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        # A traced round repeats the inputs of the plain round before it,
        # so the pair gives the tracing overhead.
        if args.trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            rnd = workload.run_round(len(traced), tracer.timed)
            traced.append((tracer, rnd))
        else:
            rnd = workload.run_round(len(plain))
            plain.append(rnd)
        attempted += rnd.attempted
        failed += rnd.failed
        problems += rnd.problems
        elapsed = time.perf_counter() - begin
        rounds = len(plain) + len(traced)
        need_traced = args.trace and not traced
        if not need_traced and elapsed + elapsed / rounds > args.seconds:
            break
    problems += workload.finish()
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, plain)
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        traced[-1][0].write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(plain, statistics.median(setup_s))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
