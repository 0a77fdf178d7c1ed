"""Batch command-line interface.

Commands:
    generate    sample a synthetic dataset (ground truth included)
    fit         run one sampler chain on an observation matrix
    eval        score a fit summary against a ground-truth bundle
    replicate   run a full multi-condition study and tabulate results

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, shape mismatches), 3 model degeneracy (a conditional draw with no
feasible state).
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dataio, experiments
from .harness import (
    CANONICAL_STRUCTURES,
    MAX_TRIES,
    RejectionError,
    canonical_structure,
    generate_dataset,
    in_degree_error,
    rejection_sample_Z,
    structure_error,
)
from .hypers import MH_STEP
from .model import DegenerateModelError, ModelParams
from .rjmcmc import make_k_prior
from .runner import INITS, SAMPLERS, run_chain, start_dimension

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _checked(kind, ok, what: str):
    """An argparse type: the text parsed by `kind`, refused unless `ok`."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__  # argparse names the kind in its own errors
    return parse


_nonneg_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_pos_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_pos_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_nonneg_float = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_open_unit = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_unit = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_leak = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")


def _one_of(allowed):
    return _checked(str, lambda v: v in allowed, f"one of {', '.join(sorted(allowed))}")


def _list_of(item):
    """An argparse type: a non-empty comma-separated list, each entry parsed by `item`."""
    def parse(text):
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} lists nothing")
        return values
    parse.__name__ = "list"
    return parse


def _params(args) -> ModelParams:
    return ModelParams(epsilon=args.epsilon, lam=args.lam, p=args.p, alpha=args.alpha)


def _add_param_flags(parser):
    default = experiments.DEFAULT_PARAMS
    parser.add_argument("--epsilon", type=_leak, default=default.epsilon, help="leak probability")
    parser.add_argument("--lambda", dest="lam", type=_unit, default=default.lam,
                        help="transmission probability")
    parser.add_argument("--p", type=_unit, default=default.p, help="activation probability")
    parser.add_argument("--alpha", type=_pos_float, default=default.alpha,
                        help="structure intensity")


def build_parser(config=None) -> _Parser:
    """The command parser; the settings in the JSON file `config` replace
    the fit subcommand's built-in defaults, so typed flags still win."""
    parser = _Parser(prog="hiddencauses", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic dataset")
    g.add_argument("--out", required=True, help="bundle directory to write")
    g.add_argument("--structure", choices=sorted(CANONICAL_STRUCTURES), help="fixed graph")
    g.add_argument("--n", type=_pos_int, help="observations (with --k-target)")
    g.add_argument("--k-target", type=_nonneg_int, help="true number of causes (with --n)")
    g.add_argument("--t", type=_pos_int, default=500, help="trials")
    g.add_argument("--seed", type=_nonneg_int, default=0)
    g.add_argument("--max-tries", type=_pos_int, default=MAX_TRIES, help="rejection budget")
    _add_param_flags(g)

    f = sub.add_parser("fit", help="run one sampler chain")
    f.add_argument("--data", required=True, help="X.csv or bundle directory")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--config", help="JSON file of flag defaults")
    f.add_argument("--sampler", choices=SAMPLERS, default="gibbs")
    f.add_argument("--iterations", type=_nonneg_int, default=500)
    f.add_argument("--seed", type=_nonneg_int, default=0)
    f.add_argument("--init", choices=INITS, default="empty")
    f.add_argument("--infer-hypers", action="store_true",
                   help="resample lambda, epsilon, p (and alpha under gibbs) each sweep")
    f.add_argument("--mh-step", type=_pos_float, default=MH_STEP, help="random-walk half-width")
    f.add_argument("--burn-in", type=_nonneg_int, default=0,
                   help="iterations excluded from summaries")
    f.add_argument("--prior-k", choices=("poisson", "geometric", "uniform"), default="poisson",
                   help="prior over K (rjmcmc only)")
    f.add_argument("--prior-k-mean", type=_nonneg_float, default=None,
                   help="mean of the shifted-Poisson K prior (default alpha * H_N)")
    f.add_argument("--prior-k-q", type=_open_unit, default=0.5, help="geometric K prior parameter")
    f.add_argument("--k-max", type=_pos_int, default=50, help="uniform K prior cap")
    f.add_argument("--plain-theta-denominator", action="store_true",
                   help="divide the finite z conditional by N instead of N + alpha/K")
    f.add_argument("--duplicate-row-factor", action="store_true",
                   help="include the duplicate-activation-row factor in birth/death ratios")
    f.add_argument("--timing", action="store_true",
                   help="record per-iteration wall time (breaks byte-identical traces)")
    _add_param_flags(f)
    if config:
        f.set_defaults(**_load_config(config, f._actions))

    e = sub.add_parser("eval", help="score a fit against ground truth")
    e.add_argument("--summary", required=True, help="summary.json from fit")
    e.add_argument("--truth", required=True, help="bundle directory with Z.csv")
    e.add_argument("--out", help="write metrics JSON here (default stdout only)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--datasets", type=_pos_int, default=10, help="datasets per condition")
    common.add_argument("--iterations", type=_nonneg_int, default=500)
    common.add_argument("--seed", type=_nonneg_int, default=0)
    common.add_argument("--jobs", type=_pos_int, default=1,
                        help="parallel worker processes (at most one per run and per core)")
    common.add_argument("--samplers", type=_list_of(_one_of(SAMPLERS)), default="gibbs,rjmcmc")
    _add_param_flags(common)
    inits = _list_of(_one_of(INITS))

    r = sub.add_parser("replicate", help="run a multi-condition study")
    figures = r.add_subparsers(dest="figure", required=True)
    r3 = figures.add_parser("fig3", parents=[common], help="dimension recovery")
    r3.add_argument("--n", type=_pos_int, default=6, help="observations")
    r3.add_argument("--k-range", type=_list_of(_nonneg_int), default="1,2,3,4",
                    help="true dimensions")
    r3.add_argument("--t", type=_pos_int, default=500, help="trials (default 500)")
    r3.add_argument("--inits", type=inits, default="empty,random10")
    r4 = figures.add_parser("fig4", parents=[common], help="structure recovery")
    r4.add_argument("--structures", type=_list_of(_one_of(CANONICAL_STRUCTURES)),
                    default=",".join(sorted(CANONICAL_STRUCTURES)),
                    help="comma-separated structure names")
    r4.add_argument("--checkpoints", type=_list_of(_pos_int),
                    help="iterations at which errors are reported, none beyond "
                         "--iterations (default: those of "
                         f"{','.join(map(str, experiments.DEFAULT_CHECKPOINTS))} within it)")
    r4.add_argument("--t", type=_pos_int, default=150, help="trials (default 150)")
    r4.add_argument("--inits", type=inits, default="empty")
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    params = _params(args)
    if args.structure is not None:
        if args.n is not None or args.k_target is not None or args.max_tries != MAX_TRIES:
            raise UsageError("--structure excludes --n/--k-target/--max-tries")
        Z = canonical_structure(args.structure)
        origin = {"structure": args.structure}
    else:
        if args.n is None or args.k_target is None:
            raise UsageError("need --structure, or both --n and --k-target")
        Z = rejection_sample_Z(args.n, args.k_target, params.alpha, rng, args.max_tries)
        origin = {"n": args.n, "k_target": args.k_target, "max_tries": args.max_tries}
    data = generate_dataset(Z, args.t, params, rng)
    manifest = {
        "command": "generate",
        "seed": args.seed,
        "t": args.t,
        "params": dataio.params_record(params),
        **origin,
    }
    dataio.write_dataset_bundle(args.out, data, manifest)
    print(f"wrote bundle to {args.out} (X is {data.X.shape[0]}x{data.X.shape[1]}, "
          f"true K = {Z.shape[1]})")
    return EXIT_OK


def _load_config(path, actions) -> dict:
    """Fit settings from a JSON object, keyed by flag dest (dashed names
    and "lambda" accepted), each checked by its flag's action: a switch
    takes a JSON boolean, any other flag parses the value's text with its
    own type and choices, and null keeps a flag whose default is None."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    flags = {a.dest: a for a in actions if a.option_strings and a.dest != "help"}
    settings = {}
    for key, value in cfg.items():
        key = key.replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key in ("data", "out", "config"):
            raise ValueError(f"{path}: {key} must be given as a flag")
        if key not in flags:
            raise ValueError(f"{path}: unknown setting {key!r}")
        action = flags[key]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"{path}: {key} must be true or false, got {value!r}")
        elif value is not None or action.default is not None:
            text = str(value)
            try:
                value = action.type(text) if action.type else text
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
            except ValueError:
                raise ValueError(
                    f"{path}: {key}: invalid {action.type.__name__} value {value!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{path}: {key}: invalid choice {value!r} "
                                 f"(choose from {', '.join(action.choices)})")
        settings[key] = value
    return settings


# fit settings that are read only when another setting has a given value:
# name -> (setting, value)
READ_UNDER = {
    "prior_k": ("sampler", "rjmcmc"),
    "plain_theta_denominator": ("sampler", "rjmcmc"),
    "duplicate_row_factor": ("sampler", "rjmcmc"),
    "prior_k_mean": ("prior_k", "poisson"),
    "prior_k_q": ("prior_k", "geometric"),
    "k_max": ("prior_k", "uniform"),
    "mh_step": ("infer_hypers", True),
}


@functools.cache
def _fit_defaults() -> argparse.Namespace:
    return build_parser().parse_args(["fit", "--data", "", "--out", ""])


def cmd_fit(args) -> int:
    # a setting away from its default, by flag or by config, unless every
    # condition up its READ_UNDER chain holds: the fit would ignore it, and
    # summary.json would record it as if it had applied
    for name in READ_UNDER:
        if getattr(args, name) == getattr(_fit_defaults(), name):
            continue
        needs, read, setting = [], True, name
        while setting in READ_UNDER:
            setting, value = READ_UNDER[setting]
            needs.append(f"--{setting.replace('_', '-')}" + ("" if value is True else f" {value}"))
            read = read and getattr(args, setting) == value
        if not read:
            raise UsageError(f"--{name.replace('_', '-')} ({name}) applies only under "
                             f"{' and '.join(needs)}, and this fit would ignore it")
    params = _params(args)
    k_prior = None  # None: the chain's default prior over K
    if args.sampler == "rjmcmc" and (args.prior_k != "poisson" or args.prior_k_mean is not None):
        k_prior = make_k_prior(args.prior_k, mean=args.prior_k_mean, q=args.prior_k_q,
                               k_max=args.k_max)
        start_k = start_dimension(args.sampler, args.init)
        if k_prior.log_pmf(start_k) == -math.inf:
            raise UsageError(f"--init {args.init} starts at K = {start_k}, "
                             f"which the K prior gives zero mass")

    result = run_chain(
        dataio.load_observations(args.data),
        sampler=args.sampler,
        iterations=args.iterations,
        params=params,
        seed=args.seed,
        init=args.init,
        infer_hypers=args.infer_hypers,
        mh_step=args.mh_step,
        k_prior=k_prior,
        predictive=not args.plain_theta_denominator,
        duplicate_row_factor=args.duplicate_row_factor,
        burn_in=args.burn_in,
        timing=args.timing,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_trace(
        out / "trace.jsonl",
        [rec.to_dict() for rec in result.trace],
    )
    summary = result.summary
    final = result.state
    payload = {
        "sampler": args.sampler,
        "seed": args.seed,
        "iterations": args.iterations,
        "burn_in": args.burn_in,
        "sample_count": summary.sample_count,
        "mean_kplus": summary.mean_kplus,
        "mean_k": summary.mean_k,
        "mean_zzt": summary.mean_zzt.tolist(),
        "final": {
            "kplus": final.kplus,
            "k": final.k,
            "params": dataio.params_record(final.params),
        },
        "mh_acceptance": result.mh_acceptance,
        **({"elapsed_ms": result.elapsed_ms} if args.timing else {}),
        "config": {name: value for name, value in sorted(vars(args).items())
                   if name not in ("command", "config")},
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if final.Z.size:
        dataio.write_matrix_csv(out / "Z_final.csv", final.Z)
    else:  # no cause left: an earlier fit's Z must not stay beside this summary
        (out / "Z_final.csv").unlink(missing_ok=True)
    np.savetxt(out / "zzt.csv", summary.mean_zzt, delimiter=",", fmt="%.10g")
    print(f"fit complete: E[K+] = {summary.mean_kplus:.3f} over "
          f"{summary.sample_count} retained iterations; outputs in {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.summary) as fh:
        summary = json.load(fh)
    bundle = dataio.read_dataset_bundle(args.truth)
    if bundle.truth is None:
        raise ValueError(f"{args.truth}: bundle has no ground truth")
    Z_true = bundle.truth.Z
    mean_zzt = np.asarray(summary["mean_zzt"], dtype=np.float64)
    metrics = {
        "in_degree_error": in_degree_error(mean_zzt, Z_true),
        "structure_error": structure_error(mean_zzt, Z_true),
        "mean_kplus": summary.get("mean_kplus"),
        "mean_k": summary.get("mean_k"),
        "k_true": int(Z_true.shape[1]),
    }
    text = json.dumps(metrics, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_replicate(args) -> int:
    study = dict(master_seed=args.seed, samplers=args.samplers, inits=args.inits,
                 datasets_per_condition=args.datasets, iterations=args.iterations,
                 n_trials=args.t, params=_params(args), jobs=args.jobs)
    if args.figure == "fig3":
        run_type, experiment = experiments.DimensionRun, experiments.dimension_recovery_experiment
        study.update(k_values=args.k_range, n_rows=args.n)
    else:
        run_type, experiment = experiments.StructureRun, experiments.structure_recovery_experiment
        checkpoints = args.checkpoints
        if checkpoints is None:
            checkpoints = [c for c in experiments.DEFAULT_CHECKPOINTS if c <= args.iterations]
            if not checkpoints:
                raise UsageError(f"no checkpoint lies within --iterations {args.iterations}")
        elif max(checkpoints) > args.iterations:
            raise UsageError(f"--checkpoints {max(checkpoints)} lies beyond "
                             f"--iterations {args.iterations}")
        study.update(structures=args.structures, checkpoints=checkpoints)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs = experiment(**study)
    table = out / f"{args.figure}_results.csv"
    run_type.write_table(table, runs)
    print(f"wrote {table}")
    failures = [r for r in runs if r.error]
    for run in failures:
        print(f"run failed: {run}", file=sys.stderr)
    if failures and len(failures) == len(runs):
        return EXIT_DATA
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "fit" and args.config:
            args = build_parser(args.config).parse_args(argv)
        commands = {"generate": cmd_generate, "fit": cmd_fit, "eval": cmd_eval,
                    "replicate": cmd_replicate}
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateModelError as exc:
        print(f"model degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError, KeyError, RejectionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
