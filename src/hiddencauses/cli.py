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
import json
import sys

import numpy as np

from . import dataio, experiments
from .harness import (
    CANONICAL_STRUCTURES,
    RejectionError,
    canonical_structure,
    generate_dataset,
    in_degree_error,
    rejection_sample_Z,
    structure_error,
)
from .model import DegenerateModelError, ModelParams
from .rjmcmc import make_k_prior
from .runner import INITS, SAMPLERS, default_k_prior, run_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _params(args) -> ModelParams:
    return ModelParams(epsilon=args.epsilon, lam=args.lam, p=args.p, alpha=args.alpha)


def _add_param_flags(parser, defaults=(0.01, 0.9, 0.1, 3.0)):
    eps, lam, p, alpha = defaults
    parser.add_argument("--epsilon", type=float, default=eps, help="leak probability")
    parser.add_argument("--lambda", dest="lam", type=float, default=lam, help="transmission probability")
    parser.add_argument("--p", type=float, default=p, help="activation probability")
    parser.add_argument("--alpha", type=float, default=alpha, help="structure intensity")


def build_parser(fit_defaults: dict | None = None) -> _Parser:
    """The command parser; fit_defaults (from --config) replace the fit
    subcommand's built-in defaults, so typed flags still win."""
    parser = _Parser(prog="hiddencauses", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic dataset")
    g.add_argument("--out", required=True, help="bundle directory to write")
    g.add_argument("--structure", choices=sorted(CANONICAL_STRUCTURES), help="fixed graph")
    g.add_argument("--n", type=int, help="observations (with --k-target)")
    g.add_argument("--k-target", type=int, help="true number of causes (with --n)")
    g.add_argument("--t", type=int, default=500, help="trials")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-tries", type=int, default=100_000, help="rejection budget")
    _add_param_flags(g)

    f = sub.add_parser("fit", help="run one sampler chain")
    f.add_argument("--data", required=True, help="X.csv or bundle directory")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--config", help="JSON file of flag defaults")
    f.add_argument("--sampler", choices=SAMPLERS, default="gibbs")
    f.add_argument("--iterations", type=int, default=500)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--init", choices=INITS, default="empty")
    f.add_argument("--infer-hypers", action="store_true",
                   help="resample lambda, epsilon, p (and alpha under gibbs) each sweep")
    f.add_argument("--mh-step", type=float, default=0.05, help="random-walk half-width")
    f.add_argument("--burn-in", type=int, default=0, help="iterations excluded from summaries")
    f.add_argument("--prior-k", choices=("poisson", "geometric", "uniform"), default="poisson",
                   help="prior over K (rjmcmc only)")
    f.add_argument("--prior-k-mean", type=float, default=None,
                   help="mean of the shifted-Poisson K prior (default alpha * H_N)")
    f.add_argument("--prior-k-q", type=float, default=0.5, help="geometric K prior parameter")
    f.add_argument("--k-max", type=int, default=50, help="uniform K prior cap")
    f.add_argument("--plain-theta-denominator", action="store_true",
                   help="divide the finite z conditional by N instead of N + alpha/K")
    f.add_argument("--duplicate-row-factor", action="store_true",
                   help="include the duplicate-activation-row factor in birth/death ratios")
    f.add_argument("--timing", action="store_true",
                   help="record per-iteration wall time (breaks byte-identical traces)")
    _add_param_flags(f)
    f.set_defaults(**(fit_defaults or {}))

    e = sub.add_parser("eval", help="score a fit against ground truth")
    e.add_argument("--summary", required=True, help="summary.json from fit")
    e.add_argument("--truth", required=True, help="bundle directory with Z.csv")
    e.add_argument("--out", help="write metrics JSON here (default stdout only)")

    r = sub.add_parser("replicate", help="run a multi-condition study")
    r.add_argument("figure", choices=("fig3", "fig4"),
                   help="fig3: dimension recovery; fig4: structure recovery")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--datasets", type=int, default=10, help="datasets per condition")
    r.add_argument("--iterations", type=int, default=500)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (>= 1; at most one per run and per core)")
    r.add_argument("--n", type=int, default=6, help="observations (fig3)")
    r.add_argument("--t", type=int, default=None,
                   help="trials (default 500 for fig3, 150 for fig4)")
    r.add_argument("--k-range", default="1,2,3,4", help="true dimensions (fig3)")
    r.add_argument("--structures", default=",".join(sorted(CANONICAL_STRUCTURES)),
                   help="comma-separated structure names (fig4)")
    r.add_argument("--samplers", default="gibbs,rjmcmc")
    r.add_argument("--inits", default=None,
                   help="default: empty,random10 for fig3; empty for fig4")
    r.add_argument("--checkpoints", default=",".join(str(c) for c in experiments.DEFAULT_CHECKPOINTS),
                   help="iterations at which fig4 errors are reported")
    _add_param_flags(r)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    params = _params(args)
    if args.structure is not None:
        if args.n is not None or args.k_target is not None:
            raise UsageError("--structure excludes --n/--k-target")
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
        "params": {"epsilon": params.epsilon, "lambda": params.lam, "p": params.p,
                   "alpha": params.alpha},
        **origin,
    }
    dataio.write_dataset_bundle(args.out, data, manifest)
    print(f"wrote bundle to {args.out} (X is {data.X.shape[0]}x{data.X.shape[1]}, "
          f"true K = {Z.shape[1]})")
    return EXIT_OK


def _load_config(path, known) -> dict:
    """Fit settings from a JSON object, keyed by flag dest (dashed names
    and "lambda" accepted); `known` lists the dests a config may set."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    settings = {}
    for key, value in cfg.items():
        key = key.replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key in ("data", "out"):
            raise ValueError(f"{path}: {key} must be given as a flag")
        if key not in known:
            raise ValueError(f"{path}: unknown setting {key!r}")
        settings[key] = value
    return settings


def cmd_fit(args) -> int:
    X = dataio.load_observations(args.data)
    params = _params(args)
    k_prior = None
    if args.sampler == "rjmcmc":
        if args.prior_k == "poisson":
            mean = args.prior_k_mean
            k_prior = (
                make_k_prior("poisson", mean=mean)
                if mean is not None
                else default_k_prior(params.alpha, X.shape[0])
            )
        else:
            k_prior = make_k_prior(args.prior_k, q=args.prior_k_q, k_max=args.k_max)

    result = run_chain(
        X,
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

    out = dataio.ensure_dir(args.out)
    dataio.write_trace(
        out / "trace.jsonl",
        [rec.to_dict(include_timing=args.timing) for rec in result.trace],
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
            "params": {
                "epsilon": final.params.epsilon,
                "lambda": final.params.lam,
                "p": final.params.p,
                "alpha": final.params.alpha,
            },
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


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad {what}: {text!r}") from None


def _names(text: str, flag: str, allowed) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise UsageError(f"{flag}: unknown {', '.join(unknown)} "
                         f"(choose from {', '.join(sorted(allowed))})")
    return names


def cmd_replicate(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    # every argument is checked before --out is created
    study = dict(master_seed=args.seed, samplers=_names(args.samplers, "--samplers", SAMPLERS),
                 datasets_per_condition=args.datasets, iterations=args.iterations,
                 params=_params(args), jobs=args.jobs)
    if args.figure == "fig3":
        run_type, experiment = experiments.DimensionRun, experiments.dimension_recovery_experiment
        study.update(
            k_values=_parse_int_list(args.k_range, "--k-range"),
            inits=_names(args.inits or "empty,random10", "--inits", INITS),
            n_rows=args.n,
            n_trials=args.t if args.t is not None else 500,
        )
    else:
        run_type, experiment = experiments.StructureRun, experiments.structure_recovery_experiment
        study.update(
            structures=_names(args.structures, "--structures", CANONICAL_STRUCTURES),
            inits=_names(args.inits or "empty", "--inits", INITS),
            n_trials=args.t if args.t is not None else 150,
            checkpoints=_parse_int_list(args.checkpoints, "--checkpoints"),
        )
    out = dataio.ensure_dir(args.out)
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
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "fit":
            if args.config:
                known = set(vars(args)) - {"command", "config"}
                args = build_parser(_load_config(args.config, known)).parse_args(argv)
            return cmd_fit(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_replicate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateModelError as exc:
        print(f"model degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except RejectionError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
