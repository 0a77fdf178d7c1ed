"""Unit tests for the chain runner and the batch command-line interface."""

import json

import numpy as np
import pytest

from helpers import check_consistency
from hiddencauses import (
    FiniteState,
    ModelParams,
    SamplerState,
    UniformK,
    file_digest,
    log_likelihood,
    read_trace,
    run_chain,
    write_dataset_bundle,
)
from hiddencauses import experiments
from hiddencauses.dataio import read_dataset_bundle
from hiddencauses.harness import Dataset
from hiddencauses.hypers import MH_STEP
from hiddencauses.runner import _trace_record, default_k_prior, initial_state, step
from hiddencauses.cli import (
    EXIT_DATA, EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE, build_parser, main,
)

PARAMS = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.0)
X_SMALL = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
# Small studies with two conditions, two datasets and both samplers: eight runs each.
STUDIES = [
    ("fig3", ["--datasets", "2", "--iterations", "4", "--k-range", "1,2", "--n", "4",
              "--t", "20", "--inits", "empty", "--seed", "3"]),
    ("fig4", ["--datasets", "2", "--iterations", "4", "--structures", "degree1,disconnected",
              "--checkpoints", "1,4", "--t", "20", "--seed", "3"]),
]


class TestInitialState:
    def test_gibbs_empty_has_no_columns(self):
        state = initial_state(X_SMALL, "gibbs", "empty", PARAMS, np.random.default_rng(0))
        assert type(state) is SamplerState
        assert state.Z.shape == (2, 0)
        assert state.Y.shape == (0, 3)

    def test_rjmcmc_empty_has_one_unlinked_column(self):
        state = initial_state(X_SMALL, "rjmcmc", "empty", PARAMS, np.random.default_rng(0))
        assert isinstance(state, FiniteState)
        assert state.Z.shape == (2, 1)
        assert state.Y.shape == (1, 3)
        assert state.kplus == 0 and state.k == 1

    def test_random10_links_every_column(self):
        for seed in range(20):
            state = initial_state(
                X_SMALL, "rjmcmc", "random10", PARAMS, np.random.default_rng(seed)
            )
            assert state.k == 10
            assert state.kplus == 10  # every column got at least one link
            assert set(np.unique(state.Z)) <= {0, 1}
            check_consistency(state)

    def test_rjmcmc_default_k_prior(self):
        """Without a prior over K, the finite sampler's is centered on the
        unbounded model's mean dimension."""
        state = initial_state(X_SMALL, "rjmcmc", "empty", PARAMS, np.random.default_rng(0))
        assert state.k_prior == default_k_prior(PARAMS.alpha, X_SMALL.shape[0])

    def test_k_prior_passed_through(self):
        prior = UniformK(4)
        state = initial_state(
            X_SMALL, "rjmcmc", "empty", PARAMS, np.random.default_rng(0), k_prior=prior
        )
        assert state.k_prior is prior

    def test_start_outside_k_prior_support_rejected(self):
        """A chain that starts where P(K) = 0 would compute NaN ratios and
        never move, so it is refused."""
        with pytest.raises(ValueError, match="zero mass"):
            initial_state(X_SMALL, "rjmcmc", "random10", PARAMS, np.random.default_rng(0),
                          k_prior=UniformK(3))

    def test_unknown_sampler_or_init(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="sampler"):
            initial_state(X_SMALL, "vb", "empty", PARAMS, rng)
        with pytest.raises(ValueError, match="init"):
            initial_state(X_SMALL, "gibbs", "truth", PARAMS, rng)


class TestDefaultKPrior:
    def test_mean_tracks_expected_dimension(self):
        # H_2 = 3/2, so alpha = 3 centers the prior on K = 4.5
        prior = default_k_prior(3.0, 2)
        np.testing.assert_allclose(prior.mean, 4.5)


class TestRunChain:
    def test_trace_covers_every_iteration(self):
        result = run_chain(X_SMALL, sampler="gibbs", iterations=5, params=PARAMS, seed=0)
        assert [rec.iteration for rec in result.trace] == [0, 1, 2, 3, 4, 5]
        assert result.trace[0].kplus == 0
        assert all(np.isfinite(rec.log_joint) for rec in result.trace[1:])

    def test_deterministic_given_seed(self):
        kwargs = dict(sampler="rjmcmc", iterations=20, params=PARAMS, seed=11)
        a = run_chain(X_SMALL, **kwargs)
        b = run_chain(X_SMALL, **kwargs)
        assert [r.to_dict() for r in a.trace] == [r.to_dict() for r in b.trace]
        np.testing.assert_array_equal(a.state.Z, b.state.Z)

    def test_burn_in_limits_summary(self):
        result = run_chain(
            X_SMALL, sampler="gibbs", iterations=10, params=PARAMS, seed=0, burn_in=6
        )
        assert result.summary.sample_count == 4

    def test_all_burned_falls_back_to_final_state(self):
        result = run_chain(
            X_SMALL, sampler="gibbs", iterations=3, params=PARAMS, seed=0, burn_in=99
        )
        assert result.summary.sample_count == 1
        assert result.summary.mean_kplus == result.state.kplus

    def test_snapshots_taken_at_requested_iterations(self):
        result = run_chain(
            X_SMALL,
            sampler="gibbs",
            iterations=10,
            params=PARAMS,
            seed=0,
            snapshot_iterations=(2, 5, 10),
        )
        assert set(result.snapshots) == {2, 5, 10}
        assert result.snapshots[2].sample_count == 2
        assert result.snapshots[10].sample_count == 10

    def test_gibbs_completes_past_64_rows(self):
        """The trace's prior term once packed each column into an int64 and
        failed within a few sweeps at N >= 64."""
        X = (np.random.default_rng(4).random((70, 50)) < 0.3).astype(np.int8)
        result = run_chain(X, sampler="gibbs", iterations=10, params=PARAMS, seed=0)
        assert len(result.trace) == 11
        assert all(np.isfinite(rec.log_joint) for rec in result.trace)

    def test_infer_hypers_moves_params_and_reports_acceptance(self):
        result = run_chain(
            X_SMALL,
            sampler="gibbs",
            iterations=50,
            params=PARAMS,
            seed=0,
            infer_hypers=True,
        )
        assert set(result.mh_acceptance) == {"lam", "epsilon"}
        assert all(0.0 <= v <= 1.0 for v in result.mh_acceptance.values())
        final = result.state.params
        assert (final.lam, final.epsilon, final.p, final.alpha) != (
            PARAMS.lam,
            PARAMS.epsilon,
            PARAMS.p,
            PARAMS.alpha,
        )

    def test_fixed_hypers_stay_fixed(self):
        result = run_chain(X_SMALL, sampler="rjmcmc", iterations=10, params=PARAMS, seed=0)
        assert result.mh_acceptance == {}
        assert result.state.params == PARAMS

    def test_rjmcmc_respects_k_prior_support(self):
        result = run_chain(
            X_SMALL,
            sampler="rjmcmc",
            iterations=100,
            params=PARAMS,
            seed=2,
            k_prior=UniformK(3),
        )
        assert all(rec.k <= 3 for rec in result.trace)

    def test_zero_iterations(self):
        result = run_chain(X_SMALL, sampler="gibbs", iterations=0, params=PARAMS, seed=0)
        assert len(result.trace) == 1
        assert result.summary.sample_count == 1

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            run_chain(X_SMALL, sampler="gibbs", iterations=-1, params=PARAMS, seed=0)


X_STEP = (np.random.default_rng(21).random((5, 30)) < 0.3).astype(np.int8)


class TestStep:
    @pytest.mark.parametrize("sampler, init, variants", [
        ("gibbs", "empty", {}),
        ("gibbs", "random10", {}),
        ("rjmcmc", "empty", {}),
        ("rjmcmc", "random10", {"predictive": False, "duplicate_row_factor": True}),
    ])
    @pytest.mark.parametrize("infer_hypers", [False, True])
    def test_run_chain_is_initial_state_plus_steps(self, sampler, init, variants, infer_hypers):
        iterations = 12
        result = run_chain(X_STEP, sampler=sampler, iterations=iterations, params=PARAMS, seed=4,
                           init=init, infer_hypers=infer_hypers, mh_step=0.1, **variants)

        rng = np.random.default_rng(4)
        state = initial_state(X_STEP, sampler, init, PARAMS, rng, **variants)
        trace = [_trace_record(0, state, X_STEP,
                               log_likelihood(X_STEP, state.Z, state.Y, state.params))]
        hits = [0, 0]
        for it in range(1, iterations + 1):
            *accepted, ll = step(state, X_STEP, rng, infer_hypers=infer_hypers, mh_step=0.1)
            hits = [h + a for h, a in zip(hits, accepted)]
            assert ll == log_likelihood(X_STEP, state.Z, state.Y, state.params)
            trace.append(_trace_record(it, state, X_STEP, ll))

        assert [r.to_dict() for r in result.trace] == [r.to_dict() for r in trace]
        np.testing.assert_array_equal(result.state.Z, state.Z)
        np.testing.assert_array_equal(result.state.Y, state.Y)
        assert result.state.params == state.params
        expected = {"lam": hits[0] / iterations, "epsilon": hits[1] / iterations}
        assert result.mh_acceptance == (expected if infer_hypers else {})

    @pytest.mark.parametrize("infer_hypers", [False, True])
    @pytest.mark.parametrize("make_state, covered", [
        # two unlinked columns keep rjmcmc's K above its largest count
        (lambda: FiniteState.from_matrices(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], [[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
            PARAMS, k_prior=UniformK(6)), lambda k, c: k > c),
        # alpha near 0 leaves gibbs at K = 0 after its first sweep
        (lambda: SamplerState.from_matrices(np.zeros((3, 0)), np.zeros((0, 3)),
                                            PARAMS.replace(alpha=1e-6)), lambda k, c: k == 0),
    ], ids=["rjmcmc-k-above-counts", "gibbs-k0"])
    def test_returned_log_likelihood_is_the_final_states(self, make_state, covered, infer_hypers):
        """The value step returns equals log_likelihood(X, Z, Y, params) of
        the state it leaves, bit for bit, whether or not K is the largest count."""
        state, X = make_state(), np.array([[1, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
        rng = np.random.default_rng(6)
        for sweep in range(5):
            *_, ll = step(state, X, rng, infer_hypers=infer_hypers, mh_step=0.1)
            assert type(ll) is float
            assert ll == log_likelihood(X, state.Z, state.Y, state.params)
            if sweep == 0:  # the first value is read in the case the id names
                assert covered(state.k, int(state.counts.max(initial=0)))

    def test_finite_state_takes_its_variants_from_run_chain(self):
        kwargs = dict(sampler="rjmcmc", iterations=20, params=PARAMS, seed=5, init="random10")
        plain = run_chain(X_STEP, **kwargs)
        variant = run_chain(X_STEP, predictive=False, duplicate_row_factor=True, **kwargs)
        assert (plain.state.predictive, plain.state.duplicate_row_factor) == (True, False)
        assert (variant.state.predictive, variant.state.duplicate_row_factor) == (False, True)
        assert [r.to_dict() for r in plain.trace] != [r.to_dict() for r in variant.trace]

    def test_gibbs_state_has_no_finite_variants(self):
        state = initial_state(X_STEP, "gibbs", "random10", PARAMS, np.random.default_rng(0),
                              predictive=False, duplicate_row_factor=True)
        assert type(state) is SamplerState


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


# each rjmcmc-only fit setting, set away from its default
RJMCMC_ONLY_SETTINGS = [("prior_k", "uniform"), ("prior_k_mean", 2.5), ("prior_k_q", 0.25),
                        ("k_max", 7), ("plain_theta_denominator", True),
                        ("duplicate_row_factor", True)]


# a fit setting away from its default, beside the settings (context)
# under which the chain would not read it
UNREAD_SETTINGS = [
    ({"sampler": "rjmcmc", "prior_k": "geometric"}, "prior_k_mean", 3.0),
    ({"sampler": "rjmcmc", "prior_k": "uniform"}, "prior_k_mean", 3.0),
    ({"sampler": "rjmcmc"}, "prior_k_q", 0.25),
    ({"sampler": "rjmcmc", "prior_k": "uniform"}, "prior_k_q", 0.25),
    ({"sampler": "rjmcmc"}, "k_max", 7),
    ({"sampler": "rjmcmc", "prior_k": "geometric"}, "k_max", 7),
    ({}, "mh_step", 0.2),
    ({"sampler": "rjmcmc"}, "mh_step", 0.2),
]


def _generate(tmp_path, extra=()):
    bundle = tmp_path / "data"
    code = main(
        ["generate", "--out", str(bundle), "--structure", "degree1", "--t", "40",
         "--seed", "5", *extra]
    )
    assert code == EXIT_OK
    return bundle


class TestCliGenerate:
    def test_writes_full_bundle(self, tmp_path):
        bundle = _generate(tmp_path)
        for name in ("X.csv", "Z.csv", "Y.csv", "params.json", "manifest.json"):
            assert (bundle / name).exists()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["structure"] == "degree1"
        assert manifest["seed"] == 5

    def test_rejection_sampled_shape(self, tmp_path):
        bundle = tmp_path / "data"
        code = main(
            ["generate", "--out", str(bundle), "--n", "4", "--k-target", "2",
             "--t", "10", "--seed", "1"]
        )
        assert code == EXIT_OK
        data = read_dataset_bundle(bundle)
        assert data.X.shape == (4, 10)
        assert data.truth.Z.shape == (4, 2)

    def test_structure_excludes_size_flags(self, tmp_path, capsys):
        for flags in (["--n", "4"], ["--max-tries", "5"]):
            code = main(
                ["generate", "--out", str(tmp_path / "d"), "--structure", "degree1", *flags]
            )
            assert code == EXIT_USAGE
            assert "usage error" in capsys.readouterr().err
        _generate(tmp_path, ["--max-tries", "100000"])  # the default, typed

    def test_missing_size_flags(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "d"), "--n", "4"]) == EXIT_USAGE

    def test_alpha_beyond_poisson_draw_is_data_error(self, tmp_path, capsys):
        """The first prior draw refuses alpha = 800, so the rejection loop
        stops at once instead of spending its budget on wrong draws."""
        code = main(["generate", "--out", str(tmp_path / "d"), "--alpha", "800",
                     "--n", "6", "--k-target", "3", "--t", "10"])
        assert code == EXIT_DATA
        assert "Poisson mean 800" in capsys.readouterr().err


class TestCliFit:
    def test_outputs_and_determinism(self, tmp_path):
        bundle = _generate(tmp_path)
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(bundle), "--out", str(out), "--iterations", "30",
                "--seed", "3"]
        digests = []
        for _ in range(2):  # the same command twice, so summary.json's config matches too
            assert main(argv) == EXIT_OK
            digests.append([file_digest(out / name) for name in ("trace.jsonl", "summary.json")])
        assert digests[0] == digests[1]
        for name in ("trace.jsonl", "summary.json", "Z_final.csv", "zzt.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "elapsed_ms" not in summary
        assert summary["iterations"] == 30
        assert summary["sample_count"] == 30
        assert len(read_trace(out / "trace.jsonl")) == 31

    def test_fit_without_causes_removes_earlier_z(self, tmp_path):
        """A fit that ends with no cause leaves no Z_final.csv, also where
        an earlier fit into the same directory wrote one."""
        bundle = _generate(tmp_path)
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(bundle), "--out", str(out), "--seed", "3"]
        assert main(argv + ["--init", "random10", "--iterations", "3"]) == EXIT_OK
        assert (out / "Z_final.csv").exists()
        assert main(argv + ["--iterations", "0"]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["final"]["kplus"] == 0
        assert not (out / "Z_final.csv").exists()

    def test_timing_flag_adds_wall_ms(self, tmp_path):
        bundle = _generate(tmp_path)
        out = tmp_path / "fit"
        code = main(
            ["fit", "--data", str(bundle), "--out", str(out), "--iterations", "2", "--timing"]
        )
        assert code == EXIT_OK
        records = read_trace(out / "trace.jsonl")
        assert "wall_ms" in records[1]
        assert "elapsed_ms" in json.loads((out / "summary.json").read_text())

    def test_missing_data_is_data_error(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", ["gibbs", "rjmcmc"])
    def test_empty_bundle_is_data_error(self, tmp_path, capsys, sampler):
        bundle = _generate(tmp_path)
        (bundle / "X.csv").write_text("# no rows\n")
        code = main(["fit", "--data", str(bundle), "--out", str(tmp_path / "o"),
                     "--sampler", sampler])
        assert code == EXIT_DATA
        assert "no observation rows" in capsys.readouterr().err

    def test_fit_reads_only_the_bundles_x(self, tmp_path):
        """fit needs X alone, so truth files that disagree with it are not
        an error."""
        bundle = _generate(tmp_path)
        (bundle / "Z.csv").write_text("1\n")
        (bundle / "params.json").write_text("{}")
        code = main(["fit", "--data", str(bundle), "--out", str(tmp_path / "o"),
                     "--iterations", "2"])
        assert code == EXIT_OK

    def test_degenerate_params_exit_code(self, tmp_path, capsys):
        # with no leak and no transmission, an observed 1 has zero mass
        # under every number of fresh causes
        x_path = tmp_path / "X.csv"
        x_path.write_text("1,1\n")
        code = main(
            ["fit", "--data", str(x_path), "--out", str(tmp_path / "o"),
             "--epsilon", "0", "--lambda", "0", "--iterations", "5"]
        )
        assert code == EXIT_DEGENERATE
        assert "degeneracy" in capsys.readouterr().err

    def test_config_file_merging(self, tmp_path):
        bundle = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iterations": 7, "lambda": 0.7, "seed": 9}')
        # explicit flags beat config, also when abbreviated or joined by "="
        cases = [(["--iterations", "3"], 3), (["--iter", "3"], 3), (["--iterations=3"], 3),
                 ([], 7)]
        for case, (flags, iterations) in enumerate(cases):
            out = tmp_path / f"fit{case}"
            code = main(
                ["fit", "--data", str(bundle), "--out", str(out), "--config", str(cfg), *flags]
            )
            assert code == EXIT_OK
            merged = json.loads((out / "summary.json").read_text())["config"]
            assert merged["iterations"] == iterations, flags
            assert merged["lam"] == 0.7  # config beats default
            assert merged["seed"] == 9

    def test_config_unknown_key_is_data_error(self, tmp_path):
        bundle = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iterationz": 7}')
        code = main(
            ["fit", "--data", str(bundle), "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("setting, named", [
        ('"iterations": 2.5', "iterations: invalid int value 2.5"),
        ('"infer_hypers": "false"', "infer_hypers must be true or false"),
        ('"sampler": "vb"', "sampler: invalid choice 'vb'"),
        ('"seed": -1', "seed: '-1' is not an integer >= 0"),
    ])
    def test_config_value_refused_by_its_flag(self, tmp_path, capsys, setting, named):
        """Each config value passes its flag's own type and choices; a switch
        takes only a JSON boolean.  The message names the key."""
        bundle = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + setting + "}")
        out = tmp_path / "o"
        code = main(["fit", "--data", str(bundle), "--out", str(out), "--config", str(cfg)])
        assert code == EXIT_DATA
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_parsed_as_flags(self, tmp_path):
        bundle = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"iterations": "4", "epsilon": 0, "infer_hypers": false, '
                       '"prior_k_mean": null, "sampler": "rjmcmc"}')
        out = tmp_path / "o"
        code = main(["fit", "--data", str(bundle), "--out", str(out), "--config", str(cfg)])
        assert code == EXIT_OK
        merged = json.loads((out / "summary.json").read_text())["config"]
        assert merged["iterations"] == 4
        assert merged["epsilon"] == 0.0 and isinstance(merged["epsilon"], float)
        assert merged["infer_hypers"] is False
        assert merged["prior_k_mean"] is None
        assert merged["sampler"] == "rjmcmc"

    def test_rjmcmc_uniform_prior_flags(self, tmp_path):
        bundle = _generate(tmp_path)
        out = tmp_path / "fit"
        code = main(
            ["fit", "--data", str(bundle), "--out", str(out), "--sampler", "rjmcmc",
             "--prior-k", "uniform", "--k-max", "3", "--iterations", "40"]
        )
        assert code == EXIT_OK
        assert all(rec["k"] <= 3 for rec in read_trace(out / "trace.jsonl"))


    @pytest.mark.parametrize("flags", [
        ["--prior-k", "uniform", "--k-max", "3", "--init", "random10"],
        ["--prior-k", "uniform", "--k-max", "0"],
        ["--prior-k", "geometric", "--prior-k-q", "1.5"],
        ["--prior-k-mean", "-2"],
    ], ids=["start-outside-uniform", "k-max-0", "q-above-1", "negative-mean"])
    def test_k_prior_without_mass_at_start_is_usage_error(self, tmp_path, capsys, flags):
        """Each of these once ran a chain that never moved, crashed with a
        math domain error, or used a negative Poisson mean."""
        bundle = _generate(tmp_path)
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(bundle), "--out", str(out), "--sampler", "rjmcmc",
                "--iterations", "5", *flags]
        assert main(argv) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", RJMCMC_ONLY_SETTINGS)
    def test_rjmcmc_flag_refused_under_gibbs(self, tmp_path, capsys, name, value):
        """A gibbs fit would ignore the setting and still record it in
        summary.json; it ends as a usage error before the data is read
        (--data names no file, which reading would report as exit 2)."""
        flag = "--" + name.replace("_", "-")
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                "--sampler", "gibbs", flag, *([] if value is True else [str(value)])]
        assert main(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", RJMCMC_ONLY_SETTINGS)
    def test_rjmcmc_setting_in_config_refused_under_gibbs(self, tmp_path, capsys, name, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": "gibbs", name: value}))
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                "--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert "--" + name.replace("_", "-") in capsys.readouterr().err
        assert not out.exists()

    def test_rjmcmc_defaults_accepted_under_gibbs(self, tmp_path):
        bundle = _generate(tmp_path)
        argv = ["fit", "--data", str(bundle), "--out", str(tmp_path / "fit"),
                "--iterations", "2", "--prior-k", "poisson", "--k-max", "50",
                "--prior-k-q", "0.5"]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("context, name, value", UNREAD_SETTINGS)
    def test_unread_flag_refused(self, tmp_path, capsys, context, name, value):
        """The chain would ignore the setting under the others, and
        summary.json would record it; it ends as a usage error before the
        data is read."""
        flags = [f for key, v in context.items() for f in ("--" + key.replace("_", "-"), v)]
        flag = "--" + name.replace("_", "-")
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                *flags, flag, str(value)]
        assert main(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("context, name, value", UNREAD_SETTINGS)
    def test_unread_setting_in_config_refused(self, tmp_path, capsys, context, name, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**context, name: value}))
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                "--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert "--" + name.replace("_", "-") in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_accepted_where_unread(self, tmp_path):
        bundle = _generate(tmp_path)
        argv = ["fit", "--data", str(bundle), "--out", str(tmp_path / "fit"),
                "--iterations", "2", "--sampler", "rjmcmc", "--prior-k", "geometric",
                "--k-max", "50", "--mh-step", str(MH_STEP)]
        assert main(argv) == EXIT_OK


class TestCliEval:
    def test_metrics_against_truth(self, tmp_path, capsys):
        bundle = _generate(tmp_path)
        fit = tmp_path / "fit"
        assert main(
            ["fit", "--data", str(bundle), "--out", str(fit), "--iterations", "50",
             "--burn-in", "20"]
        ) == EXIT_OK
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["eval", "--summary", str(fit / "summary.json"), "--truth", str(bundle),
             "--out", str(metrics_path)]
        )
        assert code == EXIT_OK
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {
            "in_degree_error", "structure_error", "mean_kplus", "mean_k", "k_true",
        }
        assert metrics["k_true"] == 6
        assert metrics["in_degree_error"] >= 0.0

    def test_truthless_bundle_is_data_error(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        write_dataset_bundle(plain, Dataset(X=np.eye(3, dtype=np.int8)))
        fit = tmp_path / "fit"
        assert main(
            ["fit", "--data", str(plain), "--out", str(fit), "--iterations", "5"]
        ) == EXIT_OK
        code = main(["eval", "--summary", str(fit / "summary.json"), "--truth", str(plain)])
        assert code == EXIT_DATA
        assert "ground truth" in capsys.readouterr().err

    def test_bundle_without_causes(self, tmp_path, capsys):
        """generate --k-target 0 writes a Z.csv of blank lines and an empty
        Y.csv; they read back as N x 0 and 0 x T, and eval scores them."""
        bundle, fit = tmp_path / "data", tmp_path / "fit"
        assert main(["generate", "--out", str(bundle), "--n", "3", "--k-target", "0",
                     "--t", "20", "--seed", "1"]) == EXIT_OK
        assert main(["fit", "--data", str(bundle), "--out", str(fit),
                     "--iterations", "3"]) == EXIT_OK
        truth = read_dataset_bundle(bundle).truth
        assert truth.Z.shape == (3, 0) and truth.Y.shape == (0, 20)
        capsys.readouterr()
        assert main(["eval", "--summary", str(fit / "summary.json"),
                     "--truth", str(bundle)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["k_true"] == 0


class TestCliReplicate:
    def test_dimension_study_table(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            ["replicate", "fig3", "--out", str(out), "--datasets", "1",
             "--iterations", "2", "--k-range", "1,2", "--samplers", "gibbs",
             "--inits", "empty", "--n", "3", "--t", "15", "--seed", "0"]
        )
        assert code == EXIT_OK
        lines = (out / "fig3_results.csv").read_text().splitlines()
        assert lines[0].startswith("k_true,sampler,init,runs,mean_dimension")
        assert len(lines) == 3  # header + one row per true dimension

    def test_structure_study_table(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            ["replicate", "fig4", "--out", str(out), "--datasets", "1",
             "--iterations", "2", "--structures", "degree1", "--samplers", "gibbs",
             "--checkpoints", "1,2", "--t", "10", "--seed", "0"]
        )
        assert code == EXIT_OK
        lines = (out / "fig4_results.csv").read_text().splitlines()
        assert lines[0].startswith("structure,sampler,init,iteration,runs")
        assert len(lines) == 3  # header + one row per checkpoint

    def test_checkpoint_beyond_iterations_is_usage_error(self, tmp_path, capsys):
        """A typed checkpoint that the chain never reaches was once dropped,
        leaving a header-only table and exit 0."""
        out = tmp_path / "study"
        argv = ["replicate", "fig4", "--out", str(out), "--checkpoints", "5,99",
                "--iterations", "3", "--datasets", "1", "--t", "10", "--samplers", "gibbs",
                "--structures", "degree1"]
        assert main(argv) == EXIT_USAGE
        assert "--checkpoints 99" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=r"\[5, 99\]"):
            experiments.structure_recovery_experiment(iterations=3, checkpoints=(1, 5, 99))

    def test_default_checkpoints_stop_at_iterations(self, tmp_path):
        out = tmp_path / "study"
        argv = ["replicate", "fig4", "--out", str(out), "--iterations", "3", "--datasets", "1",
                "--t", "10", "--samplers", "gibbs", "--structures", "degree1"]
        assert main(argv) == EXIT_OK
        rows = (out / "fig4_results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["1", "2"]

    def test_zero_iterations_without_checkpoints_is_usage_error(self, tmp_path, capsys):
        """No default checkpoint lies within 0 iterations; the study once
        wrote a header-only table and exited 0."""
        out = tmp_path / "study"
        argv = ["replicate", "fig4", "--out", str(out), "--iterations", "0", "--datasets", "1",
                "--t", "10", "--samplers", "gibbs", "--structures", "degree1"]
        assert main(argv) == EXIT_USAGE
        assert "--iterations 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_k_range_is_usage_error(self, tmp_path):
        code = main(
            ["replicate", "fig3", "--out", str(tmp_path / "s"), "--k-range", "1,two"]
        )
        assert code == EXIT_USAGE

    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        for jobs in ("0", "-2"):
            assert main(["replicate", "fig3", "--out", str(tmp_path / "s"), "--jobs", jobs]) \
                == EXIT_USAGE
            assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("figure,flag,value", [
        ("fig3", "--samplers", "gibbs,vb"),
        ("fig3", "--inits", "empty,random"),
        ("fig4", "--structures", "degree1,nosuch"),
    ], ids=["samplers", "inits", "structures"])
    def test_unknown_name_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         figure, flag, value):
        calls = []
        monkeypatch.setattr(experiments, "run_chain", lambda *a, **kw: calls.append(kw))
        argv = ["replicate", figure, "--out", str(tmp_path / "s"), "--datasets", "1",
                "--iterations", "1", flag, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err and value.split(",")[1] in err
        assert calls == []

    @pytest.mark.parametrize("figure,flag,value", [
        ("fig3", "--samplers", "vb"),
        ("fig3", "--k-range", "x"),
        ("fig3", "--inits", "random"),
        ("fig4", "--structures", "nosuch"),
        ("fig4", "--checkpoints", "1,x"),
        ("fig3", "--jobs", "0"),
    ])
    def test_usage_error_leaves_no_out_dir(self, tmp_path, figure, flag, value):
        out = tmp_path / "D"
        assert main(["replicate", figure, "--out", str(out), flag, value]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("figure,flag,value", [
        ("fig3", "--checkpoints", "5"),
        ("fig3", "--structures", "degree1"),
        ("fig4", "--k-range", "2"),
        ("fig4", "--n", "4"),
    ])
    def test_other_figures_flag_is_usage_error(self, tmp_path, capsys, figure, flag, value):
        """Each figure parses only its own settings; the other figure's
        were once accepted and ignored."""
        out = tmp_path / "D"
        argv = ["replicate", figure, "--out", str(out), "--datasets", "1",
                "--iterations", "1", flag, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err
        assert not out.exists()

    def test_figure_defaults(self):
        fig3 = build_parser().parse_args(["replicate", "fig3", "--out", "x"])
        assert fig3.t == 500 and fig3.inits == ["empty", "random10"]
        fig4 = build_parser().parse_args(["replicate", "fig4", "--out", "x"])
        assert fig4.t == 150 and fig4.inits == ["empty"] and fig4.checkpoints is None

    def test_worker_count_clamped_by_runs_and_cores(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        assert experiments.worker_count(1, 100) == 1
        assert experiments.worker_count(3, 100) == 3
        assert experiments.worker_count(10_000, 100) == 4
        assert experiments.worker_count(10_000, 2) == 2
        assert experiments.worker_count(8, 0) == 1
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments.worker_count(8, 100) == 1

    @pytest.mark.parametrize("figure,extra", STUDIES)
    def test_tables_identical_across_jobs(self, tmp_path, figure, extra):
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["replicate", figure, "--out", str(out), "--jobs", jobs, *extra]) \
                == EXIT_OK
            tables.append((out / f"{figure}_results.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("figure,extra", STUDIES)
    def test_failed_runs_reported(self, tmp_path, monkeypatch, capsys, figure, extra):
        run_chain = experiments.run_chain
        broken = set()

        def flaky_chain(X, **kwargs):
            if kwargs["sampler"] in broken:
                raise RuntimeError("injected")
            return run_chain(X, **kwargs)

        monkeypatch.setattr(experiments, "run_chain", flaky_chain)
        table = tmp_path / f"{figure}_results.csv"
        argv = ["replicate", figure, "--out", str(tmp_path), *extra]
        assert main(argv) == EXIT_OK
        healthy = table.read_text().splitlines()
        capsys.readouterr()

        broken.add("rjmcmc")  # some runs fail: exit 0, failures on stderr
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        rows = table.read_text().splitlines()
        assert len(err) == 4 and all(line.startswith("run failed: ") for line in err)
        assert all("sampler='rjmcmc'" in line and "RuntimeError: injected" in line
                   for line in err)
        assert [r for r in rows if ",gibbs," in r] == [r for r in healthy if ",gibbs," in r]
        failed = [r for r in rows if ",rjmcmc," in r]
        if figure == "fig3":  # one runs = 0 row per condition
            assert failed == [f"{k},rjmcmc,empty,0,nan,nan,nan,nan" for k in (1, 2)]
        else:  # no rows for a condition with no finished run
            assert failed == []

        broken.add("gibbs")  # every run fails: exit 2
        assert main(argv) == EXIT_DATA
        assert len(capsys.readouterr().err.splitlines()) == 8


class TestCliParser:
    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--iterations", "-1"], "--iterations"),
        (["fit", "--burn-in", "-3"], "--burn-in"),
        (["fit", "--infer-hypers", "--mh-step", "-1"], "--mh-step"),
        (["fit", "--mh-step", "nan"], "--mh-step"),
        (["fit", "--k-max", "0"], "--k-max"),
        (["fit", "--prior-k-q", "1"], "--prior-k-q"),
        (["fit", "--prior-k-mean", "-0.5"], "--prior-k-mean"),
        (["generate", "--t", "0", "--n", "3", "--k-target", "2"], "--t"),
        (["generate", "--n", "0", "--k-target", "2"], "--n"),
        (["replicate", "fig3", "--iterations", "-2"], "--iterations"),
        (["replicate", "fig3", "--datasets", "0"], "--datasets"),
        (["replicate", "fig3", "--jobs", "-2"], "--jobs"),
        (["replicate", "fig4", "--t", "0"], "--t"),
        (["fit", "--epsilon", "1"], "--epsilon"),
        (["generate", "--lambda", "1.5", "--structure", "degree1"], "--lambda"),
        (["replicate", "fig3", "--p", "-0.1"], "--p"),
        (["replicate", "fig4", "--alpha", "0"], "--alpha"),
        (["replicate", "fig3", "--k-range=-1"], "--k-range"),
        (["replicate", "fig3", "--k-range", ","], "--k-range"),
        (["replicate", "fig4", "--checkpoints", "0,5"], "--checkpoints"),
        (["replicate", "fig4", "--samplers", ""], "--samplers"),
        (["fit", "--seed", "-1"], "--seed"),
        (["generate", "--seed", "-1", "--n", "3", "--k-target", "2"], "--seed"),
        (["replicate", "fig3", "--seed", "-1"], "--seed"),
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        """argparse refuses the value before any file is read (--data names
        no file, which reading would report as a data error) and before
        --out is created."""
        out = tmp_path / "out"
        command, *rest = argv
        data = ["--data", str(tmp_path / "missing.csv")] if command == "fit" else []
        assert main([command, *rest, *data, "--out", str(out)]) == EXIT_USAGE
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
