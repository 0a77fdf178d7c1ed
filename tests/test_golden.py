"""Golden hashes: fit outputs and study tables keep their bytes.

Each constant is the sha256 of a file that a fixed CLI run writes.  A
change that leaves every draw as it was keeps them all; a change that
means to alter what a chain draws records the new constants here.  Runs
use relative paths from one working directory, because ``summary.json``
records the ``--data`` and ``--out`` values.
"""

import hashlib

import pytest

from hiddencauses import cli

BUNDLE = ["generate", "--out", "bundle", "--n", "6", "--k-target", "3", "--t", "500",
          "--seed", "42"]
HYPERS = ["--infer-hypers", "--init", "random10"]

# (trace.jsonl, summary.json) of `fit --data bundle --iterations 40 --seed 3`
FIT_GOLDEN = {
    ("gibbs", False): (
        "5f2dfb0478954377ebc838afa6db753923b6eea3efd97e28682406d0acf50f57",
        "2326dd6504825548c60a583071b3e479b4da5a96ef98773626f475c5012de0d6",
    ),
    ("gibbs", True): (
        "4fc56fff67e00678c2f9640a30ac4e6324f1f3937a406cf92d0740f1d41fb456",
        "bf8f4c7b2b05a8ff47dab0d62e85ce21dadf39077506cee480bff148f3ca52ae",
    ),
    ("rjmcmc", False): (
        "ab8176106814b4b7787d890fe6eab9086e0fc18631796c5e4cf895c98224c636",
        "382fc59eb4a853eb3a24690bb0c8132590705553e07a4d5046f09c6d8c46804e",
    ),
    ("rjmcmc", True): (
        "b34a667947fb1c0e5aa58f28aa9ac61f29550ef7e2d296caf9bf5acb0b79fd8b",
        "48b0f7040d5572cd8f5ebfa978ff077acf9bb49fcd7d03e2364c0a8e817c68a1",
    ),
}

STUDIES = {
    "fig3": ["--k-range", "1,2,3", "--n", "5", "--t", "60"],
    "fig4": ["--t", "40", "--checkpoints", "1,2,5,10"],
}
# sha256 of <figure>_results.csv from
# `replicate <figure> --datasets 2 --iterations 10 --seed 7` plus STUDIES[figure]
STUDY_GOLDEN = {
    "fig3": "892aa7e4ec1ea66a66a2c414bd2ae3f09e079363fa1b6c5e728a168a2d752a00",
    "fig4": "19384bcff7fffdcf20871598738fb0eee320a22abe5dbc13df48c9a82e10e034",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main(BUNDLE) == cli.EXIT_OK
    return root


def fit_hashes(workdir, sampler: str, hypers: bool) -> tuple[str, str]:
    out = f"fit-{sampler}-{int(hypers)}"
    argv = ["fit", "--data", "bundle", "--out", out, "--sampler", sampler,
            "--iterations", "40", "--seed", "3"] + (HYPERS if hypers else [])
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        assert cli.main(argv) == cli.EXIT_OK
    return _sha256(workdir / out / "trace.jsonl"), _sha256(workdir / out / "summary.json")


def study_hash(tmp_path, figure: str) -> str:
    argv = ["replicate", figure, "--out", str(tmp_path), "--datasets", "2",
            "--iterations", "10", "--seed", "7"] + STUDIES[figure]
    assert cli.main(argv) == cli.EXIT_OK
    return _sha256(tmp_path / f"{figure}_results.csv")


@pytest.mark.parametrize("sampler,hypers", sorted(FIT_GOLDEN))
def test_fit_outputs_keep_their_bytes(workdir, sampler, hypers):
    assert fit_hashes(workdir, sampler, hypers) == FIT_GOLDEN[sampler, hypers]


@pytest.mark.parametrize("figure", sorted(STUDY_GOLDEN))
def test_study_tables_keep_their_bytes(tmp_path, figure):
    assert study_hash(tmp_path, figure) == STUDY_GOLDEN[figure]
