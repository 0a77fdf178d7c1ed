"""The benchmark's per-layer view: perfbench/tracing.py patches package
attributes by name, so a rename or a local import in the package would
silently close a layer's spans.  These tests keep every patch resolving
and the sweep, hyperparameter and trace spans opening under a chain."""

import importlib.util
from pathlib import Path

import numpy as np

from hiddencauses import ModelParams, runner

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

PARAMS = ModelParams(epsilon=0.05, lam=0.8, p=0.3, alpha=1.0)
X = (np.random.default_rng(8).random((4, 25)) < 0.3).astype(np.int8)


def test_install_resolves_and_uninstall_restores_every_patch():
    targets = [(p[0], p[1]) for p in tracing.PATCHES] + [(p[0], p[1]) for p in tracing.COUNT_ONLY]
    originals = [getattr(tracing._owner(path), attr) for path, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (path, attr), original in zip(targets, originals):
            assert getattr(tracing._owner(path), attr) is not original, (path, attr)
    finally:
        tracer.uninstall()
    for (path, attr), original in zip(targets, originals):
        assert getattr(tracing._owner(path), attr) is original, (path, attr)


def test_chain_layers_open_their_spans():
    def chains():
        for sampler in ("gibbs", "rjmcmc"):
            runner.run_chain(X, sampler=sampler, iterations=3, params=PARAMS, seed=1,
                             infer_hypers=True)

    tracer = tracing.Tracer()
    tracer.timed(chains)
    opened = {name for name, *_ in tracer.spans}
    assert {"runner.chain", "gibbs.sweep", "rjmcmc.sweep", "hypers.mh_rate", "hypers.conjugate",
            "runner.trace"} <= opened
    assert tracer.counts["gibbs.sweep.calls"] == 3
    assert tracer.counts["rjmcmc.sweep.calls"] == 3
    assert tracer.counts["hypers.mh_rate.calls"] == 12  # lam and epsilon, every sweep
    assert tracer.counts["runner.trace.calls"] == 8  # iterations 0..3 of each chain
