"""The package's public surface: exactly the documented names."""

import re
from pathlib import Path

import hiddencauses

PUBLIC = {
    "ModelParams", "SamplerState", "FiniteState", "DegenerateModelError", "run_chain",
    "log_likelihood", "log_joint", "log_prior_Z_finite", "log_prior_Z_ibp",
    "sample_ibp", "harmonic_number", "marginal_on_prob",
    "gibbs_sweep", "rjmcmc_sweep", "finite_gibbs_sweep", "UniformK",
    "sample_p", "sample_alpha", "mh_step_rate",
    "exact_posterior_oracle", "exact_kplus_mixture",
    "generate_dataset", "write_dataset_bundle", "read_trace", "file_digest",
}


def test_all_is_the_documented_surface():
    assert len(PUBLIC) == 25
    assert sorted(hiddencauses.__all__) == sorted(PUBLIC | {"__version__"})
    assert len(hiddencauses.__all__) == len(set(hiddencauses.__all__))


def test_every_exported_name_resolves():
    for name in hiddencauses.__all__:
        assert getattr(hiddencauses, name) is not None, name


def test_readme_library_section_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    mentioned = set(re.findall(r"`([A-Za-z_]\w*)`", library))
    assert PUBLIC <= mentioned, sorted(PUBLIC - mentioned)
