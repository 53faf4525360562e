"""Package export list and the README's library example."""

import re
from pathlib import Path

import arraytol

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = arraytol.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(arraytol, name) is not None


def test_public_surface_is_exactly_these_names():
    assert sorted(arraytol.__all__) == [
        "AngularGrid",
        "ArrayScenario",
        "ConfigError",
        "ExcitationInterval",
        "FeatureReport",
        "McReport",
        "PowerBoundsCurve",
        "ProbabilityMap",
        "ProbeHistogram",
        "ValidationError",
        "feature_report",
        "interval_af_curve",
        "load_config",
        "mean_probabilities",
        "nominal_af_curve",
        "power_bounds",
        "power_db",
        "probability_map",
        "run_mc",
        "sample_realization",
        "sample_stream",
        "scenario_from_config",
        "scenario_from_tolerances",
        "uniform_grid",
    ]


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library\n.*?```python\n(.*?)```", README.read_text("utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
