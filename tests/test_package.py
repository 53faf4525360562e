"""Package exports, the README's examples, CI's smoke config, CI's and the README's command lines,
and the benchmark's spans."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np

import arraytol
from arraytol.cli import _COMMANDS, _build_parser

from helpers import SMOKE
from test_cli import VALIDATE_CHECKS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
        "ProbeHistogram",
        "ValidationError",
        "feature_report",
        "load_config",
        "mean_probabilities",
        "power_bounds",
        "power_db",
        "run_mc",
        "sample_realization",
        "sample_stream",
        "scenario_from_config",
        "scenario_from_tolerances",
        "uniform_grid",
    ]


def _library_blocks() -> list[str]:
    """The python code blocks of the README's library section, in order."""
    section = README.read_text("utf-8").split("## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_blocks()[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_readme_sink_example_keeps_every_region():
    scenario = arraytol.scenario_from_tolerances([(1.0, 0.0)] * 4, 0.02, 0.05, 0.5)
    grid = arraytol.uniform_grid(21)
    namespace = {"power_bounds": arraytol.power_bounds, "scenario": scenario, "grid": grid}
    exec(compile(_library_blocks()[1], str(README), "exec"), namespace)
    regions, bounds = namespace["regions"], namespace["bounds"]
    assert bounds.mirrored == 10
    assert [len(r) for r in regions] == bounds.n_vertices.tolist()
    assert np.array_equal(regions[0], np.concatenate((regions[-1][:1], regions[-1][:0:-1])).conj())


def test_ci_smoke_config_is_the_tests_smoke_config():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    configs = re.findall(r"^ *printf '%s' '(.*)' > smoke\.json$", workflow, re.M)
    assert len(configs) == 1
    assert json.loads(configs[0]) == SMOKE


def test_ci_smoke_check_names_are_the_tests_validate_checks():
    # CI's smoke step holds the names a validate report prints, in order, in one tuple
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    (names,) = re.findall(r"names = (\(.*?\));", workflow)
    assert ast.literal_eval(names) == VALIDATE_CHECKS


def test_ci_and_readme_command_lines_parse():
    """Every `arraytol ...` line of CI's workflow and the README's sh blocks is one the CLI accepts.

    So a flag moved to another command, or renamed, cannot silently break
    CI's smoke step or the documented command lines.
    """
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    readme = "".join(re.findall(r"```sh\n(.*?)```", README.read_text("utf-8"), re.S))
    # a command's arguments end at a ;, a comment or a redirection of its output
    line = re.compile(r"^\s*(?:if\s+)?arraytol\s+([^;#>\n]*)", re.M)
    for source, text in (("tests.yml", workflow), ("README.md", readme)):
        # argparse exits with code 2 on an unknown command or flag
        commands = {_build_parser().parse_args(shlex.split(args)).command
                    for args in line.findall(text)}
        assert commands == set(_COMMANDS), source


# Span targets that perfbench/child.py still names but that the package no
# longer defines; their spans record nothing until the benchmark repoints them.
_DEAD_SPAN_TARGETS = {
    ("arraytol.geometry", "polygonize_interval_phasor"),
    ("arraytol.geometry", "minkowski_sum_many"),
    ("arraytol.geometry", "distance_bounds_to_origin"),
    ("arraytol.geometry", "triangulate"),
    ("arraytol.geometry", "circle_triangle_intersection_area"),
    ("arraytol.pia", "probability_map"),
    ("arraytol.pia", "region_probabilities"),
    ("arraytol.validate", "disc_polygon_area_quadrature"),
}


def test_benchmark_spans_resolve():
    """Every function the benchmark's tracer wraps by name exists, but the known dead ones.

    SPANS is read from perfbench/child.py's source, which is not imported,
    so a renamed or folded function cannot silently empty a live span.
    """
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text("utf-8"))
    (spans,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]]
    unresolved = [
        (module, name) for _, module, name in spans
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert set(unresolved) <= _DEAD_SPAN_TARGETS, sorted(set(unresolved) - _DEAD_SPAN_TARGETS)
