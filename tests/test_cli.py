"""End-to-end CLI tests: output files, determinism, exit codes."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from arraytol import (
    AngularGrid,
    ValidationError,
    feature_report,
    power_bounds,
    power_db,
    run_mc,
    scenario_from_config,
    uniform_grid,
)
from arraytol import cli, iams, validate
from arraytol.cli import _BYTE_BUDGET, _build_parser, build_run_config, main, run_bytes
from arraytol.errors import ConfigError
from arraytol.iams import _PASS_BYTES
from arraytol.validate import format_results, run_validation
from helpers import AWKWARD, SMOKE, padded, pass_regions, taylor_taper, workload_config


def _write_config(path, **overrides):
    cfg = {
        "spacing_wavelengths": 0.5,
        "elements": [
            {"amplitude": 0.5, "phase_deg": 0.0},
            {"amplitude": 0.8, "phase_deg": 0.0},
            {"amplitude": 1.0, "phase_deg": 0.0},
            {"amplitude": 1.0, "phase_deg": 0.0},
            {"amplitude": 0.8, "phase_deg": 0.0},
            {"amplitude": 0.5, "phase_deg": 0.0},
        ],
        "xi_percent": 2.0,
        "gamma_deg": 4.0,
        "k_regions": 5,
        "n_u": 81,
        "arc_points": 6,
        "mc_samples": 2000,
        "seed": 11,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return _write_config(tmp_path / "cfg.json")


# the checks a validate report prints, one line each, in order
VALIDATE_CHECKS = (
    "gamma-interval-tiling", "sll-endpoint-coverage", "mc-inclusion", "mc-ring-frequencies",
    "pattern-symmetry", "zero-tolerance-collapse", "area-oracle-spot-check",
)


def _verdicts(lines) -> list[tuple[str, str]]:
    """The (verdict, check name) of each line of a validate report."""
    return [tuple(line.split()[:2]) for line in lines]


class TestBoundsCommand:
    def test_writes_csv_with_expected_header(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "u,p_lo_db,p_hi_db,nominal_db,modulus_lo,modulus_hi,n_vertices"
        assert len(lines) == 82
        first = lines[1].split(",")
        assert first[0] == "-1.0"
        assert int(first[6]) >= 1

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["bounds", "--config", str(config_path), "--out", str(out1)])
        main(["bounds", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()

    def test_neg_inf_token_for_zero_lower_bound(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["bounds", "--config", str(config_path), "--out", str(out)])
        body = (out / "bounds.csv").read_text()
        assert "-inf" in body  # endfire directions swallow the origin

    def test_dump_polygons(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main([
            "bounds", "--config", str(config_path), "--out", str(out),
            "--nu", "11", "--dump-polygons",
        ]) == 0
        assert not (out / "polygons.csv").exists()
        dump = np.load(out / "polygons.npy")
        counts = _vertex_counts(out / "bounds.csv")
        assert dump.dtype == np.complex128
        assert dump.shape == (11, max(counts))
        cfg = json.loads(config_path.read_text())
        regions, _ = pass_regions(scenario_from_config(cfg), uniform_grid(11), cfg["arc_points"])
        for row, region, n in zip(dump, regions, counts, strict=True):
            assert row[:n].tobytes() == region.tobytes()
            assert np.all(row[n:] == row[0])

    def test_dump_polygons_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            args = ["bounds", "--config", str(config_path), "--out", str(out), "--dump-polygons"]
            assert main(args) == 0
        assert (out1 / "polygons.npy").read_bytes() == (out2 / "polygons.npy").read_bytes()

    @pytest.mark.parametrize("amplitude_hi, counts", [(1.0, {1}), (1.1, {2})])
    def test_dump_polygons_at_zero_tolerance(self, tmp_path, amplitude_hi, counts):
        # zero tolerance makes every sector a point, so each region is a
        # point; one element's amplitude interval alone makes it a segment
        elements = [{"amplitude": 1.0, "phase_deg": 0.0}] * 4
        elements[1] = dict(elements[1], amplitude_lo=1.0, amplitude_hi=amplitude_hi)
        cfg = _write_config(
            tmp_path / "cfg.json", elements=elements, xi_percent=0.0, gamma_deg=0.0, n_u=21
        )
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--dump-polygons"]) == 0
        dump = np.load(out / "polygons.npy")
        assert set(_vertex_counts(out / "bounds.csv")) == counts
        assert (dump.dtype, dump.shape) == (np.complex128, (21, max(counts)))
        payload = json.loads(cfg.read_text())
        scen = scenario_from_config(payload)
        regions, _ = pass_regions(scen, uniform_grid(21), payload["arc_points"])
        assert dump.tobytes() == padded(regions)[0].tobytes()


class TestRegionPass:
    """The region pass's results and polygon dump do not depend on its block size."""

    @pytest.mark.parametrize(
        "workload, n_u",
        # mirrored, direct, and mirrored on an even grid, where every summed
        # row has an image row
        [("taylor16", 501), ("steered64", 501), ("taylor16", 500)],
        ids=["taylor16", "steered64", "taylor16-even"],
    )
    def test_block_size_changes_no_bit(self, workload, n_u, tmp_path, monkeypatch):
        config = workload_config(workload) | {"n_u": n_u}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        scen, grid = scenario_from_config(config), uniform_grid(config["n_u"])
        k_regions = config["k_regions"]
        runs = []
        # the whole grid, or one block, against blocks of a few rows and of one row
        for pass_bytes in (_PASS_BYTES, _PASS_BYTES // 37, 1):
            monkeypatch.setattr(iams, "_PASS_BYTES", pass_bytes)
            monkeypatch.setattr(cli, "_PASS_BYTES", pass_bytes)
            out = tmp_path / str(pass_bytes)
            assert main(["bounds", "--config", str(cfg), "--out", str(out), "--dump-polygons"]) == 0
            blocks = []  # each Block's count of summed rows and of image rows
            curve = power_bounds(
                scen, grid, config["arc_points"], k_regions,
                sink=lambda block: blocks.append(
                    (len(block.n_vertices), block.images.stop - block.images.start)
                ),
            )
            runs.append((curve, (out / "polygons.npy").read_bytes(), blocks))
        (one, one_dump, one_blocks), *others = runs
        for few, few_dump, few_blocks in others:
            assert len(few_blocks) > 2 * len(one_blocks)
            for name in ("n_vertices", "modulus_lo", "modulus_hi", "nominal_power"):
                assert getattr(one, name).tobytes() == getattr(few, name).tobytes(), name
            for a, b in zip(one.rings, few.rings, strict=True):
                assert a.tobytes() == b.tobytes()
            assert one_dump == few_dump
        for _, _, blocks in runs:  # the blocks' rows and image rows cover the grid once
            assert sum(summed + images for summed, images in blocks) == len(grid)
            assert sum(images for _, images in blocks) == one.mirrored
        # one-row blocks: the sink gets each summed row alone, with its image if it has one
        assert others[-1][2] == [(1, int(i >= len(grid) - one.mirrored))
                                 for i in range(one.mirrored, len(grid))]
        # the dump of one block holds the regions the pass hands its sink in
        # blocks of a few rows, byte for byte
        dump = np.load(tmp_path / str(_PASS_BYTES) / "polygons.npy")
        assert dump.shape == (len(grid), one.n_vertices.max())
        regions, _ = pass_regions(scen, grid, config["arc_points"])
        assert padded(regions)[0].tobytes() == dump.tobytes()


def _vertex_counts(bounds_csv) -> list[int]:
    """The n_vertices column of a bounds.csv."""
    return [int(line.split(",")[6]) for line in bounds_csv.read_text().splitlines()[1:]]


class TestPiaCommand:
    def test_refinement_between_k_values(self, config_path, tmp_path):
        out5, out10 = tmp_path / "k5", tmp_path / "k10"
        main(["pia", "--config", str(config_path), "--out", str(out5), "--nu", "41"])
        main(["pia", "--config", str(config_path), "--out", str(out10), "--nu", "41",
              "--k", "10"])

        def load(path, k):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            p = np.array([float(r[4]) for r in rows]).reshape(-1, k)
            return p

        p5 = load(out5 / "pia.csv", 5)
        p10 = load(out10 / "pia.csv", 10)
        agg = p10[:, 0::2] + p10[:, 1::2]
        assert np.abs(agg - p5).max() <= 1e-9

    def test_header_and_stochasticity(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["pia", "--config", str(config_path), "--out", str(out), "--nu", "31"])
        lines = (out / "pia.csv").read_text().splitlines()
        assert lines[0] == "u,k,p_lo_db(k),p_hi_db(k),p_k"
        rows = [line.split(",") for line in lines[1:]]
        p = np.array([float(r[4]) for r in rows]).reshape(31, 5)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    def test_outer_ring_boundaries_are_the_bounds_as_text(self, config_path, tmp_path):
        out = tmp_path / "out"
        for command in ("bounds", "pia"):
            assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "pia.csv").read_text().splitlines()[1:]]
        # u, then the k=1 lower and the k=5 upper boundary of each direction
        outer = [[lo[0], lo[2], hi[3]] for lo, hi in zip(rows[0::5], rows[4::5])]
        bounds = [row.split(",")[:3] for row in (out / "bounds.csv").read_text().splitlines()[1:]]
        assert outer == bounds


class TestFeaturesCommand:
    def test_json_layout(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["features", "--config", str(config_path), "--out", str(out)]) == 0
        payload = json.loads((out / "features.json").read_text())
        assert payload["k_regions"] == 5
        assert len(payload["regions"]) == 5
        region = payload["regions"][0]
        for key in ("k", "sll_db", "sll_prob", "gamma_db", "gamma_prob", "mean_prob"):
            assert key in region
        assert payload["iams"]["sll_db"][0] == payload["regions"][0]["sll_db"][0]
        assert payload["iams"]["gamma_db"][1] == payload["regions"][-1]["gamma_db"][1]
        probs = [r["mean_prob"] for r in payload["regions"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_no_sidelobe_writes_null_sll_db(self, tmp_path):
        # two near-isotropic elements: on a coarse grid the pattern falls
        # from its peak to both grid edges, so the mainlobe is the whole grid
        # and there is no sidelobe to report
        cfg = _write_config(
            tmp_path / "cfg.json",
            elements=[{"amplitude": 1.0, "phase_deg": 0.0}] * 2,
            n_u=5,
        )
        out = tmp_path / "out"
        assert main(["features", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "features.json").read_text())
        assert payload["mainlobe_span"] == [-1.0, 1.0]
        assert payload["iams"]["sll_db"] is None
        assert [r["sll_db"] for r in payload["regions"]] == [None] * 5
        assert payload["iams"]["gamma_db"][1] == payload["regions"][-1]["gamma_db"][1]
        assert sum(r["sll_prob"] for r in payload["regions"]) == pytest.approx(1.0, abs=1e-9)

    def test_mainlobe_reaching_one_grid_edge(self, tmp_path):
        # a beam steered to u = 0.9 falls to the right grid edge, and its
        # sidelobes lie left of it
        cfg = _write_config(
            tmp_path / "cfg.json",
            elements=[{"amplitude": 1.0, "phase_deg": -162.0 * n} for n in range(6)],
        )
        out = tmp_path / "out"
        assert main(["features", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "features.json").read_text())
        assert payload["mainlobe_span"][1] == 1.0 and payload["mainlobe_span"][0] > -1.0
        assert payload["iams"]["sll_db"][0] == payload["regions"][0]["sll_db"][0]
        assert payload["iams"]["sll_db"][1] == payload["regions"][-1]["sll_db"][1]

    def test_infinities_are_spelled_as_strings(self, tmp_path):
        # every amplitude interval reaches 0, so every region holds the
        # origin: the first ring's power starts at -inf dB, and so does the
        # peak's, whose lower bound 0 puts each sidelobe interval's upper end at +inf dB
        elements = [{"amplitude": a, "phase_deg": 0.0, "amplitude_lo": 0.0,
                     "amplitude_hi": 1.02 * a} for a in (0.5, 0.8, 1.0, 1.0, 0.8, 0.5)]
        cfg = _write_config(tmp_path / "cfg.json", elements=elements, k_regions=2, n_u=21)
        out = tmp_path / "out"
        assert main(["features", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "features.json").read_text()
        payload = json.loads(text)
        (first, second), iams_db = payload["regions"], payload["iams"]
        assert first["sll_db"] == ["-inf", "inf"] and first["gamma_db"][0] == "-inf"
        assert second["sll_db"][1] == "inf" and first["gamma_db"][1] == second["gamma_db"][0]
        assert iams_db == {"sll_db": ["-inf", "inf"], "gamma_db": ["-inf", second["gamma_db"][1]]}
        for value in (first["gamma_db"][1], second["sll_db"][0], *second["gamma_db"]):
            assert math.isfinite(value)

        # the library's report in JSON's indent-2 layout, each dB infinity a string
        report = feature_report(power_bounds(scenario_from_config(json.loads(cfg.read_text())),
                                             uniform_grid(21), 6, k_regions=2))

        def db(interval):
            return [("-inf" if v < 0 else "inf") if math.isinf(v) else float(v) for v in interval]

        expected = {
            "k_regions": 2,
            "u_max": report.u_max,
            "mainlobe_span": list(report.mainlobe_span),
            "degenerate": False,
            "regions": [
                {"k": k + 1, "sll_db": db(report.sll_intervals[k]),
                 "sll_prob": float(report.mean_probs[k]),
                 "gamma_db": db(report.gamma_intervals[k]),
                 "gamma_prob": float(report.gamma_probs[k]),
                 "mean_prob": float(report.mean_probs[k])}
                for k in range(2)
            ],
            "iams": {"sll_db": db(report.iams_sll), "gamma_db": db(report.iams_gamma)},
        }
        assert text == json.dumps(expected, indent=2) + "\n"


class TestOverflow:
    @pytest.mark.parametrize("amplitude, command, written", [
        (1e80, "pia", "pia.csv"),  # ring areas would overflow, the power bounds would not
        (1e200, "bounds", "bounds.csv"),  # the power bounds would overflow too
    ])
    def test_overflowing_amplitudes_exit_one(self, tmp_path, capsys, amplitude, command, written):
        cfg = _write_config(
            tmp_path / "cfg.json",
            elements=[{"amplitude": amplitude, "phase_deg": 0.0}] * 3,
            xi_percent=1.0,
            gamma_deg=3.0,
            k_regions=3,
            n_u=41,
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "overflow" in capsys.readouterr().err
        assert not (out / written).exists()


class TestAmplitudeRange:
    """Amplitudes whose sectors' moduli sum lies in [1e-72, 1e72] pass; others exit 1.

    The sum bounds every region modulus, and is checked before any region is built.
    """

    @staticmethod
    def _taylor16(tmp_path, scale):
        return _write_config(
            tmp_path / "cfg.json",
            elements=[{"amplitude": scale * a, "phase_deg": 0.0} for a in taylor_taper(16)],
            xi_percent=1.0,
            gamma_deg=3.0,
            k_regions=5,
            n_u=41,
            arc_points=8,
        )

    @pytest.mark.parametrize("scale", [1e-70, 1e70])
    def test_scales_inside_the_range_validate(self, tmp_path, capsys, scale):
        cfg = self._taylor16(tmp_path, scale)
        assert main(["validate", "--config", str(cfg), "--mc-samples", "500"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e-100, 1e-150, 1e-170])
    @pytest.mark.parametrize("command", ["bounds", "pia", "validate"])
    def test_scales_below_the_range_exit_one(self, tmp_path, capsys, scale, command):
        # unchecked, the collinearity floor collapses every region at 1e-150,
        # the crossing roots underflow at 1e-100, and the nominal peak
        # underflows to zero at 1e-170
        cfg = self._taylor16(tmp_path, scale)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "outside [1e-72, 1e+72]" in err and "scale the amplitudes up" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bounds", "pia", "validate"])
    def test_scales_above_the_range_exit_one(self, tmp_path, capsys, command):
        # the sum is checked before any region is built, so its message is
        # the one stderr line
        cfg = self._taylor16(tmp_path, 1e160)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "outside [1e-72, 1e+72]" in err and "scale the amplitudes down" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", ["new/nested", "existing/new", "existing"])
    def test_a_failed_dump_leaves_no_directory_it_made(self, tmp_path, capsys, out_dir):
        # the pass fails on the sector-reach range after the dump has opened
        # its file; a directory that was there stays, empty
        cfg = self._taylor16(tmp_path, 1e160)
        (tmp_path / "existing").mkdir()
        args = ["bounds", "--config", str(cfg), "--out", str(tmp_path / out_dir)]
        assert main([*args, "--dump-polygons"]) == 1
        err = capsys.readouterr().err
        assert "scale the amplitudes down" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "existing"]
        assert list((tmp_path / "existing").iterdir()) == []

    def test_a_failed_dump_keeps_the_earlier_run(self, tmp_path, capsys):
        # the dump replaces polygons.npy only once its pass has succeeded, so
        # a failed run leaves an earlier run's files as they were, as it does
        # without the dump
        out = tmp_path / "out"
        good = _write_config(tmp_path / "good.json")
        assert main(["bounds", "--config", str(good), "--out", str(out), "--dump-polygons"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["bounds.csv", "polygons.npy"]
        cfg = self._taylor16(tmp_path, 1e160)
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--dump-polygons"]) == 1
        assert "scale the amplitudes down" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestMcCommand:
    def test_outputs_and_inclusion(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main([
            "mc", "--config", str(config_path), "--out", str(out),
            "--nu", "41", "--mc-samples", "3000", "--probe", "0.55", "--probe", "0.56",
        ]) == 0
        env = (out / "mc_envelope.csv").read_text().splitlines()
        assert env[0] == "u,mc_min_db,mc_max_db,p_lo_db,p_hi_db"
        for line in env[1:]:
            u, mc_min, mc_max, p_lo, p_hi = line.split(",")
            assert float(mc_min) >= float(p_lo) - 1e-9 or p_lo == "-inf"
            assert float(mc_max) <= float(p_hi) + 1e-9
        freq = (out / "mc_frequencies.csv").read_text().splitlines()
        assert freq[0] == "u,k,mc_freq,pia_p"
        hists = sorted(out.glob("mc_hist_*.csv"))
        assert len(hists) == 1
        hist_lines = hists[0].read_text().splitlines()
        assert hist_lines[0] == "bin_lo_db,bin_hi_db,count"
        assert sum(int(line.split(",")[2]) for line in hist_lines[1:]) == 3000

    def test_seed_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["mc", "--config", str(config_path), "--nu", "21", "--mc-samples", "1500"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2), "--threads", "3"])
        assert (out1 / "mc_envelope.csv").read_bytes() == (out2 / "mc_envelope.csv").read_bytes()
        assert (out1 / "mc_frequencies.csv").read_bytes() == (
            out2 / "mc_frequencies.csv"
        ).read_bytes()


class TestNumberFormat:
    def test_csv_cells_are_python_reprs_of_the_library_arrays(self, config_path, tmp_path):
        # each cell rendered on its own from the library's arrays: a float as
        # repr(float(x)), so inf/-inf print as tokens, and a count as int(x)
        out = tmp_path / "out"
        common = ["--config", str(config_path), "--out", str(out)]
        probes = (0.55, -1.0)
        assert main(["bounds", "--dump-polygons", *common]) == 0
        assert main(["pia", *common]) == 0
        mc_args = ["--mc-samples", "500", "--probe", "0.55", "--probe", "-1.0"]
        assert main(["mc", *mc_args, *common]) == 0

        cfg = json.loads(config_path.read_text())
        scen = scenario_from_config(cfg)
        grid = uniform_grid(cfg["n_u"])
        k_regions = cfg["k_regions"]
        curve = power_bounds(scen, grid, cfg["arc_points"], k_regions=k_regions)
        mc = run_mc(curve, 500, seed=cfg["seed"], probe_directions=probes)

        def f(x):
            return repr(float(x))

        def csv(header, rows):
            return header + "\n" + "".join(",".join(row) + "\n" for row in rows)

        u = grid.samples
        ring_db = curve.region_power_db
        mc_min_db = power_db(mc.per_u_min, curve.peak_power)
        mc_max_db = power_db(mc.per_u_max, curve.peak_power)
        expected = {
            "bounds.csv": csv(
                "u,p_lo_db,p_hi_db,nominal_db,modulus_lo,modulus_hi,n_vertices",
                (
                    [f(u[i]), f(curve.p_lo_db[i]), f(curve.p_hi_db[i]), f(curve.nominal_db[i]),
                     f(curve.modulus_lo[i]), f(curve.modulus_hi[i]), str(int(curve.n_vertices[i]))]
                    for i in range(len(grid))
                ),
            ),
            "pia.csv": csv(
                "u,k,p_lo_db(k),p_hi_db(k),p_k",
                (
                    [f(u[i]), str(k + 1), f(ring_db[i, k]), f(ring_db[i, k + 1]), f(curve.p[k, i])]
                    for i in range(len(grid))
                    for k in range(k_regions)
                ),
            ),
            "mc_envelope.csv": csv(
                "u,mc_min_db,mc_max_db,p_lo_db,p_hi_db",
                (
                    [f(u[i]), f(mc_min_db[i]), f(mc_max_db[i]), f(curve.p_lo_db[i]),
                     f(curve.p_hi_db[i])]
                    for i in range(len(grid))
                ),
            ),
            "mc_frequencies.csv": csv(
                "u,k,mc_freq,pia_p",
                (
                    [f(u[i]), str(k + 1), f(mc.region_frequencies[k, i]), f(curve.p[k, i])]
                    for i in range(len(grid))
                    for k in range(k_regions)
                ),
            ),
        }
        for probe, hist in zip(probes, mc.histograms, strict=True):
            edges = hist.bin_edges_db
            name = f"mc_hist_{int(np.argmin(np.abs(u - probe))):04d}.csv"
            expected[name] = csv(
                "bin_lo_db,bin_hi_db,count",
                ([f(edges[b]), f(edges[b + 1]), str(int(hist.counts[b]))]
                 for b in range(hist.counts.size)),
            )
        assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "polygons.npy"])
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name
        # the polygon dump is binary: the library's regions, bit for bit
        dump = np.load(out / "polygons.npy")
        vertices, _ = padded(pass_regions(scen, grid, cfg["arc_points"])[0])
        assert (dump.dtype, dump.shape) == (np.complex128, vertices.shape)
        assert dump.tobytes() == vertices.tobytes()
        assert "-inf" in expected["bounds.csv"] and "-inf" in expected["mc_envelope.csv"]


class TestValidateCommand:
    def test_passes_on_sound_config(self, config_path, tmp_path, capsys):
        code = main(["validate", "--config", str(config_path), "--nu", "41",
                     "--mc-samples", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "PASS  area-oracle-spot-check" in out

    def test_prints_the_suite_on_the_run_run_validation_builds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE))
        assert main(["validate", "--config", str(cfg)]) == 0
        results = run_validation(scenario_from_config(SMOKE), uniform_grid(SMOKE["n_u"]),
                                 SMOKE["k_regions"], SMOKE["mc_samples"],
                                 arc_points=SMOKE["arc_points"], seed=SMOKE["seed"])
        assert capsys.readouterr().out == format_results(results) + "\n"

    def test_zero_tolerance_config_passes_with_warning(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", xi_percent=0.0, gamma_deg=0.0)
        code = main(["validate", "--config", str(cfg), "--nu", "41",
                     "--mc-samples", "500"])
        assert code == 0
        assert "warning" in capsys.readouterr().out

    def test_two_element_array_gives_a_verdict_per_check(self, tmp_path, capsys):
        # two elements at half a wavelength: the mainlobe reaches both grid
        # edges, so the sidelobe check is not applicable but the rest run
        cfg = _write_config(
            tmp_path / "cfg.json", elements=[{"amplitude": 1.0, "phase_deg": 0.0}] * 2
        )
        code = main(["validate", "--config", str(cfg), "--nu", "41", "--mc-samples", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS  sll-endpoint-coverage        not applicable (no sidelobe)" in out
        assert "PASS  gamma-interval-tiling" in out
        assert "PASS  zero-tolerance-collapse" in out and "PASS  mc-inclusion" in out
        assert main(["features", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "features.json").read_text())
        assert payload["iams"]["sll_db"] is None

    def test_exact_nulls_pass_every_check(self, tmp_path, capsys):
        # four equal zero-tolerance elements a quarter wavelength apart have
        # exact nulls at u = -1 and u = 1, the only samples of a 2-point grid,
        # where the bounds are nothing but the rounding allowance
        cfg = _write_config(
            tmp_path / "cfg.json",
            elements=[{"amplitude": 1.0, "phase_deg": 0.0}] * 4,
            spacing_wavelengths=0.25,
            xi_percent=0.0,
            gamma_deg=0.0,
        )
        code = main(["validate", "--config", str(cfg), "--nu", "2", "--mc-samples", "101"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert _verdicts(lines) == [("PASS", name) for name in VALIDATE_CHECKS]
        collapse = next(line for line in lines if "zero-tolerance-collapse" in line)
        assert "max |p - nominal| = " in collapse


    def test_an_exact_nominal_null_on_a_mirrored_row_passes(self, tmp_path, capsys):
        # two equal elements half a wavelength apart, nominal phase 7.5 deg:
        # the nominal pattern is exactly 0 at u = -1, the one mirrored row of
        # a 3-sample grid, which power_bounds rejects as a grid of its own;
        # validate's passes over sub-grids of rows read no nominal pattern
        element = {"amplitude": 1.0, "phase_deg": 7.5, "phase_lo_deg": -70.0,
                   "phase_hi_deg": 70.0}
        cfg = _write_config(tmp_path / "cfg.json", elements=[element] * 2, n_u=3)
        scen = scenario_from_config(json.loads(cfg.read_text()))
        assert power_bounds(scen, uniform_grid(3)).mirrored == 1
        with pytest.raises(ValidationError, match="identically zero"):
            power_bounds(scen, AngularGrid([-1.0]))
        code = main(["validate", "--config", str(cfg), "--mc-samples", "500"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert _verdicts(lines) == [("PASS", name) for name in VALIDATE_CHECKS]
        assert any(line.startswith("PASS  pattern-symmetry  ") and "1 mirrored" in line
                   for line in lines)


# the smoke config of CI's console-script step and its awkward variants
AWKWARD_CONFIGS = {"smoke": SMOKE, **AWKWARD}
# each on grids of 2 to 5 samples, and on 40 and 41
AWKWARD_CASES = [(name, n_u) for name in AWKWARD_CONFIGS for n_u in (2, 3, 4, 5, 40, 41)]

# the variants whose phase intervals are not all symmetric about 0: no row is mirrored
DIRECT = {"steered-60", "sliver", "smoke-direct"}

# ROADMAP item 3: on the narrow pattern at n_u = 2 to 5 the slivers at u = +-1
# are about as wide as the weld moves their boundaries, so pattern-symmetry
# fails; the mend of item 3 removes these marks
_NARROW_SYMMETRY = pytest.mark.xfail(
    strict=True, reason="narrow fails pattern-symmetry at n_u 2-5 (ROADMAP item 3)"
)


class TestAwkwardPatterns:
    """Legal but awkward patterns run every command, and every output repeats byte for byte."""

    @staticmethod
    def _config(tmp_path, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(AWKWARD_CONFIGS[name]))
        return path

    @pytest.mark.parametrize("name, n_u", AWKWARD_CASES)
    def test_outputs(self, tmp_path, name, n_u):
        cfg, k = self._config(tmp_path, name), SMOKE["k_regions"]
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            common = ["--config", str(cfg), "--nu", str(n_u), "--out", str(out)]
            for command, *flags in (["bounds", "--dump-polygons"], ["pia"], ["features"],
                                    ["mc", "--probe", "0.0"]):
                assert main([command, *common, *flags]) == 0, command
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        files, again = runs
        # the probe's histogram is at its nearest sample, the first of a tie
        hist = f"mc_hist_{(n_u - 1) // 2:04d}.csv"
        assert sorted(files) == sorted(again) == sorted([
            "bounds.csv", "polygons.npy", "pia.csv", "features.json", "mc_envelope.csv",
            "mc_frequencies.csv", hist,
        ])
        assert [f for f in files if files[f] != again[f]] == []

        # the dump is the (n_u, max n_vertices) complex128 region array; row i
        # runs n_vertices[i] vertices, then repeats of vertex 0
        dump = np.load(tmp_path / "a" / "polygons.npy")
        counts = _vertex_counts(tmp_path / "a" / "bounds.csv")
        assert (dump.dtype, dump.shape) == (np.complex128, (n_u, max(counts)))
        rows = [1 + max((j for j in range(len(r)) if r[j] != r[0]), default=0) for r in dump]
        assert rows == counts
        # a symmetric pattern sums the rows from u = 0 on; the dump writes
        # each row i < n_u // 2 as the conjugate image of row n_u - 1 - i: its
        # vertex 0 first, the rest in reverse order, then repeats of vertex 0
        for i in range(0 if name in DIRECT else n_u // 2):
            n, source = counts[n_u - 1 - i], dump[n_u - 1 - i]
            pad = np.repeat(source[:1], len(source) - n)
            image = np.concatenate((source[:1], source[1:n][::-1], pad)).conj()
            assert counts[i] == n and dump[i].tobytes() == image.tobytes(), i

        # the outermost ring boundaries are the bounds, as text: k=1 p_lo_db(k)
        # and k=K p_hi_db(k)
        pia = [line.split(",") for line in files["pia.csv"].decode().splitlines()[1:]]
        bounds = [line.split(",")[:3] for line in files["bounds.csv"].decode().splitlines()[1:]]
        assert len(pia) == n_u * k
        assert [[lo[0], lo[2], hi[3]] for lo, hi in zip(pia[0::k], pia[k - 1::k])] == bounds
        assert len(files["mc_frequencies.csv"].splitlines()) == n_u * k + 1
        hist_counts = [int(line.split(b",")[2]) for line in files[hist].splitlines()[1:]]
        assert sum(hist_counts) == SMOKE["mc_samples"]

    @pytest.mark.parametrize("name, n_u", [
        pytest.param(name, n_u, marks=_NARROW_SYMMETRY) if name == "narrow" and n_u <= 5
        else (name, n_u)
        for name, n_u in AWKWARD_CASES
    ])
    def test_validate_passes_every_check(self, tmp_path, capsys, name, n_u):
        cfg = self._config(tmp_path, name)
        codes, reports = [], []
        for _ in range(2):
            codes.append(main(["validate", "--config", str(cfg), "--nu", str(n_u)]))
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        lines = reports[0].splitlines()
        assert _verdicts(lines) == [("PASS", name) for name in VALIDATE_CHECKS]
        assert codes == [0, 0]
        if name in DIRECT:
            assert "PASS  pattern-symmetry             not applicable (no mirrored rows)" in lines

    def test_amplitude_only_sums_to_one_segment_at_broadside(self, tmp_path):
        # with amplitude tolerances only, every element's sector is a radial
        # segment or, at amplitude 0, a point; at u = 0 they sum to one
        # segment, which does not reach the origin
        cfg, out = self._config(tmp_path, "amp-only"), tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "bounds.csv", newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if float(r["u"]) == 0.0)
        assert row["n_vertices"] == "2"
        assert float(row["modulus_lo"]) == pytest.approx(0.98 * 2.2, rel=0.0, abs=1e-9)


class TestComputeOnce:
    """Each command builds the regions of a scenario once and chains on them."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """(first argument, result) of each call to a stage, by stage, through any module's
        binding."""
        import sys

        from arraytol import geometry, iams, montecarlo, pia

        calls = {}
        for module, name in (
            (iams, "interval_af_curve"), (pia, "feature_report"), (montecarlo, "run_mc"),
            (geometry, "polygonize_interval_phasors"), (geometry, "rotated_minkowski_sums"),
        ):
            original = getattr(module, name)
            seen = calls[name] = []

            def counted(*args, _original=original, _seen=seen, **kwargs):
                result = _original(*args, **kwargs)
                _seen.append((args[0], result))
                return result

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("arraytol") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    def test_validation_builds_only_its_own_products(self, calls, config_path):
        from arraytol import scenario_from_tolerances

        scen = scenario_from_tolerances([(1.0, 0.0)] * 6, 0.02, math.radians(4.0), 0.5)
        run_validation(scen, uniform_grid(41), 5, 500, arc_points=6)
        # the run's curve, whose sink keeps the oracle rows, and its MC and
        # feature report; then the mirrored oracle rows summed again from the
        # curve's sectors, and the zero-tolerance collapse's curve, the second
        # polygonization
        curves, reports = calls["interval_af_curve"], calls["feature_report"]
        assert (len(curves), len(reports), len(calls["run_mc"])) == (3, 1, 1)
        assert len(calls["rotated_minkowski_sums"]) == 3
        assert len(calls["polygonize_interval_phasors"]) == 2
        (first, curve), (second, _), (third, collapsed) = curves
        assert first is scen and second is scen and third is not scen
        assert calls["run_mc"][0][0] is curve and reports[0][0] is curve
        assert collapsed is not curve

        for seen in calls.values():
            seen.clear()
        assert main(["validate", "--config", str(config_path), "--mc-samples", "500"]) == 0
        # the command's own curve, whose sink keeps the oracle rows, and its
        # MC, then the suite's direct rows, summed from the command's
        # sectors, and its collapse
        assert (len(calls["interval_af_curve"]), len(calls["run_mc"])) == (3, 1)
        assert len(calls["polygonize_interval_phasors"]) == 2
        assert len(calls["rotated_minkowski_sums"]) == 3

    def test_pia_builds_no_polygon_per_direction(self, calls, config_path, tmp_path):
        assert main(["pia", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        # one padded array of element sectors, and one batched sum for the 81 directions
        assert len(calls["polygonize_interval_phasors"]) == 1
        assert len(calls["rotated_minkowski_sums"]) == 1

    @pytest.mark.parametrize(
        "command, curves", [("bounds", 1), ("pia", 1), ("features", 1), ("mc", 1), ("validate", 3)]
    )
    def test_each_command_builds_one_curve_per_scenario(
        self, calls, config_path, tmp_path, command, curves
    ):
        args = [command, "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--mc-samples", "500"]) == 0
        assert len(calls["interval_af_curve"]) == curves


def _fresh_python(script, *args, env=()) -> str:
    """The stdout of script run with args in a fresh interpreter that imports the package from src,
    with the variables env sets added to this process's environment.

    pytest's own interpreter has loaded numpy.random and grown its heap.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path, **dict(env)), capture_output=True, text=True,
        check=True,
    )
    return done.stdout


class TestLeanImports:
    """No command loads numpy.random (about 6 MiB resident) or numpy.ma (each 9-15 ms to import)."""

    SCRIPT = """
import contextlib, io, json, sys
steps = []
def lean():
    return [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]
import arraytol
steps.append(("import arraytol", lean()))
from arraytol.cli import main
cfg, out = sys.argv[1:]
for args in (["bounds", "--dump-polygons"], ["pia"], ["features"], ["mc"], ["validate"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([args[0], "--config", cfg, "--out", out, *args[1:]])
    steps.append((" ".join(args) + f" (exit {code})", lean()))
print(json.dumps(steps))
"""

    def test_no_command_loads_numpy_random_or_numpy_ma(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", n_u=21, mc_samples=200)
        steps = json.loads(_fresh_python(self.SCRIPT, cfg, tmp_path / "out"))
        assert [tuple(step) for step in steps] == [
            ("import arraytol", []),
            ("bounds --dump-polygons (exit 0)", []),
            ("pia (exit 0)", []),
            ("features (exit 0)", []),
            ("mc (exit 0)", []),
            ("validate (exit 0)", []),
        ]


class TestMcMemory:
    """A Monte Carlo chunk counts its draws, 32 N bytes a sample, so mc's peak stays low."""

    # the peak is the interpreter's own VmHWM: Linux carries ru_maxrss over
    # exec, so a child of the test process would report this process's peak
    SCRIPT = """
import sys
from arraytol.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak_kib / 1024)
"""

    def test_wide_array_on_two_directions(self, tmp_path):
        # 64 elements on 2 directions: a chunk sized by n_u alone would hold
        # every one of the samples' draws
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE | {"elements": SMOKE["elements"] * 16}))
        args = ("mc", "--config", cfg, "--out", tmp_path / "out", "--nu", 2, "--mc-samples", 70000)
        code, peak_mib = _fresh_python(self.SCRIPT, *args).split()
        assert code == "0"
        assert float(peak_mib) < 80.0

    def test_mc_peak_is_within_3_mib_of_pia(self, tmp_path):
        # the taylor16 workload: 16 elements, 501 directions, 20000 samples;
        # a sampling process holds a 2 MiB chunk and imports nothing pia does not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(workload_config("taylor16")))
        peaks = {}
        for command in ("pia", "mc"):
            args = (command, "--config", cfg, "--out", tmp_path / command)
            code, peak = _fresh_python(self.SCRIPT, *args).split()
            assert code == "0"
            peaks[command] = float(peak)
        assert peaks["mc"] - peaks["pia"] <= 3.0, peaks


class TestOneSampleMc:
    """A one-sample run's product is a two-row gemm, so its files do not
    depend on OpenBLAS's thread count; a one-row product (gemv) rounds by it."""

    SCRIPT = """
import sys
from arraytol.cli import main
print(main(sys.argv[1:]))
"""

    def test_files_do_not_depend_on_openblas_threads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(workload_config("steered64")))
        for threads in ("1", "2"):
            args = ("mc", "--config", cfg, "--out", tmp_path / threads, "--mc-samples", 1)
            assert _fresh_python(self.SCRIPT, *args, env={"OPENBLAS_NUM_THREADS": threads}) == "0\n"
        names = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert "mc_envelope.csv" in names
        assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
        for name in names:
            one, two = (tmp_path / "1" / name).read_bytes(), (tmp_path / "2" / name).read_bytes()
            assert one == two, name


class TestParser:
    """main builds its argument parser once per process, and no call leaks into the next."""

    def test_two_calls_build_one_parser(self, config_path, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        _build_parser.cache_clear()
        counts = []
        for out in ("a", "b"):
            assert main(["bounds", "--config", str(config_path), "--nu", "11",
                         "--out", str(tmp_path / out)]) == 0
            counts.append(len(built))
        _build_parser.cache_clear()  # drop the parser built under the patch
        assert counts[0] > 0 and counts[1] == counts[0]

    def test_probe_is_an_mc_flag(self, config_path, capsys):
        for command in ("bounds", "pia", "features", "validate"):
            with pytest.raises(SystemExit) as info:
                main([command, "--config", str(config_path), "--probe", "0.0"])
            assert info.value.code == 2
            assert "unrecognized arguments: --probe 0.0" in capsys.readouterr().err

    def test_a_probe_does_not_carry_into_the_next_call(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE))
        common = ["mc", "--config", str(cfg), "--nu", "11"]
        assert main([*common, "--out", str(tmp_path / "a"), "--probe", "0.0"]) == 0
        assert main([*common, "--out", str(tmp_path / "b")]) == 0
        assert [p.name for p in (tmp_path / "a").glob("mc_hist_*")] == ["mc_hist_0005.csv"]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "mc_envelope.csv", "mc_frequencies.csv"
        ]


def _one_error_line(capsys) -> str:
    """The one line main wrote to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"elements": []}, "config field 'elements' must be a non-empty list"),
            ({"gamma_deg": 90.0}, "config field 'gamma_deg' must lie in [0, 90), got 90.0"),
            ({"elements": [0.6, *SMOKE["elements"][1:]]}, "elements[1] must be a mapping"),
            ({"elements": [dict(SMOKE["elements"][0], amplitude="1"), *SMOKE["elements"][1:]]},
             "elements[1] field 'amplitude' must be a number, got '1'"),
        ],
        ids=["no-elements", "gamma-90", "element-not-a-mapping", "amplitude-a-string"],
    )
    def test_bad_field_exits_two(self, tmp_path, capsys, changes, message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(SMOKE | changes))
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"config error: {message}"
        assert not out.exists()

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(SMOKE))
        out.write_text("not a directory")
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 1
        line = _one_error_line(capsys)
        assert line.startswith("i/o error: [Errno 17] File exists: ") and str(out) in line
        assert out.read_text() == "not a directory"

    def test_missing_field_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        del payload["k_regions"]
        cfg.write_text(json.dumps(payload))
        code = main(["pia", "--config", str(cfg)])
        assert code == 2
        assert "k_regions" in capsys.readouterr().err

    def test_bad_element_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        payload["elements"][2]["amplitude"] = -1.0
        cfg.write_text(json.dumps(payload))
        code = main(["bounds", "--config", str(cfg)])
        assert code == 2
        assert "elements[3]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("elements", 2, "amplitude"), math.inf),
            (("elements", 0, "phase_deg"), -math.inf),
            (("elements", 1, "amplitude_lo"), math.nan),
            (("spacing_wavelengths",), math.inf),
            (("xi_percent",), math.nan),
            (("k_regions",), math.inf),
            (("seed",), -5),
            (("seed",), 2**130),
            (("seed",), 1.5),
            (("k_regions",), 3.7),
            (("n_u",), 40.5),
            (("arc_points",), 6.0),
            (("mc_samples",), 1e3),
        ],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, path, value):
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        if path[-1] == "amplitude_lo":
            target["amplitude_hi"] = 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))  # writes the JSON extensions Infinity / NaN
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert path[-1] in err
        assert ("integer" if math.isfinite(value) else "finite") in err

    @pytest.mark.parametrize(
        "path", [("spacing_wavelengths",), ("elements", 1, "amplitude"), ("n_u",), ("seed",)]
    )
    def test_integer_beyond_the_double_range_exits_two(self, tmp_path, capsys, path):
        # a JSON integer no double holds is rejected before arithmetic converts it
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{path[-1]}' must be finite" in err

    # each value failed deep in numpy before the run fields had upper limits
    @pytest.mark.parametrize(
        "command, key, flag, value",
        [
            ("bounds", "n_u", "--nu", 10**300),  # "Maximum allowed size exceeded"
            ("mc", "mc_samples", "--mc-samples", 2**63),  # OverflowError
            ("pia", "k_regions", "--k", 2**63),  # IndexError
            ("bounds", "arc_points", "--arc-points", 2**63),  # "Maximum allowed dimension"
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_run_field_beyond_its_limit_exits_two(
        self, tmp_path, capsys, command, key, flag, value, source
    ):
        if source == "flag":
            cfg, flags = _write_config(tmp_path / "cfg.json"), [flag, str(value)]
        else:
            cfg, flags = _write_config(tmp_path / "cfg.json", **{key: value}), []
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"'{key}' must be an integer below " in err and f"got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude_hi", [None, 0.1], ids=["all-zero", "zero-nominal"])
    def test_zero_nominal_amplitudes_exit_two(self, tmp_path, capsys, amplitude_hi):
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        for el in payload["elements"]:
            el["amplitude"] = 0.0
            if amplitude_hi is not None:
                el.update(amplitude_lo=0.0, amplitude_hi=amplitude_hi)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nominal amplitude" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    def test_infinite_interval_endpoint_exits_two(self, tmp_path, capsys, command):
        # a finite amplitude whose amplitude * (1 + xi) overflows: the interval
        # is rejected before the geometry, which would do invalid arithmetic
        payload = json.loads(_write_config(tmp_path / "full.json", xi_percent=10.0).read_text())
        payload["elements"][1]["amplitude"] = 1.7e308
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: elements[2]: ") and "finite" in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_steering_phase_exits_two(self, tmp_path, capsys):
        # a finite spacing whose largest steering phase 2*pi*spacing*(N-1) is not
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        payload["spacing_wavelengths"] = 1e308
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "steering phase" in capsys.readouterr().err

    def test_negative_seed_flag_exits_two(self, config_path, capsys):
        code = main(["mc", "--config", str(config_path), "--seed", "-5"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_probe_exits_two(self, config_path, capsys):
        code = main(["mc", "--config", str(config_path), "--probe", "1.5"])
        assert code == 2
        capsys.readouterr()

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"spacing_wavelengths": 0.5, "note": "\xff"}')  # not UTF-8
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        code = main(["bounds", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        capsys.readouterr()

    def test_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["pia", "--config", str(config_path), "--out", str(out), "--nu", "21",
              "--k", "3"])
        lines = (out / "pia.csv").read_text().splitlines()
        ks = {int(line.split(",")[1]) for line in lines[1:]}
        assert ks == {1, 2, 3}


# Each integer run field: its config key, its flag, its least value and its
# default (None: required).
RUN_FIELDS = [
    ("k_regions", "--k", 1, None),
    ("n_u", "--nu", 2, None),
    ("arc_points", "--arc-points", 2, None),
    ("mc_samples", "--mc-samples", 1, 100_000),
    ("seed", "--seed", 0, 0),
]


@pytest.mark.parametrize("key, flag, least, default", RUN_FIELDS)
class TestRunFields:
    @staticmethod
    def _run_config(cfg, *flags):
        args = _build_parser().parse_args(["bounds", "--config", str(cfg), *flags])
        return build_run_config(args)

    def test_flag_overrides_config(self, tmp_path, key, flag, least, default):
        cfg = _write_config(tmp_path / "cfg.json", **{key: least + 3})
        assert getattr(self._run_config(cfg), key) == least + 3
        assert getattr(self._run_config(cfg, flag, str(least + 5)), key) == least + 5

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_below_least_value_exits_two(
        self, tmp_path, capsys, key, flag, least, default, source
    ):
        below = least - 1
        if source == "flag":
            cfg, flags = _write_config(tmp_path / "cfg.json"), [flag, str(below)]
        else:
            cfg, flags = _write_config(tmp_path / "cfg.json", **{key: below}), []
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be an integer of at least {least}, got {below}" in err
        assert not out.exists()

    def test_missing_field(self, tmp_path, capsys, key, flag, least, default):
        payload = json.loads(_write_config(tmp_path / "full.json").read_text())
        del payload[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        if default is not None:
            assert getattr(self._run_config(cfg), key) == default
            return
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config is missing required field '{key}'" in capsys.readouterr().err


class TestSizeBudget:
    """build_run_config rejects a run whose run_bytes exceed the budget, before it allocates."""

    # each shape at K = 5, under its own id, and at K = 1
    _SHAPES = {
        # enough rows for the region pass to take several blocks
        "mirrored": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 0.0, 0, 4001, 6, 8, 3),
        "steered": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 40.0, 0, 4001, 6, 8, 3),
        # the steering matrix and the Minkowski blocks of a long array
        "steered-256": (taylor_taper(256), 7.0, 0, 1001, 2, 8, 3),
        # rows far wider than a kernel block: a one-row block per summed row
        "wide-rows": ((0.5, 0.8), 0.0, 0, 3, 50_000, 8, 2),
        # five zero-tolerance elements, one vertex each: rows of 15
        # vertices, so a pass block takes many rows
        "zero-tolerance": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 0.0, 5, 4001, 6, 8, 3),
        # a wide array on a coarse grid, whose Monte Carlo uniforms, 16 N
        # bytes a sample, outweigh its power rows; enough samples to
        # fill a chunk sized by n_u alone (768 KiB / (8 n_u) = 49152)
        "wide-coarse": (taylor_taper(64), 0.0, 0, 2, 4, 70_000, 1),
        # the first shapes with samples enough for both workers to fill a
        # chunk, as the default 10**5 do
        "mirrored-mc": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 0.0, 0, 4001, 6, 100, 3),
        "steered-mc": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 40.0, 0, 4001, 6, 100, 3),
        "steered-256-mc": (taylor_taper(256), 7.0, 0, 1001, 2, 200, 3),
        "zero-tolerance-mc": ((0.5, 0.8, 1.0, 1.0, 0.8, 0.5), 0.0, 5, 4001, 6, 100, 3),
        # N = 1024 on two directions, whose regions have 10 to 720 of the
        # N (arc_points + 4) vertices a region may have
        "taylor-1024-mirrored": (taylor_taper(1024), 0.0, 0, 2, 2, 100, 1),
        "taylor-1024-steered": (taylor_taper(1024), 7.0, 0, 2, 2, 100, 1),
    }

    @pytest.mark.parametrize(
        "amplitudes, steer, exact, n_u, arc_points, mc_samples, least_blocks, k_regions",
        [pytest.param(*shape, k, id=name if k == 5 else f"{name}-k1")
         for name, shape in _SHAPES.items() for k in (5, 1)],
    )
    def test_estimate_bounds_the_arrays_a_run_holds(
        self, monkeypatch, amplitudes, steer, exact, n_u, arc_points, mc_samples, least_blocks,
        k_regions,
    ):
        elements = [{"amplitude": float(a), "phase_deg": steer * n} for n, a in enumerate(amplitudes)]
        for element in elements[:exact]:
            element.update(amplitude_lo=element["amplitude"], amplitude_hi=element["amplitude"],
                           phase_lo_deg=element["phase_deg"], phase_hi_deg=element["phase_deg"])
        scen = scenario_from_config({
            "spacing_wavelengths": 0.5,
            "elements": elements,
            "xi_percent": 2.0,
            "gamma_deg": 4.0,
        })
        # the Blocks of the run's pass, the first _region_sink's, and its
        # curve, the one run_mc was handed
        # two CPUs, so two Monte Carlo workers at most, whatever the machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        sinks, curves = [], []
        region_sink, sample = validate._region_sink, validate.run_mc

        def counted(rows):
            regions, keep = region_sink(rows)
            blocks = []
            sinks.append(blocks)
            return regions, lambda block: blocks.append(block.rows) or keep(block)

        monkeypatch.setattr(validate, "_region_sink", counted)
        monkeypatch.setattr(validate, "run_mc", lambda curve, *a, **kw: curves.append(curve)
                            or sample(curve, *a, **kw))
        tracemalloc.start()
        try:  # a validate command's run and checks
            run_validation(scen, uniform_grid(n_u), k_regions, mc_samples, arc_points=arc_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        curve, blocks = curves[0], sinks[0]
        assert curve.mirrored == (n_u // 2 if steer == 0.0 else 0)
        assert int(curve.sectors[1].sum()) == (len(amplitudes) - exact) * (arc_points + 4) + exact
        assert len(blocks) >= least_blocks
        estimate = run_bytes(len(amplitudes), k_regions, n_u, arc_points, mc_samples)
        assert peak <= estimate <= 2.2 * peak

    def test_bounds_text_does_not_grow_with_the_grid(self, tmp_path):
        """bounds.csv is written cli._CSV_ROWS rows at a time, so the text a
        run holds, which run_bytes counts for that many rows, does not grow
        with the grid: per direction it holds arrays (the curve's and the
        written columns), not text, about 500 bytes a row as Python objects."""
        cfg = _write_config(tmp_path / "cfg.json")
        peaks = []
        for n_u in (10_001, 20_001):
            tracemalloc.start()
            try:
                assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path),
                             "--nu", str(n_u)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 10_000 < 100

    @pytest.mark.parametrize("key, flag", [("k_regions", "--k"), ("n_u", "--nu"),
                                           ("arc_points", "--arc-points")])
    def test_limit_in_the_message_is_exact(self, tmp_path, key, flag):
        cfg = _write_config(tmp_path / "cfg.json")

        def run_config(value):
            args = _build_parser().parse_args(["bounds", "--config", str(cfg), flag, str(value)])
            return build_run_config(args)

        with pytest.raises(ConfigError) as info:
            run_config(2**62)
        message = str(info.value)
        memory = f"{_BYTE_BUDGET / 2**30:.1f} GiB of memory"
        assert message.startswith(f"the run's arrays would take more than the {memory}: ")
        prefix = f"'{key}' must be an integer below "
        assert prefix in message and f"got {2**62}" in message
        limit = int(message.split(prefix)[1].split(",")[0])
        fields = dict(k_regions=5, n_u=81, arc_points=6) | {key: limit}
        assert run_bytes(6, **fields) > _BYTE_BUDGET
        assert run_bytes(6, **fields | {key: limit - 1}) <= _BYTE_BUDGET
        assert getattr(run_config(limit - 1), key) == limit - 1

    def test_no_single_field_fixes_it(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", k_regions=10**8, n_u=10**8, arc_points=10**8)
        args = _build_parser().parse_args(["bounds", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="lower 'k_regions', 'n_u' and 'arc_points'$"):
            build_run_config(args)

    # each of these ended in a traceback, exit 1, before the budget
    @pytest.mark.parametrize(
        "command, flag, value",
        [("pia", "--k", 2**60 - 2), ("bounds", "--nu", 2**59 - 2)],  # too big, _ArrayMemoryError
    )
    def test_sizes_too_large_for_memory_exit_two(self, tmp_path, capsys, command, flag, value):
        cfg, out = _write_config(tmp_path / "cfg.json"), tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), flag, str(value)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
