"""Command-line front end: config ingestion, pipeline orchestration, CSV/JSON output.

All numeric output uses round-trip decimal formatting; `-inf` is the only
non-numeric token.  Identical config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .iams import power_bounds, power_db
from .model import (
    ArrayScenario,
    check_integer,
    check_number,
    load_config,
    scenario_from_config,
    uniform_grid,
)
from .montecarlo import SEED_LIMIT, run_mc
from .pia import feature_report, probability_map
from .validate import format_results, run_validation


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (config file merged with flag overrides)."""

    scenario: ArrayScenario
    k_regions: int
    n_u: int
    arc_points: int
    probe_directions: tuple[float, ...] = ()
    mc_samples: int = 100_000
    seed: int = 0
    out_dir: str = "."
    dump_polygons: bool = False


def _json_safe(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "-inf" if obj < 0 else "inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)

    def resolved(flag_value, key, default=None, required=False):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            check_number(key, cfg[key])
            return cfg[key]
        if required:
            raise ConfigError(f"config is missing required field '{key}'")
        return default

    k_regions = resolved(args.k, "k_regions", required=True)
    n_u = resolved(args.nu, "n_u", required=True)
    arc_points = resolved(args.arc_points, "arc_points", required=True)
    mc_samples = resolved(args.mc_samples, "mc_samples", default=100_000)
    seed = resolved(args.seed, "seed", default=0)
    for name, value, minimum, limit in (
        ("k_regions", k_regions, 1, None),
        ("n_u", n_u, 2, None),
        ("arc_points", arc_points, 2, None),
        ("mc_samples", mc_samples, 1, None),
        ("seed", seed, 0, SEED_LIMIT),
        ("threads", args.threads, 1, None),
    ):
        try:
            check_integer(name, value, minimum, limit)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
    probes = tuple(args.probe or ())
    for u in probes:
        if not (-1.0 <= u <= 1.0):
            raise ConfigError(f"probe direction {u} must lie in [-1, 1]")
    return RunConfig(
        scenario=scenario,
        k_regions=k_regions,
        n_u=n_u,
        arc_points=arc_points,
        probe_directions=probes,
        mc_samples=mc_samples,
        seed=seed,
        out_dir=args.out,
        dump_polygons=getattr(args, "dump_polygons", False),
    )


def _out_path(run: RunConfig, name: str) -> str:
    os.makedirs(run.out_dir, exist_ok=True)
    return os.path.join(run.out_dir, name)


def _write_csv(run: RunConfig, name: str, header: str, blocks) -> None:
    """Write a CSV file as its header and then one write per block of rows.

    A block is a tuple of equally long columns.  A numpy column is written
    as repr of its Python values: integers as digits, floats as round-trip
    decimals or `inf`, `-inf`, `nan`.  Any other column holds ready-made
    strings, such as one direction's u repeated on each of its rows.  Only
    one block is held as text at a time; callers pass one direction's rows,
    or one row per direction.
    """
    with open(_out_path(run, name), "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in blocks:
            cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in block]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _ring_blocks(grid, *columns):
    """Blocks of K rows per direction: u, k = 1..K, then each (K, N_u) column's slice."""
    k_regions = len(columns[0])
    ks = [str(k) for k in range(1, k_regions + 1)]
    for i, u in enumerate(grid.samples.tolist()):
        yield ([repr(u)] * k_regions, ks, *(c[:, i] for c in columns))


def cmd_bounds(run: RunConfig) -> int:
    grid = uniform_grid(run.n_u)
    curve = power_bounds(run.scenario, grid, run.arc_points)
    columns = (grid.samples, curve.p_lo_db, curve.p_hi_db, curve.nominal_db,
               curve.modulus_lo, curve.modulus_hi, curve.n_vertices)
    header = "u,p_lo_db,p_hi_db,nominal_db,modulus_lo,modulus_hi,n_vertices"
    _write_csv(run, "bounds.csv", header, [columns])
    if run.dump_polygons:
        vertex = [str(j) for j in range(curve.vertices.shape[1])]
        blocks = (
            ([repr(u)] * n, vertex[:n], vs[:n].real, vs[:n].imag)
            for u, vs, n in zip(grid.samples.tolist(), curve.vertices, curve.n_vertices.tolist())
        )
        _write_csv(run, "polygons.csv", "u,vertex,re,im", blocks)
    return 0


def cmd_pia(run: RunConfig) -> int:
    grid = uniform_grid(run.n_u)
    pmap = probability_map(power_bounds(run.scenario, grid, run.arc_points), run.k_regions)
    ring_db = pmap.region_power_db.T
    blocks = _ring_blocks(grid, ring_db[:-1], ring_db[1:], pmap.p)
    _write_csv(run, "pia.csv", "u,k,p_lo_db(k),p_hi_db(k),p_k", blocks)
    return 0


def cmd_features(run: RunConfig) -> int:
    bounds = power_bounds(run.scenario, uniform_grid(run.n_u), run.arc_points)
    report = feature_report(probability_map(bounds, run.k_regions))
    payload = {
        "k_regions": report.k_regions,
        "u_max": report.u_max,
        "mainlobe_span": list(report.mainlobe_span),
        "degenerate": report.degenerate,
        "regions": [
            {
                "k": k + 1,
                "sll_db": [float(report.sll_intervals[k, 0]), float(report.sll_intervals[k, 1])],
                "sll_prob": float(report.sll_probs[k]),
                "gamma_db": [
                    float(report.gamma_intervals[k, 0]),
                    float(report.gamma_intervals[k, 1]),
                ],
                "gamma_prob": float(report.gamma_probs[k]),
                "mean_prob": float(report.mean_probs[k]),
            }
            for k in range(report.k_regions)
        ],
        "iams": {
            "sll_db": list(report.iams_sll),
            "gamma_db": list(report.iams_gamma),
        },
    }
    with open(_out_path(run, "features.json"), "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2)
        fh.write("\n")
    return 0


def cmd_mc(run: RunConfig) -> int:
    grid = uniform_grid(run.n_u)
    curve = power_bounds(run.scenario, grid, run.arc_points)
    pmap = probability_map(curve, run.k_regions)
    report = run_mc(pmap, run.mc_samples, seed=run.seed, probe_directions=run.probe_directions)
    mc_min_db = power_db(report.per_u_min, curve.peak_power)
    mc_max_db = power_db(report.per_u_max, curve.peak_power)
    columns = (grid.samples, mc_min_db, mc_max_db, curve.p_lo_db, curve.p_hi_db)
    _write_csv(run, "mc_envelope.csv", "u,mc_min_db,mc_max_db,p_lo_db,p_hi_db", [columns])
    blocks = _ring_blocks(grid, report.region_frequencies, pmap.p)
    _write_csv(run, "mc_frequencies.csv", "u,k,mc_freq,pia_p", blocks)
    for hist in report.histograms:
        columns = (hist.bin_edges_db[:-1], hist.bin_edges_db[1:], hist.counts)
        _write_csv(run, f"mc_hist_{hist.index:04d}.csv", "bin_lo_db,bin_hi_db,count", [columns])
    return 0


def cmd_validate(run: RunConfig) -> int:
    curve = power_bounds(run.scenario, uniform_grid(run.n_u), run.arc_points)
    mc = run_mc(probability_map(curve, run.k_regions), run.mc_samples, seed=run.seed)
    results = run_validation(mc)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "bounds": cmd_bounds,
    "pia": cmd_pia,
    "features": cmd_features,
    "mc": cmd_mc,
    "validate": cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraytol",
        description="Power-pattern tolerance bounds and within-bounds probabilities "
        "for linear phased arrays.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON scenario/config file")
    common.add_argument("--k", type=int, default=None, help="number of probability rings")
    common.add_argument("--nu", type=int, default=None, help="number of angular samples")
    common.add_argument("--arc-points", type=int, default=None, dest="arc_points",
                        help="outer-arc vertices per excitation sector")
    common.add_argument("--mc-samples", type=int, default=None, dest="mc_samples",
                        help="Monte Carlo sample count")
    common.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    common.add_argument("--probe", type=float, action="append", default=None,
                        help="probe direction u for histograms (repeatable)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: every stage "
                        "runs as one array program on one thread")
    sub = parser.add_subparsers(dest="command", required=True)
    bounds_p = sub.add_parser("bounds", parents=[common],
                              help="write the power-pattern bounds CSV")
    bounds_p.add_argument("--dump-polygons", action="store_true",
                          help="also dump region polygons as a CSV vertex list")
    sub.add_parser("pia", parents=[common], help="write the ring-probability CSV")
    sub.add_parser("features", parents=[common], help="write the feature-report JSON")
    sub.add_parser("mc", parents=[common], help="write the Monte Carlo comparison CSVs")
    sub.add_parser("validate", parents=[common], help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        run = build_run_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](run)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
