"""Command-line front end: config ingestion, pipeline orchestration, CSV/JSON/NPY output.

All numeric CSV and JSON output uses round-trip decimal formatting, infinities as `-inf`
and `inf` (in JSON, which has none, as strings).  The polygon dump is a binary .npy array,
exact to the bit.  Identical config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import _row_blocks, pad_rows
from .iams import (_PASS_BYTES, PowerBoundsCurve, curve_bytes, mirrors, pass_bytes,
                   pass_processes, power_bounds, power_db, ring_bytes)
from .model import (
    ArrayScenario,
    check_integer,
    config_number,
    load_config,
    scenario_from_config,
    uniform_grid,
)
from .montecarlo import SAMPLE_LIMIT, SEED_LIMIT, mc_bytes, run_mc
from .pia import feature_report
from .validate import KEPT_REGIONS, format_results, run_validation


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (config file merged with flag overrides)."""

    scenario: ArrayScenario
    k_regions: int
    n_u: int
    arc_points: int
    probe_directions: tuple[float, ...]
    mc_samples: int
    seed: int
    out_dir: str
    dump_polygons: bool


# The integer run fields, the size fields first: each one's config key (and
# RunConfig field), the flag that overrides it, its least value, the value it
# must stay below (None: only run_bytes bounds it), its default (None:
# required) and the flag's help.  The limits keep the sample count within the
# int64 ring counts and the seed within the two 64-bit words the Monte Carlo
# key is derived from.
_SIZE_FIELDS = (
    ("k_regions", "--k", 1, None, None, "number of probability rings"),
    ("n_u", "--nu", 2, None, None, "number of angular samples"),
    ("arc_points", "--arc-points", 2, None, None, "outer-arc vertices per excitation sector"),
)
_RUN_FIELDS = _SIZE_FIELDS + (
    ("mc_samples", "--mc-samples", 1, SAMPLE_LIMIT, 100_000, "Monte Carlo sample count"),
    ("seed", "--seed", 0, SEED_LIMIT, 0, "Monte Carlo seed"),
)


# The most bytes run_bytes may estimate, the machine's physical memory; a
# larger run is a config error, raised before anything is allocated.
_BYTE_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# The Python objects that run_bytes' array counts leave out: dataclasses, threads, contexts,
# OpenBLAS handles (an allowance: up to about 60 KiB traced at run_mc's peak)
_OBJECT_BYTES = 128 << 10
_CSV_ROWS = 1024  # the rows of a block _write_csv holds as text at a time


def run_bytes(n_elements: int, k_regions: int, n_u: int, arc_points: int,
              mc_samples: int = SAMPLE_LIMIT - 1, n_probes: int = 0, *, fixed_phases: int = 0,
              mirrored: bool = False) -> int:
    """An upper estimate of the bytes a run allocates at its peak, validate's included.

    Each module counts the arrays it allocates.  Held from the pass on: the grid, the run's
    curve, validate's kept regions (no more than the grid's rows).  On top, the largest of
    the stages, which run in turn: the pass; run_mc; beside the Monte Carlo report,
    validate's direct pass over four rows, or its zero-tolerance pass of N point sectors
    with their curve, or a read of the curve's ring radii and dB with a command's output.
    Each pass takes one pass_bytes in each of its pass_processes processes, which its work
    decides: fixed_phases of the elements have a phase interval of no width, a sector of
    two vertices at most, where any other has arc_points + 4; a mirrored scenario
    (iams.mirrors) sums its rows from u = 0 on.  Not affine in the size fields, which
    _check_size bisects."""
    width, radii = n_elements * (arc_points + 4), k_regions + 1
    edges = width - fixed_phases * (arc_points + 2)  # the most sector vertices the pass sums

    def dealt(rows: int, summed: int, n_edges: int, padded: int) -> int:
        """pass_bytes over rows padded vertices wide, in each process of a pass that sums
        summed rows of n_edges vertices."""
        return pass_processes(summed, n_edges, radii) * pass_bytes(rows, padded, radii)

    curve = curve_bytes(n_u, k_regions)
    # five float64 dB columns, or the grid's Python floats with two; 7 columns' CSV text, or
    # a ring table's 5 with its block's numpy columns
    output = 72 * n_u + min(max(n_u, k_regions), _CSV_ROWS) * (82 * 7 + 57)
    rest = 8 * n_u * (k_regions + 2) + max(  # the report's envelope and K frequencies
        dealt(min(n_u, 4), min(n_u, 4), edges, width) + curve_bytes(min(n_u, 4), k_regions),
        curve + dealt(n_u, n_u, n_elements, n_elements), ring_bytes(n_u, k_regions) + output)
    stages = (dealt(n_u, n_u - n_u // 2 * mirrored, edges, width),
              mc_bytes(n_elements, k_regions, n_u, mc_samples, min(n_probes, n_u)), rest)
    kept = 16 * width * min(n_u, KEPT_REGIONS)
    return _OBJECT_BYTES + 8 * n_u + curve + kept + max(stages)


def _check_size(scenario: ArrayScenario, fields: dict, n_probes: int = 0) -> None:
    """Raise ValidationError when the run_bytes of scenario's fields exceed _BYTE_BUDGET.

    The message names each size field that alone could bring the run
    within the budget, and the limit it must then stay below, which it
    bisects for: the largest value within the budget, plus one.
    """
    size = {key: fields[key] for key, *_ in _SIZE_FIELDS}
    shape = dict(fixed_phases=sum(e.phase_lo == e.phase_hi for e in scenario.elements),
                 mirrored=mirrors(scenario))

    def fits(**change):
        return run_bytes(scenario.n_elements, **size | change, mc_samples=fields["mc_samples"],
                         n_probes=n_probes, **shape) <= _BYTE_BUDGET

    if fits():
        return
    fixes = []
    for key, _, least, *_ in _SIZE_FIELDS:
        if fits(**{key: least}):
            low, limit = least, size[key]
            while limit - low > 1:
                middle = (low + limit) // 2
                low, limit = (middle, limit) if fits(**{key: middle}) else (low, middle)
            fixes.append(f"'{key}' must be an integer below {limit}, got {size[key]}")
    raise ValidationError(
        f"the run's arrays would take more than the {_BYTE_BUDGET / 2**30:.1f} GiB of memory: "
        + (" or ".join(fixes) or "lower 'k_regions', 'n_u' and 'arc_points'")
    )


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)

    fields = {}
    try:
        for key, _, least, limit, default, _ in _RUN_FIELDS:
            value = getattr(args, key)  # the flag, else the config value, else the default
            fields[key] = config_number(cfg, key, default=default) if value is None else value
            check_integer(key, fields[key], least, limit)
        check_integer("threads", args.threads, 1)
        probes = tuple(getattr(args, "probe", None) or ())  # mc's own flag
        _check_size(scenario, fields, len(probes))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    for u in probes:
        if not (-1.0 <= u <= 1.0):
            raise ConfigError(f"probe direction {u} must lie in [-1, 1]")
    return RunConfig(
        scenario=scenario,
        probe_directions=probes,
        out_dir=args.out,
        dump_polygons=getattr(args, "dump_polygons", False),
        **fields,
    )


def _out_path(run: RunConfig, name: str) -> str:
    os.makedirs(run.out_dir, exist_ok=True)
    return os.path.join(run.out_dir, name)


def _write_csv(run: RunConfig, name: str, header: str, blocks) -> None:
    """Write a CSV file as its header and then one write per block of rows.

    A block is a tuple of equally long numpy columns, each written as repr
    of its Python values: integers as digits, floats as round-trip decimals
    or `inf`, `-inf`, `nan`.  Only _CSV_ROWS rows of a block are held as
    text at a time: per cell, a Python float in a list (32 bytes) and up to
    25 characters in its line and again in the rows' joined text; per line,
    its str header and slot.
    """
    with open(_out_path(run, name), "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in blocks:
            for rows in _row_blocks(len(block[0]), 1, _CSV_ROWS):
                cells = [map(repr, c[rows].tolist()) for c in block]
                fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _ring_blocks(grid, *columns):
    """Blocks of K rows per direction, whole directions of at most _CSV_ROWS rows (or one):
    u repeated, k = 1..K, then each (K, N_u) column's entries direction by direction."""
    k_regions = len(columns[0])
    for block in _row_blocks(len(grid), k_regions, _CSV_ROWS):
        yield (np.repeat(grid.samples[block], k_regions),
               np.tile(np.arange(1, k_regions + 1), block.stop - block.start),
               *(c[:, block].T.ravel() for c in columns))


def _curve(run: RunConfig, k_regions=None, sink=None) -> PowerBoundsCurve:
    """The power bounds of the run's scenario on its uniform grid (power_bounds)."""
    return power_bounds(run.scenario, uniform_grid(run.n_u), run.arc_points, k_regions, sink)


def _npy_header(fh, shape) -> int:
    """Write np.save's header of a complex128 array of shape at the start of fh; its length."""
    fh.seek(0)
    descr = np.lib.format.dtype_to_descr(np.dtype(np.complex128))
    np.lib.format.write_array_header_1_0(
        fh, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    return fh.tell()


def _write_rows(fh, start: int, width: int, first: int, vertices) -> None:
    """Write padded regions as rows first on of a width-wide array whose data starts at start."""
    fh.seek(start + 16 * width * first)
    fh.write(np.ascontiguousarray(pad_rows(vertices, width)))


def _dumped_curve(run: RunConfig) -> PowerBoundsCurve:
    """The run's curve, each block of regions written to polygons.npy as the pass sums it.

    Each run of a Block's regions() goes to its offsets in an array
    N * (arc_points + 4) vertices wide, which no region exceeds.  Where the widest region is narrower,
    the rows are then moved in place, in order, to that width, and the
    file truncated: it holds the bytes np.save writes of the region array.
    The file is polygons.npy.part until the pass has succeeded, and then
    replaces polygons.npy; a failed pass removes it and the directories the
    dump created, so an earlier run's dump stays as it was.
    """
    width = run.scenario.n_elements * (run.arc_points + 4)
    made, head = [], os.path.abspath(run.out_dir)  # the directories to create, deepest first
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    path = _out_path(run, "polygons.npy")
    with open(path + ".part", "w+b") as fh:
        try:
            start = _npy_header(fh, (run.n_u, width))

            def write(block):
                for first, vertices, _ in block.regions():
                    _write_rows(fh, start, width, first, vertices)

            curve = _curve(run, sink=write)
            widest = int(curve.n_vertices.max())
            if widest < width:  # no row moves onto one not yet read
                moved = _npy_header(fh, (run.n_u, widest))
                for block in _row_blocks(run.n_u, 16 * width, _PASS_BYTES):
                    fh.seek(start + 16 * width * block.start)
                    rows = np.frombuffer(fh.read(16 * width * (block.stop - block.start)),
                                         dtype=np.complex128).reshape(-1, width)
                    _write_rows(fh, moved, widest, block.start, rows[:, :widest])
                fh.truncate()
        except BaseException:
            os.remove(fh.name)
            for directory in made:
                os.rmdir(directory)
            raise
    os.replace(fh.name, path)
    return curve


def cmd_bounds(run: RunConfig) -> int:
    """Write the power-pattern bounds CSV."""
    curve = _dumped_curve(run) if run.dump_polygons else _curve(run)
    columns = (curve.grid.samples, curve.p_lo_db, curve.p_hi_db, curve.nominal_db,
               curve.modulus_lo, curve.modulus_hi, curve.n_vertices)
    header = "u,p_lo_db,p_hi_db,nominal_db,modulus_lo,modulus_hi,n_vertices"
    _write_csv(run, "bounds.csv", header, [columns])
    return 0


def cmd_pia(run: RunConfig) -> int:
    """Write the ring-probability CSV."""
    curve = _curve(run, run.k_regions)
    ring_db = curve.region_power_db.T
    blocks = _ring_blocks(curve.grid, ring_db[:-1], ring_db[1:], curve.p)
    _write_csv(run, "pia.csv", "u,k,p_lo_db(k),p_hi_db(k),p_k", blocks)
    return 0


def cmd_features(run: RunConfig) -> int:
    """Write the feature-report JSON."""
    report = feature_report(_curve(run, run.k_regions))

    def db(interval):  # a dB interval, its infinities spelled "-inf" and "inf"
        return [repr(v) if math.isinf(v) else v for v in map(float, interval)]

    sll = report.sll_intervals  # None: no sidelobe, written as null
    payload = {
        "k_regions": report.k_regions,
        "u_max": report.u_max,
        "mainlobe_span": list(report.mainlobe_span),
        "degenerate": report.degenerate,
        "regions": [
            {
                "k": k + 1,
                "sll_db": None if sll is None else db(sll[k]),
                "sll_prob": float(report.mean_probs[k]),  # the angular mean, as mean_prob
                "gamma_db": db(report.gamma_intervals[k]),
                "gamma_prob": float(report.gamma_probs[k]),
                "mean_prob": float(report.mean_probs[k]),
            }
            for k in range(report.k_regions)
        ],
        "iams": {
            "sll_db": None if report.iams_sll is None else db(report.iams_sll),
            "gamma_db": db(report.iams_gamma),
        },
    }
    with open(_out_path(run, "features.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_mc(run: RunConfig) -> int:
    """Write the Monte Carlo comparison CSVs."""
    curve = _curve(run, run.k_regions)
    report = run_mc(curve, run.mc_samples, seed=run.seed, probe_directions=run.probe_directions)
    mc_min_db = power_db(report.per_u_min, curve.peak_power)
    mc_max_db = power_db(report.per_u_max, curve.peak_power)
    columns = (curve.grid.samples, mc_min_db, mc_max_db, curve.p_lo_db, curve.p_hi_db)
    _write_csv(run, "mc_envelope.csv", "u,mc_min_db,mc_max_db,p_lo_db,p_hi_db", [columns])
    blocks = _ring_blocks(curve.grid, report.region_frequencies, curve.p)
    _write_csv(run, "mc_frequencies.csv", "u,k,mc_freq,pia_p", blocks)
    for hist in report.histograms:
        columns = (hist.bin_edges_db[:-1], hist.bin_edges_db[1:], hist.counts)
        _write_csv(run, f"mc_hist_{hist.index:04d}.csv", "bin_lo_db,bin_hi_db,count", [columns])
    return 0


def cmd_validate(run: RunConfig) -> int:
    """Run the invariant suite on a run that run_validation builds from the config."""
    results = run_validation(run.scenario, uniform_grid(run.n_u), run.k_regions,
                             run.mc_samples, arc_points=run.arc_points, seed=run.seed)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "bounds": cmd_bounds,
    "pia": cmd_pia,
    "features": cmd_features,
    "mc": cmd_mc,
    "validate": cmd_validate,
}


@functools.cache  # one parser per process; each parse_args call makes a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraytol",
        description="Power-pattern tolerance bounds and within-bounds probabilities "
        "for linear phased arrays.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON scenario/config file")
    for key, flag, *_, text in _RUN_FIELDS:
        common.add_argument(flag, type=int, default=None, dest=key, help=text)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: a large region "
                        "pass runs on one process (at most two), and the Monte Carlo on one "
                        "worker thread, per CPU this process may run on")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=command.__doc__)
    sub.choices["mc"].add_argument("--probe", type=float, action="append", default=None,
                                   help="probe direction u for histograms (repeatable)")
    sub.choices["bounds"].add_argument(
        "--dump-polygons", action="store_true",
        help="also write the region polygons to polygons.npy: an (n_u, M) complex128 array "
        "whose row i holds the region's n_vertices[i] CCW vertices (bounds.csv), then "
        "repeats of vertex 0",
    )
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
    except ChildProcessError as exc:  # an OSError, but no i/o failed
        print(f"worker error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
