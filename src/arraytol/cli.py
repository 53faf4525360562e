"""Command-line front end: config ingestion, pipeline orchestration, CSV/JSON/NPY output.

All numeric CSV and JSON output uses round-trip decimal formatting; `-inf`
is the only non-numeric token.  The polygon dump is a binary .npy array,
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
from .iams import _PASS_BYTES, PowerBoundsCurve, power_bounds, power_db
from .model import (
    ArrayScenario,
    check_integer,
    config_number,
    load_config,
    scenario_from_config,
    uniform_grid,
)
from .montecarlo import _BLOCK_BYTES, _CHUNK_BYTES, _PROBE_BYTES, SAMPLE_LIMIT, SEED_LIMIT, run_mc
from .pia import ProbabilityMap, feature_report, probability_map
from .validate import format_results, run_validation


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


# The integer run fields: each one's config key (and RunConfig field), the
# flag that overrides it, its least value, the value it must stay below
# (None: only run_bytes bounds it), its default (None: required) and the
# flag's help.  The limits keep the sample count within the int64 ring
# counts and the seed within the two 64-bit words the Monte Carlo key is
# derived from.
_RUN_FIELDS = (
    ("k_regions", "--k", 1, None, None, "number of probability rings"),
    ("n_u", "--nu", 2, None, None, "number of angular samples"),
    ("arc_points", "--arc-points", 2, None, None, "outer-arc vertices per excitation sector"),
    ("mc_samples", "--mc-samples", 1, SAMPLE_LIMIT, 100_000, "Monte Carlo sample count"),
    ("seed", "--seed", 0, SEED_LIMIT, 0, "Monte Carlo seed"),
)


# The most bytes run_bytes may estimate, the machine's physical memory; a
# larger run is a config error, raised before anything is allocated.
_BYTE_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def run_bytes(n_elements: int, k_regions: int, n_u: int, arc_points: int) -> int:
    """An upper estimate of the bytes a run allocates at its peak, validate's included.

    The coefficients are tracemalloc peaks, rounded up, of runs that take
    the K + 1 and 2K + 1 ring boundaries in one region pass, as validate
    does:
    - the larger of the region pass and the Monte Carlo, which run one
      after the other: 2 MiB for one block of the pass with its ring-area
      temporaries, which the pass sizes together, and the geometry
      kernels' fixed-size blocks; and for each of run_mc's workers, one per
      CPU this process may run on, its chunk, whose excitations, power
      rows and probe columns run_mc sizes together, its product block, and
      the _PROBE_BYTES more of probe columns it batches;
    - per vertex of the widest row, N * (arc_points + 4) of them, 1200
      bytes (the sectors, kernel temporaries where one row is wider than a
      kernel block, and validate's support functions) plus 8 per ring
      boundary (the ring areas);
    - per grid row, 256 bytes plus 128 per ring (the curve, the ring maps
      and the Monte Carlo counts), and 16 per element (the Monte Carlo
      steering matrix).
    Affine in each size field, as _check_size assumes.
    """
    width, boundaries = n_elements * (arc_points + 4), 3 * k_regions + 2
    # run_mc's workers at most; without sched_getaffinity there is no
    # /proc/self/maps either, where run_mc looks for OpenBLAS, so one runs
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return (max(2 * _PASS_BYTES, workers * (_CHUNK_BYTES + _BLOCK_BYTES + _PROBE_BYTES))
            + width * (1200 + 8 * boundaries) + n_u * (256 + 128 * k_regions + 16 * n_elements))


def _check_size(n_elements: int, fields: dict) -> None:
    """Raise ValidationError when the run_bytes of fields exceed _BYTE_BUDGET.

    The message names each size field that alone could bring the run
    within the budget, and the limit it must then stay below: run_bytes is
    affine in each field.
    """
    size = {key: fields[key] for key, *_ in _RUN_FIELDS[:3]}  # the size fields
    if run_bytes(n_elements, **size) <= _BYTE_BUDGET:
        return
    fixes = []
    for key, _, least, *_ in _RUN_FIELDS[:3]:
        base = run_bytes(n_elements, **size | {key: 0})
        limit = (_BYTE_BUDGET - base) // (run_bytes(n_elements, **size | {key: 1}) - base) + 1
        if limit > least:
            fixes.append(f"'{key}' must be an integer below {limit}, got {size[key]}")
    raise ValidationError(
        f"the run's arrays would take more than the {_BYTE_BUDGET / 2**30:.1f} GiB of memory: "
        + (" or ".join(fixes) or "lower 'k_regions', 'n_u' and 'arc_points'")
    )


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

    fields = {}
    try:
        for key, _, least, limit, default, _ in _RUN_FIELDS:
            value = getattr(args, key)  # the flag, else the config value, else the default
            fields[key] = config_number(cfg, key, default=default) if value is None else value
            check_integer(key, fields[key], least, limit)
        check_integer("threads", args.threads, 1)
        _check_size(scenario.n_elements, fields)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    probes = tuple(getattr(args, "probe", None) or ())  # mc's own flag
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


def _curve(run: RunConfig, ring_counts=(), sink=None) -> PowerBoundsCurve:
    """The power bounds of the run's scenario on its uniform grid (power_bounds)."""
    return power_bounds(run.scenario, uniform_grid(run.n_u), run.arc_points, ring_counts, sink)


def _map(run: RunConfig) -> ProbabilityMap:
    """The run's K-ring probability map, from one region pass (_curve) that takes K rings."""
    return probability_map(_curve(run, (run.k_regions,)), run.k_regions)


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

    The rows go to their offsets in an array N * (arc_points + 4) vertices
    wide, which no region exceeds.  Where the widest region is narrower,
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
            curve = _curve(run, sink=lambda first, vs, n: _write_rows(fh, start, width, first, vs))
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
    pmap = _map(run)
    ring_db = pmap.region_power_db.T
    blocks = _ring_blocks(pmap.bounds.grid, ring_db[:-1], ring_db[1:], pmap.p)
    _write_csv(run, "pia.csv", "u,k,p_lo_db(k),p_hi_db(k),p_k", blocks)
    return 0


def cmd_features(run: RunConfig) -> int:
    """Write the feature-report JSON."""
    report = feature_report(_map(run))
    sll = report.sll_intervals  # None: no sidelobe, written as null
    payload = {
        "k_regions": report.k_regions,
        "u_max": report.u_max,
        "mainlobe_span": list(report.mainlobe_span),
        "degenerate": report.degenerate,
        "regions": [
            {
                "k": k + 1,
                "sll_db": None if sll is None else [float(sll[k, 0]), float(sll[k, 1])],
                "sll_prob": float(report.mean_probs[k]),  # the angular mean, as mean_prob
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
            "sll_db": None if report.iams_sll is None else list(report.iams_sll),
            "gamma_db": list(report.iams_gamma),
        },
    }
    with open(_out_path(run, "features.json"), "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2)
        fh.write("\n")
    return 0


def cmd_mc(run: RunConfig) -> int:
    """Write the Monte Carlo comparison CSVs."""
    pmap = _map(run)
    curve = pmap.bounds
    report = run_mc(pmap, run.mc_samples, seed=run.seed, probe_directions=run.probe_directions)
    mc_min_db = power_db(report.per_u_min, curve.peak_power)
    mc_max_db = power_db(report.per_u_max, curve.peak_power)
    columns = (curve.grid.samples, mc_min_db, mc_max_db, curve.p_lo_db, curve.p_hi_db)
    _write_csv(run, "mc_envelope.csv", "u,mc_min_db,mc_max_db,p_lo_db,p_hi_db", [columns])
    blocks = _ring_blocks(curve.grid, report.region_frequencies, pmap.p)
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
                        help="accepted for compatibility and ignored: the geometry "
                        "runs as one array program on one thread, and the Monte Carlo "
                        "one worker per CPU this process may run on")
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
