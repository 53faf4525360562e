"""Run one arraytol CLI command in this fresh process and record what it cost.

Usage: python3 child.py RECORD.json TRACE -- CLI-ARGS...

The command's wall time is taken around `arraytol.cli.main` after the
package is imported.  With TRACE=1 the public functions listed in SPANS
are wrapped in every arraytol module that binds them before the command
runs, and the span totals are added to the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import arraytol.cli as cli

from spans import Tracer

SPANS = (
    ("model.load_config", "arraytol.model", "load_config"),
    ("model.scenario_from_config", "arraytol.model", "scenario_from_config"),
    ("geometry.polygonize", "arraytol.geometry", "polygonize_interval_phasor"),
    ("geometry.minkowski", "arraytol.geometry", "minkowski_sum_many"),
    ("geometry.modulus_bounds", "arraytol.geometry", "distance_bounds_to_origin"),
    ("geometry.triangulate", "arraytol.geometry", "triangulate"),
    ("geometry.ring_area", "arraytol.geometry", "circle_triangle_intersection_area"),
    ("iams.interval_af_curve", "arraytol.iams", "interval_af_curve"),
    ("iams.power_bounds", "arraytol.iams", "power_bounds"),
    ("pia.probability_map", "arraytol.pia", "probability_map"),
    ("pia.region_probabilities", "arraytol.pia", "region_probabilities"),
    ("pia.feature_report", "arraytol.pia", "feature_report"),
    ("montecarlo.sample_stream", "arraytol.montecarlo", "sample_stream"),
    ("montecarlo.run_mc", "arraytol.montecarlo", "run_mc"),
    ("validate.run_validation", "arraytol.validate", "run_validation"),
    ("validate.quadrature", "arraytol.validate", "disc_polygon_area_quadrature"),
)


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    tracer = None
    command = cli.main
    if trace:
        tracer = Tracer()
        specs = [
            spec + (lambda mc: tracer.count("montecarlo.samples", getattr(mc, "n_samples", 0)),)
            if spec[0] == "montecarlo.run_mc"
            else spec
            for spec in SPANS
        ]
        tracer.install("arraytol", specs)
        command = tracer.span("cli.main", cli.main)

    stdout = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = command(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # record the crash for the caller, which counts it as failed
        code = -1
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "exit": code,
        "seconds": seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "stdout": stdout.getvalue(),
        "error": error,
        "trace": tracer.report() if tracer else None,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
