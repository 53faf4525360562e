"""Benchmark of the arraytol command line over seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload taylor16 --seed 0 --seconds 10 --trace 0

Every CLI command runs in a fresh interpreter (perfbench/child.py) against
the sources under src/, and its output files are checked.  With --trace 0
the run repeats whole passes over the workload's commands until --seconds
have passed (at least one pass) and reports the end-to-end metrics as
medians over passes.  With --trace 1 it makes one untraced and one traced
pass and reports the per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
    VALUE_FILES,
    check_bounds,
    check_mc,
    check_pia,
    check_validate,
    compare_values,
    config_digest,
    file_sha256,
    region_vertices_mean,
    scenario_digest,
)
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(BENCH, "reference")

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "max_cmd_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> (span name, field) read from the merged trace
SPAN_METRICS = {
    "geometry.polygonize.calls": ("geometry.polygonize", "calls"),
    "geometry.polygonize.s": ("geometry.polygonize", "s"),
    "geometry.minkowski.calls": ("geometry.minkowski", "calls"),
    "geometry.minkowski.s": ("geometry.minkowski", "s"),
    "geometry.modulus_bounds.s": ("geometry.modulus_bounds", "s"),
    "geometry.triangulate.s": ("geometry.triangulate", "s"),
    "geometry.ring_area.calls": ("geometry.ring_area", "calls"),
    "geometry.ring_area.s": ("geometry.ring_area", "s"),
    "iams.interval_af_curve.calls": ("iams.interval_af_curve", "calls"),
    "iams.interval_af_curve.self_s": ("iams.interval_af_curve", "self_s"),
    "iams.power_bounds.calls": ("iams.power_bounds", "calls"),
    "iams.power_bounds.self_s": ("iams.power_bounds", "self_s"),
    "pia.probability_map.calls": ("pia.probability_map", "calls"),
    "pia.probability_map.self_s": ("pia.probability_map", "self_s"),
    "pia.region_probabilities.self_s": ("pia.region_probabilities", "self_s"),
    "pia.feature_report.self_s": ("pia.feature_report", "self_s"),
    "montecarlo.sample_stream.calls": ("montecarlo.sample_stream", "calls"),
    "montecarlo.sample_stream.s": ("montecarlo.sample_stream", "s"),
    "montecarlo.run_mc.self_s": ("montecarlo.run_mc", "self_s"),
    "validate.run_validation.self_s": ("validate.run_validation", "self_s"),
    "validate.quadrature.calls": ("validate.quadrature", "calls"),
    "validate.quadrature.s": ("validate.quadrature", "s"),
    "cli.write.self_s": ("cli.main", "self_s"),
}
COMMANDS = ("bounds", "pia", "features", "mc", "validate")


def _unit(name: str) -> str:
    if name.endswith((".calls", ".samples", "_files")):
        return "count"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_s", ".s")):
        return "s"
    return {"geometry.region_vertices_mean": "vertices"}.get(name, "ratio")


class Bench:
    """One benchmark run: a workload's config, its checks and what the run measured."""

    def __init__(self, workload, seed: int, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.cfg = workload.config(seed)
        self.cfg_path = os.path.join(run_dir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        ref_dir = os.path.join(REFERENCE, workload.name)
        self.ref_dir = ref_dir
        self.manifest = {}
        if os.path.exists(os.path.join(ref_dir, "manifest.json")):
            with open(os.path.join(ref_dir, "manifest.json"), encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        self.values_comparable = self.manifest.get("scenario") == scenario_digest(self.cfg)
        self.bytes_comparable = self.manifest.get("config") == config_digest(self.cfg)

    def _operation(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def setup_probe(self) -> float | None:
        """Seconds from starting a fresh interpreter to a built scenario."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "probe.py"), self.cfg_path],
                capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._operation("setup", [f"timed out after {CHILD_TIMEOUT_S} s"])
            return None
        problems = []
        probe = None
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            if not os.path.abspath(probe["arraytol_file"]).startswith(SRC + os.sep):
                problems.append(f"imported arraytol from {probe['arraytol_file']}, not {SRC}")
            if probe["n_elements"] != len(self.cfg["elements"]):
                problems.append(f"scenario has {probe['n_elements']} elements")
            self.info["numpy"] = probe["numpy"]
        if not self._operation("setup", problems):
            return None
        return probe["done"] - start

    def _spawn(self, args: tuple[str, ...], out_dir: str, trace: bool) -> tuple[dict | None, str]:
        """Run one CLI command in a fresh process; return its record or why there is none."""
        shutil.rmtree(out_dir, ignore_errors=True)
        record_path = out_dir + ".record.json"
        cmd = [
            sys.executable, os.path.join(BENCH, "child.py"), record_path, "1" if trace else "0",
            "--", *args, "--config", self.cfg_path, "--out", out_dir,
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not os.path.exists(record_path):
            return None, f"runner exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record["exit"] != 0:
            return None, f"exit {record['exit']}: {record['error'] or proc.stderr.strip()[-500:]}"
        return record, ""

    def run_command(self, args: tuple[str, ...], trace: bool, tag: str) -> dict | None:
        """Run one CLI command, check its outputs and return its record (None if it failed)."""
        label = " ".join(args)
        out_dir = os.path.join(self.run_dir, f"{tag}-{args[0]}")
        record, error = self._spawn(args, out_dir, trace)
        if record is None:
            self._operation(label, [error])
            return None
        problems, record["readouts"] = self._check(args[0], out_dir, record["stdout"])
        files = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        record["bytes_written"] = len(record["stdout"].encode()) + sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in files
        )
        record["identical_files"], record["compared_files"] = self._byte_identity(
            args[0], out_dir, record["stdout"]
        )
        self._operation(label, problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return record

    def _check(self, name: str, out_dir: str, stdout: str) -> tuple[list[str], dict]:
        problems: list[str] = []
        readouts: dict = {}
        if name == "validate":
            problems += check_validate(stdout)
        if name == "bounds":
            problems += check_bounds(out_dir)
            readouts["region_vertices_mean"] = region_vertices_mean(out_dir)
        if name == "pia":
            problems += check_pia(out_dir)
        if name == "mc":
            mc_problems, tv = check_mc(out_dir)
            problems += mc_problems
            readouts["pia_tv"] = tv
        for fname in VALUE_FILES:
            path = os.path.join(out_dir, fname)
            ref = os.path.join(self.ref_dir, fname + ".gz")
            if self.values_comparable and os.path.exists(path) and os.path.exists(ref):
                problems += compare_values(path, ref)
        return problems, readouts

    def _outputs(self, name: str, out_dir: str, stdout: str) -> dict[str, str]:
        """sha256 of every output of a command, keyed by file name."""
        hashes = {f"{name}.stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        if os.path.isdir(out_dir):
            for fname in sorted(os.listdir(out_dir)):
                hashes[fname] = file_sha256(os.path.join(out_dir, fname))
        return hashes

    def _byte_identity(self, name: str, out_dir: str, stdout: str) -> tuple[int, int]:
        if not self.bytes_comparable:
            return 0, 0
        ref = self.manifest.get("sha256", {})
        hashes = self._outputs(name, out_dir, stdout)
        compared = [f for f in hashes if f in ref]
        return sum(hashes[f] == ref[f] for f in compared), len(compared)

    def run_pass(self, trace: bool, tag: str) -> dict[str, dict] | None:
        records = {}
        for args in self.workload.commands:
            record = self.run_command(args, trace, tag)
            if record is None:
                return None
            records[args[0]] = record
        return records

    def write_references(self) -> None:
        """Store bounds/pia/features values and every output's sha256 for this seed."""
        os.makedirs(self.ref_dir, exist_ok=True)
        self.values_comparable = False  # the old references are being replaced
        hashes = {}
        for args in self.workload.commands:
            out_dir = os.path.join(self.run_dir, f"ref-{args[0]}")
            record, error = self._spawn(args, out_dir, trace=False)
            if record is None:
                raise SystemExit(f"{args[0]}: {error}")
            problems, _ = self._check(args[0], out_dir, record["stdout"])
            if problems:
                raise SystemExit("\n".join(problems))
            hashes.update(self._outputs(args[0], out_dir, record["stdout"]))
            for fname in VALUE_FILES:
                path = os.path.join(out_dir, fname)
                if os.path.exists(path):
                    with open(path, "rb") as src:
                        data = gzip.compress(src.read(), mtime=0)
                    with open(os.path.join(self.ref_dir, fname + ".gz"), "wb") as dst:
                        dst.write(data)
        manifest = {
            "seed": self.seed,
            "scenario": scenario_digest(self.cfg),
            "config": config_digest(self.cfg),
            "sha256": hashes,
        }
        with open(os.path.join(self.ref_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    times = [[r["seconds"] for r in p.values()] for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(sum(t) for t in times),
        "max_cmd_s": statistics.median(max(t) for t in times),
        "peak_rss_mib": statistics.median(
            max(r["peak_rss_mib"] for r in p.values()) for p in passes
        ),
    }


def per_layer(untraced: dict, traced: dict) -> tuple[dict[str, float], list[str]]:
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for record in traced.values():
        for name, v in record["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += v[field]
        for name, v in record["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + v
        missing.update(record["trace"]["missing"])

    def field(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    metrics = {name: field(*src) for name, src in SPAN_METRICS.items()}
    metrics["model.load_s"] = field("model.load_config", "s") + field(
        "model.scenario_from_config", "s"
    )
    metrics["montecarlo.samples"] = counters.get("montecarlo.samples", 0)
    metrics["cli.bytes_written"] = sum(r["bytes_written"] for r in traced.values())
    metrics["cli.identical_files"] = sum(r["identical_files"] for r in traced.values())
    vertices = [r["readouts"]["region_vertices_mean"] for r in traced.values()
                if "region_vertices_mean" in r["readouts"]]
    metrics["geometry.region_vertices_mean"] = vertices[0] if vertices else 0.0
    tv = [r["readouts"]["pia_tv"] for r in traced.values() if "pia_tv" in r["readouts"]]
    metrics["montecarlo.pia_tv_median"] = statistics.median(tv[0]) if tv else 0.0
    metrics["montecarlo.pia_tv_max"] = max(tv[0]) if tv else 0.0
    metrics["trace.overhead_s"] = sum(r["seconds"] for r in traced.values()) - sum(
        r["seconds"] for r in untraced.values()
    )
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = untraced[cmd]["seconds"] if cmd in untraced else 0.0
    return metrics, sorted(missing)


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {
        k: v for k, v in metrics.items()
        if k.endswith(".calls") or k in ("montecarlo.samples", "cli.bytes_written")
    }


def code_digest() -> str:
    h = hashlib.sha256()
    for top in (SRC, BENCH):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if fname.endswith((".py", ".json")):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode())
                    h.update(file_sha256(path).encode())
    return h.hexdigest()


def count_selfcheck(key: str, counts: dict[str, float]) -> str:
    """Compare exact counts with those an earlier run of the same code and seed stored."""
    path = os.path.join(WORK, "counts", key + ".json")
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    differ = sorted(k for k in counts.keys() & stored.keys() if counts[k] != stored[k])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**stored, **counts}, fh, indent=1, sort_keys=True)
    if differ:
        return "MISMATCH (benchmark run flagged): " + ", ".join(
            f"{k} {stored[k]} -> {counts[k]}" for k in differ
        )
    shared = len(counts.keys() & stored.keys())
    if not shared:
        return f"{len(counts)} counts stored; no earlier run of this code and seed to compare"
    return f"{shared} counts repeat an earlier run of this code and seed"


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="store this seed's outputs as the workload's references")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arraytol", "cli.py")):
        print(f"perfbench: no arraytol sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, run_dir)
        if args.write_references:
            bench.write_references()
            print(f"wrote references for {args.workload} seed {args.seed}")
            return 0
        return report(bench, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(bench: Bench, args) -> int:
    trace = args.trace == 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    setups = []
    passes: list[dict] = []
    traced = None
    if trace:
        bench.setup_probe()
        untraced = bench.run_pass(False, "plain")
        traced = bench.run_pass(True, "traced") if untraced else None
        if untraced:
            passes.append(untraced)
    else:
        for _ in range(SETUP_PROBES):
            s = bench.setup_probe()
            if s is not None:
                setups.append(s)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            records = bench.run_pass(False, f"pass{len(passes)}")
            if records is None:
                break
            passes.append(records)

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"]
    commands = []
    for i, p in enumerate(passes + ([traced] if traced else [])):
        kind = "traced" if traced is not None and i == len(passes) else f"pass {i}"
        for name, r in p.items():
            lines.append(
                f"  {kind:8s} {name:9s} {r['seconds']:9.3f} s  {r['peak_rss_mib']:7.1f} MiB"
                f"  {r['bytes_written']:9d} B  identical {r['identical_files']}/{r['compared_files']}"
            )
            entry = {k: v for k, v in r.items() if k not in ("stdout", "error", "readouts")}
            commands.append({"pass": kind, "command": name, **entry})
    bytes_seen = {sum(r["bytes_written"] for r in p.values()) for p in passes + [traced] if p}
    metrics: dict[str, float] = {}
    missing: list[str] = []
    counts = {"cli.bytes_written": bytes_seen.pop()} if len(bytes_seen) == 1 else {}
    selfcheck = "bytes written differ between passes (benchmark run flagged)" if bytes_seen else ""
    if trace and traced:
        metrics, missing = per_layer(passes[0], traced)
        counts = exact_counts(metrics)
    elif not trace and passes and setups:
        metrics = end_to_end(setups, passes)
    if counts and not selfcheck:
        key = f"{record['code_digest'][:16]}-{args.workload}-{args.seed}"
        selfcheck = count_selfcheck(key, counts)
    record.update(
        numpy=bench.info.get("numpy", "unknown"),
        passes=len(passes),
        setup_probes_s=setups,
        commands=commands,
        attempted=bench.attempted,
        failed=bench.failed,
        problems=bench.problems,
        missing=missing,
        count_selfcheck=selfcheck,
        metrics=metrics,
    )
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = os.path.join(
        WORK, "records", f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    lines += [f"  {p}" for p in bench.problems[:20]]
    lines.append(f"operations attempted {bench.attempted} failed {bench.failed}")
    lines.append(f"count self-check: {selfcheck}")
    if missing:
        lines.append("missing (no longer in the program): " + ", ".join(missing))
    lines.append(
        f"record {os.path.relpath(record_path, ROOT)}: git {record['git_sha']}  "
        f"code {record['code_digest'][:16]}  python {record['python']}  "
        f"numpy {record['numpy']}  nproc {record['nproc']}"
    )
    units = END_TO_END_UNITS if not trace else {k: _unit(k) for k in metrics}
    for name in sorted(metrics):
        lines.append(f"  {name:34s} {metrics[name]:>14.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(metrics) and bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
