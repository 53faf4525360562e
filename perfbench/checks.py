"""Correctness checks on the CLI's output files, reference comparison and accuracy readouts.

Every check returns a list of problems; an empty list means the output is
correct.  Numbers are compared with a 1e-9 tolerance relative to
max(1, |reference|), so last-digit changes of about 1e-13 from a faster
kernel pass while real changes fail.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import statistics

TOL = 1e-9
VALUE_FILES = ("bounds.csv", "pia.csv", "features.json")


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _lin(db: float) -> float:
    return 0.0 if db == -math.inf else 10.0 ** (db / 10.0)


def scenario_digest(cfg: dict) -> str:
    """Digest of everything in a config that the bounds, pia and features outputs depend on."""
    geometry = {k: v for k, v in cfg.items() if k not in ("seed", "mc_samples")}
    return hashlib.sha256(json.dumps(geometry, sort_keys=True).encode()).hexdigest()


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_validate(stdout: str) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return ["validate printed no checks"]
    return [f"validate: {ln.strip()}" for ln in lines if not ln.startswith("PASS")]


def check_bounds(out_dir: str) -> list[str]:
    """The nominal pattern lies inside the bounds; a polygon dump lists every vertex."""
    _, rows = _rows(os.path.join(out_dir, "bounds.csv"))
    problems = []
    for row in rows:
        lo, hi, nominal = _lin(float(row[1])), _lin(float(row[2])), _lin(float(row[3]))
        if not (lo - TOL * hi <= nominal <= hi * (1.0 + TOL)):
            problems.append(f"bounds.csv: nominal outside bounds at u={row[0]}")
    dump = os.path.join(out_dir, "polygons.csv")
    if os.path.exists(dump):
        with open(dump, "rb") as fh:
            lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
        expected = 1 + sum(int(row[6]) for row in rows)
        if lines != expected:
            problems.append(f"polygons.csv has {lines} lines, bounds.csv implies {expected}")
    return problems


def check_pia(out_dir: str) -> list[str]:
    """Ring probabilities of each direction sum to one."""
    _, rows = _rows(os.path.join(out_dir, "pia.csv"))
    sums: dict[str, float] = {}
    for row in rows:
        sums[row[0]] = sums.get(row[0], 0.0) + float(row[4])
    return [f"pia.csv: p_k sums to {s!r} at u={u}" for u, s in sums.items() if abs(s - 1.0) > TOL]


def check_mc(out_dir: str) -> tuple[list[str], list[float]]:
    """MC envelope inside the bounds, frequency columns sum to one; returns per-u TV distances."""
    problems = []
    _, rows = _rows(os.path.join(out_dir, "mc_envelope.csv"))
    for row in rows:
        mc_lo, mc_hi, lo, hi = (_lin(float(x)) for x in row[1:5])
        slack = TOL * max(hi, 1e-300)
        if mc_lo < lo - slack or mc_hi > hi + slack:
            problems.append(f"mc_envelope.csv: MC envelope leaves the bounds at u={row[0]}")
    _, rows = _rows(os.path.join(out_dir, "mc_frequencies.csv"))
    per_u: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        per_u.setdefault(row[0], []).append((float(row[2]), float(row[3])))
    tv = []
    for u, pairs in per_u.items():
        for col, label in ((0, "mc_freq"), (1, "pia_p")):
            s = sum(p[col] for p in pairs)
            if abs(s - 1.0) > TOL:
                problems.append(f"mc_frequencies.csv: {label} sums to {s!r} at u={u}")
        tv.append(0.5 * sum(abs(f - p) for f, p in pairs))
    return problems, tv


def region_vertices_mean(out_dir: str) -> float:
    _, rows = _rows(os.path.join(out_dir, "bounds.csv"))
    return statistics.fmean(int(row[6]) for row in rows)


def _compare_json(a, b, where: str) -> list[str]:
    if isinstance(b, dict):
        if not isinstance(a, dict) or a.keys() != b.keys():
            return [f"{where}: keys differ"]
        return [p for k in b for p in _compare_json(a[k], b[k], f"{where}.{k}")]
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return [f"{where}: lengths differ"]
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _compare_json(x, y, f"{where}[{i}]")]
    if isinstance(b, bool) or isinstance(b, str) or b is None:
        return [] if a == b else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, bool) or not isinstance(a, (int, float)) or not _close(float(a), float(b)):
        return [f"{where}: {a!r} != {b!r}"]
    return []


def compare_values(path: str, ref_path: str) -> list[str]:
    """Compare an output file with its gzipped reference, number by number."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with gzip.open(ref_path, "rt", encoding="utf-8") as fh:
        ref_text = fh.read()
    if name.endswith(".json"):
        return _compare_json(json.loads(text), json.loads(ref_text), name)
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if len(lines) != len(ref_lines) or lines[:1] != ref_lines[:1]:
        return [f"{name}: shape or header differs from the reference"]
    # integer columns (k, n_vertices) must match exactly
    exact = {i for i, col in enumerate(ref_lines[0].split(",")) if col in ("k", "n_vertices")}
    problems = []
    for ln, (row, ref) in enumerate(zip(lines[1:], ref_lines[1:]), start=2):
        cells, ref_cells = row.split(","), ref.split(",")
        bad = len(cells) != len(ref_cells) or any(
            (c != r) if i in exact else not _close(float(c), float(r))
            for i, (c, r) in enumerate(zip(cells, ref_cells))
        )
        if bad:
            problems.append(f"{name} line {ln}: {row} differs from reference {ref}")
            if len(problems) >= 5:
                break
    return problems
