"""Interval array factor as a convex region per direction, and power-pattern bounds."""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    EPS_GEOM,
    _block_rows,
    _row_blocks,
    disc_polygon_areas,
    kernel_bytes,
    modulus_bounds,
    polygonize_interval_phasors,
    rotated_minkowski_sums,
)
from .model import AngularGrid, ArrayScenario, check_integer

_TWO_PI = 2.0 * math.pi
_ROUNDING = 2.0 * float(np.finfo(np.float64).eps)

# Range of the sector_reach, which bounds every region modulus, that the
# geometry represents: the ring areas take products of about modulus**4,
# which stay normal doubles (1e-288 to 1e288) inside it.
_MODULUS_RANGE = (1e-72, 1e72)

# The region pass works on blocks of grid rows whose padded regions, and
# their ring areas' temporaries, take about this many bytes; one block's
# regions are all the pass holds.
_PASS_BYTES = 1 << 20

# The region pass deals its blocks to one process per CPU where its summed rows times sector
# vertices reach this many; below it a forked worker costs more than it saves (crossover
# sweep in CHANGES.md: Taylor-N at n_u 501, N 16 to 64, steered and unsteered).
_FORK_WORK = 100_000

# The most processes a pass runs on, the caller included: the crossover sweep measured one
# process against two; the forks, faults and exits of more, and where they pay, are unmeasured.
_MAX_PROCESSES = 2

# Bytes disc_polygon_areas takes per region and ring radius for the edges its circles cut,
# gathered over a whole block: an assumption, not a bound.  Two cut edges, as measured
# (0.75-1.75 per region and radius; a circle may cut every edge), each with its int64 index,
# two complex128 prefix sums and 35 8-byte words of _crossed_areas' temporaries (traced)
_RING_AREA_BYTES = 2 * (8 + 2 * 16 + 35 * 8)

# Relative size, against the region's area, of a negative ring area that is
# still taken for round-off and clipped to zero.
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class PowerBoundsCurve:
    """Per-direction inclusive bounds of the radiated power pattern, as one region pass took them.

    The record of interval_af_curve over grid: the modulus bounds of each
    direction's array-factor region, from the sectors (the (vertices,
    n_vertices) of element_sectors) that the regions sum, and n_vertices
    the regions' vertex counts.  The regions themselves are not kept; they
    leave the pass only in the Block its sink gets per block.  nominal_power
    is the nominal |AF|**2 at each direction, from its region's steering
    phases, and peak_power its largest value, allowance the rounding
    allowance the modulus bounds were widened by (besides each row's welded
    length), mirrored the leading rows that are mirror images
    (mirrored_rows), and rings the (p, degenerate) of the pass's k_regions
    rings, or None for a pass without rings: p[k, i] is the probability
    that the pattern at grid sample i falls in the k-th power sub-interval,
    and degenerate flags the directions whose region has no area, which
    put it all in the first ring.  Reading them, or the ring radii, from a
    curve without rings raises ValidationError.

    The power bounds and their dB values, normalized so the nominal pattern
    peaks at 0 dB (a zero lower bound maps to -inf dB), are computed from
    these when read, and so are ring_radii, the K+1 _ring_radii splitting
    each row's modulus bounds, and their dB, region_power_db, whose
    columns 0 and K are bitwise p_lo_db and p_hi_db.  A curve of a pass
    over a sub-grid may have peak_power == 0; only power_bounds guarantees
    a positive peak, so the dB values are meaningful only on its curves.
    """

    scenario: ArrayScenario = field(repr=False)
    grid: AngularGrid
    sectors: tuple[np.ndarray, np.ndarray] = field(repr=False)
    n_vertices: np.ndarray = field(repr=False)
    modulus_lo: np.ndarray = field(repr=False)
    modulus_hi: np.ndarray = field(repr=False)
    nominal_power: np.ndarray = field(repr=False)
    peak_power: float
    allowance: float
    mirrored: int
    rings: tuple[np.ndarray, np.ndarray] | None = field(repr=False)

    @property
    def p_lo(self) -> np.ndarray:
        return self.modulus_lo**2

    @property
    def p_hi(self) -> np.ndarray:
        return self.modulus_hi**2

    @property
    def p_lo_db(self) -> np.ndarray:
        return power_db(self.p_lo, self.peak_power)

    @property
    def p_hi_db(self) -> np.ndarray:
        return power_db(self.p_hi, self.peak_power)

    @property
    def nominal_db(self) -> np.ndarray:
        return power_db(self.nominal_power, self.peak_power)

    def _rings(self) -> tuple[np.ndarray, np.ndarray]:
        if self.rings is None:
            raise ValidationError(
                "the bounds hold no ring probabilities; pass k_regions= to power_bounds"
            )
        return self.rings

    @property
    def k_regions(self) -> int:
        return len(self._rings()[0])

    @property
    def p(self) -> np.ndarray:
        return self._rings()[0]

    @property
    def degenerate(self) -> np.ndarray:
        return self._rings()[1]

    @property
    def ring_radii(self) -> np.ndarray:
        return _ring_radii(self.modulus_lo, self.modulus_hi, self.k_regions)

    @property
    def region_power_db(self) -> np.ndarray:
        return power_db(self.ring_radii**2, self.peak_power)


@dataclass(frozen=True)
class Block:
    """One block of the region pass: its summed rows' regions, and the rows they mirror to.

    vertices and n_vertices hold the regions of the grid rows rows, in the
    padded-row format.  Grid row r's image is row n_u - 1 - r: the block's
    rows from first on, reversed, are the partners of its image rows
    images, which the pass does not sum.  On an unmirrored pass first is
    the block's row count and images is empty.  A pass without a sink
    drops each block's regions as soon as it has reduced them: its Blocks'
    vertices are None, and no process sends them to another.
    """

    rows: slice
    images: slice
    first: int
    vertices: np.ndarray | None = field(repr=False)
    n_vertices: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, rows: slice, n_u: int, mirrored: int, **fields) -> Block:
        """The block of rows, with fields, of a grid of n_u rows whose first mirrored are images."""
        first = max(0, min(rows.stop, n_u - mirrored) - rows.start)
        images = slice(n_u - rows.stop, n_u - rows.start - first)
        return cls(rows, images, first, **fields)

    def scatter(self, target: np.ndarray, value: np.ndarray) -> None:
        """Write value, one entry per row along its last axis, to target's rows and image rows."""
        target[..., self.rows] = value
        target[..., self.images] = value[..., self.first:][..., ::-1]

    def regions(self):
        """The block's regions, as (first grid row, vertices, n_vertices) runs of padded rows.

        The summed rows come first; then the image rows, if any, as the
        mirror_image of their partners.
        """
        yield self.rows.start, self.vertices, self.n_vertices
        if self.first < len(self.n_vertices):
            n = self.n_vertices[self.first:][::-1]
            yield self.images.start, mirror_image(self.vertices[self.first:][::-1], n), n


def interval_af_curve(
    scenario: ArrayScenario, grid: AngularGrid, sectors, k_regions=None, sink=None
) -> PowerBoundsCurve:
    """The region pass: array-factor regions at every grid sample, reduced to a PowerBoundsCurve.

    sectors is the (vertices, n_vertices) of scenario's element_sectors; at
    direction u element n's sector is rotated by the steering phase
    2*pi*spacing*n*u, and the region, their Minkowski sum, contains the
    nominal array factor.  The grid's rows are summed in blocks of about
    _PASS_BYTES (row_bytes a row), each from its own rows' steering phases,
    and each block is reduced before the next is summed: its modulus bounds,
    widened by the rounding_allowance of the sectors, which checks their
    sector_reach before the sum, and each row's by the length of the steps
    its normalization welded, which bounds how far the weld moved the
    region's boundary; when k_regions is given, the probabilities of its
    k_regions rings, which the curve keeps as its rings; and, when sink is
    given, sink(block) with the block's Block.  Then the block is dropped,
    so no array of every region, or of every row's steering phases, is
    ever held.  Where mirrored_rows finds
    the mirror symmetry, only the rows from u = 0 on are summed, and each
    Block maps its rows at u to their image rows at -u: the pass writes
    the block's vertex counts, bounds and ring probabilities through
    Block.scatter, and the sink reads the images' regions from
    Block.regions, after the block's own.  After the regions are reduced,
    and dropped unless a sink takes them, so that its (N, rows) temporaries
    join no regions a sink does not keep, each block sums the nominal array
    factor at its rows from the phases psi its regions are rotated by, and
    at their image rows from the steering phases at -u, bitwise -psi: a
    nominal phase inside a symmetric interval need not be 0.  The curve
    holds the nominal power and its peak, which is 0 where the nominal
    pattern vanishes at every sample, as it may on a sub-grid: power_bounds,
    not the pass, rejects a zero peak.

    The pass is one map over its blocks (summed), which _dealt deals to
    pass_processes processes: the caller and, where the pass's summed rows
    times sector vertices reach _FORK_WORK, one os.fork'ed worker per
    further CPU, up to _MAX_PROCESSES in all, each holding one block at a
    time (pass_bytes).  The caller places every block's results and calls
    sink itself, in block order, so neither the curve's bits nor what the
    sink gets depend on the processes.
    Python 3.12 and later warn (DeprecationWarning) on os.fork in a process
    with more than one thread, as numpy's OpenBLAS makes it; the workers
    call no BLAS.
    """
    u, n_u, rings, radii_per_row = grid.samples, len(grid), None, 0
    if k_regions is not None:
        check_integer("k_regions", k_regions, 1)
        # C order, since numpy's sums along the grid round by memory layout
        rings = (np.empty((k_regions, n_u)), np.empty(n_u, dtype=bool))
        radii_per_row = k_regions + 1
    slack = rounding_allowance(sectors[0])
    mirrored = mirrored_rows(scenario, grid)
    n_vertices = np.empty(n_u, dtype=np.int64)
    lo, hi, nominal = np.empty(n_u), np.empty(n_u), np.empty(n_u, dtype=complex)
    amplitudes = np.array([[e.nominal_amplitude] for e in scenario.elements])
    phases = np.array([[e.nominal_phase] for e in scenario.elements])
    n_edges = int(sectors[1].sum())

    def summed(rows: slice):
        """The Block of rows, their (vertex counts, bounds[, ring probabilities, degenerate
        flags]) and the nominal AF at its rows and image rows; the Block keeps its regions
        only for a sink."""
        psi = steering_phases(scenario, u[rows])
        vertices, n, welded = rotated_minkowski_sums(*sectors, psi)
        block_lo, block_hi = modulus_bounds(vertices, n)
        reach = slack + welded
        values = (n, np.maximum(block_lo - reach, 0.0), block_hi + reach)
        if rings is not None:
            radii = _ring_radii(*values[1:], k_regions)
            values += _ring_probabilities(radii, vertices, n)
        kept = vertices if sink is not None else None
        block = Block.of(rows, n_u, mirrored, vertices=kept, n_vertices=n)
        del vertices, kept
        image_psi = steering_phases(scenario, u[block.images])
        return block, values, (_nominal_af(amplitudes, phases, psi),
                               _nominal_af(amplitudes, phases, image_psi))

    blocks = [slice(mirrored + b.start, mirrored + b.stop) for b in
              _row_blocks(n_u - mirrored, row_bytes(n_edges, radii_per_row), _PASS_BYTES)]
    processes = pass_processes(n_u - mirrored, n_edges, radii_per_row)
    with contextlib.closing(_dealt(summed, blocks, processes)) as results:
        for block, values, (at_rows, at_images) in results:
            for target, value in zip((n_vertices, lo, hi, *(rings or ())), values):
                block.scatter(target, value)
            nominal[block.rows], nominal[block.images] = at_rows, at_images
            if sink is not None:
                sink(block)
            del block  # so the next block's sum does not hold this one's regions too
    nominal_power = np.abs(nominal) ** 2
    return PowerBoundsCurve(
        scenario, grid, sectors, n_vertices, lo, hi, nominal_power,
        float(nominal_power.max()), slack, mirrored, rings,
    )


def pass_processes(n_rows: int, n_edges: int, radii: int) -> int:
    """The processes a pass that sums n_rows rows of n_edges sector vertices and radii ring radii
    runs on: one per CPU this process may run on (os.sched_getaffinity), at most one per block
    and _MAX_PROCESSES, where n_rows * n_edges reach _FORK_WORK; else 1."""
    if n_rows * n_edges < _FORK_WORK or not hasattr(os, "sched_getaffinity"):
        return 1
    blocks = -(-n_rows // _block_rows(row_bytes(n_edges, radii), _PASS_BYTES))
    return min(len(os.sched_getaffinity(0)), blocks, _MAX_PROCESSES)


def _dealt(work, items, processes: int):
    """work(item) for each of items, in order, item i computed by process i mod processes.

    Process 0 is the caller.  Each other is an os.fork'ed worker that
    computes its items in order, sends each result through its own pipe
    (_work) and leaves by os._exit; the caller reads a worker's result when
    its turn comes.  A worker's exception is raised as itself where its
    item's result would be, and a worker that exits without its result
    raises ChildProcessError.  Every worker is reaped however the caller
    leaves, when the generator is closed; a worker whose pipe is closed
    stops at its next result.
    """
    workers = {}  # process number: (pid, read end of its pipe)
    try:
        for p in range(1, processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                for _, pipe in workers.values():  # the earlier workers' read ends: only the
                    pipe.close()                  # caller's may keep their writes waiting
                _work(work, items[p::processes], write)  # never returns
            os.close(write)
            workers[p] = pid, os.fdopen(read, "rb")
        for i, item in enumerate(items):
            yield work(item) if i % processes == 0 else _received(workers, i % processes)
    finally:
        for _, pipe in workers.values():  # every pipe first, so no worker waits on a write
            pipe.close()                  # while the caller waits on another's exit
        for pid, _ in workers.values():
            os.waitpid(pid, 0)


def _work(work, items, fd: int) -> None:
    """A worker: pickle (True, work(item)) for each item to fd, or (False, the exception) and
    stop; then os._exit, so none of the caller's exit handlers or buffered output runs here."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as out:
            for item in items:
                try:
                    result = True, work(item)
                except Exception as exc:
                    result = False, exc
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if not result[0]:
                    break
                del result  # so the next block's sum does not hold this one's results too
        code = 0
    finally:
        os._exit(code)


def _received(workers: dict, p: int):
    """Worker p's next result, read from its pipe; its exception raised as itself."""
    pid, pipe = workers[p]
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        del workers[p]
        pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise ChildProcessError(
            f"region-pass worker {pid} exited with status {status} before sending its results"
        ) from None
    if not ok:
        raise value
    return value


def row_bytes(n_edges: int, radii: int) -> int:
    """A pass row's bytes, its blocks' unit: n_edges complex128, _RING_AREA_BYTES a radius."""
    return 16 * n_edges + _RING_AREA_BYTES * radii


def curve_bytes(n_u: int, k_regions: int) -> int:
    """A PowerBoundsCurve's bytes: per row, int64 vertex count, float64 bounds and power, the
    complex128 nominal AF they are summed from, K float64 probabilities and a bool flag."""
    return n_u * (8 * (1 + 2 + 1 + 2 + k_regions) + 1)


def ring_bytes(n_u: int, k_regions: int) -> int:
    """The bytes a read of a curve's ring_radii or region_power_db takes with its reader's
    temporaries: float64 ring radii, their squares, their dB and one more (n_u, K+1) array."""
    return 32 * n_u * (k_regions + 1)


def pass_bytes(n_u: int, n_edges: int, radii: int) -> int:
    """The most bytes a pass over n_u rows of n_edges sector vertices takes besides its curve:
    a block (row_bytes a row) and the kernels' temporaries or, larger, its image rows'
    mirror images with their int64 gather index, padded again by a dump (40 bytes a vertex).
    Each of the pass's pass_processes processes takes them."""
    rows = min(n_u, _block_rows(row_bytes(n_edges, radii), _PASS_BYTES))
    return rows * row_bytes(n_edges, radii) + max(kernel_bytes(n_edges, radii), 40 * rows * n_edges)


def _nominal_af(amplitudes, phases, psi) -> np.ndarray:
    """The nominal AF at each row of psi, its elements added in order (cumsum; sum is pairwise)."""
    return np.cumsum(amplitudes * np.exp(1j * (phases + psi.T)), axis=0)[-1]


def _ring_radii(modulus_lo, modulus_hi, k_regions: int) -> np.ndarray:
    """K+1 radii splitting [modulus_lo, modulus_hi] uniformly, along a new last axis."""
    lo, hi = np.asarray(modulus_lo)[..., None], np.asarray(modulus_hi)[..., None]
    radii = lo + (hi - lo) / k_regions * np.arange(k_regions + 1)
    radii[..., :1], radii[..., -1:] = lo, hi  # the outer boundaries are the bounds, bit for bit
    return radii


def _ring_probabilities(radii, vertices, n_vertices) -> tuple[np.ndarray, np.ndarray]:
    """The padded regions' (K, rows) ring probabilities between the (rows, K+1) radii.

    They come with which regions have no area.  The radii are the
    _ring_radii of one pair of bounds, and one disc_polygon_areas call
    takes them all.  Row i's radii run from one within every edge's
    distance from the origin to one that encloses every vertex, as the
    modulus bounds do, so disc_polygon_areas takes its closed forms there:
    0 for the first disc and the region's area for the last.
    """
    covered = disc_polygon_areas(radii, vertices, n_vertices)
    if not np.isfinite(covered).all():
        raise ValidationError("ring areas overflow double precision; scale the amplitudes down")
    total, rings = covered[:, -1], np.diff(covered, axis=1)
    live = total > (EPS_GEOM * radii[:, -1]) ** 2  # relative to the enclosing disc
    bad = live & (rings.min(axis=1) < -_ROUNDOFF * total)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"ring areas {rings[i].tolist()} of a region with area {total[i]} "
            "are negative beyond round-off"
        )
    rings = np.where(live[:, None], np.maximum(rings, 0.0), 0.0)
    rings[~live, 0] = 1.0  # a region with no area puts all probability in the first ring
    return (rings / rings.sum(axis=1, keepdims=True)).T, ~live


def mirrored_rows(scenario: ArrayScenario, grid: AngularGrid) -> int:
    """How many leading grid rows are mirror images of trailing ones, and not summed.

    When every element's phase interval is symmetric about 0 (exactly
    phase_lo == -phase_hi), each sector is its own conjugate, and on a
    grid with u[::-1] == -u exactly the region at -u is the conjugate of
    the region at u: the len(grid) // 2 rows with u < 0 are mirrored.
    Anything else mirrors none.
    """
    u = grid.samples
    return len(u) // 2 if mirrors(scenario) and np.array_equal(u, -u[::-1]) else 0


def mirrors(scenario: ArrayScenario) -> bool:
    """Whether every element's phase interval is symmetric about 0, exactly."""
    return all(e.phase_lo == -e.phase_hi for e in scenario.elements)


def mirror_image(vertices: np.ndarray, n_vertices: np.ndarray) -> np.ndarray:
    """The conjugate of each padded region: its vertex 0 first, then the rest in reverse order.

    So the image stays counter-clockwise and keeps the padded-row format.
    """
    n = np.asarray(n_vertices)[:, None]
    slot = np.arange(vertices.shape[1])
    image = np.take_along_axis(vertices, np.where(slot < n, (n - slot) % n, 0), axis=1)
    return np.conjugate(image, out=image)


def steering_phases(scenario: ArrayScenario, u) -> np.ndarray:
    """(len(u), N) steering phases 2*pi*spacing*n*u: the regions', nominal's and MC's alike."""
    return _TWO_PI * scenario.spacing * np.outer(u, np.arange(scenario.n_elements))


def element_sectors(
    scenario: ArrayScenario, arc_points: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Each element's excitation sector as a covering polygon, in element order.

    Returns (vertices, n_vertices) in the padded-row format, one row per element.
    """
    return polygonize_interval_phasors(
        [(e.amplitude_lo, e.amplitude_hi, e.phase_lo, e.phase_hi) for e in scenario.elements],
        arc_points,
    )


def rounding_allowance(sectors: np.ndarray) -> float:
    """Modulus widening that keeps rounded phasor sums inside the bounds.

    Summing N phasors in floating point moves the sum by up to about
    N * eps * (sum of their moduli), both in the region sums and wherever a
    realization is evaluated; the allowance is twice that.  sectors is the
    padded vertex array of element_sectors, and the sum is their
    sector_reach, so the allowance checks its range.
    """
    return _ROUNDING * len(sectors) * sector_reach(sectors)


def sector_reach(sectors: np.ndarray) -> float:
    """The sum over the sectors of each one's modulus, which bounds every region modulus.

    Each sector's modulus is the farthest vertex of its row of the padded
    vertex array, which the padding cannot change, and the moduli are
    summed in element order.  A sum outside _MODULUS_RANGE raises
    ValidationError.
    """
    reach = sum(np.abs(sectors).max(axis=1).tolist())
    smallest, largest = _MODULUS_RANGE
    if not smallest <= reach <= largest:
        raise ValidationError(
            f"sector moduli sum {reach:.3g} lies outside [{smallest:g}, {largest:g}], where "
            "the region geometry overflows or underflows double precision; scale the "
            f"amplitudes {'up' if reach < smallest else 'down'}"
        )
    return reach


def power_db(power, peak_power: float, out=None):
    """Linear power to dB relative to the peak; 0 maps to -inf.  out, when
    given, is a float64 array of power's shape that takes the dB, and may be power."""
    power = np.asarray(power, dtype=np.float64)
    # the one array it allocates, where out is not given
    out = np.divide(power, peak_power, out=np.empty(power.shape) if out is None else out)
    with np.errstate(divide="ignore"):
        np.log10(out, out=out)
    out *= 10.0
    return float(out) if out.shape == () else out


def power_bounds(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8, k_regions=None, sink=None
) -> PowerBoundsCurve:
    """Inclusive power-pattern bounds over a grid: the curve of one region pass.

    The sectors are polygonized once at arc_points, and one region pass
    (interval_af_curve) over them takes the bounds and, when k_regions is
    given, the probabilities of its k_regions rings, and hands sink one
    Block per block of regions.  The curve is the run's one record, which
    feature_report and run_mc take.  A sector_reach outside _MODULUS_RANGE
    raises ValidationError before any region is built; inside it the power
    bounds, and the nominal peak they contain, are finite.  A nominal pattern that is zero at every grid sample raises
    ValidationError, so the curve's dB values are defined.  A pass whose summed
    rows times sector vertices reach _FORK_WORK runs on one process per CPU,
    at most _MAX_PROCESSES, each os.fork'ed worker holding one block at a
    time (pass_bytes), and below it on the caller alone; the curve's bits,
    and the Blocks sink gets and their order, are the same either way
    (interval_af_curve).
    """
    sectors = element_sectors(scenario, arc_points)
    curve = interval_af_curve(scenario, grid, sectors, k_regions, sink)
    if curve.peak_power <= 0.0:
        raise ValidationError("nominal pattern is identically zero on the grid")
    return curve
