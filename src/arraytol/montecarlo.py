"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

A run reads its random numbers from one counter-based stream (Salmon et
al., SC 2011) built on SplitMix64 (Steele, Lea and Flood, OOPSLA 2014):
word j is mix64(key + (j + 1) * gamma) in wrapping 64-bit arithmetic, with
the key derived from the seed.  Samples take 2N words each, in sample
order, so word j sits at a fixed counter and results are bitwise identical
for a fixed seed no matter how work is chunked, or which worker draws a
chunk.  A chunk computes its words in place, in a few uint64 passes over
its excitation buffer, so no process loads numpy.random.  The chunks run on
one worker thread per usable CPU, each taking its next chunk from one
shared queue and keeping its own buffers and accumulators, while OpenBLAS
is held to one thread of its own: its idle worker spins on a CPU that a
second worker would need.  Chunks of samples are sized by one byte budget
per worker that counts every buffer they hold: the excitations, the power
rows, in which the draw's uniforms live while it runs, and the probes'
power columns.  Each chunk's complex pattern product is formed in row
blocks sized by a smaller, cache-sized budget and written straight into
the chunk's power rows; the ring masks then reuse the product's bytes.
A worker gathers its probes' power columns over several chunks and bins
them in one batch, as each histogram call costs far more in Python than
in counting.  No product has a lone row, whose one-row product BLAS
rounds by its thread count (a gemv, not a gemm): a lone sample is
repeated.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .iams import PowerBoundsCurve, power_db, ring_bytes, steering_phases
from .model import ArrayScenario, check_integer

_HIST_BINS = 200
_CHUNK_BYTES = 768 << 10  # a worker's chunk: _CHUNK_BYTES // (8 max(N_u, 2N) + 16 N + 8 P) samples
_BLOCK_BYTES = 256 << 10  # one block's (block, N_u) complex128 product
_PROBE_BYTES = 64 << 10  # a worker's probe columns beyond one chunk's, histogrammed when full
# The ufunc buffer, in elements, of an MC worker (numpy's default is 8192).
# numpy allocates one for each broadcast or cast operand of a call, and the
# workers' calls overlap by chance: small buffers keep run_mc's peak memory
# from varying with how they interleave.
_UFUNC_BUFFER = 1024
SEED_LIMIT = 1 << 128  # seeds are two 64-bit words, folded into one key
SAMPLE_LIMIT = 1 << 63  # sample counts are int64

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, odd, so the period is 2**64 words
# mix64 (Stafford's Mix13): z ^= z >> 30; z *= M1; z ^= z >> 27; z *= M2; z ^= z >> 31
_MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MIX_LAST = 31

# The (get, set) thread-count functions an OpenBLAS build may export, newest first:
# numpy >= 2 wheels' scipy-openblas, then 64-bit and 32-bit integer builds
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class ProbeHistogram:
    """Fixed-bin dB histogram of the sampled power at one probe direction.

    u is the grid sample nearest the probed direction and index its
    position in the grid.
    """

    u: float
    index: int
    bin_edges_db: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class McReport:
    """Empirical envelope and ring occupancy over n_samples realizations of a curve's scenario."""

    n_samples: int
    per_u_min: np.ndarray = field(repr=False)  # linear power
    per_u_max: np.ndarray = field(repr=False)
    region_frequencies: np.ndarray = field(repr=False)  # (K, N_u)
    histograms: tuple[ProbeHistogram, ...] = ()


@dataclass
class SampleStream:
    """A run's random stream: its key and position, the counter of the next word it gives."""

    key: int
    position: int = 0


def _mix64(z: int) -> int:
    """SplitMix64's output function on one 64-bit word: a bijection, with _mix64(0) == 0."""
    for shift, factor in _MIX_STEPS:
        z = (z ^ (z >> shift)) * factor & _MASK
    return z ^ (z >> _MIX_LAST)


def sample_stream(seed: int) -> SampleStream:
    """The random stream of a run, at its first word.

    The key is mix64(lo ^ mix64(hi)) of the seed's low and high 64-bit
    words.  mix64 is a bijection and mix64(0) is 0, so every seed below
    2**64 has a key of its own, and seed 0 has key 0, whose first word is
    splitmix64's first output from state 0.  Samples read the stream in
    order, 2N words each, so sample i of run_mc is the i-th
    sample_realization call on a fresh sample_stream(seed).  The stream
    repeats after 2**64 words.
    """
    seed = int(seed)
    return SampleStream(_mix64((seed & _MASK) ^ _mix64(seed >> 64)))


def _words(stream: SampleStream, out: np.ndarray, scratch: np.ndarray) -> None:
    """Set out, uint64 of shape (..., W), to the stream's next out.size words
    in C order, and advance the stream past them.  scratch, a uint64 array
    of out's shape, is overwritten.

    Word j's state key + (j + 1) * gamma is a slot offset, copied into
    every row, plus a row offset; mix64 then runs in place, in wrapping
    uint64 arithmetic, shifting into scratch.  No pass allocates more than
    numpy's ufunc buffer.
    """
    width = out.shape[-1]
    slots = np.arange(width, dtype=np.uint64)
    slots *= np.uint64(_GAMMA)
    slots += np.uint64((stream.key + (stream.position + 1) * _GAMMA) & _MASK)
    rows = np.arange(out.size // width, dtype=np.uint64).reshape(*out.shape[:-1], 1)
    rows *= np.uint64(width * _GAMMA & _MASK)
    np.copyto(out, slots)  # a copy, then one broadcast add: numpy buffers each broadcast operand
    out += rows
    stream.position += out.size
    for shift, factor in _MIX_STEPS:
        np.bitwise_xor(out, np.right_shift(out, shift, out=scratch), out=out)
        out *= np.uint64(factor)
    np.bitwise_xor(out, np.right_shift(out, _MIX_LAST, out=scratch), out=out)


def sample_realization(scenario: ArrayScenario, stream: SampleStream) -> np.ndarray:
    """One crisp excitation draw, uniform in each amplitude/phase interval,
    from the next 2N words of stream: _draw into fresh (2N,) and (N,)
    buffers, the per-sample reference of run_mc's chunks."""
    n = scenario.n_elements
    weights = np.empty(n, dtype=complex)
    _draw(_tolerance_box(scenario), stream, np.empty(2 * n), weights)
    return weights


def _tolerance_box(scenario: ArrayScenario) -> tuple[np.ndarray, np.ndarray]:
    """Lows and widths of each element's amplitude interval then phase
    interval, element by element: the (2N,) layout of a sample's uniforms."""
    lo = np.array([(e.amplitude_lo, e.phase_lo) for e in scenario.elements]).ravel()
    hi = np.array([(e.amplitude_hi, e.phase_hi) for e in scenario.elements]).ravel()
    return lo, hi - lo


def _draw(
    box: tuple[np.ndarray, np.ndarray],
    stream: SampleStream,
    uniforms: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Draw excitations in place.  The stream's next words, as many as
    uniforms, of shape (..., 2N), holds, are computed in weights, of shape
    (..., N), viewed as uint64, and each word w becomes the uniform
    u = (w >> 11) * 2**-53 in [0, 1).  Uniform 2n of a sample is element
    n's amplitude a and uniform 2n + 1 its phase b, each mapped onto its
    interval as lo + (hi - lo) * u; then weights is set to
    a cos b + j a sin b, the bits of a * exp(jb)."""
    words = weights.view(np.uint64)
    _words(stream, words, uniforms.view(np.uint64))
    np.right_shift(words, 11, out=words)
    np.multiply(words, 2.0**-53, out=uniforms)
    lo, width = box
    uniforms *= width
    uniforms += lo
    # element n is slot pair (2n, 2n + 1), so each slice is one strided loop
    amp, phase = uniforms[..., 0::2], uniforms[..., 1::2]
    re, im = weights.real, weights.imag
    np.multiply(np.cos(phase, out=re), amp, out=re)
    np.multiply(np.sin(phase, out=im), amp, out=im)


def _spans(n: int, step: int):
    """(start, stop) pairs covering range(n) in steps of step >= 2, made as they are taken; a
    lone last row joins the span before it, so no span holds one row unless n is 1."""
    return ((s, n if s + step >= n - 1 else s + step) for s in range(0, max(n - 1, 1), step))


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into
    this process, found by its path in /proc/self/maps, or None where
    there is none.  Looked up at the first run_mc call, not at import."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.rstrip("\n").split(maxsplit=5)[-1] for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            library = ctypes.CDLL(path)  # mapped already, so this only gets its handle
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread(threads):
    """Hold OpenBLAS to one thread, restoring its count on exit; threads
    is its (get, set) pair from _openblas_threads."""
    get, set_ = threads
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def _layout(n: int, n_u: int, n_samples: int, n_probes: int):
    """run_mc's chunk step, product block rows, most workers (one per usable CPU and chunk), a
    worker's sample rows and probe columns, and its (shape, dtype) buffers: power rows,
    excitations, product block (then ring masks) and probe columns."""
    width = max(n_u, 2 * n)  # a power row, or a sample's uniforms
    step = max(2, _CHUNK_BYTES // (8 * width + 16 * n + 8 * n_probes))  # a sample's bytes
    block = max(2, n, _BLOCK_BYTES // (16 * n_u))
    rows = max(2, min(step + 1, n_samples))  # two at least: a one-sample run repeats its sample
    product = max(min(block + 1, rows) * n_u, -(-rows * n_u // 16))
    batch = min(rows + _PROBE_BYTES // (8 * max(n_probes, 1)), n_samples)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = len(list(zip(range(cpus), _spans(n_samples, step))))  # no more than chunks
    return step, block, workers, rows, batch, (
        ((rows * width,), float), ((rows, n), complex), ((product,), complex),
        ((n_probes, batch), float))


def mc_bytes(n: int, k_regions: int, n_u: int, n_samples: int, n_probes: int) -> int:
    """The most bytes run_mc allocates, its report included, for N = n and P = n_probes: the
    tolerance box, complex128 steering matrix and one span of its phases times 1j and
    exponentials; then the larger of the curve's ring radii and dB, which it reads and frees
    first, and what it holds after: per _layout worker, its buffers, envelope, K + 1 int64
    counts, histograms, a min over the chunk, a histogram's sorted copy and dB row, 2N uint64
    word slots and an offset a row; K - 1 ring boundaries; the report's envelope, a stack of
    the workers', K frequencies, and K + 1 summed and K differenced int64 counts."""
    *_, workers, rows, batch, buffers = _layout(n, n_u, n_samples, n_probes)
    worker = sum(np.dtype(dtype).itemsize * math.prod(shape) for shape, dtype in buffers) + 8 * (
        (k_regions + 4) * n_u + _HIST_BINS * n_probes + 2 * batch * min(n_probes, 1) + 2 * n + rows)
    steering = 32 * n + 16 * n * n_u + 32 * n * min(n_u, max(2, _BLOCK_BYTES // (16 * n)))
    return steering + max(ring_bytes(n_u, k_regions),
                          workers * worker + 8 * n_u * (4 * k_regions + 2 + workers))


def run_mc(curve: PowerBoundsCurve, n_samples: int, seed: int = 0,
           probe_directions=()) -> McReport:
    """Sample n_samples crisp patterns and bin them into curve's ring partitions.

    Scenario, grid, ring count and per-direction ring radii are those of
    curve, which must hold rings.  Each probe direction is histogrammed at
    its nearest grid sample; probes that share a sample give one histogram,
    in the order first probed.  Probe histograms use 200 uniform dB bins
    spanning [lower bound - 1 dB, upper bound + 1 dB]; when the lower bound
    is -inf the span falls back to 100 dB below the upper edge, and samples
    below it are left uncounted.  Samples draw their excitations in order
    from one sample_stream(seed), 2N words each, so sample i is the i-th
    sample_realization call on a fresh stream, and each word's counter is
    fixed whatever the chunks: the chunk from sample s on reads the stream
    from word 2N s.

    The chunks, of _CHUNK_BYTES // (8 max(N_u, 2N) + 16 N + 8 P) samples
    for P probed grid samples, at least 2, run on one worker per CPU the
    process may run on (os.sched_getaffinity), at most one per chunk:
    worker 0 on the calling thread, the others on threads of their own,
    each in a context of its own with a _UFUNC_BUFFER-element ufunc
    buffer.  Each worker takes its next chunk from one queue of them that
    all share, under a lock, until none is left or a worker has failed.
    Each keeps its own envelope, ring counts and histograms, which are
    merged once every worker has finished: minima, maxima and integer
    sums, so the report's bits do not depend on which worker ran which
    chunk.  A worker's exception is raised here once every worker has
    finished.  While two or more run, OpenBLAS is held to one thread,
    whose count is then restored; where _openblas_threads finds no
    OpenBLAS to hold, one worker runs every chunk.  One worker leaves
    OpenBLAS as it is, so that its product may use OpenBLAS's threads.

    Every worker's _layout buffers are allocated once, before any takes a
    chunk, so memory grows with neither n_samples nor N / N_u, nor with
    when a worker starts: per sample, 16 N bytes of excitations,
    8 max(N_u, 2N) of power row, whose leading 16 N hold the draw's
    uniforms until the power overwrites them, and 8 P of probe columns.
    Its probe buffer holds _PROBE_BYTES more of them, or at most the
    run's n_samples: a worker copies each chunk's probe columns into it,
    and takes them to dB in place and histograms them, a probe at a time,
    only when the next chunk's would not fit, and once at the end, under a
    lock all workers share.  The complex pattern product is formed in
    blocks of max(2, N, _BLOCK_BYTES // (16 N_u)) rows, whose
    |z|^2 goes straight into the chunk's power rows; the N floor keeps each
    gemm large enough to run at full speed, and it makes a block the whole
    chunk when N_u is large.  The ring masks, a byte per sample and
    direction, then reuse the product block's bytes.  A lone last sample
    joins the chunk before it, and a lone last row the block before it,
    and the one sample of a one-sample run is repeated, taking the product
    of two rows and keeping the first: BLAS rounds a one-row product
    (gemv) by its thread count, and the rows of a product of two or more
    (gemm) alike whatever the count.  Each ring boundary's mask is summed
    over the chunk in one uint16 reduce.
    """
    check_integer("n_samples", n_samples, 1, SAMPLE_LIMIT)
    check_integer("seed", seed, 0, SEED_LIMIT)
    scenario, grid = curve.scenario, curve.grid
    k_regions, n = curve.k_regions, scenario.n_elements
    n_u = len(grid)
    box = _tolerance_box(scenario)
    # C order, since the gemm rounds by the memory layout of its operands;
    # in blocks of columns, so no (N, N_u) phase array is held
    steering = np.empty((n, n_u), dtype=complex)
    for lo, hi in _spans(n_u, max(2, _BLOCK_BYTES // (16 * n))):
        steering[:, lo:hi] = np.exp(1j * steering_phases(scenario, grid.samples[lo:hi])).T
    # boundaries between rings, one contiguous row per boundary
    inner_sq = np.ascontiguousarray(curve.ring_radii[:, 1:k_regions].T ** 2)

    probe_idx = []
    for u in probe_directions:
        if not (-1.0 <= u <= 1.0):
            raise ValidationError(f"probe direction {u} must lie in [-1, 1]")
        ip = int(np.argmin(np.abs(grid.samples - u)))
        if ip not in probe_idx:
            probe_idx.append(ip)
    probe_edges = []
    for lo_db, *_, hi_db in curve.region_power_db[probe_idx]:
        hi_edge = hi_db + 1.0
        lo_edge = lo_db - 1.0 if math.isfinite(lo_db) else hi_edge - 100.0
        probe_edges.append(np.linspace(lo_edge, hi_edge, _HIST_BINS + 1))

    key, peak = sample_stream(seed).key, curve.peak_power
    step, block, workers, _, batch, buffers = _layout(n, n_u, n_samples, len(probe_idx))

    def chunk_loop(power, weights, product, probes):
        """One worker: run chunks from the shared queue until none is left,
        and return their envelope, at_least counts and histograms."""
        np.setbufsize(_UFUNC_BUFFER)  # in this worker's context only
        filled = 0
        per_u_min, per_u_max = np.full(n_u, np.inf), np.full(n_u, -np.inf)
        # at_least[h]: samples at or above ring boundary h, for 0 < h < K
        at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
        hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]

        def histogram(columns):
            """Bin the probe buffer's first columns, taken to dB in place, a row at a time."""
            with binning:  # one worker's sorted copies at a time
                for acc, row, edges in zip(hist_counts, probes[:, :columns], probe_edges):
                    acc += np.histogram(power_db(row, peak, out=row), bins=edges)[0]

        for start, stop in iter(take, None):
            m = stop - start
            _draw(box, SampleStream(key, 2 * n * start), power[: m * 2 * n].reshape(m, 2 * n),
                  weights[:m])
            if m == 1:  # a product of two rows (gemm), as BLAS rounds a one-row gemv by its threads
                weights[1] = weights[0]
            p = power[: max(m, 2) * n_u].reshape(-1, n_u)
            for lo, hi in _spans(len(p), block):
                z, pb = product[: (hi - lo) * n_u].reshape(hi - lo, n_u), p[lo:hi]
                np.matmul(weights[lo:hi], steering, out=z)
                np.square(np.abs(z, out=pb), out=pb)
            p = p[:m]
            np.minimum(per_u_min, p.min(axis=0), out=per_u_min)
            np.maximum(per_u_max, p.max(axis=0), out=per_u_max)
            mask = product.view(bool)[: m * n_u].reshape(m, n_u)
            for h in range(1, k_regions):
                np.greater_equal(p, inner_sq[h - 1], out=mask)
                # no wrap: a sample takes 32 bytes or more, so a chunk has
                # at most _CHUNK_BYTES // 32 + 1 < 2**16 rows
                at_least[h] += np.add.reduce(mask, axis=0, dtype=np.uint16)
            if probe_idx:
                if filled + m > batch:
                    histogram(filled)
                    filled = 0
                for row, ip in zip(probes, probe_idx):
                    row[filled : filled + m] = p[:, ip]
                filled += m
        histogram(filled)
        return per_u_min, per_u_max, at_least, hist_counts

    blas = _openblas_threads()
    n_workers = workers if blas else 1
    results, failures = [None] * n_workers, []
    queue, lock, binning = _spans(n_samples, step), threading.Lock(), threading.Lock()
    # every worker's buffers, before any takes a chunk, so the peak does not
    # depend on when a thread starts
    held = [[np.empty(shape, dtype) for shape, dtype in buffers] for _ in range(n_workers)]

    def take():
        """The next chunk's (start, stop); None once all are taken or a worker has failed."""
        with lock:
            return None if failures else next(queue, None)

    def work(w):
        try:
            results[w] = chunk_loop(*held[w])
        except BaseException as error:  # raised below, once every worker has finished
            with lock:
                failures.append(error)

    with _one_blas_thread(blas) if n_workers > 1 else nullcontext():
        threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_workers)]
        for thread in threads:
            thread.start()
        # worker 0 on this thread, whose heap the run's earlier stages have
        # grown; in a copy of its context, which takes the ufunc buffer size
        contextvars.copy_context().run(work, 0)
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]

    lows, highs, at_least, hist_counts = zip(*results)
    at_least = sum(at_least)
    at_least[0] = n_samples  # every sample is at or above the inner disc, none above the outer
    counts = at_least[:-1] - at_least[1:]
    histograms = tuple(
        ProbeHistogram(u=float(grid.samples[ip]), index=ip, bin_edges_db=edges, counts=sum(c))
        for ip, edges, c in zip(probe_idx, probe_edges, zip(*hist_counts))
    )
    return McReport(
        n_samples=n_samples,
        per_u_min=np.min(lows, axis=0),
        per_u_max=np.max(highs, axis=0),
        region_frequencies=counts / float(n_samples),
        histograms=histograms,
    )
