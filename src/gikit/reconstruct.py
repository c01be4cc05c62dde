"""Correlation estimators, each written once as weight rows over the frames.

Stack the reference frames I_i(x), i = 0..N-1, as the rows of the
(N, pixels) frame matrix M, with bucket values S_i and frame totals
R_i = sum_x I_i(x). Every estimator is a weighted sum of frame rows,
G = W @ M, where W holds one or two weight rows of length N (one row per
output image). The classic four take their rows from one table:

    g2         W = S / N                        G = <S I(x)>
    dgi-delta  W = (S - <S>) / N                G = <S I(x)> - <S> <I(x)>
    dgi        W = (S - (<S>/<R>) R) / N        G = <S I(x)> - (<S>/<R>) <R I(x)>
    ci         W = [pos / N+, neg / N-]         means of I_i with S_i >= <S> / the rest

where pos and neg are the 0/1 indicators of S_i >= <S> (ties go to the
positive subset) and S_i < <S>, with subset sizes N+ and N-. Written as
weights, the differential cancellation S - (<S>/<R>) R of dgi (Ferri et al.,
PRL 104, 253603, 2010) runs on N scalars rather than on whole images.
Only ci needs <S> before it reads a frame: it reads a container's bucket
column first. Then all four take one pass, filling their rows block by
block. dgi's means are known only after it, so dgi sums (S - c0 R) / N
and R / N, c0 the S/R ratio of the first block, and forms
G = row0 - (<S>/<R> - c0) row1 after it: the cancellation stays on
scalars. dgi-delta is dgi, R = 1.
The estimators return images only: the frame totals and their deviations,
the drift diagnostics, come from :func:`sr_diagnostics`.

The successive-deviation estimators replace the ensemble means with the
record a fixed shift k earlier, over pairs (i+k, i), i = 0..N-k-1. One pair
rule gives the coefficients (c_new, c_old) that a pair puts on I_{i+k} and
I_i, with dS = S_{i+k} - S_i:

    sgi1   c_new = dS               c_old = -dS                 G = <dS (I_{i+k} - I_i)>
    sgi2   c_new = [dS, 0]          c_old = [0, dS]             G_B+ = <dS I_{i+k}>, G_B- = <dS I_i>
    sgi3   c_new = [S_{i+k}, S_i]   c_old = [-S_{i+k}, -S_i]    G_R+ = <S_{i+k} dI>, G_R- = <S_i dI>

Algebraically sgi1 = G_B+ - G_B- = G_R+ - G_R- pair by pair. All means
divide by the realized pair count m = N - k, so they stay honest means for
any k. With ``close_loop`` (defined for k = 1 only, meant for stable
sources) one extra pair is formed from the last record and the first,
giving m = N.

One generator, :func:`_reconstructions`, makes the passes of every route:
batch ``reconstruct`` is its one-job case (:func:`_one_job`),
``--progressive`` adds snapshot points, and ``gikit sweep`` gives it one
job per point and method over a (K, n) bucket matrix, K runs over the same
frames that differ only in their buckets. It stacks every classic job's
weight rows into one W one block wide, filled afresh from each block, each
job's rows zero past its record count (the dgi or dgi-delta jobs of one
count share their second row), so it holds no (rows, N) matrix. It feeds
every sgi job to one :class:`SgiAccumulator` (``push`` feeds it one
record), cutting the blocks at the sgi jobs' counts. The accumulator sums
the pairs in fixed chunks of records aligned to record 0, scattering the
pair rule into weights over a chunk and the ``shift`` rows before it. A
chunk is one block of the grid that the container reader and the simulator
cut a run on (``fileio._block_rows``), so a chunk that arrives whole is
summed where its block already is, as
``W[:, shift:] @ chunk_rows + W[:, :shift] @ carried_rows`` over copies of
the ``shift`` rows before it. The chunks of a group, the fewest whole
chunks of at least 64 records, add up plainly, and each group takes one
Neumaier-compensated addition. Only a chunk that a block cuts is staged in
a buffer first. The summation order depends only on record indices, so
every route and block cut gives the same bits, far inside the 1e-12
contract. The K bucket columns and the modes of all sgi jobs share the
rows: each chunk takes one product of the stacked (images * K) weight rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDivisorError,
    DegeneratePartitionError,
    InsufficientRecordsError,
)
from .fileio import _GRID_BYTES, _block_rows
from .types import Dataset, MeasurementRecord, ReconImage, ValidationIssue, ValidationReport, _bucket_report

__all__ = [
    "METHODS",
    "ReconResult",
    "SgiAccumulator",
    "reconstruct",
    "recon_g2",
    "recon_delta_gi",
    "recon_dgi",
    "recon_ci",
    "recon_sgi",
    "sr_diagnostics",
]

SGI_MODES = (1, 2, 3)
SGI_METHODS = tuple(f"sgi{mode}" for mode in SGI_MODES)
METHODS = ("g2", "dgi-delta", "dgi", "ci") + SGI_METHODS


@dataclass(frozen=True, eq=False)
class ReconResult:
    """One reconstruction: method tag, image(s) and pair/measurement count."""

    method: str
    images: tuple[ReconImage, ...]
    count: int

    @property
    def image(self) -> ReconImage:
        return self.images[0]

    @property
    def positive(self) -> ReconImage:
        return self.images[0]

    @property
    def negative(self) -> ReconImage:
        if len(self.images) < 2:
            raise ValueError(f"method {self.method!r} produces a single image")
        return self.images[1]


def _require_no_overflow(values: np.ndarray, culprit: str, what: str) -> None:
    """Raise :class:`DatasetValidationError` if ``values``, worked out from
    finite buckets and frames, overflowed float64 to inf or NaN; the message
    says that ``culprit`` ("the frames", say) is too large. Callers compute
    the values under ``np.errstate(over="ignore", invalid="ignore")``."""
    if not np.isfinite(values).all():
        issue = ValidationIssue(None, "overflow", f"{culprit} are too large: float64 overflows in {what}")
        ValidationReport((issue,)).raise_if_failed()


def _mean(values: np.ndarray) -> float:
    """The mean of the 1-D ``values`` from their exactly rounded sum
    (``math.fsum``, read through a memoryview: no list of the values). A
    pairwise ``mean()`` can be off by more than one unit in the last place
    of a mean far from 0, and dgi and dgi-delta subtract <S> from buckets
    close to it. Where fsum overflows on the way, ``mean()`` gives the inf
    or NaN that callers check for; they run under ``np.errstate``."""
    try:
        return math.fsum(memoryview(values)) / len(values)
    except OverflowError:
        return float(values.mean())


def _bucket_mean(method: str, buckets: np.ndarray) -> float:
    """<S> of ``method``'s buckets, once they are checked: finite, at least
    2 of them, and with a sum that does not overflow."""
    _bucket_report(0, buckets).raise_if_failed()
    if len(buckets) < 2:
        raise InsufficientRecordsError(f"{method} needs at least 2 records, got {len(buckets)}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        s_mean = _mean(buckets)
    _require_no_overflow(s_mean, "the buckets", "the bucket sum")
    return s_mean


def _ci_partition(buckets: np.ndarray) -> tuple[float, int, int]:
    """ci's partition: the threshold <S> and the sizes of the subsets
    S_i >= <S> and S_i < <S>, from which each block takes its weight rows,
    the indicators of the two subsets each over the size of its subset."""
    n, threshold = len(buckets), _bucket_mean("ci", buckets)
    n_pos = int(np.count_nonzero(buckets >= threshold))
    if n_pos == 0 or n_pos == n:
        raise DegeneratePartitionError(
            "bucket values do not straddle their mean; positive/negative subsets degenerate"
        )
    return threshold, n_pos, n - n_pos


def _pair_coefficients(mode: int, s_new, s_old) -> tuple[np.ndarray, np.ndarray]:
    """The pair rule: coefficient rows (c_new, c_old) that pairs (new, old)
    put on the newer and the older frame, one row per output image.

    Bucket scalars give rows of shape (images,); bucket arrays of shape (m,)
    give (images, m), one column per pair.
    """
    ds = s_new - s_old
    if mode == 1:
        return np.array([ds]), np.array([-ds])
    if mode == 2:
        zero = np.zeros_like(ds)
        return np.array([ds, zero]), np.array([zero, ds])
    return np.array([s_new, s_old]), np.array([-s_new, -s_old])


def _hold(matrix, stop: int, start: int, block) -> np.ndarray:
    """The (K, stop) bucket ``matrix``, made at the first block if None,
    with the block's buckets, (rows,) or (K, rows), written into its
    columns from ``start``: a pass holds the matrix once, never its blocks
    beside it."""
    block = np.atleast_2d(block)
    if matrix is None:
        matrix = np.empty((len(block), stop))
    matrix[:, start : start + block.shape[1]] = block
    return matrix


def _bucket_matrix(blocks, stop: int) -> np.ndarray:
    """The (K, stop) bucket matrix of a pass over ``blocks``. The loop lives
    here so that no block's frames outlive the pass."""
    matrix = None
    for start, block, _ in blocks:
        matrix = _hold(matrix, stop, start, block)
    return matrix


def _reconstructions(blocks, shape, jobs, *, buckets=None, shift=1, close_loop=False, every=None):
    """Yield ``(job, records, result)`` for every ``(method, count, column)``
    job: its :class:`ReconResult` over the first ``count`` records and
    bucket column ``column``, each frame of ``shape`` (height, width).

    ``blocks(read_buckets)`` starts a pass over the records as ``(start,
    buckets, frames)`` blocks, buckets (rows,) or (K, rows) and frames
    (rows, pixels), ending at the largest count; ``read_buckets`` is false
    when the routine holds the (K, n) bucket matrix ``buckets`` ahead, which
    only ci needs: unless the caller gives it, a first pass fills it block
    by block (:func:`_bucket_matrix`). The last pass fills it the same way
    when a job is classic and nothing gave it ahead, and sums every
    classic image as one stacked ``W @ M``, one block at a time: W is one
    block wide, filled afresh from each block, each job's rows zero past its
    count. g2, dgi and dgi-delta take their rows from the block's buckets,
    ci from its threshold and subset sizes; the second rows of dgi and
    dgi-delta, R / N and 1 / N, do not depend on the buckets, so the jobs of
    one method and count share one. It feeds one :class:`SgiAccumulator`
    with every sgi job's mode and every bucket column, cut at the sgi jobs'
    counts and, given ``every``, at each multiple of it. An sgi job's result
    is yielded as the pass reaches its count, and before that at each
    multiple of ``every`` that has a pair; the classic results follow the
    pass.
    """
    stop, pixels = max(count for _, count, _ in jobs), shape[0] * shape[1]
    sgi = [(job, int(method[-1]), count, column)
           for job, (method, count, column) in enumerate(jobs) if method in SGI_METHODS]
    classic = [job for job, (method, _, _) in enumerate(jobs) if method not in SGI_METHODS]
    methods = {jobs[job][0] for job in classic}
    if buckets is None and "ci" in methods:  # ci's partition needs <S> first
        buckets = _bucket_matrix(blocks(True), stop)
    s_r = np.empty(stop if "dgi" in methods else 0)  # the frame totals R
    frame_totals = {"dgi": s_r, "dgi-delta": np.ones(stop if "dgi-delta" in methods else 0)}  # R of the centred methods
    rows, fill, seconds, c0, width = {}, [], {}, {}, 0  # rows[job]: its image rows of W; c0[row]: a provisional ratio
    for job in classic:  # fill: (rows, method, count, column, ci's partition or the row R / N)
        method, count, column = jobs[job]
        rows[job] = image = slice(width, width + (2 if method == "ci" else 1))
        width = image.stop
        if method in frame_totals and (method, count) not in seconds:  # R / N: one row for the method and count
            seconds[method, count] = width
            width += 1
        fill.append((image, method, count, column,
                     _ci_partition(buckets[column, :count]) if method == "ci" else seconds.get((method, count))))
    total, term = np.zeros((width, pixels)), np.empty((width, pixels))
    modes = tuple(dict.fromkeys(mode for _, mode, _, _ in sgi))
    acc = SgiAccumulator(mode=modes, shift=shift, close_loop=close_loop) if modes else None

    read = buckets is None
    for start, block, frames in blocks(read):
        end = start + len(frames)
        if read and classic:  # the bucket matrix, kept for the classic jobs
            buckets = _hold(buckets, stop, start, block)
        block = np.array(block, ndmin=2) if read and not classic else buckets[:, start:end]  # (K, rows), a copy if read
        lo = 0
        while acc is not None and lo < len(frames):  # cut at the next count or snapshot point
            at = start + lo  # the records pushed so far
            hi = min([count for _, _, count, _ in sgi if count > at] + [end]
                     + ([at - at % every + every] if every is not None else [])) - start
            acc.push_block(at, block[:, lo:hi].T, frames[lo:hi].reshape(hi - lo, *shape))
            lo, seen = hi, start + hi
            live = every is not None and seen % every == 0 and acc.pairs >= 1
            due = [(job, mode, column) for job, mode, count, column in sgi if count == seen or live and count > seen]
            snapshots = acc.snapshots_by_mode() if due else None
            yield from ((job, seen, snapshots[mode][column]) for job, mode, column in due)
        if width:
            w = np.zeros((width, len(frames)))  # W, one block wide: each job's rows are 0 past its count
            with np.errstate(all="ignore"):  # the sums are checked after the pass
                if len(s_r):
                    np.sum(frames, axis=1, out=s_r[start:end])
                for (method, count), row in seconds.items():
                    r = frame_totals[method][start : max(start, min(count, end))]
                    w[row, : len(r)] = r / count
                for image, method, count, column, extra in fill:
                    s = block[column, : max(count - start, 0)]
                    if method == "ci":
                        threshold, n_pos, n_neg = extra
                        w[image, : len(s)] = np.where(s >= threshold, [[1 / n_pos], [0.0]], [[0.0], [1 / n_neg]])
                    elif method == "g2":
                        w[image, : len(s)] = s / count
                    else:
                        r = frame_totals[method][start : start + len(s)]
                        if start == 0:  # from the first block; 0 if its frames are dark
                            ratio = s.sum() / r.sum()
                            c0[image.start] = ratio if np.isfinite(ratio) else 0.0
                        w[image, : len(s)] = (s - c0[image.start] * r) / count
                total += np.matmul(w, frames, out=term)
    for image, method, count, column, second in fill:  # G = (S - c0 R) @ M / N - (<S>/<R> - c0) R @ M / N
        s = buckets[column, :count]
        if method not in frame_totals:  # g2 and ci take no correction (ci's buckets were checked ahead too)
            _bucket_report(0, s).raise_if_failed()
            continue
        s_mean, r = _bucket_mean(method, s), frame_totals[method][:count]
        _require_no_overflow(r, "the frames", "the frame totals")
        with np.errstate(over="ignore", invalid="ignore"):
            r_mean = _mean(r)
            if r_mean == 0.0:
                raise DegenerateDivisorError("mean frame total is zero (all-dark reference frames)")
            ratio = s_mean / r_mean
            culprit = "the buckets" if method == "dgi-delta" else "the buckets or frames"
            _require_no_overflow((s - ratio * r) / count, culprit, f"the {method} weights")
            total[image] -= (ratio - c0[image.start]) * total[second]
    _require_no_overflow(total, "the buckets or frames", "the weighted frame sums")
    for job in classic:
        method, count, _ = jobs[job]
        yield job, count, ReconResult(method, tuple(ReconImage(row.reshape(shape)) for row in total[rows[job]]), count)


def _one_job(source, method: str, *, shift: int = 1, close_loop: bool = False, every=None):
    """:func:`_reconstructions` with one job, ``method`` over every record of
    ``source``, a :class:`~gikit.types.Dataset` or an opened
    :class:`~gikit.fileio.Container`, in one frame pass. Only ``ci`` reads
    ``source.buckets`` (a container's bucket column, read alone) before it."""
    buckets = source.buckets[np.newaxis] if method == "ci" else None
    return _reconstructions(lambda _: source.blocks(), (source.header.height, source.header.width),
                            [(method, source.n, 0)], buckets=buckets, shift=shift, close_loop=close_loop, every=every)


def reconstruct(source, method: str, *, shift: int = 1, close_loop: bool = False) -> ReconResult:
    """Batch reconstruction with any method in :data:`METHODS`.

    ``source`` is a :class:`~gikit.types.Dataset`, read as one block, or an
    opened :class:`~gikit.fileio.Container`, read in blocks of the grid, in
    one pass (:func:`_one_job`). ``shift`` and ``close_loop`` choose the sgi
    methods' pairs; the classic methods ignore both.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    [(_, _, result)] = _one_job(source, method, shift=shift, close_loop=close_loop)
    return result


def recon_g2(dataset: Dataset) -> ReconResult:
    """Plain second-order correlation <S I(x)>."""
    return reconstruct(dataset, "g2")


def recon_delta_gi(dataset: Dataset) -> ReconResult:
    """Background-subtracted correlation <S I(x)> - <S><I(x)>."""
    return reconstruct(dataset, "dgi-delta")


def recon_dgi(dataset: Dataset) -> ReconResult:
    """Differential correlation: the bucket mean is replaced by the
    frame-total-scaled term (<S>/<R>) R, which tracks per-shot source power."""
    return reconstruct(dataset, "dgi")


def recon_ci(dataset: Dataset) -> ReconResult:
    """Conditional averaging: frames are split on the bucket mean (ties go to
    the positive subset) and each subset is averaged without weights."""
    return reconstruct(dataset, "ci")


def recon_sgi(source, mode: int = 1, shift: int = 1, close_loop: bool = False) -> ReconResult:
    """Successive-deviation reconstruction from a dataset or a record stream.

    A :class:`~gikit.types.Dataset` is fed to an :class:`SgiAccumulator` as
    one block, any other iterable of records one record at a time; both
    give the same bits.
    """
    if isinstance(source, Dataset):
        return reconstruct(source, f"sgi{mode}", shift=shift, close_loop=close_loop)
    acc = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    for record in source:
        acc.push(record)
    return acc.snapshot()


def sr_diagnostics(source, shift: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame totals R_i and their successive deviations R_{i+k} - R_i,
    from a dataset or, block by block, from an opened container, in one pass
    that checks each block's buckets as it sums the block."""
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    if source.n <= shift:
        raise InsufficientRecordsError(
            f"diagnostics need more than shift={shift} records, got {source.n}"
        )
    s_r = np.empty(source.n)
    for start, block, frames in source.blocks():
        _bucket_report(start, block).raise_if_failed()
        with np.errstate(over="ignore", invalid="ignore"):
            np.sum(frames, axis=1, out=s_r[start : start + len(frames)])
    _require_no_overflow(s_r, "the frames", "the frame totals")
    return s_r, s_r[shift:] - s_r[: len(s_r) - shift]


def _two_sum(a: np.ndarray, b: np.ndarray, t: np.ndarray, error: np.ndarray) -> None:
    """Set ``t`` to ``a + b`` and ``error`` to its exact rounding error, by
    Knuth's branch-free TwoSum (bit for bit Neumaier's branch on magnitudes,
    in fewer array passes), in place; ``b`` is overwritten."""
    np.add(a, b, out=t)
    from_b = np.subtract(t, a, out=error)
    np.subtract(b, from_b, out=b)
    np.subtract(t, from_b, out=error)
    np.subtract(a, error, out=error)
    error += b  # (a - (t - from_b)) + (b - from_b)


class _CompensatedSum:
    """Elementwise Neumaier-compensated accumulator. :meth:`add` works in
    buffers allocated once, so adding a term allocates nothing."""

    __slots__ = ("total", "comp", "_spare", "_error")

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self.comp = np.zeros(shape)
        self._spare = np.empty(shape)
        self._error = np.empty(shape)

    def add(self, values: np.ndarray) -> None:
        """Add ``values``, overwriting them."""
        _two_sum(self.total, values, self._spare, self._error)
        self.total, self._spare = self._spare, self.total
        self.comp += self._error

    def value(self, *pending: np.ndarray) -> np.ndarray:
        """The compensated total plus ``pending`` terms, overwriting those
        terms and the scratch buffers and changing nothing else: each sum
        goes into the buffer that the term before it has freed."""
        total, comp, free = self.total, self.comp.copy(), self._spare
        for values in pending:
            _two_sum(total, values, free, self._error)
            total, free = free, values
            comp += self._error
        return total + comp


_CHUNK_ROWS: int | None = None  # records per summation chunk; None: one block of the grid
_GROUP_RECORDS = 64  # a compensation group is the fewest whole chunks of at least this many records


def _chunk_rows(pixels: int) -> int:
    """Records per summation chunk: ``_CHUNK_ROWS``, or one block of the
    grid that the container reader and the simulator cut a run on, at the
    grid's own block size, so a reader set to other blocks sums the same
    chunks."""
    return _CHUNK_ROWS or _block_rows(pixels, _GRID_BYTES)


class SgiAccumulator:
    """Streaming state for the successive-deviation estimators.

    ``mode`` is one of :data:`SGI_MODES`, or a tuple of them: several modes
    then share one pass, their coefficient rows stacked into one weight
    matrix, and :meth:`snapshots_by_mode` gives each mode's results. Records
    arrive in order, in blocks (:meth:`push_block`) or one at a time
    (:meth:`push`). A block's buckets are a vector, or a (rows, K) matrix of
    K bucket columns over the same frames: K runs that differ only in their
    buckets then share one product per chunk, and :meth:`snapshots` gives
    one result per column.

    Pairs are summed in fixed chunks of records aligned to record 0, each
    pair in the chunk of its newer record. A chunk is one block of the grid
    that the container reader and the simulator cut on, so a chunk that
    arrives whole inside one block is summed straight from that block's
    rows: its term is ``W[:, shift:] @ chunk_rows + W[:, :shift] @
    carried_rows``, where the carried rows are copies of the ``shift``
    records before the chunk. The chunks of a group, the fewest whole
    chunks of at least 64 records, add up plainly in a group buffer, which
    takes one compensated addition when the group closes. Only a chunk that
    a block cuts (one-record pushes, snapshot points, the end of the
    stream) is staged, its rows copied into a buffer until it is whole or a
    snapshot adds the part that has arrived to the open group. The term
    depends on the record indices alone, so every route and block cut gives
    the same bits.

    The state is the carried rows, the rows of a cut chunk while it fills
    (at most one chunk), the chunk's bucket, weight, term and group buffers,
    the compensation buffers and a copy of the first record when
    ``close_loop`` is set. It is allocated with the first block and reused,
    so pushing allocates no (images, pixels) array and the state does not
    grow with the number of records. A snapshot never mutates the
    accumulator, so periodic snapshots give real-time reconstruction.
    Single-writer: push from one thread.
    """

    def __init__(self, mode=1, shift: int = 1, close_loop: bool = False):
        modes = (mode,) if np.ndim(mode) == 0 else tuple(mode)
        if not modes or len(set(modes)) != len(modes) or any(m not in SGI_MODES for m in modes):
            raise ValueError(f"mode must be one of {SGI_MODES} or a tuple of distinct ones, got {mode!r}")
        if shift < 1:
            raise ValueError(f"shift must be >= 1, got {shift}")
        if close_loop and shift != 1:
            # Open interpretation: the wrap-around pair is only defined for
            # unit shift; how it generalizes to k > 1 is unspecified.
            raise ValueError("close_loop is only defined for shift=1")
        self.mode = mode
        self.modes = modes
        self.shift = shift
        self.close_loop = close_loop
        self._images = sum(1 if m == 1 else 2 for m in modes)  # image rows of all modes
        self._shape: tuple[int, int] | None = None
        self._columns: int | None = None  # K, the number of bucket columns
        self._chunk = 0
        self._carried: np.ndarray | None = None  # (shift, pixels): the records before the chunk
        self._staged: np.ndarray | None = None  # (rows, pixels): the arrived rows of a cut chunk
        self._buckets: np.ndarray | None = None  # (K, shift + chunk): the carried records', then the chunk's
        self._weights: np.ndarray | None = None  # flat room for the (images, K, shift + chunk) weights
        self._group_rows = 0  # records per compensation group, a whole number of chunks
        self._term: np.ndarray | None = None  # (images * K, pixels): a product of a chunk's rows
        self._group: np.ndarray | None = None  # the same shape: the plain sum of the open group's chunks
        self._sum: _CompensatedSum | None = None
        self._first: tuple[np.ndarray, np.ndarray] | None = None
        self._seen = 0

    @property
    def pairs(self) -> int:
        return max(0, self._seen - self.shift)

    @property
    def records_seen(self) -> int:
        return self._seen

    def push(self, record: MeasurementRecord) -> None:
        """Add one record, as a one-row :meth:`push_block`."""
        self.push_block(record.index, np.array([record.bucket]), record.frame.data[np.newaxis])

    def push_block(self, start: int, buckets, frames) -> None:
        """Add records ``start`` .. ``start + rows - 1`` from buckets (rows,)
        or (rows, K) and frames (rows, height, width); ``start`` must be
        :attr:`records_seen`, and K that of the first block.

        A block that does not fit raises ``ValueError``, and a non-finite
        bucket :class:`DatasetValidationError`; either way nothing is added.
        """
        buckets, frames = np.asarray(buckets, dtype=np.float64), np.asarray(frames, dtype=np.float64)
        columns = buckets[np.newaxis] if buckets.ndim == 1 else buckets.T  # (K, rows)
        if (frames.ndim != 3 or columns.ndim != 2 or columns.shape[1] != len(frames)
                or self._shape not in (None, frames.shape[1:]) or self._columns not in (None, len(columns))):
            raise ValueError(f"record {start}: buckets {buckets.shape} and frames {frames.shape} do not fit "
                             f"frames of shape {self._shape} and {self._columns} bucket columns")
        if start != self._seen:
            raise ValueError(f"block starts at record {start}, expected {self._seen}")
        if not np.isfinite(columns).all():  # the report names every bad record
            for column in columns:
                _bucket_report(start, column).raise_if_failed()
        if not len(frames):
            return
        rows = frames.reshape(len(frames), -1)
        if self._shape is None:
            self._shape, self._chunk = frames.shape[1:], _chunk_rows(rows.shape[1])
            self._group_rows = self._chunk * -(-_GROUP_RECORDS // self._chunk)
            self._columns = len(columns)
            # Zeros: the rows before record 0 take weight 0, and 0 * NaN would be NaN.
            self._carried = np.zeros((self.shift, rows.shape[1]))
            self._buckets = np.zeros((self._columns, self.shift + self._chunk))
            self._weights = np.empty(self._images * self._columns * (self.shift + self._chunk))
            self._term = np.empty((self._images * self._columns, rows.shape[1]))
            self._group = np.empty_like(self._term)
            self._sum = _CompensatedSum(self._term.shape)
            self._first = (columns[:, 0].copy(), rows[0].copy()) if self.close_loop else None
        chunk = self._chunk
        cuts = range(chunk - start % chunk, len(rows), chunk)  # where a chunk fills
        for lo, hi in zip((0, *cuts), (*cuts, len(rows))):
            at = (start + lo) % chunk  # rows of the chunk that came before
            self._buckets[:, self.shift + at : self.shift + at + hi - lo] = columns[:, lo:hi]
            self._seen = start + hi
            whole = hi - lo == chunk
            if not whole:
                self._stage(at, rows[lo:hi])
            if self._seen % chunk == 0:
                chunk_rows = rows[lo:hi] if whole else self._staged
                opens = (self._seen - chunk) % self._group_rows == 0
                with np.errstate(over="ignore", invalid="ignore"):  # a snapshot checks the sums
                    self._chunk_term(chunk, chunk_rows, self._group, opens)
                    if self._seen % self._group_rows == 0:  # the group closes: one compensated addition
                        self._sum.add(self._group)
                self._carry(chunk_rows)
                self._staged = chunk_rows = None

    def _stage(self, at: int, rows: np.ndarray) -> None:
        """Copy ``rows`` into the staged rows of the cut chunk after its
        first ``at``. The buffer holds just the rows that have arrived, so
        the cut end of a stream costs its own rows; when more arrive it
        grows in place to a whole chunk, so no second buffer is held while
        it grows. Where something else still refers to it, numpy will not
        move it; the rows are then copied to a new buffer, and the old one
        stays valid for its holder. It is dropped once its chunk is summed."""
        end = at + len(rows)
        if self._staged is None:
            self._staged = np.empty((end, rows.shape[1]))
        elif len(self._staged) < end:
            staged, self._staged = self._staged, None  # numpy resizes only an array held once
            try:  # in place, keeping the first rows
                staged.resize((self._chunk, rows.shape[1]))
            except ValueError:  # a view or a profiler holds it too: copy the rows instead
                staged, old = np.empty((self._chunk, rows.shape[1])), staged
                staged[:at] = old[:at]
            self._staged = staged
        self._staged[at:end] = rows

    def _carry(self, rows: np.ndarray) -> None:
        """After a full chunk of ``rows``, carry the last ``shift`` records
        into the next chunk."""
        shift, chunk = self.shift, self._chunk
        keep = min(shift, chunk)
        self._carried[: shift - keep] = self._carried[keep:]
        self._carried[shift - keep :] = rows[chunk - keep : chunk]
        self._buckets[:, :shift] = self._buckets[:, chunk:]

    def _chunk_term(self, filled: int, rows: np.ndarray, out: np.ndarray, opens: bool) -> None:
        """Add to ``out``, or write into it if the chunk ``opens`` a group,
        the summed terms, (images * K, pixels), of the pairs whose newer
        record is among the ``filled`` rows of the current chunk, given as
        ``rows``; row i * K + j is image i of bucket column j, the images of
        the modes one after another. The term buffer is scratch."""
        shift, end = self.shift, self.shift + filled
        # Bucket column c holds record c + chunk start - shift, and the
        # first record with a partner is the chunk start or record ``shift``.
        chunk_start = self._seen - filled
        first_new = max(shift, 2 * shift - chunk_start)
        new, old = slice(first_new, end), slice(first_new - shift, end - shift)
        weights = self._weights[: self._images * self._columns * end].reshape(self._images, self._columns, end)
        weights.fill(0.0)
        image = 0
        for mode in self.modes:
            c_new, c_old = _pair_coefficients(mode, self._buckets[:, new], self._buckets[:, old])
            weights[image : image + len(c_new), :, new] += c_new
            weights[image : image + len(c_new), :, old] += c_old
            image += len(c_new)
        weights = weights.reshape(-1, end)
        if opens:
            np.matmul(weights[:, shift:], rows[:filled], out=out)
        else:
            out += np.matmul(weights[:, shift:], rows[:filled], out=self._term)
        if chunk_start:  # the first chunk has no records before it; one carried row needs no sum
            out += (np.multiply(weights[:, :1], self._carried, out=self._term) if shift == 1
                    else np.matmul(weights[:, :shift], self._carried, out=self._term))

    def snapshots_by_mode(self) -> dict[int, list[ReconResult]]:
        """Reconstruction over the pairs seen so far: for each mode, one
        result per bucket column, each equal to the batch result of its
        column."""
        use_loop = self.close_loop and self._seen >= 2
        pairs = self.pairs + use_loop
        if pairs < 1:
            raise InsufficientRecordsError(
                f"no pairs yet: {self._seen} records pushed with shift={self.shift}"
            )
        filled = self._seen % self._chunk
        grouped = self._seen % self._group_rows - filled  # records of the open group's whole chunks
        pending = []
        with np.errstate(over="ignore", invalid="ignore"):
            if grouped or filled:  # the open group and the cut chunk, as one term
                pending.append(self._group.copy() if grouped else np.empty_like(self._group))
                if filled:
                    self._chunk_term(filled, self._staged, pending[0], opens=not grouped)
            if use_loop:
                last = self.shift + filled - 1  # the bucket column of the last record
                row = self._staged[filled - 1] if filled else self._carried[-1]
                loop = []
                for mode in self.modes:
                    c_new, c_old = _pair_coefficients(mode, self._buckets[:, last], self._first[0])
                    loop.append(c_new[..., np.newaxis] * row + c_old[..., np.newaxis] * self._first[1])
                pending.append(np.concatenate(loop).reshape(self._term.shape))
            totals = self._sum.value(*pending).reshape(-1, self._columns, *self._shape) / pairs
        results, image = {}, 0
        for mode in self.modes:
            images = totals[image : image + (1 if mode == 1 else 2)]
            image += len(images)
            _require_no_overflow(images, "the buckets or frames", f"the sgi{mode} pair sums")
            results[mode] = [ReconResult(f"sgi{mode}", tuple(map(ReconImage, images[:, j])), pairs)
                             for j in range(self._columns)]
        return results

    def snapshots(self) -> list[ReconResult]:
        """Reconstruction over the pairs seen so far of the accumulator's
        one mode, one result per bucket column; each equals the batch result
        of its column."""
        if len(self.modes) > 1:
            raise ValueError(f"modes {self.modes} give one list each: use snapshots_by_mode()")
        return self.snapshots_by_mode()[self.modes[0]]

    def snapshot(self) -> ReconResult:
        """Reconstruction over the pairs seen so far, of one mode and one
        bucket column; equals the batch result."""
        if self._columns not in (None, 1):
            raise ValueError(f"{self._columns} bucket columns give one result each: use snapshots()")
        return self.snapshots()[0]
