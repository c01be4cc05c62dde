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
column first. dgi's means are known only after its pass, so dgi sums
(S - c0 R) / N and R / N, c0 the S/R ratio of the first chunk, and forms
G = row0 - (<S>/<R> - c0) row1 after it. dgi-delta is dgi, R = 1. The
drift diagnostics, the frame totals and their deviations, come from
:func:`sr_diagnostics`.

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
job per point and method over K bucket columns, K runs over the same frames
that differ only in their buckets. Every job's rows meet the frames in one
engine, :class:`gikit.sgi._WeightedSum`: one weight matrix and one product
per chunk of the grid, one compensated addition per group of chunks; no
snapshot or count cuts a block. The order of the sums depends on the record
indices alone, so every route and block cut gives the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateDivisorError,
    DegeneratePartitionError,
    InsufficientRecordsError,
)
from .types import Dataset, ReconImage, ValidationIssue, ValidationReport, _bucket_report, _Frozen

__all__ = [
    "METHODS",
    "ReconResult",
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


class ReconResult(_Frozen):
    """One reconstruction: method tag, image(s) and pair/measurement count."""

    _fields = ("method", "images", "count")

    def __init__(self, method: str, images: tuple[ReconImage, ...], count: int):
        self.__dict__.update(method=method, images=images, count=count)

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
    S_i >= <S> and S_i < <S>, from which each chunk takes its weight rows,
    the indicators of the two subsets each over the size of its subset."""
    n, threshold = len(buckets), _bucket_mean("ci", buckets)
    n_pos = int(np.count_nonzero(buckets >= threshold))
    if n_pos == 0 or n_pos == n:
        raise DegeneratePartitionError(
            "bucket values do not straddle their mean; positive/negative subsets degenerate"
        )
    return threshold, n_pos, n - n_pos


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
    (rows, pixels), ending at the largest count. Only ci needs the (K, n)
    bucket matrix ``buckets`` ahead: unless the caller gives it, a first
    pass with ``read_buckets`` true fills it (:func:`_bucket_matrix`). The
    last pass pushes each block whole into the engine, whose rule fills
    every classic job's rows, zero past its count. An sgi result is read at
    its count, and before that at each multiple of ``every`` that has a
    pair, wherever it falls in a block; the classic results follow the pass.
    """
    from .sgi import _WeightedSum

    stop = max(count for _, count, _ in jobs)
    sgi = [(job, int(method[-1]), count, column)
           for job, (method, count, column) in enumerate(jobs) if method in SGI_METHODS]
    classic = [job for job, (method, _, _) in enumerate(jobs) if method not in SGI_METHODS]
    methods = {jobs[job][0] for job in classic}
    if buckets is None and "ci" in methods:  # ci's partition needs <S> first
        buckets = _bucket_matrix(blocks(True), stop)
    s_r = np.empty(stop if "dgi" in methods else 0)  # the frame totals R
    frame_totals = {"dgi": s_r, "dgi-delta": np.ones(stop if "dgi-delta" in methods else 0)}  # R of the centred methods
    rows, fill, seconds, c0, width = {}, [], {}, {}, 0  # rows[job]: its image rows; c0[row]: a provisional ratio
    for job in classic:  # fill: (rows, method, count, column, ci's partition or the row R / N)
        method, count, column = jobs[job]
        rows[job] = image = slice(width, width + (2 if method == "ci" else 1))
        width = image.stop
        if method in frame_totals and (method, count) not in seconds:  # R / N: one row for the method and count
            seconds[method, count] = width
            width += 1
        fill.append((image, method, count, column,
                     _ci_partition(buckets[column, :count]) if method == "ci" else seconds.get((method, count))))

    def rule(w, chunk, start):  # every classic job's weights over the records from start, buckets chunk
        for (method, count), row in seconds.items():
            r = frame_totals[method][start : start + max(0, min(count - start, w.shape[1]))]
            w[row, : len(r)] = r / count
        for image, method, count, column, extra in fill:
            s = chunk[column, : max(count - start, 0)]
            if method == "ci":
                threshold, n_pos, n_neg = extra
                w[image, : len(s)] = np.where(s >= threshold, [[1 / n_pos], [0.0]], [[0.0], [1 / n_neg]])
            elif method == "g2":
                w[image, : len(s)] = s / count
            else:
                r = frame_totals[method][start : start + len(s)]
                if start == 0:  # from the first chunk; 0 if its frames are dark
                    ratio = s.sum() / r.sum()
                    c0[image.start] = ratio if np.isfinite(ratio) else 0.0
                w[image, : len(s)] = (s - c0[image.start] * r) / count

    engine = _WeightedSum(tuple(dict.fromkeys(mode for _, mode, _, _ in sgi)), shift, close_loop, rows=width, rule=rule)
    points = sorted({stop, *(count for _, _, count, _ in sgi), *(range(every, stop, every) if every else ())})
    read = buckets is None
    for start, block, frames in blocks(read):
        end = start + len(frames)
        if read and classic:  # the bucket matrix, kept for the classic jobs
            buckets = _hold(buckets, stop, start, block)
        block = np.array(block, ndmin=2) if read and not classic else buckets[:, start:end]  # (K, rows), a copy if read
        if len(s_r):  # before the rule reads them
            with np.errstate(all="ignore"):  # the sums are checked after the pass
                np.sum(frames, axis=1, out=s_r[start:end])
        for seen in engine._push(start, block.T, frames.reshape(len(frames), *shape), points):
            live = every is not None and seen % every == 0 and engine.pairs >= 1
            due = [(job, mode, column) for job, mode, count, column in sgi if count == seen or live and count > seen]
            snapshots = engine.snapshots_by_mode() if due else None
            yield from ((job, seen, snapshots[mode][column]) for job, mode, column in due)
    if not classic:
        return
    total = engine._value(slice(-width, None))  # the classic rows, the last
    for image, method, count, column, second in fill:  # G = (S - c0 R) @ M / N - (<S>/<R> - c0) R @ M / N
        s = buckets[column, :count]
        if method not in frame_totals:  # g2 and ci take no correction; the engine checked the buckets
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
    total.flags.writeable = False  # the images are views of it
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

    A :class:`~gikit.types.Dataset` is fed to an
    :class:`~gikit.sgi.SgiAccumulator` as one block, any other iterable of
    records one record at a time; both give the same bits.
    """
    if isinstance(source, Dataset):
        return reconstruct(source, f"sgi{mode}", shift=shift, close_loop=close_loop)
    from .sgi import SgiAccumulator

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
