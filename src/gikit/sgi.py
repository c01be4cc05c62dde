"""The successive-deviation accumulator, which a pass loads only when it
has an sgi job.

:class:`SgiAccumulator` sums the pairs of the pair rule
(:func:`_pair_coefficients`; the rule is set out in
:mod:`gikit.reconstruct`) in fixed chunks of records aligned to record 0,
each pair in the chunk of its newer record. A chunk is one block of the
grid that the container reader and the simulator cut a run on, so a chunk
that arrives whole is summed where its block already is, as
``W[:, shift:] @ chunk_rows + W[:, :shift] @ carried_rows``. The chunks of
a group, the fewest whole chunks of at least 64 records, add up plainly,
and each group takes one Neumaier-compensated addition. Only a chunk that
a block cuts is staged first. The summation order depends only on record
indices, so every route and block cut gives the same bits. The chunk and
group sizes and the compensated sum are read from :mod:`gikit.reconstruct`
when the first block arrives (``_chunk_rows``, ``_CHUNK_ROWS``,
``_GROUP_RECORDS``, ``_CompensatedSum``).
"""

from __future__ import annotations

import numpy as np

from . import reconstruct as _reconstruct
from .errors import InsufficientRecordsError
from .reconstruct import SGI_MODES, ReconResult, _require_no_overflow
from .types import MeasurementRecord, ReconImage, _bucket_report

__all__ = ["SgiAccumulator"]


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
        self._sum: _reconstruct._CompensatedSum | None = None
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
            self._shape, self._chunk = frames.shape[1:], _reconstruct._chunk_rows(rows.shape[1])
            self._group_rows = self._chunk * -(-_reconstruct._GROUP_RECORDS // self._chunk)
            self._columns = len(columns)
            # Zeros: the rows before record 0 take weight 0, and 0 * NaN would be NaN.
            self._carried = np.zeros((self.shift, rows.shape[1]))
            self._buckets = np.zeros((self._columns, self.shift + self._chunk))
            self._weights = np.empty(self._images * self._columns * (self.shift + self._chunk))
            self._term = np.empty((self._images * self._columns, rows.shape[1]))
            self._group = np.empty_like(self._term)
            self._sum = _reconstruct._CompensatedSum(self._term.shape)
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
