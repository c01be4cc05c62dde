"""The weighted-sum engine, :class:`_WeightedSum`, where the weight rows of
every pass meet the frames, and the successive-deviation accumulator built
on it. The formulas of the seven estimators are in :mod:`gikit.reconstruct`.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InsufficientRecordsError
from .fileio import _GRID_BYTES, _block_rows
from .reconstruct import SGI_MODES, ReconResult, _require_no_overflow
from .types import MeasurementRecord, ReconImage, _bucket_report

__all__ = ["SgiAccumulator"]

_CHUNK_ROWS: int | None = None  # records per summation chunk; None: one block of the grid
_GROUP_RECORDS = 64  # a compensation group is the fewest whole chunks of at least this many records


def _chunk_rows(pixels: int) -> int:
    """Records per summation chunk: ``_CHUNK_ROWS``, or one block of the
    grid, at the grid's own block size, so a reader set to other blocks sums
    the same chunks."""
    return _CHUNK_ROWS or _block_rows(pixels, _GRID_BYTES)


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
    buffers allocated once, so adding a term allocates nothing; the error
    buffer may be the caller's scratch."""

    __slots__ = ("total", "comp", "_spare", "_error")

    def __init__(self, shape, error: np.ndarray | None = None):
        self.total = np.zeros(shape)
        self.comp = np.zeros(shape)
        self._spare = np.empty(shape)
        self._error = np.empty(shape) if error is None else error

    def add(self, values: np.ndarray) -> None:
        """Add ``values``, overwriting them and the error buffer."""
        _two_sum(self.total, values, self._spare, self._error)
        self.total, self._spare = self._spare, self.total
        self.comp += self._error

    def value(self, *pending: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The compensated total of ``rows`` plus ``pending`` terms of those
        rows, in the term last added, changing nothing but the terms and the
        scratch buffers."""
        total = state = self.total[rows]
        comp, free, error = self.comp[rows], self._spare[rows], self._error[rows]
        for values in pending:
            if free is None:
                free = np.empty_like(total)
            _two_sum(total, values, free, error)
            comp = np.add(comp, error, out=values)
            total, free = free, (None if total is state else total)
        return np.add(total, comp, out=comp if pending else None)


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


class _WeightedSum:
    """The engine: weighted sums of frame rows over records pushed in order
    (:meth:`push_block`), in fixed chunks aligned to record 0, one block of
    the grid each. A chunk is summed, and read at a point in it, from its
    block's own rows; only one that blocks cut is staged, in a buffer of one
    chunk. Each chunk takes one weight matrix W and one product; the chunks
    of a group, at least 64 records, add up plainly, and each group takes
    one compensated addition. The order depends on the record indices
    alone: every route and cut gives the same bits.

    The rows of W are the pair rows of the sgi ``modes``, one per image and
    bucket column, then ``rows`` rows that ``rule(weights, buckets, start)``
    fills, zero where it writes none, over the chunk's records from
    ``start``. The pair rule also weights the ``shift`` carried rows before
    the chunk: its term is ``W[:, shift:] @ chunk + W[:, :shift] @ carried``.
    Reading (:meth:`snapshots_by_mode`, :meth:`_value`) never mutates the
    state, which does not grow with the number of records.
    """

    def __init__(self, modes=(), shift: int = 1, close_loop: bool = False, *, rows: int = 0, rule=None):
        if modes and shift < 1:
            raise ValueError(f"shift must be >= 1, got {shift}")
        if modes and close_loop and shift != 1:
            # Open interpretation: the wrap-around pair is only defined for
            # unit shift; how it generalizes to k > 1 is unspecified.
            raise ValueError("close_loop is only defined for shift=1")
        self.modes, self.shift, self.close_loop = modes, shift, close_loop
        self._images = sum(1 if m == 1 else 2 for m in modes)  # pair image rows per bucket column
        self._carry = shift if modes else 0  # records carried before each chunk
        self._rule_rows, self._rule = rows, rule
        self._shape = self._columns = self._staged = self._first = None  # set from the first block
        self._seen = self._summed = 0  # records pushed, and summed into the group or the total

    @property
    def pairs(self) -> int:
        return max(0, self._seen - self.shift)

    @property
    def records_seen(self) -> int:
        return self._seen

    def push_block(self, start: int, buckets, frames) -> None:
        """Add records ``start`` .. ``start + rows - 1`` from buckets (rows,)
        or (rows, K) and frames (rows, height, width); ``start`` must be
        :attr:`records_seen`, and K that of the first block.

        A block that does not fit raises ``ValueError``, and a non-finite
        bucket :class:`DatasetValidationError`; either way nothing is added.
        """
        for _ in self._push(start, buckets, frames, ()):
            pass

    def _push(self, start: int, buckets, frames, points):
        """:meth:`push_block` as a generator that yields each of the ascending
        record counts ``points`` in the block once the records up to it are in
        and every chunk they fill is summed; the last point ends the pass."""
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
            self._allocate(frames.shape[1:], columns, rows)
        chunk, end, last = self._chunk, start + len(rows), points[-1] if points else None
        reads = {point - start for point in points[bisect_right(points, start) : bisect_right(points, end)]}
        # The block's pieces end where a chunk fills, at each point in it and at its end.
        ends = sorted({*range(chunk - start % chunk, len(rows), chunk), *reads, len(rows)})
        for lo, hi in zip((0, *ends), ends):
            first = self._summed - start  # the block row that opened the chunk; < 0: an earlier block did
            self._buckets[:, self._carry + lo - first : self._carry + hi - first] = columns[:, lo:hi]
            self._seen = start + hi
            if first < 0:
                self._stage(lo - first, rows[lo:hi])
            else:  # the chunk's rows are the block's own
                self._staged = rows[first:hi]
            if self._seen % chunk == 0 or self._seen == last:
                filled = self._seen - self._summed
                with np.errstate(all="ignore"):  # a read checks the sums
                    self._chunk_term(filled, self._staged, self._group, self._summed % self._group_rows == 0)
                    if self._seen % self._group_rows == 0:  # the group closes: one compensated addition
                        self._sum.add(self._group)
                self._summed = self._seen
                if self._carry:
                    self._carry_rows(self._staged, filled)
                self._staged = None
            elif hi == len(rows) and first >= 0:  # the block cuts the chunk: its rows must outlive the block
                self._stage(0, self._staged)
            if hi in reads:
                yield self._seen

    def _allocate(self, shape: tuple[int, int], buckets: np.ndarray, rows: np.ndarray) -> None:
        """The state, at the first block: frames of ``shape``, ``buckets``
        (K, rows) and frame ``rows``."""
        (columns, _), pixels = buckets.shape, rows.shape[1]
        self._shape, self._columns, self._chunk = shape, columns, _chunk_rows(pixels)
        self._group_rows = self._chunk * -(-_GROUP_RECORDS // self._chunk)  # whole chunks
        self._pair_rows = self._images * columns
        width = self._carry + self._chunk  # the carried records' columns, then the chunk's
        # Zeros: the rows before record 0 take weight 0, and 0 * NaN would be NaN.
        self._carried, self._buckets = np.zeros((self._carry, pixels)), np.zeros((columns, width))
        self._weights = np.empty((self._pair_rows + self._rule_rows) * width)
        self._term = np.empty((self._pair_rows + self._rule_rows, pixels))  # scratch, and the sum's error
        self._group = np.empty_like(self._term)  # the plain sum of the open group's chunks
        self._sum = _CompensatedSum(self._term.shape, error=self._term)
        self._first = (buckets[:, 0].copy(), rows[0].copy()) if self.close_loop else None

    def _stage(self, at: int, rows: np.ndarray) -> None:
        """Copy ``rows`` into the staged rows of a chunk that a block cuts,
        after its first ``at``: a buffer of one chunk, made as the chunk is
        first staged and dropped once it is summed."""
        if not at:
            self._staged = np.empty((self._chunk, rows.shape[1]))
        self._staged[at : at + len(rows)] = rows

    def _carry_rows(self, rows: np.ndarray, filled: int) -> None:
        """After a chunk of ``filled`` ``rows`` is summed, carry its last
        ``shift`` records into the next chunk."""
        shift = self._carry
        keep = min(shift, filled)
        self._carried[: shift - keep] = self._carried[keep:]
        self._carried[shift - keep :] = rows[filled - keep : filled]
        self._buckets[:, :shift] = self._buckets[:, filled : filled + shift]

    def _pair_weights(self, weights: np.ndarray) -> None:
        """Add the pair rule's weights into the zeroed pair rows ``weights``,
        (images * K, shift + filled): row i * K + j is image i of bucket
        column j, the images of the modes one after another, and column c is
        record c + summed - shift."""
        shift, end = self.shift, weights.shape[1]
        first_new = max(shift, 2 * shift - self._summed)  # the chunk start or record shift
        new, old = slice(first_new, end), slice(first_new - shift, end - shift)
        weights = weights.reshape(self._images, self._columns, end)
        image = 0
        for mode in self.modes:
            c_new, c_old = _pair_coefficients(mode, self._buckets[:, new], self._buckets[:, old])
            weights[image : image + len(c_new), :, new] += c_new
            weights[image : image + len(c_new), :, old] += c_old
            image += len(c_new)

    def _chunk_term(self, filled: int, rows: np.ndarray, out: np.ndarray, opens: bool, part=slice(None)) -> None:
        """Add to ``out``, or write into it if the chunk ``opens`` a group,
        the summed terms of the weight rows ``part`` (all, the pair rows or
        the rule's rows) over the chunk's ``filled`` rows, given as ``rows``.
        The term buffer is scratch."""
        carry, end, pair = self._carry, self._carry + filled, self._pair_rows
        weights = self._weights[: len(self._term) * end].reshape(-1, end)
        lo, hi, _ = part.indices(len(weights))
        weights[lo:hi].fill(0.0)
        if lo < pair:
            self._pair_weights(weights[:pair])
        if hi > pair:
            self._rule(weights[pair:, carry:], self._buckets[:, carry:end], self._summed)
        weights, term = weights[lo:hi], self._term[lo:hi]
        if opens:
            np.matmul(weights[:, carry:], rows[:filled], out=out)
        else:
            out += np.matmul(weights[:, carry:], rows[:filled], out=term)
        if self._summed and lo < pair:  # the first chunk has no records before it; one carried row needs no sum
            out[:pair] += (np.multiply(weights[:pair, :1], self._carried, out=term[:pair]) if carry == 1
                           else np.matmul(weights[:pair, :carry], self._carried, out=term[:pair]))

    def _value(self, part, *extra: np.ndarray) -> np.ndarray:
        """The sums of the weight rows ``part`` over the records pushed so
        far, plus ``extra`` terms of those rows: a new (rows, pixels) array."""
        filled, grouped = self._seen - self._summed, self._summed % self._group_rows
        pending = []
        with np.errstate(all="ignore"):
            if grouped or filled:  # the open group and the open chunk, as one term
                pending.append(self._group[part].copy() if grouped else np.empty_like(self._group[part]))
                if filled:
                    self._chunk_term(filled, self._staged, pending[0], not grouped, part)
            return self._sum.value(*pending, *extra, rows=part)

    def snapshots_by_mode(self) -> dict[int, list[ReconResult]]:
        """Reconstruction over the pairs seen so far: for each mode, one
        result per bucket column, each equal to the batch result of its
        column. The images are read-only views of one new array."""
        use_loop = self.close_loop and self._seen >= 2
        pairs = self.pairs + use_loop
        if pairs < 1:
            raise InsufficientRecordsError(
                f"no pairs yet: {self._seen} records pushed with shift={self.shift}"
            )
        loop = []
        with np.errstate(all="ignore"):
            if use_loop:
                filled = self._seen - self._summed
                row = self._staged[filled - 1] if filled else self._carried[-1]
                for mode in self.modes:  # the bucket column of the last record is shift + filled - 1
                    c_new, c_old = _pair_coefficients(mode, self._buckets[:, self.shift + filled - 1], self._first[0])
                    loop.append(c_new[..., np.newaxis] * row + c_old[..., np.newaxis] * self._first[1])
                loop = [np.concatenate(loop).reshape(self._pair_rows, -1)]
            totals = self._value(slice(0, self._pair_rows), *loop)
            np.divide(totals, pairs, out=totals)
        totals.flags.writeable = False
        totals = totals.reshape(-1, self._columns, *self._shape)
        results, image = {}, 0
        for mode in self.modes:
            images = totals[image : image + (1 if mode == 1 else 2)]
            image += len(images)
            _require_no_overflow(images, "the buckets or frames", f"the sgi{mode} pair sums")
            results[mode] = [ReconResult(f"sgi{mode}", tuple(map(ReconImage, images[:, j])), pairs)
                             for j in range(self._columns)]
        return results


class SgiAccumulator(_WeightedSum):
    """Streaming state for the successive-deviation estimators.

    ``mode`` is one of :data:`SGI_MODES`, or a tuple of them that share one
    pass (:meth:`snapshots_by_mode`). Records arrive in order, in blocks
    (:meth:`push_block`) or one at a time (:meth:`push`). A block's buckets
    are a vector, or a (rows, K) matrix: K runs over the same frames that
    share one product per chunk, one result each (:meth:`snapshots`). A
    snapshot never mutates the state, so periodic snapshots give real-time
    reconstruction. Single-writer: push from one thread.
    """

    def __init__(self, mode=1, shift: int = 1, close_loop: bool = False):
        modes = (mode,) if np.ndim(mode) == 0 else tuple(mode)
        if not modes or len(set(modes)) != len(modes) or any(m not in SGI_MODES for m in modes):
            raise ValueError(f"mode must be one of {SGI_MODES} or a tuple of distinct ones, got {mode!r}")
        super().__init__(modes, shift, close_loop)
        self.mode = mode

    def push(self, record: MeasurementRecord) -> None:
        """Add one record, as a one-row :meth:`push_block`."""
        self.push_block(record.index, np.array([record.bucket]), record.frame.data[np.newaxis])

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
