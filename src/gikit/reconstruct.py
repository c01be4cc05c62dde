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
Only dgi's weights need the frames (through <R>), so g2, dgi-delta and ci
read a container's bucket column alone and then make one pass over the
frames; dgi makes a pass for the frame totals R first. The estimators return
images only: the frame totals and their deviations, the drift diagnostics,
come from :func:`sr_diagnostics`.

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

Every sgi route runs through one :class:`SgiAccumulator`: batch
``reconstruct`` feeds it the source's row blocks in one pass,
``--progressive`` the same blocks cut at its snapshots, and ``push`` one
record. It sums the pairs in fixed chunks of records aligned to record 0,
scattering the pair rule into weights over a chunk and the ``shift`` rows
before it, so a chunk costs one product and one Neumaier-compensated
addition. The summation order depends only on record indices, so every route
and block cut gives the same bits, far inside the 1e-12 contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDivisorError,
    DegeneratePartitionError,
    InsufficientRecordsError,
)
from .types import Dataset, MeasurementRecord, ReconImage, _bucket_report

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


def _checked_buckets(source) -> np.ndarray:
    """The source's buckets S, given the writer's bucket check (a container
    reads its bucket column alone and checks it as it reads)."""
    buckets = source.buckets
    _bucket_report(0, buckets).raise_if_failed()
    return buckets


def _frame_totals(source) -> np.ndarray:
    """One pass over the frames for the frame totals R, shape (n,). A
    container checks each block as it is read."""
    s_r = np.empty(source.n)
    for start, _, frames in source.blocks():
        np.sum(frames, axis=1, out=s_r[start : start + len(frames)])
    return s_r


def _weighted_sum(source, weights: np.ndarray) -> np.ndarray:
    """One pass over the frames for G = W @ M, weight rows W, summed one row
    block of M at a time from 0 into one preallocated total. A container
    checks each block as it is read, so a bad record fails the pass before
    any image exists."""
    shape = (len(weights), source.header.width * source.header.height)
    total, term = np.zeros(shape), np.empty(shape)
    for start, _, frames in source.blocks():
        total += np.matmul(weights[:, start : start + len(frames)], frames, out=term)
    return total


def _classic_weights(method: str, buckets: np.ndarray, s_r: np.ndarray | None) -> np.ndarray:
    """Weight rows W, shape (images, n), of g2, dgi-delta, dgi or ci; only
    dgi reads the frame totals ``s_r``."""
    n = len(buckets)
    if method == "g2":
        return buckets[np.newaxis] / n
    if n < 2:
        raise InsufficientRecordsError(f"{method} needs at least 2 records, got {n}")
    s_mean = buckets.mean()
    if method == "dgi-delta":
        return (buckets - s_mean)[np.newaxis] / n
    if method == "dgi":
        r_mean = s_r.mean()
        if r_mean == 0.0:
            raise DegenerateDivisorError("mean frame total is zero (all-dark reference frames)")
        return (buckets - (s_mean / r_mean) * s_r)[np.newaxis] / n
    positive = buckets >= s_mean
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0 or n_pos == n:
        raise DegeneratePartitionError(
            "bucket values do not straddle their mean; positive/negative subsets degenerate"
        )
    return np.stack((positive / n_pos, ~positive / (n - n_pos)))


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


def _frame_blocks(source):
    """``source.blocks()`` with each block's frames shaped (rows, height, width)."""
    shape = (source.header.height, source.header.width)
    for start, buckets, frames in source.blocks():
        yield start, buckets, frames.reshape(len(frames), *shape)


def reconstruct(source, method: str, *, shift: int = 1, close_loop: bool = False) -> ReconResult:
    """Batch reconstruction with any method in :data:`METHODS`.

    ``source`` is a :class:`~gikit.types.Dataset`, read as one block, or an
    opened :class:`~gikit.fileio.Container`, read in row blocks. The sgi
    methods feed one pass to an :class:`SgiAccumulator`, ``shift`` and
    ``close_loop`` choosing the pairs. The classic methods ignore those and
    build their weights from ``source.buckets`` (a container's bucket column,
    read alone), then take one pass over the frames that sums
    ``W[:, rows] @ block``; ``dgi``, whose weights need the mean frame
    total, takes a pass for the totals first.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method in SGI_METHODS:
        acc = SgiAccumulator(mode=int(method[-1]), shift=shift, close_loop=close_loop)
        for block in _frame_blocks(source):
            acc.push_block(*block)
        return acc.snapshot()
    buckets = _checked_buckets(source)
    s_r = _frame_totals(source) if method == "dgi" else None
    weights = _classic_weights(method, buckets, s_r)
    shape = (source.header.height, source.header.width)
    images = tuple(ReconImage(row.reshape(shape)) for row in _weighted_sum(source, weights))
    return ReconResult(method, images, len(buckets))


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
    from a dataset or, block by block, from an opened container."""
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    if source.n <= shift:
        raise InsufficientRecordsError(
            f"diagnostics need more than shift={shift} records, got {source.n}"
        )
    _checked_buckets(source)
    s_r = _frame_totals(source)
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
        terms and changing nothing else."""
        total, comp = self.total.copy(), self.comp.copy()
        spare, error = np.empty_like(total), np.empty_like(total)
        for values in pending:
            _two_sum(total, values, spare, error)
            total, spare = spare, total
            comp += error
        return total + comp


_CHUNK_BYTES = 2**20  # float64 frame rows per summation chunk


class SgiAccumulator:
    """Streaming state for the successive-deviation estimators.

    Records arrive in order, in blocks (:meth:`push_block`) or one at a time
    (:meth:`push`). Pairs are summed in fixed chunks of about 1 MB of rows,
    aligned to record 0, each in the chunk of its newer record; a full chunk
    takes one weighted product over a buffer holding the chunk and the
    ``shift`` rows before it, and one compensated addition. So the images
    depend on the records only, not on the block cuts. The buffer and the
    first record (kept only for ``close_loop``) are copies; the buffer and
    each chunk's weights, product and compensated sum are allocated with the
    first block and reused, so pushing allocates no (images, pixels) array
    and the state does not grow with the number of records.
    ``snapshot`` never mutates the accumulator, so periodic snapshots give
    real-time reconstruction. Single-writer: push from one thread.
    """

    def __init__(self, mode: int = 1, shift: int = 1, close_loop: bool = False):
        if mode not in SGI_MODES:
            raise ValueError(f"mode must be one of {SGI_MODES}, got {mode}")
        if shift < 1:
            raise ValueError(f"shift must be >= 1, got {shift}")
        if close_loop and shift != 1:
            # Open interpretation: the wrap-around pair is only defined for
            # unit shift; how it generalizes to k > 1 is unspecified.
            raise ValueError("close_loop is only defined for shift=1")
        self.mode = mode
        self.shift = shift
        self.close_loop = close_loop
        self._shape: tuple[int, int] | None = None
        self._chunk = 0
        self._rows: np.ndarray | None = None  # (shift + chunk, pixels): the ring, then the chunk
        self._buckets: np.ndarray | None = None
        self._weights: np.ndarray | None = None  # flat room for the (images, shift + chunk) weights
        self._term: np.ndarray | None = None  # (images, pixels): a chunk's summed terms
        self._sum: _CompensatedSum | None = None
        self._first: tuple[float, np.ndarray] | None = None
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
        and frames (rows, height, width); ``start`` must be :attr:`records_seen`.

        A block that does not fit raises ``ValueError``, and a non-finite
        bucket :class:`DatasetValidationError`; either way nothing is added.
        """
        buckets, frames = np.asarray(buckets, dtype=np.float64), np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or buckets.shape != frames.shape[:1] or self._shape not in (None, frames.shape[1:]):
            raise ValueError(f"record {start}: buckets {buckets.shape} and frames {frames.shape} "
                             f"do not fit frames of shape {self._shape}")
        if start != self._seen:
            raise ValueError(f"block starts at record {start}, expected {self._seen}")
        _bucket_report(start, buckets).raise_if_failed()
        if not len(frames):
            return
        rows = frames.reshape(len(frames), -1)
        if self._shape is None:
            self._shape, self._chunk = frames.shape[1:], max(1, _CHUNK_BYTES // rows[0].nbytes)
            # Zeros: the rows before record 0 take weight 0, and 0 * NaN would be NaN.
            self._rows = np.zeros((self.shift + self._chunk, rows.shape[1]))
            self._buckets = np.zeros(self.shift + self._chunk)
            images = 1 if self.mode == 1 else 2
            self._weights = np.empty(images * (self.shift + self._chunk))
            self._term = np.empty((images, rows.shape[1]))
            self._sum = _CompensatedSum(self._term.shape)
            self._first = (float(buckets[0]), rows[0].copy()) if self.close_loop else None
        chunk = self._chunk
        cuts = range(chunk - start % chunk, len(rows), chunk)  # where a chunk fills
        for lo, hi in zip((0, *cuts), (*cuts, len(rows))):
            at = self.shift + (start + lo) % chunk
            self._rows[at : at + hi - lo] = rows[lo:hi]
            self._buckets[at : at + hi - lo] = buckets[lo:hi]
            self._seen = start + hi
            if self._seen % chunk == 0:
                self._sum.add(self._chunk_term(chunk))
                self._rows[: self.shift] = self._rows[chunk:]
                self._buckets[: self.shift] = self._buckets[chunk:]

    def _chunk_term(self, filled: int) -> np.ndarray:
        """The summed terms, (images, pixels), of the pairs whose newer record
        is among the ``filled`` rows of the current chunk, written into the
        term buffer."""
        shift, end = self.shift, self.shift + filled
        # Buffer row r holds record r + chunk start - shift, and the first
        # record with a partner is the chunk start or record ``shift``.
        first_new = max(shift, 2 * shift - (self._seen - filled))
        new, old = slice(first_new, end), slice(first_new - shift, end - shift)
        c_new, c_old = _pair_coefficients(self.mode, self._buckets[new], self._buckets[old])
        weights = self._weights[: len(c_new) * end].reshape(len(c_new), end)
        weights.fill(0.0)
        weights[:, new] += c_new
        weights[:, old] += c_old
        return np.matmul(weights, self._rows[:end], out=self._term)

    def snapshot(self) -> ReconResult:
        """Reconstruction over the pairs seen so far; equals the batch result."""
        use_loop = self.close_loop and self._seen >= 2
        pairs = self.pairs + use_loop
        if pairs < 1:
            raise InsufficientRecordsError(
                f"no pairs yet: {self._seen} records pushed with shift={self.shift}"
            )
        filled = self._seen % self._chunk
        pending = [self._chunk_term(filled)]
        if use_loop:
            last = self.shift + filled - 1
            c_new, c_old = _pair_coefficients(self.mode, self._buckets[last], self._first[0])
            pending.append(c_new[:, np.newaxis] * self._rows[last] + c_old[:, np.newaxis] * self._first[1])
        images = tuple(ReconImage(row.reshape(self._shape) / pairs) for row in self._sum.value(*pending))
        return ReconResult(f"sgi{self.mode}", images, pairs)
