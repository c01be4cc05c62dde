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

The pair rule has three callers: the batch path scatters it into W for one
W @ M; :class:`SgiAccumulator` applies it to each new record and the one k
places earlier, with O(pixels) work and O(k * pixels) state; and both apply
it to the (last, first) pair for ``close_loop``. Because the formula exists
once, streaming ``snapshot()`` reproduces the batch result on the records
seen so far up to summation order, and the paths cannot drift apart.
Streaming sums are Neumaier-compensated so the two agree far below the
1e-12 contract even after tens of thousands of pushes.
"""

from __future__ import annotations

from collections import deque
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
    """One reconstruction: method tag, image(s), pair/measurement count, and
    the per-frame total intensity diagnostics used by the drift studies."""

    method: str
    images: tuple[ReconImage, ...]
    count: int
    s_r: np.ndarray
    s_r_deviation: np.ndarray

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


def _checked_totals(source) -> tuple[np.ndarray, np.ndarray]:
    """The first, validating pass over a source: buckets S and frame totals R.

    Every block gets the writer's bucket check, and a container checks each
    block as it is read, so a bad record fails the pass before any image.
    """
    buckets, s_r = np.empty(source.n), np.empty(source.n)
    for start, block_buckets, frames in source.blocks():
        _bucket_report(start, block_buckets).raise_if_failed()
        rows = slice(start, start + len(block_buckets))
        buckets[rows] = block_buckets
        s_r[rows] = frames.sum(axis=1)
    return buckets, s_r


def _weighted_sum(source, weights: np.ndarray) -> np.ndarray:
    """The second pass: G = W @ M, one row block of M at a time."""
    total = None
    for start, _, frames in source.blocks():
        part = weights[:, start : start + len(frames)] @ frames
        if total is None:
            total = part
        else:
            total += part
    return total


def _deviations(s_r: np.ndarray, shift: int) -> np.ndarray:
    return s_r[shift:] - s_r[: len(s_r) - shift]


def _classic_weights(method: str, buckets: np.ndarray, s_r: np.ndarray) -> np.ndarray:
    """Weight rows W, shape (images, n), of g2, dgi-delta, dgi or ci."""
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


def _sgi_weights(mode: int, buckets: np.ndarray, shift: int, close_loop: bool) -> tuple[np.ndarray, int]:
    """Weight rows of a successive-deviation estimator and its pair count."""
    n = len(buckets)
    if n <= shift:
        raise InsufficientRecordsError(
            f"successive-deviation pairs need more than shift={shift} records, got {n}"
        )
    c_new, c_old = _pair_coefficients(mode, buckets[shift:], buckets[: n - shift])
    weights = np.zeros((len(c_new), n))
    weights[:, shift:] += c_new
    weights[:, : n - shift] += c_old
    pairs = n - shift
    if close_loop:
        c_new, c_old = _pair_coefficients(mode, buckets[-1], buckets[0])
        weights[:, -1] += c_new
        weights[:, 0] += c_old
        pairs += 1
    return weights / pairs, pairs


def _check_sgi_args(mode: int, shift: int, close_loop: bool) -> None:
    if mode not in SGI_MODES:
        raise ValueError(f"mode must be one of {SGI_MODES}, got {mode}")
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    if close_loop and shift != 1:
        # Open interpretation: the wrap-around pair is only defined for
        # unit shift; how it generalizes to k > 1 is unspecified.
        raise ValueError("close_loop is only defined for shift=1")


def reconstruct(source, method: str, *, shift: int = 1, close_loop: bool = False) -> ReconResult:
    """Batch reconstruction G = W @ M with any method in :data:`METHODS`.

    ``source`` is a :class:`~gikit.types.Dataset`, read as one block, or an
    opened :class:`~gikit.fileio.Container`, read in row blocks: a first
    pass collects the buckets and frame totals the weights need, a second
    sums ``W[:, rows] @ block``. ``shift`` and ``close_loop`` choose the
    pairs of the sgi methods; the classic methods ignore them and report
    frame-total deviations at shift 1.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    mode = int(method[-1]) if method in SGI_METHODS else None
    if mode is not None:
        _check_sgi_args(mode, shift, close_loop)
    buckets, s_r = _checked_totals(source)
    if mode is None:
        weights, count = _classic_weights(method, buckets, s_r), len(buckets)
        dev = _deviations(s_r, 1)
    else:
        weights, count = _sgi_weights(mode, buckets, shift, close_loop)
        dev = _deviations(s_r, shift)
    shape = (source.header.height, source.header.width)
    images = tuple(ReconImage(row.reshape(shape)) for row in _weighted_sum(source, weights))
    return ReconResult(method, images, count, s_r, dev)


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

    A :class:`~gikit.types.Dataset` takes the batch path; any other iterable
    of records is fed through an :class:`SgiAccumulator`. Both routes apply
    the same pair rule and agree within the streaming contract.
    """
    _check_sgi_args(mode, shift, close_loop)
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
    _, s_r = _checked_totals(source)
    return s_r, _deviations(s_r, shift)


class _CompensatedSum:
    """Elementwise Neumaier-compensated accumulator.

    The rounding error of each addition comes from Knuth's branch-free
    TwoSum. It is exact, so it equals Neumaier's branch on magnitudes bit
    for bit, and it takes fewer passes over the array.
    """

    __slots__ = ("total", "comp")

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self.comp = np.zeros(shape)

    def add(self, values: np.ndarray) -> None:
        t = self.total + values
        from_values = t - self.total
        self.comp += (self.total - (t - from_values)) + (values - from_values)
        self.total = t

    def value(self) -> np.ndarray:
        return self.total + self.comp


class SgiAccumulator:
    """Streaming state for the successive-deviation estimators.

    Holds a ring buffer of the last ``shift`` records, one compensated
    (images, pixels) sum of the pair terms, and the first record when the
    loop-closing pair may be needed. ``push`` is O(pixels); ``snapshot`` may
    be called after any push once at least one pair exists and never mutates
    the accumulator, so periodic snapshots give real-time reconstruction.
    Single-writer: push from one thread; snapshots are immutable values and
    safe to hand elsewhere.
    """

    def __init__(self, mode: int = 1, shift: int = 1, close_loop: bool = False):
        _check_sgi_args(mode, shift, close_loop)
        self.mode = mode
        self.shift = shift
        self.close_loop = close_loop
        self._ring: deque[tuple[float, np.ndarray]] = deque(maxlen=shift)
        self._first: tuple[float, np.ndarray] | None = None
        self._last: tuple[float, np.ndarray] | None = None
        self._sum: _CompensatedSum | None = None
        self._shape: tuple[int, int] | None = None
        self._pairs = 0
        self._seen = 0
        self._s_r: list[float] = []

    @property
    def pairs(self) -> int:
        return self._pairs

    @property
    def records_seen(self) -> int:
        return self._seen

    def _pair_term(self, new: tuple[float, np.ndarray], old: tuple[float, np.ndarray]) -> np.ndarray:
        """One pair's contribution to every output image, (images, pixels)."""
        c_new, c_old = _pair_coefficients(self.mode, new[0], old[0])
        return c_new[:, np.newaxis] * new[1] + c_old[:, np.newaxis] * old[1]

    def push(self, record: MeasurementRecord) -> None:
        frame = record.frame.data
        bucket = float(record.bucket)
        if not np.isfinite(bucket):
            raise ValueError(f"record {record.index}: bucket is {record.bucket}")
        if self._shape is None:
            self._shape = frame.shape
        elif frame.shape != self._shape:
            raise ValueError(
                f"record {record.index}: frame shape {frame.shape} does not match {self._shape}"
            )
        entry = (bucket, frame.reshape(-1))
        if self._first is None:
            self._first = entry
        self._s_r.append(float(frame.sum()))
        if len(self._ring) == self.shift:
            term = self._pair_term(entry, self._ring[0])
            if self._sum is None:
                self._sum = _CompensatedSum(term.shape)
            self._sum.add(term)
            self._pairs += 1
        self._ring.append(entry)
        self._last = entry
        self._seen += 1

    def snapshot(self) -> ReconResult:
        """Reconstruction over the pairs seen so far; equals the batch result."""
        pairs = self._pairs
        use_loop = self.close_loop and self._seen >= 2
        if use_loop:
            pairs += 1
        if pairs < 1:
            raise InsufficientRecordsError(
                f"no pairs yet: {self._seen} records pushed with shift={self.shift}"
            )
        total = self._sum.value()
        if use_loop:
            total += self._pair_term(self._last, self._first)
        images = tuple(ReconImage(row.reshape(self._shape) / pairs) for row in total)
        s_r = np.array(self._s_r)
        dev = s_r[self.shift :] - s_r[: len(s_r) - self.shift]
        return ReconResult(f"sgi{self.mode}", images, pairs, s_r, dev)
