"""Shared data model for correlation ghost-imaging pipelines.

A measurement run is an ordered sequence of (reference frame, bucket value)
pairs: the reference arm records a 2-D intensity pattern while the bucket
arm reports a single scalar per shot. A :class:`Dataset` holds a run as the
arrays every estimator works on, the buckets and the frame matrix; its
:class:`MeasurementRecord` objects are a view on them.

Arrays are float64 internally regardless of on-disk precision (correlation
sums over tens of thousands of records need the headroom) and are frozen
after construction, so they are safe to share read-only across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DatasetValidationError

__all__ = [
    "Frame",
    "MeasurementRecord",
    "DatasetHeader",
    "Dataset",
    "ReconImage",
    "ObjectScene",
    "ObjectMask",
    "ValidationIssue",
    "ValidationReport",
    "frame_sum",
    "validate_dataset",
]


def _frozen_array(values, dtype) -> np.ndarray:
    """Return a read-only C-contiguous array, copying only when required.

    Read-only inputs (e.g. rows of an already-frozen stack) pass through
    without a copy; writable inputs are copied so the caller's buffer stays
    untouched.
    """
    arr = np.asarray(values, dtype=dtype, order="C")
    if arr.flags.writeable:
        if arr is values or arr.base is not None:
            arr = arr.copy(order="C")
        arr.flags.writeable = False
    return arr


def _check_pixels(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every intensity is finite and non-negative."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains non-finite values")
    if (values < 0.0).any():
        raise ValueError(f"{what} contains negative intensities")


@dataclass(frozen=True, eq=False)
class Frame:
    """One reference-arm intensity pattern.

    ``data`` is a (height, width) float64 array of raw intensities: every
    pixel must be finite and non-negative. Signed reconstruction output
    lives in :class:`ReconImage` instead.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.data, np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame data must be a non-empty 2-D array, got shape {arr.shape}")
        _check_pixels(arr, "frame")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _frame_unchecked(arr: np.ndarray) -> Frame:
    # Fast path for stacks validated as a whole; arr must already be a
    # read-only float64 (h, w) view.
    frame = object.__new__(Frame)
    object.__setattr__(frame, "data", arr)
    return frame


def frame_sum(frame: Frame) -> float:
    """Total intensity of a frame: the plain unweighted sum over all pixels.

    This is the discrete stand-in for integrating the reference field over
    the full imaging region, and doubles as the per-shot source-power proxy.
    """
    return float(frame.data.sum())


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One synchronized (frame, bucket) pair with its sequence position.

    The bucket may be negative or non-finite at construction time (noise
    injection and corrupt inputs are real); :func:`validate_dataset` reports
    non-finite buckets, and reconstruction and writing reject them.
    """

    index: int
    frame: Frame
    bucket: float

    def __post_init__(self):
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "bucket", float(self.bucket))


@dataclass(frozen=True)
class DatasetHeader:
    width: int
    height: int
    n: int
    seed: int | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"header dimensions must be positive, got {self.width}x{self.height}")
        if self.n < 1:
            raise ValueError(f"header measurement count must be >= 1, got {self.n}")


def _records_of(header: DatasetHeader, blocks) -> Iterator[MeasurementRecord]:
    """The records of ``(start, buckets, frames)`` blocks of checked, read-only
    float64 frames, each frame a view of its row."""
    shape = (header.height, header.width)
    for start, buckets, frames in blocks:
        for i, bucket in enumerate(buckets.tolist()):
            yield MeasurementRecord(start + i, _frame_unchecked(frames[i].reshape(shape)), bucket)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A measurement run: the header, the (n,) bucket vector and the
    (n, width*height) frame matrix whose row i is frame i, row-major.

    The constructor freezes both float64 arrays and raises ``ValueError``
    unless they match the header and every pixel is finite and non-negative.
    A non-finite bucket is reported by :func:`validate_dataset` and rejected
    by reconstruction and writing. :attr:`records` is a view built on first
    use; :meth:`from_records` stacks separate records.
    """

    header: DatasetHeader
    buckets: np.ndarray
    frame_matrix: np.ndarray

    def __post_init__(self):
        _set_arrays(self, self.buckets, self.frame_matrix)
        _check_pixels(self.frame_matrix, "frame matrix")

    @classmethod
    def from_arrays(
        cls,
        frames,
        buckets,
        *,
        seed: int | None = None,
        provenance: str = "",
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset from an (n, h, w) frame stack and an (n,) bucket vector.

        Pass a read-only stack to transfer ownership without a copy.
        ``validate=False`` skips the full-stack finite/non-negative scan for
        callers that have already checked every pixel (the simulator, the
        container reader); array shapes are checked either way.
        """
        stack = _frozen_array(frames, np.float64)
        if stack.ndim != 3:
            raise ValueError(f"frame stack must be 3-D (n, h, w), got shape {stack.shape}")
        n, h, w = stack.shape
        if validate:
            _check_pixels(stack, "frame stack")
        header = DatasetHeader(width=w, height=h, n=n, seed=seed, provenance=provenance)
        return _prechecked_dataset(header, buckets, stack.reshape(n, h * w))

    @classmethod
    def from_records(cls, records, header: DatasetHeader) -> "Dataset":
        """Stack records into a dataset, or raise :class:`DatasetValidationError`
        with every ``count-mismatch`` against ``header.n``, frame size
        ``dimension-mismatch`` and ``index-order`` issue found."""
        records = tuple(records)
        issues: list[ValidationIssue] = []
        if header.n != len(records):
            message = f"header n={header.n} but dataset holds {len(records)} records"
            issues.append(ValidationIssue(None, "count-mismatch", message))
        for i, rec in enumerate(records):
            if rec.frame.data.shape != (header.height, header.width):
                message = (f"record {i}: frame is {rec.frame.height}x{rec.frame.width}, "
                           f"expected {header.height}x{header.width}")
                issues.append(ValidationIssue(i, "dimension-mismatch", message))
            if rec.index != i:
                message = f"record at position {i} carries index {rec.index}"
                issues.append(ValidationIssue(i, "index-order", message))
        ValidationReport(tuple(issues)).raise_if_failed()
        frames = np.stack([rec.frame.data.ravel() for rec in records])
        frames.flags.writeable = False  # hand the fresh stack over without a copy
        return cls(header, [rec.bucket for rec in records], frames)

    @property
    def n(self) -> int:
        return self.header.n

    @property
    def width(self) -> int:
        return self.header.width

    @property
    def height(self) -> int:
        return self.header.height

    @cached_property
    def records(self) -> tuple[MeasurementRecord, ...]:
        """The run as :class:`MeasurementRecord` objects, built on first use."""
        return tuple(_records_of(self.header, self.blocks()))

    def blocks(self):
        """The records as one ``(start, buckets, frames)`` block, frames of
        shape (n, pixels): the form in which a container file is read."""
        yield 0, self.buckets, self.frame_matrix

    def first(self, count: int) -> "Dataset":
        """Dataset restricted to the first ``count`` records (cheap, shares buffers)."""
        if count < 1 or count > self.n:
            raise ValueError(f"count must be in [1, {self.n}], got {count}")
        if count == self.n:
            return self
        header = replace(self.header, n=count)
        return _prechecked_dataset(header, self.buckets[:count], self.frame_matrix[:count])


def _set_arrays(dataset: Dataset, buckets, frame_matrix) -> None:
    """Freeze a dataset's arrays into place once their shapes match its header."""
    header = dataset.header
    buckets = _frozen_array(buckets, np.float64)
    frame_matrix = _frozen_array(frame_matrix, np.float64)
    n, pixels = header.n, header.width * header.height
    if buckets.shape != (n,) or frame_matrix.shape != (n, pixels):
        raise ValueError(f"buckets {buckets.shape} and frame matrix {frame_matrix.shape} "
                         f"do not match n={n} frames of {header.width}x{header.height}")
    object.__setattr__(dataset, "buckets", buckets)
    object.__setattr__(dataset, "frame_matrix", frame_matrix)


def _prechecked_dataset(header: DatasetHeader, buckets, frame_matrix) -> Dataset:
    """The constructor without its pixel scan, for frames already checked."""
    dataset = object.__new__(Dataset)
    object.__setattr__(dataset, "header", header)
    _set_arrays(dataset, buckets, frame_matrix)
    return dataset


@dataclass(frozen=True, eq=False)
class ObjectScene:
    """Transmission function of the object, values in [0, 1]."""

    transmission: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.transmission, np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"transmission must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("transmission contains non-finite values")
        if (arr < 0.0).any() or (arr > 1.0).any():
            raise ValueError("transmission values must lie in [0, 1]")
        object.__setattr__(self, "transmission", arr)

    @property
    def width(self) -> int:
        return self.transmission.shape[1]

    @property
    def height(self) -> int:
        return self.transmission.shape[0]

    @property
    def binary(self) -> bool:
        t = self.transmission
        return bool(((t == 0.0) | (t == 1.0)).all())


@dataclass(frozen=True, eq=False)
class ReconImage:
    """Real-valued 2-D reconstruction; negative pixels are expected and kept."""

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.data, np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image data must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("image contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class ObjectMask:
    """Boolean ground-truth mask: True inside the transmitting region.

    Both classes must be populated, otherwise contrast-to-noise is undefined.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            arr = arr.astype(bool)
        arr = _frozen_array(arr, np.bool_)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
        inside = int(np.count_nonzero(arr))
        if inside == 0 or inside == arr.size:
            raise ValueError("mask must contain at least one inside and one outside pixel")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def n_in(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def n_out(self) -> int:
        return self.data.size - self.n_in


@dataclass(frozen=True)
class ValidationIssue:
    index: int | None
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_failed(self) -> None:
        if self.issues:
            raise DatasetValidationError(self)


def _bucket_report(start: int, buckets: np.ndarray) -> ValidationReport:
    """The one bucket check, run on every block that is written or
    reconstructed: each non-finite bucket of the block at record ``start``."""
    return ValidationReport(tuple(
        ValidationIssue(start + i, "non-finite-bucket", f"record {start + i}: bucket is {buckets[i]}")
        for i in np.flatnonzero(~np.isfinite(buckets)).tolist()
    ))


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Report every non-finite bucket: the one dataset invariant that the
    constructors do not enforce."""
    return _bucket_report(0, dataset.buckets)
