"""Shared data model for correlation ghost-imaging pipelines.

A measurement run is an ordered sequence of (reference frame, bucket value)
pairs: the reference arm records a 2-D intensity pattern while the bucket
arm reports a single scalar per shot. Simulation output, container files,
and the reconstructors all speak these types.

Arrays are float64 internally regardless of on-disk precision (correlation
sums over tens of thousands of records need the headroom) and are frozen
after construction, so records are safe to share read-only across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DatasetValidationError

__all__ = [
    "Frame",
    "MeasurementRecord",
    "DatasetHeader",
    "Dataset",
    "ReconImage",
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
        if not np.isfinite(arr).all():
            raise ValueError("frame contains non-finite values")
        if (arr < 0.0).any():
            raise ValueError("frame contains negative intensities")
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
    injection and corrupt inputs are real); :func:`validate_dataset` is the
    gate that reports non-finite buckets.
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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered measurement sequence plus header metadata.

    ``frame_matrix`` and ``buckets`` expose the stacked (n, width*height)
    and (n,) views used by the vectorized reconstructors; datasets built via
    :meth:`from_arrays` share one backing buffer with their records, so the
    stack costs no extra memory.
    """

    header: DatasetHeader
    records: tuple[MeasurementRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        if not records:
            raise ValueError("dataset must contain at least one record")
        object.__setattr__(self, "records", records)

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
        callers that already guarantee it (the simulator, the container
        reader); frame invariants still hold because those producers only
        emit values satisfying them.
        """
        stack = _frozen_array(frames, np.float64)
        if stack.ndim != 3:
            raise ValueError(f"frame stack must be 3-D (n, h, w), got shape {stack.shape}")
        n, h, w = stack.shape
        if validate:
            if not np.isfinite(stack).all():
                raise ValueError("frame stack contains non-finite values")
            if (stack < 0.0).any():
                raise ValueError("frame stack contains negative intensities")
        bucket_vec = _frozen_array(buckets, np.float64)
        if bucket_vec.shape != (n,):
            raise ValueError(f"bucket vector shape {bucket_vec.shape} does not match {n} frames")
        header = DatasetHeader(width=w, height=h, n=n, seed=seed, provenance=provenance)
        records = tuple(
            MeasurementRecord(i, _frame_unchecked(stack[i]), float(bucket_vec[i])) for i in range(n)
        )
        dataset = cls(header=header, records=records)
        dataset.__dict__["frame_matrix"] = stack.reshape(n, h * w)
        dataset.__dict__["buckets"] = bucket_vec
        return dataset

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def width(self) -> int:
        return self.header.width

    @property
    def height(self) -> int:
        return self.header.height

    @cached_property
    def frame_matrix(self) -> np.ndarray:
        shape = self.records[0].frame.data.shape
        if any(rec.frame.data.shape != shape for rec in self.records):
            raise DatasetValidationError(validate_dataset(self))
        stack = np.stack([rec.frame.data for rec in self.records])
        matrix = stack.reshape(len(self.records), -1)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def buckets(self) -> np.ndarray:
        vec = np.array([rec.bucket for rec in self.records], dtype=np.float64)
        vec.flags.writeable = False
        return vec

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
        header = DatasetHeader(
            width=self.header.width,
            height=self.header.height,
            n=count,
            seed=self.header.seed,
            provenance=self.header.provenance,
        )
        subset = Dataset(header=header, records=self.records[:count])
        if "frame_matrix" in self.__dict__:
            subset.__dict__["frame_matrix"] = self.frame_matrix[:count]
        if "buckets" in self.__dict__:
            subset.__dict__["buckets"] = self.buckets[:count]
        return subset


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


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check every dataset-level invariant and report all violations.

    Pixel-level invariants (finite, non-negative) are enforced when frames
    are constructed, so this pass only needs the cheap cross-record checks:
    shared dimensions, contiguous 0-based indices, finite buckets, and a
    header that matches the records.
    """
    issues: list[ValidationIssue] = []
    header = dataset.header
    if header.n != len(dataset.records):
        issues.append(
            ValidationIssue(
                None,
                "count-mismatch",
                f"header n={header.n} but dataset holds {len(dataset.records)} records",
            )
        )
    expected_shape = (header.height, header.width)
    for i, rec in enumerate(dataset.records):
        if rec.frame.data.shape != expected_shape:
            issues.append(
                ValidationIssue(
                    i,
                    "dimension-mismatch",
                    f"record {i}: frame is {rec.frame.height}x{rec.frame.width}, "
                    f"expected {header.height}x{header.width}",
                )
            )
        if rec.index != i:
            issues.append(
                ValidationIssue(
                    i, "index-order", f"record at position {i} carries index {rec.index}"
                )
            )
        if not np.isfinite(rec.bucket):
            issues.append(
                ValidationIssue(i, "non-finite-bucket", f"record {i}: bucket is {rec.bucket}")
            )
    return ValidationReport(tuple(issues))
