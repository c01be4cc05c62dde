"""Shared data model for correlation ghost-imaging pipelines.

A measurement run is an ordered sequence of (reference frame, bucket value)
pairs: the reference arm records a 2-D intensity pattern while the bucket
arm reports a single scalar per shot. A :class:`Dataset` holds a run as the
arrays every estimator works on, the buckets and the frame matrix; its
:class:`MeasurementRecord` objects are a view on them.

Arrays are float64 internally regardless of on-disk precision (correlation
sums over tens of thousands of records need the headroom) and are frozen
after construction, so they are safe to share read-only across workers.

gikit's data classes are written out, not generated at import. Those
compared by value are named tuples (here :class:`DatasetHeader`,
:class:`ValidationIssue` and :class:`ValidationReport`), whose checked
fields are checked in ``_replace`` too (:class:`_Checked`); those holding
arrays are compared by identity and refuse assignment (:class:`_Frozen`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

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


class _Frozen:
    """Base of the classes compared by identity. Each names its fields in
    ``_fields``, which its constructor sets once, through ``__dict__``;
    assigning or deleting an attribute raises ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Checked:
    """The first base of a named tuple whose fields are checked: its
    ``_check`` runs on every instance that the constructor, ``_make`` or
    ``_replace`` builds."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._check()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Plane(_Frozen):
    """A class holding one non-empty 2-D array, its one field, with the
    array's ``width`` and ``height``."""

    _fields = ("data",)

    def _freeze(self, values, dtype, what: str) -> np.ndarray:
        """Freeze ``values`` as ``dtype`` into the field and return them;
        raise ``ValueError`` unless they are 2-D and non-empty."""
        arr = _frozen_array(values, dtype)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"{what} must be a non-empty 2-D array, got shape {arr.shape}")
        self.__dict__[self._fields[0]] = arr
        return arr

    @property
    def width(self) -> int:
        return getattr(self, self._fields[0]).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, self._fields[0]).shape[0]


class Frame(_Plane):
    """One reference-arm intensity pattern.

    ``data`` is a (height, width) float64 array of raw intensities: every
    pixel must be finite and non-negative. Signed reconstruction output
    lives in :class:`ReconImage` instead.
    """

    def __init__(self, data):
        _check_pixels(self._freeze(data, np.float64, "frame data"), "frame")


def _frame_unchecked(arr: np.ndarray) -> Frame:
    # Fast path for stacks validated as a whole; arr must already be a
    # read-only float64 (h, w) view.
    frame = object.__new__(Frame)
    frame.__dict__["data"] = arr
    return frame


def frame_sum(frame: Frame) -> float:
    """Total intensity of a frame: the plain unweighted sum over all pixels.

    This is the discrete stand-in for integrating the reference field over
    the full imaging region, and doubles as the per-shot source-power proxy.
    """
    return float(frame.data.sum())


class MeasurementRecord(_Frozen):
    """One synchronized (frame, bucket) pair with its sequence position.

    The bucket may be negative or non-finite at construction time (noise
    injection and corrupt inputs are real); :func:`validate_dataset` reports
    non-finite buckets, and reconstruction and writing reject them.
    """

    _fields = ("index", "frame", "bucket")

    def __init__(self, index: int, frame: Frame, bucket: float):
        self.__dict__.update(index=int(index), frame=frame, bucket=float(bucket))


class DatasetHeader(_Checked, namedtuple("DatasetHeader", "width height n seed provenance", defaults=(None, ""))):
    """A run's frame ``width`` and ``height``, its record count ``n``, its
    seed (None if unknown) and its provenance JSON (``""`` if none)."""

    __slots__ = ()

    def _check(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"header dimensions must be positive, got {self.width}x{self.height}")
        if self.n < 1:
            raise ValueError(f"header measurement count must be >= 1, got {self.n}")


class Dataset(_Frozen):
    """A measurement run: the header, the (n,) bucket vector and the
    (n, width*height) frame matrix whose row i is frame i, row-major.

    The constructor freezes both float64 arrays and raises ``ValueError``
    unless they match the header and every pixel is finite and non-negative.
    A non-finite bucket is reported by :func:`validate_dataset` and rejected
    by reconstruction and writing. :attr:`records` is a view built on first
    use; :meth:`from_records` stacks separate records.
    """

    _fields = ("header", "buckets", "frame_matrix")

    def __init__(self, header: DatasetHeader, buckets, frame_matrix):
        _set_arrays(self, header, buckets, frame_matrix)
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
        callers that have already checked every pixel; array shapes are
        checked either way.
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
        """The run as :class:`MeasurementRecord` objects, built on first use,
        each frame a view of its row of the frame matrix."""
        shape = (self.height, self.width)
        return tuple(MeasurementRecord(i, _frame_unchecked(row.reshape(shape)), bucket)
                     for i, (bucket, row) in enumerate(zip(self.buckets.tolist(), self.frame_matrix)))

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
        header = self.header._replace(n=count)
        return _prechecked_dataset(header, self.buckets[:count], self.frame_matrix[:count])


def _set_arrays(dataset: Dataset, header: DatasetHeader, buckets, frame_matrix) -> None:
    """Set a dataset's header, and freeze its arrays into place once their
    shapes match it."""
    buckets = _frozen_array(buckets, np.float64)
    frame_matrix = _frozen_array(frame_matrix, np.float64)
    n, pixels = header.n, header.width * header.height
    if buckets.shape != (n,) or frame_matrix.shape != (n, pixels):
        raise ValueError(f"buckets {buckets.shape} and frame matrix {frame_matrix.shape} "
                         f"do not match n={n} frames of {header.width}x{header.height}")
    dataset.__dict__.update(header=header, buckets=buckets, frame_matrix=frame_matrix)


def _prechecked_dataset(header: DatasetHeader, buckets, frame_matrix) -> Dataset:
    """The constructor without its pixel scan, for frames already checked."""
    dataset = object.__new__(Dataset)
    _set_arrays(dataset, header, buckets, frame_matrix)
    return dataset


def _stacked_dataset(header: DatasetHeader, blocks) -> Dataset:
    """The one route from blocks into memory: copy checked ``(start, buckets,
    frames)`` blocks that cover records 0..n-1 of ``header`` in order, frames
    of shape (rows, pixels), into one frozen frame matrix and bucket vector.
    Each block is copied before the next is asked for, so a producer may
    reuse its buffers."""
    buckets, frame_matrix = np.empty(header.n), np.empty((header.n, header.width * header.height))
    for start, block_buckets, block_frames in blocks:
        buckets[start : start + len(block_buckets)] = block_buckets
        frame_matrix[start : start + len(block_buckets)] = block_frames
    buckets.flags.writeable = False
    frame_matrix.flags.writeable = False
    return _prechecked_dataset(header, buckets, frame_matrix)


class ObjectScene(_Plane):
    """Transmission function of the object, values in [0, 1]."""

    _fields = ("transmission",)

    def __init__(self, transmission):
        arr = self._freeze(transmission, np.float64, "transmission")
        if not np.isfinite(arr).all():
            raise ValueError("transmission contains non-finite values")
        if (arr < 0.0).any() or (arr > 1.0).any():
            raise ValueError("transmission values must lie in [0, 1]")

    @property
    def binary(self) -> bool:
        t = self.transmission
        return bool(((t == 0.0) | (t == 1.0)).all())


class ReconImage(_Plane):
    """Real-valued 2-D reconstruction; negative pixels are expected and kept."""

    def __init__(self, data):
        if not np.isfinite(self._freeze(data, np.float64, "image data")).all():
            raise ValueError("image contains non-finite values")


class ObjectMask(_Plane):
    """Boolean ground-truth mask: True inside the transmitting region.

    Both classes must be populated, otherwise contrast-to-noise is undefined.
    """

    def __init__(self, data):
        arr = self._freeze(data, np.bool_, "mask")
        if arr.all() or not arr.any():
            raise ValueError("mask must contain at least one inside and one outside pixel")

    @property
    def n_in(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def n_out(self) -> int:
        return self.data.size - self.n_in


class ValidationIssue(NamedTuple):
    index: int | None
    code: str
    message: str


class ValidationReport(NamedTuple):
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
