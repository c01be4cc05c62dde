"""On-disk formats: the dataset container, portable graymap import/export,
and run manifests.

Container layout (single file, little-endian throughout):

    bytes 0..3   magic "GID1"
    bytes 4..7   uint32 length of the header JSON
    header JSON  {"version": 1, "width", "height", "n", "seed", "provenance"}
    payload      n records, each: bucket float64, then width*height frame
                 pixels float32, row-major

Buckets round-trip bit-exactly; frames are quantized to float32 on disk
(they are raw detector intensities, while buckets are accumulated sums and
keep full precision). Payload length must equal n * (8 + 4 * width * height)
exactly.

Every read goes through one block reader. It checks the header and the
payload length once, then reads the fixed-stride records about 1 MB at a
time, a size that stays in cache, and converts each chunk into one float64
block buffer that it allocates once and reuses, checking each block for
non-finite values and negative pixels. The check runs on the stored
float32 pixels in two scans, ``min() >= 0`` (false for NaN, -inf and
negative pixels) and ``max() < inf``, plus ``isfinite`` on the buckets; only
a block that fails is scanned again to tell which error it holds.
:attr:`Container.buckets` reads the bucket column alone, one 8-byte
``os.pread`` per record, a few thousand records at a time into one float64
column, and checks it the same way, so the classic estimators can build
their weights before they read a frame. No read maps the file: touched
file-backed pages would count toward the process's peak RSS.
:func:`read_dataset` and :func:`decode_dataset` convert each stored chunk
straight into its slice of one (n, pixels) stack and check that slice;
:func:`open_container` hands the blocks out one at a time as read-only
views of the reused buffer, valid until the next block is asked for, which
is how the CLI reads: ``reconstruct``, ``--progressive`` and ``diagnose``
hold the 1 MB record buffer, the 2 MB float64 block buffer, the classic
estimators' O(n) bucket and weight vectors, the frame totals of ``dgi``
and ``diagnose`` and the output images or the sgi accumulator's 1 MB row
buffer, never the whole frame matrix. With one reused buffer, rather than a
fresh block per read, the peak RSS does not depend on where the allocator
puts each block.

Every write goes through one block writer, :func:`write_container`, which
takes a header and the same ``(start, buckets, frames)`` blocks and stores
them through one record buffer of at most 1 MB, rejecting a block with a
non-finite bucket. :func:`write_dataset` and :func:`encode_dataset` feed it a
dataset's single block; ``gikit simulate`` feeds it the blocks of a
:class:`~gikit.simulate.Simulation` as they are produced.

Every file this module writes whole goes to a temporary file in the
destination directory first and is then renamed over the destination, so a
reader never sees a partly written output. Only the manifest CSV is
appended to in place, one row at a time.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FileFormatError
from .types import (
    Dataset,
    DatasetHeader,
    ObjectScene,
    ReconImage,
    _bucket_report,
)
from .metrics import normalize_minmax

__all__ = [
    "MAGIC",
    "CONTAINER_VERSION",
    "Container",
    "open_container",
    "encode_dataset",
    "decode_dataset",
    "write_dataset",
    "write_container",
    "read_dataset",
    "import_scene",
    "export_image",
    "export_raw",
    "ManifestRow",
    "MANIFEST_COLUMNS",
    "write_manifest",
    "append_manifest_row",
]

MAGIC = b"GID1"
CONTAINER_VERSION = 1

_BUCKET_BYTES = 8
_PIXEL_BYTES = 4
_BLOCK_BYTES = 2**20  # bytes of stored records per block: about the size of a core's cache
_BUCKET_GROUP = 4096  # buckets per column read: about 0.6 MB of transient 8-byte reads


def _record_dtype(pixels: int) -> np.dtype:
    return np.dtype([("bucket", "<f8"), ("frame", "<f4", (pixels,))])


def _block_rows(pixels: int, multiple: int = 1) -> int:
    """Records per block: as many as fit in ``_BLOCK_BYTES``, rounded down
    to a multiple of ``multiple`` and at least ``multiple``."""
    rows = _BLOCK_BYTES // _record_dtype(pixels).itemsize
    return max(multiple, rows - rows % multiple)


def _temporary_path(path) -> Path:
    """A new hidden name beside ``path``, for a file to be renamed over it."""
    path = Path(path)
    return path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")


@contextmanager
def _atomic_open(path, mode: str = "wb", **kwargs):
    """Open a new file beside ``path``; on a clean exit rename it over
    ``path``, on an exception delete it and leave ``path`` untouched."""
    path = Path(path)
    tmp = _temporary_path(path)
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_container(fh, header: DatasetHeader, blocks) -> None:
    """Write the container of ``header`` from ``(start, buckets, frames)``
    blocks that cover records 0..n-1 in order, frames of shape (rows, pixels).

    Each block is converted and written through one record buffer of at most
    ``_BLOCK_BYTES`` before the next is asked for, so a producer may reuse
    its arrays. A block with a non-finite bucket raises
    :class:`DatasetValidationError`.
    """
    doc = {
        "version": CONTAINER_VERSION,
        "width": header.width,
        "height": header.height,
        "n": header.n,
        "seed": header.seed,
        "provenance": header.provenance,
    }
    header_bytes = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fh.write(MAGIC + np.uint32(len(header_bytes)).tobytes() + header_bytes)
    pixels = header.width * header.height
    records = np.empty(min(header.n, _block_rows(pixels)), dtype=_record_dtype(pixels))
    written = 0
    for start, buckets, frames in blocks:
        if start != written:
            raise ValueError(f"block starts at record {start}, expected {written}")
        _bucket_report(start, buckets).raise_if_failed()
        for row in range(0, len(buckets), len(records)):
            chunk = records[: len(buckets) - row]
            chunk["bucket"] = buckets[row : row + len(chunk)]
            np.copyto(chunk["frame"], frames[row : row + len(chunk)], casting="same_kind")
            fh.write(memoryview(chunk))
        written += len(buckets)
    if written != header.n:
        raise ValueError(f"blocks hold {written} records, header says {header.n}")


def write_container(header: DatasetHeader, blocks, destination) -> None:
    """Write a container file atomically from ``(start, buckets, frames)``
    blocks (see :meth:`Container.blocks`), holding one block at a time."""
    with _atomic_open(destination) as fh:
        _write_container(fh, header, blocks)


def encode_dataset(dataset: Dataset) -> bytes:
    """Serialize a dataset to container bytes (deterministic)."""
    buffer = io.BytesIO()
    _write_container(buffer, dataset.header, dataset.blocks())
    return buffer.getvalue()


def write_dataset(dataset: Dataset, destination) -> None:
    """Write a dataset as a container file, atomically; same bytes as :func:`encode_dataset`."""
    write_container(dataset.header, dataset.blocks(), destination)


def _header_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    # Exact type: bool is a subclass of int, and a float such as 2.7 must not truncate.
    if type(value) is not int:
        raise FileFormatError(f"header {key!r} must be an integer, got {value!r}")
    return value


def _read_header(fh) -> tuple[DatasetHeader, int]:
    """Parse and check the header of the container open as ``fh``, and check
    the payload length against the file size. Returns the header and the
    payload offset."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    prefix = fh.read(8)
    if len(prefix) < 8 or prefix[:4] != MAGIC:
        raise FileFormatError(f"bad magic {prefix[:4]!r}, expected {MAGIC!r}")
    header_len = int.from_bytes(prefix[4:8], "little")
    if 8 + header_len > size:
        raise FileFormatError("header length exceeds file size")
    try:
        doc = json.loads(fh.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, deep nesting
        raise FileFormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"header JSON must be an object, got {type(doc).__name__}")
    version = doc.get("version")
    if version != CONTAINER_VERSION:
        raise FileFormatError(f"unsupported container version {version!r}, expected {CONTAINER_VERSION}")
    width, height, n = (_header_int(doc, key) for key in ("width", "height", "n"))
    if width < 1 or height < 1 or n < 1:
        raise FileFormatError(f"non-positive dimensions in header: {width}x{height}, n={n}")
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise FileFormatError(f"header seed must be an integer or null, got {seed!r}")
    provenance = doc.get("provenance", "")

    payload = size - 8 - header_len
    expected = n * (_BUCKET_BYTES + _PIXEL_BYTES * width * height)
    if payload != expected:
        raise FileFormatError(
            f"payload is {payload} bytes, expected {expected} "
            f"for n={n} frames of {width}x{height}"
        )
    header = DatasetHeader(width=width, height=height, n=n, seed=seed, provenance=str(provenance))
    return header, 8 + header_len


def _read_chunks(fh, offset: int, n: int, pixels: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, records)`` for the first ``n`` records of the payload
    at ``offset``, as stored; every chunk reuses one record buffer."""
    records = np.empty(min(n, _block_rows(pixels)), dtype=_record_dtype(pixels))
    fh.seek(offset)
    for start in range(0, n, len(records)):
        chunk = records[: n - start]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FileFormatError(f"payload ended inside records {start}..{start + len(chunk) - 1}")
        yield start, chunk


def _check_buckets(buckets: np.ndarray) -> None:
    if not np.isfinite(buckets).all():
        raise FileFormatError("payload contains non-finite values")


def _convert_checked(chunk: np.ndarray, buckets: np.ndarray, frames: np.ndarray) -> None:
    """Check stored records for non-finite values and negative pixels, then
    convert them into float64 ``buckets`` (rows,) and ``frames`` (rows, pixels).

    The stored pixels take two scans: ``min() >= 0`` fails on a NaN, -inf or
    negative pixel and ``max() < inf`` on +inf. Only then are the buckets and
    pixels told apart, so a block with both a non-finite value and a negative
    pixel is reported as non-finite.
    """
    np.copyto(buckets, chunk["bucket"])
    _check_buckets(buckets)
    stored = chunk["frame"]
    if not (stored.min() >= 0.0 and stored.max() < np.inf):
        if not np.isfinite(stored).all():
            raise FileFormatError("payload contains non-finite values")
        raise FileFormatError("payload contains negative frame intensities")
    np.copyto(frames, stored)


def _read_blocks(fh, offset: int, n: int, pixels: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(start, buckets, frames)`` for the first ``n`` records of the
    payload at ``offset``: read-only float64 views of shapes (rows,) and
    (rows, pixels) of one buffer that every block is converted into, so a
    block is valid until the next one is asked for. Each block is checked
    before it is yielded."""
    rows = min(n, _block_rows(pixels))
    buckets, frames = np.empty(rows), np.empty((rows, pixels))
    for start, chunk in _read_chunks(fh, offset, n, pixels):
        block_buckets, block_frames = buckets[: len(chunk)], frames[: len(chunk)]
        _convert_checked(chunk, block_buckets, block_frames)
        block_buckets.flags.writeable = False
        block_frames.flags.writeable = False
        yield start, block_buckets, block_frames


@dataclass(frozen=True)
class Container:
    """A container file whose header and payload length have been checked;
    the records are read from disk block by block on each pass.

    ``header.n`` is the number of records a pass reads: the file's count, or
    fewer after :meth:`first`.
    """

    path: Path
    header: DatasetHeader
    offset: int

    @property
    def n(self) -> int:
        return self.header.n

    @property
    def buckets(self) -> np.ndarray:
        """The first ``n`` buckets alone, read-only float64 (n,): one 8-byte
        read per record at the record stride, joined a group of records at
        a time into its slice of the column. A non-finite bucket or a file
        cut short since it was opened raises :class:`FileFormatError`."""
        stride = _record_dtype(self.header.width * self.header.height).itemsize
        starts = range(self.offset, self.offset + self.n * stride, stride)
        buckets = np.empty(self.n)
        with open(self.path, "rb") as fh:
            for first in range(0, self.n, _BUCKET_GROUP):
                group = starts[first : first + _BUCKET_GROUP]
                stored = b"".join([os.pread(fh.fileno(), _BUCKET_BYTES, at) for at in group])
                if len(stored) != len(group) * _BUCKET_BYTES:
                    raise FileFormatError(f"payload ended inside record {first + len(stored) // _BUCKET_BYTES}")
                buckets[first : first + len(group)] = np.frombuffer(stored, dtype="<f8")
        _check_buckets(buckets)
        buckets.flags.writeable = False
        return buckets

    def first(self, count: int) -> "Container":
        """The same file, read only up to its first ``count`` records."""
        if count < 1 or count > self.n:
            raise ValueError(f"count must be in [1, {self.n}], got {count}")
        return replace(self, header=replace(self.header, n=count))

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """One pass over the records as ``(start, buckets, frames)`` blocks:
        read-only float64 views, frames of shape (rows, pixels), of one
        buffer that the pass reuses, so each block is valid until the next
        is asked for; copy what must outlive it. A block with a non-finite
        value or a negative pixel raises :class:`FileFormatError` before it
        is yielded."""
        with open(self.path, "rb") as fh:
            yield from _read_blocks(fh, self.offset, self.n, self.header.width * self.header.height)


def open_container(path) -> Container:
    """Check a container's header and payload length; read no records yet."""
    with open(path, "rb") as fh:
        header, offset = _read_header(fh)
    return Container(Path(path), header, offset)


def _stack_blocks(fh) -> Dataset:
    header, offset = _read_header(fh)
    n, pixels = header.n, header.width * header.height
    frames = np.empty((n, pixels))
    buckets = np.empty(n)
    for start, chunk in _read_chunks(fh, offset, n, pixels):
        rows = slice(start, start + len(chunk))
        _convert_checked(chunk, buckets[rows], frames[rows])
    frames.flags.writeable = False
    buckets.flags.writeable = False
    return Dataset.from_arrays(
        frames.reshape(n, header.height, header.width),
        buckets,
        seed=header.seed,
        provenance=header.provenance,
        validate=False,
    )


def decode_dataset(data: bytes) -> Dataset:
    """Parse container bytes back into a dataset, validating the format."""
    return _stack_blocks(io.BytesIO(data))


def read_dataset(source) -> Dataset:
    """Read a whole container file into memory as a dataset."""
    with open(source, "rb") as fh:
        return _stack_blocks(fh)


# ---------------------------------------------------------------------------
# Portable graymap (P5 binary 8/16-bit, P2 ascii) for scenes and images.


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            break
    if pos >= len(data):
        raise FileFormatError("unexpected end of graymap header")
    start = pos
    while pos < len(data) and data[pos] not in b" \t\r\n":
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return int(token), pos
    except ValueError as exc:
        raise FileFormatError(f"bad {what} in graymap header: {token!r}") from exc


def _read_graymap(data: bytes) -> np.ndarray:
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise FileFormatError(f"unsupported graymap format {magic!r} (only P5/P2 grayscale)")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FileFormatError(f"graymap has zero dimension: {width}x{height}")
    if not 0 < maxval < 65536:
        raise FileFormatError(f"graymap maxval {maxval} out of range")

    count = width * height
    if magic == b"P5":
        raster = data[pos + 1 :]  # single whitespace byte separates maxval and raster
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = count * dtype.itemsize
        if len(raster) < expected:
            raise FileFormatError(f"graymap raster is {len(raster)} bytes, expected {expected}")
        values = np.frombuffer(raster[:expected], dtype=dtype).astype(np.float64)
    else:
        tokens = data[pos:].split()
        if len(tokens) < count:
            raise FileFormatError(f"graymap raster has {len(tokens)} samples, expected {count}")
        values = np.array([int(t) for t in tokens[:count]], dtype=np.float64)
    if (values > maxval).any():
        raise FileFormatError("graymap sample exceeds declared maxval")
    return (values / maxval).reshape(height, width)


def import_scene(path) -> ObjectScene:
    """Load a grayscale graymap as a transmission map on [0, 1]."""
    return ObjectScene(_read_graymap(Path(path).read_bytes()))


def export_image(image: ReconImage, path) -> None:
    """Write a reconstruction as a 16-bit binary graymap after min-max
    normalization (a constant image comes out mid-gray)."""
    norm = normalize_minmax(image)
    samples = np.rint(norm.data * 65535.0).astype(">u2")
    header = f"P5\n{image.width} {image.height}\n65535\n".encode("ascii")
    with _atomic_open(path) as fh:
        fh.write(header + samples.tobytes())


def export_raw(image: ReconImage, path) -> None:
    """Dump the unnormalized image values as little-endian float64."""
    with _atomic_open(path) as fh:
        fh.write(image.data.astype("<f8").tobytes())


# ---------------------------------------------------------------------------
# Run manifests: one CSV row per reconstruction plus a JSON settings sidecar.

MANIFEST_COLUMNS = (
    "method",
    "n",
    "k",
    "drift_kind",
    "noise_mean",
    "cnr",
    "pair_count",
    "wall_time_ms",
)


@dataclass
class ManifestRow:
    method: str
    n: int
    k: int | None
    drift_kind: str
    noise_mean: float | None
    cnr: float | None
    pair_count: int
    wall_time_ms: float
    settings: dict = field(default_factory=dict)

    def csv_values(self) -> list:
        raw = (
            self.method,
            self.n,
            self.k,
            self.drift_kind,
            self.noise_mean,
            self.cnr,
            self.pair_count,
            self.wall_time_ms,
        )
        return ["" if v is None else v for v in raw]


def _manifest_paths(path) -> tuple[Path, Path]:
    base = Path(path)
    csv_path = base if base.suffix == ".csv" else base.with_name(base.name + ".csv")
    return csv_path, csv_path.with_suffix(".json")


def _sidecar_entry(row: ManifestRow) -> dict:
    return {"row": dict(zip(MANIFEST_COLUMNS, row.csv_values())), "settings": row.settings}


def _write_sidecar(json_path: Path, sidecar: list) -> None:
    with _atomic_open(json_path, "w") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def write_manifest(rows, path) -> tuple[Path, Path]:
    """Write manifest rows to ``<path>.csv`` with a JSON settings sidecar.

    Column order is fixed; an empty row list produces a header-only CSV.
    """
    csv_path, json_path = _manifest_paths(path)
    rows = list(rows)
    with _atomic_open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
    _write_sidecar(json_path, [_sidecar_entry(row) for row in rows])
    return csv_path, json_path


def append_manifest_row(row: ManifestRow, path) -> tuple[Path, Path]:
    """Append one row, creating the CSV/JSON pair on first use; a sidecar
    that is not a JSON list raises :class:`FileFormatError`, touching neither file."""
    csv_path, json_path = _manifest_paths(path)
    try:
        sidecar = json.loads(json_path.read_text()) if json_path.exists() else []
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise FileFormatError(f"manifest sidecar {json_path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, list):
        raise FileFormatError(f"manifest sidecar {json_path} must hold a JSON list, got {type(sidecar).__name__}")
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(MANIFEST_COLUMNS)
        writer.writerow(row.csv_values())
    sidecar.append(_sidecar_entry(row))
    _write_sidecar(json_path, sidecar)
    return csv_path, json_path
