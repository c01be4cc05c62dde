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
payload length once, then reads the fixed-stride records a block of the
grid at a time: the most records that fit in 1 MiB of stored records, at
most 128, rounded down to a multiple of 8, aligned to record 0. Either
limit keeps a block's float64 frames near 1 MB: 8 records at 128x128 and
128 at 32x32 are both 131072 pixels, 56 at 64x64 are 229376. The simulator
produces its blocks on the same grid, and the weighted-sum engine
(:mod:`gikit.sgi`) sums every method in chunks of one block, so it takes
each chunk where the block already is. The reader converts each block into
one float64 block buffer that it allocates once and reuses, checking the
stored records for non-finite values and negative pixels first: one
integer scan of the float32 pixels and ``isfinite`` on the buckets, and
only for records that fail, the scans that tell which error they hold.
When the process may run on more than one CPU (``os.sched_getaffinity``),
one worker thread reads the stored records into the two halves of the
one-block record buffer in turn, half a block at a time, and scans each
half where it has just read it, while the calling thread converts the
other half and sums the block before it: the copy out of the page cache
leaves the critical path, and the float64 block is made on the thread that
sums it. The halves hold one record more than a block when the block has
an odd number of records, never more. The worker is joined when the pass
ends, is closed or fails, before its file closes; a block raises the error
a whole-block read would. On one CPU the calling thread reads each block
whole and starts no thread. :attr:`Container.buckets` reads the bucket
column alone, one 8-byte ``os.pread`` per record, a few thousand records
at a time into one float64 column, and checks it the same way, so ``ci``
can split the records on the bucket mean before it reads a frame. No
read maps the file: touched file-backed pages would count toward the
process's peak RSS.
:func:`read_dataset` and :func:`decode_dataset` copy the same checked
blocks into one (n, pixels) stack, as :func:`~gikit.simulate.simulate`
copies the simulator's blocks; :func:`open_container` hands the blocks out
one at a time as read-only views of the reused buffer, valid until the
next block is asked for. That is how the CLI reads, so no command holds
the whole frame matrix, and with one reused buffer its peak RSS does not
depend on where the allocator puts each block.

Every write goes through one block writer, :func:`write_container`, which
takes a header and the same ``(start, buckets, frames)`` blocks and stores
them through one record buffer of one block of the grid, rejecting a block
with a non-finite bucket. :func:`write_dataset` and :func:`encode_dataset`
feed it a dataset's single block; ``gikit simulate`` feeds it the blocks of
a :class:`~gikit.simulate.Simulation` as they are produced.

Every file this module writes whole goes to a temporary file in the
destination directory first and is then renamed over the destination, so a
reader never sees a partly written output. Only the manifest CSV is
appended to in place, one row at a time.
"""

from __future__ import annotations

import errno
import io
import json
import os
import threading
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import FileFormatError
from .types import (
    Dataset,
    DatasetHeader,
    ObjectScene,
    ReconImage,
    _bucket_report,
    _stacked_dataset,
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
_GRID_BYTES = 2**20  # the most bytes of stored records per block of the grid: 8 records at 128x128
_GRID_RECORDS = 128  # the most records per block of the grid: at 32x32, as many pixels as 8 at 128x128
_BLOCK_BYTES = _GRID_BYTES  # the reader's and the writer's blocks: the grid's, unless set apart
_BUCKET_GROUP = 4096  # buckets per column read: about 0.6 MB of transient 8-byte reads


def _record_dtype(pixels: int) -> np.dtype:
    return np.dtype([("bucket", "<f8"), ("frame", "<f4", (pixels,))])


def _block_rows(pixels: int, block_bytes: int | None = None) -> int:
    """Records per block of the grid that the reader, the writer and the
    sgi accumulator cut a run on, aligned to record 0: as many stored
    records as fit in ``block_bytes`` (default ``_BLOCK_BYTES``), at most
    ``_GRID_RECORDS``, rounded down to a multiple of 8 once 8 fit, and at
    least 1."""
    rows = (_BLOCK_BYTES if block_bytes is None else block_bytes) // _record_dtype(pixels).itemsize
    rows = min(rows, _GRID_RECORDS)
    return rows - rows % 8 if rows >= 8 else max(1, rows)


def _temporary_path(path) -> Path:
    """A new hidden name beside ``path``, for a file to be renamed over it."""
    path = Path(path)
    return path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")


def _check_destination(path) -> None:
    """Raise ``OSError`` naming the directory that ``path`` is written into
    unless it exists, so that a command fails before its work."""
    directory = Path(path).parent
    if not directory.is_dir():
        code = errno.ENOTDIR if directory.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(directory))


@contextmanager
def _atomic_open(path, mode: str = "wb", **kwargs):
    """Open a new file beside ``path``; on a clean exit rename it over
    ``path``, on an exception delete it and leave ``path`` untouched. A
    temporary that cannot be made raises the error with ``path`` named."""
    path = Path(path)
    tmp = _temporary_path(path)
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
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
        if not np.isfinite(buckets).all():  # the report names every bad record
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


def _check_buckets(buckets: np.ndarray) -> None:
    if not np.isfinite(buckets).all():
        raise FileFormatError("payload contains non-finite values")


def _defect(pieces) -> str | None:
    """The error of stored records, one block held in one or two pieces, or
    None: a non-finite value, else a negative pixel.

    The stored pixels take one integer scan: read as unsigned integers, a
    float32 with its sign bit clear and below +inf is below 0x7F800000, so a
    NaN, an infinity or a negative pixel fails it, and so does -0.0. Only
    pixels that fail take two exact scans: ``min() >= 0`` fails on a NaN,
    -inf or negative pixel (not on -0.0) and ``max() < inf`` on +inf. Only
    then are the buckets and pixels told apart, so a block with both a
    non-finite value and a negative pixel is reported as non-finite.
    """
    if not all(np.isfinite(piece["bucket"]).all() for piece in pieces):
        return "payload contains non-finite values"
    stored = [piece["frame"] for piece in pieces]
    if any(s.view("<u4").max() >= 0x7F800000 and not (s.min() >= 0.0 and s.max() < np.inf) for s in stored):
        finite = all(np.isfinite(s).all() for s in stored)
        return "payload contains " + ("negative frame intensities" if finite else "non-finite values")
    return None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _read_ahead(pieces, free, ready) -> None:
    """The reader's worker: each time ``free`` gives True, put the next of
    ``pieces`` on ``ready``; end when it gives False, or at the first error,
    which goes on ``ready`` for the caller to raise."""
    try:
        while free.get():
            ready.put(next(pieces))
    except Exception as exc:  # StopIteration past the last piece, which no caller takes
        ready.put(exc)


def _read_blocks(fh, offset: int, header: DatasetHeader) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(start, buckets, frames)`` for the first ``header.n`` records
    of the payload at ``offset``: read-only float64 views of shapes (rows,)
    and (rows, pixels) of one buffer that every block is converted into, so
    a block is valid until the next one is asked for.

    On one CPU this thread reads and scans each block whole in one record
    buffer. On more than one, that buffer holds one half of a block in each
    of two halves, and a worker thread reads and scans the next piece into a
    half as soon as this thread has converted the piece in it: the next
    block is read while this one is summed. The worker ends before the
    generator does. A block that fails a scan raises before it is yielded,
    with its first error: a read cut short, then a non-finite value, then a
    negative pixel."""
    n, pixels = header.n, header.width * header.height
    rows = min(n, _block_rows(pixels))
    ahead = _cpus() > 1
    half = -(-rows // 2) if ahead else rows  # a one-record block fills a half: one record more
    records = np.empty(2 * half if ahead else rows, dtype=_record_dtype(pixels))
    buckets, frames = np.empty(rows), np.empty((rows, pixels))

    def read():  # (piece, bytes read, clean) for each piece of each block in file order, into the halves in turn
        at, part, other = 0, records[:half], records[-half:]
        while at < n:
            piece = part[: min(half, n - at, rows - at % rows)]
            at, part, other = at + len(piece), other, part
            got = fh.readinto(piece)
            yield piece, got, got == piece.nbytes and not _defect([piece])  # scanned where it was read

    fh.seek(offset)
    pieces, worker = read(), None
    if ahead:
        try:  # queue.SimpleQueue itself, without loading queue and heapq: about 1 ms of every reading command
            from _queue import SimpleQueue
        except ImportError:
            from queue import SimpleQueue

        free, ready = SimpleQueue(), SimpleQueue()
        # A daemon: a pass that is never closed cannot hold up the interpreter's exit.
        worker = threading.Thread(target=_read_ahead, args=(pieces, free, ready), daemon=True)
        free.put(True)
        free.put(True)
        worker.start()

    def take():
        got = ready.get() if worker else next(pieces)
        if isinstance(got, Exception):
            raise got
        return got

    try:
        for start in range(0, n, rows):
            size, row, kept = min(rows, n - start), 0, []
            while row < size:  # convert each clean piece and hand its half back, until one is kept
                piece, got, clean = take()
                if clean and not kept:
                    np.copyto(buckets[row : row + len(piece)], piece["bucket"])
                    np.copyto(frames[row : row + len(piece)], piece["frame"])
                    if worker:
                        free.put(True)
                else:
                    kept.append((piece, got))
                row += len(piece)
            if kept:  # a short read first; else the kept pieces' defect is the block's, the others being clean
                short = any(got != piece.nbytes for piece, got in kept)
                raise FileFormatError(f"payload ended inside records {start}..{start + size - 1}" if short
                                      else _defect([piece for piece, _ in kept]))
            block_buckets, block_frames = buckets[:size], frames[:size]
            block_buckets.flags.writeable = False
            block_frames.flags.writeable = False
            yield start, block_buckets, block_frames
    finally:
        if worker:
            free.put(False)
            worker.join()


class Container(NamedTuple):
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
        """The first ``n`` buckets alone, read-only float64 (n,), which ``ci``
        needs before it reads a frame: one 8-byte read per record at the
        record stride, joined a group of records at a time into its slice of
        the column. A non-finite bucket or a file cut short since it was
        opened raises :class:`FileFormatError`."""
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
        return self._replace(header=self.header._replace(n=count))

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """One pass over the records as ``(start, buckets, frames)`` blocks:
        read-only float64 views, frames of shape (rows, pixels), of one
        buffer that the pass reuses, so each block is valid until the next
        is asked for; copy what must outlive it. A block with a non-finite
        value or a negative pixel raises :class:`FileFormatError` before it
        is yielded."""
        with open(self.path, "rb") as fh:
            yield from _read_blocks(fh, self.offset, self.header)


def open_container(path) -> Container:
    """Check a container's header and payload length; read no records yet."""
    with open(path, "rb") as fh:
        header, offset = _read_header(fh)
    return Container(Path(path), header, offset)


def decode_dataset(data: bytes) -> Dataset:
    """Parse container bytes back into a dataset, validating the format."""
    fh = io.BytesIO(data)
    header, offset = _read_header(fh)
    return _stacked_dataset(header, _read_blocks(fh, offset, header))


def read_dataset(source) -> Dataset:
    """Read a whole container file into memory as a dataset."""
    with open(source, "rb") as fh:
        header, offset = _read_header(fh)
        return _stacked_dataset(header, _read_blocks(fh, offset, header))


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


def _graymap(image: ReconImage) -> bytes:
    """The bytes of :func:`export_image`'s file."""
    samples = np.rint(normalize_minmax(image).data * 65535.0).astype(">u2")
    return f"P5\n{image.width} {image.height}\n65535\n".encode("ascii") + samples.tobytes()


def export_image(image: ReconImage, path) -> None:
    """Write a reconstruction as a 16-bit binary graymap after min-max
    normalization (a constant image comes out mid-gray)."""
    with _atomic_open(path) as fh:
        fh.write(_graymap(image))


def export_raw(image: ReconImage, path) -> None:
    """Dump the unnormalized image values as little-endian float64."""
    with _atomic_open(path) as fh:
        fh.write(image.data.astype("<f8").tobytes())


# ---------------------------------------------------------------------------
# Run manifests: one CSV row per reconstruction plus a JSON settings sidecar.

MANIFEST_COLUMNS = ("method", "n", "k", "drift_kind", "noise_mean", "cnr", "pair_count", "wall_time_ms")


class ManifestRow(namedtuple("ManifestRow", (*MANIFEST_COLUMNS, "settings"))):
    """One manifest row: every field but ``settings``, in order, is a CSV
    column, and ``settings``, a new ``{}`` unless given, goes to the JSON
    sidecar."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if len(args) < len(cls._fields) and "settings" not in kwargs:
            kwargs["settings"] = {}
        return super().__new__(cls, *args, **kwargs)

    def csv_values(self) -> list:
        return ["" if v is None else v for v in self[: len(MANIFEST_COLUMNS)]]


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
    import csv  # only the manifest writers load it
    csv_path, json_path = _manifest_paths(path)
    rows = list(rows)
    with _atomic_open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
    _write_sidecar(json_path, [_sidecar_entry(row) for row in rows])
    return csv_path, json_path


def _read_sidecar(path) -> list:
    """The JSON settings sidecar of manifest ``path``, ``[]`` if there is none
    yet; one that is not a JSON list raises :class:`FileFormatError`, and a
    missing directory ``FileNotFoundError``."""
    json_path = _manifest_paths(path)[1]
    _check_destination(json_path)
    try:
        sidecar = json.loads(json_path.read_text()) if json_path.exists() else []
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise FileFormatError(f"manifest sidecar {json_path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, list):
        raise FileFormatError(f"manifest sidecar {json_path} must hold a JSON list, got {type(sidecar).__name__}")
    return sidecar


def append_manifest_row(row: ManifestRow, path) -> tuple[Path, Path]:
    """Append one row, creating the CSV/JSON pair on first use; a sidecar
    that is not a JSON list raises :class:`FileFormatError`, touching neither file."""
    import csv
    csv_path, json_path = _manifest_paths(path)
    sidecar = _read_sidecar(path)
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(MANIFEST_COLUMNS)
        writer.writerow(row.csv_values())
    sidecar.append(_sidecar_entry(row))
    _write_sidecar(json_path, sidecar)
    return csv_path, json_path
