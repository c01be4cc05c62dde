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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .simulate import ObjectScene
from .types import Dataset, ReconImage, validate_dataset
from .metrics import normalize_minmax

__all__ = [
    "MAGIC",
    "CONTAINER_VERSION",
    "encode_dataset",
    "decode_dataset",
    "write_dataset",
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


def _record_dtype(pixels: int) -> np.dtype:
    return np.dtype([("bucket", "<f8"), ("frame", "<f4", (pixels,))])


def encode_dataset(dataset: Dataset) -> bytes:
    """Serialize a dataset to container bytes (deterministic)."""
    validate_dataset(dataset).raise_if_failed()
    header = dataset.header
    pixels = header.width * header.height
    doc = {
        "version": CONTAINER_VERSION,
        "width": header.width,
        "height": header.height,
        "n": header.n,
        "seed": header.seed,
        "provenance": header.provenance,
    }
    header_bytes = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = np.empty(header.n, dtype=_record_dtype(pixels))
    records["bucket"] = dataset.buckets
    records["frame"] = dataset.frame_matrix.astype("<f4")
    return (
        MAGIC
        + np.uint32(len(header_bytes)).tobytes()
        + header_bytes
        + records.tobytes()
    )


def _header_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    # Exact type: bool is a subclass of int, and a float such as 2.7 must not truncate.
    if type(value) is not int:
        raise FileFormatError(f"header {key!r} must be an integer, got {value!r}")
    return value


def decode_dataset(data: bytes) -> Dataset:
    """Parse container bytes back into a dataset, validating the format."""
    if len(data) < 8 or data[:4] != MAGIC:
        raise FileFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    header_len = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if 8 + header_len > len(data):
        raise FileFormatError("header length exceeds file size")
    try:
        doc = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

    pixels = width * height
    payload = data[8 + header_len :]
    expected = n * (_BUCKET_BYTES + _PIXEL_BYTES * pixels)
    if len(payload) != expected:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for n={n} frames of {width}x{height}"
        )
    records = np.frombuffer(payload, dtype=_record_dtype(pixels))
    buckets = records["bucket"].astype(np.float64)
    frames = records["frame"].astype(np.float64).reshape(n, height, width)
    if not np.isfinite(buckets).all() or not np.isfinite(frames).all():
        raise FileFormatError("payload contains non-finite values")
    if (frames < 0.0).any():
        raise FileFormatError("payload contains negative frame intensities")
    frames.flags.writeable = False
    buckets.flags.writeable = False
    return Dataset.from_arrays(
        frames,
        buckets,
        seed=seed,
        provenance=str(provenance),
        validate=False,
    )


def write_dataset(dataset: Dataset, destination) -> None:
    Path(destination).write_bytes(encode_dataset(dataset))


def read_dataset(source) -> Dataset:
    return decode_dataset(Path(source).read_bytes())


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
    Path(path).write_bytes(header + samples.tobytes())


def export_raw(image: ReconImage, path) -> None:
    """Dump the unnormalized image values as little-endian float64."""
    Path(path).write_bytes(image.data.astype("<f8").tobytes())


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


def write_manifest(rows, path) -> tuple[Path, Path]:
    """Write manifest rows to ``<path>.csv`` with a JSON settings sidecar.

    Column order is fixed; an empty row list produces a header-only CSV.
    """
    csv_path, json_path = _manifest_paths(path)
    rows = list(rows)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
    sidecar = [
        {"row": dict(zip(MANIFEST_COLUMNS, row.csv_values())), "settings": row.settings}
        for row in rows
    ]
    json_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


def append_manifest_row(row: ManifestRow, path) -> tuple[Path, Path]:
    """Append one row, creating the CSV/JSON pair on first use."""
    csv_path, json_path = _manifest_paths(path)
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(MANIFEST_COLUMNS)
        writer.writerow(row.csv_values())
    sidecar = json.loads(json_path.read_text()) if json_path.exists() else []
    sidecar.append({"row": dict(zip(MANIFEST_COLUMNS, row.csv_values())), "settings": row.settings})
    json_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path
