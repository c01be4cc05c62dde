import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset

from gikit import (
    Dataset,
    DatasetValidationError,
    FileFormatError,
    ManifestRow,
    ObjectScene,
    ReconImage,
    append_manifest_row,
    decode_dataset,
    encode_dataset,
    export_image,
    export_raw,
    import_scene,
    read_dataset,
    write_dataset,
    write_manifest,
)
from gikit.fileio import MANIFEST_COLUMNS, MAGIC


def test_round_trip_buckets_exact_frames_float32(rng, tmp_path):
    ds = random_dataset(rng, 7, 5, 3)
    path = tmp_path / "run.gid"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.header.width == 3 and back.header.height == 5 and back.n == 7
    np.testing.assert_array_equal(back.buckets, ds.buckets)  # bit-exact
    expected = ds.frame_matrix.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(back.frame_matrix, expected)


def test_round_trip_header_metadata(rng, tmp_path):
    ds = Dataset.from_arrays(rng.random((2, 2, 2)), [1.0, 2.0], seed=77, provenance="p")
    path = tmp_path / "meta.gid"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.header.seed == 77 and back.header.provenance == "p"


def test_container_payload_length_invariant(rng):
    for _ in range(20):
        n = int(rng.integers(1, 8))
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        ds = random_dataset(rng, n, h, w)
        blob = encode_dataset(ds)
        header_len = struct.unpack("<I", blob[4:8])[0]
        payload = blob[8 + header_len :]
        assert len(payload) == n * (8 + 4 * w * h)


def test_bad_magic(rng):
    blob = encode_dataset(random_dataset(rng, 2))
    with pytest.raises(FileFormatError, match="magic"):
        decode_dataset(b"GIDX" + blob[4:])


def test_version_mismatch(rng):
    blob = encode_dataset(random_dataset(rng, 2))
    header_len = struct.unpack("<I", blob[4:8])[0]
    doc = json.loads(blob[8 : 8 + header_len])
    doc["version"] = 2
    new_header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    patched = MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[8 + header_len :]
    with pytest.raises(FileFormatError, match="version"):
        decode_dataset(patched)


def _with_header(blob: bytes, header: bytes) -> bytes:
    header_len = struct.unpack("<I", blob[4:8])[0]
    return MAGIC + struct.pack("<I", len(header)) + header + blob[8 + header_len :]


def _header_doc(blob: bytes) -> dict:
    header_len = struct.unpack("<I", blob[4:8])[0]
    return json.loads(blob[8 : 8 + header_len])


@pytest.mark.parametrize("header", [b"[]", b"3", b'"GID1"', b"null"])
def test_header_json_must_be_an_object(rng, header):
    blob = encode_dataset(random_dataset(rng, 2, 2, 2))
    with pytest.raises(FileFormatError, match="object"):
        decode_dataset(_with_header(blob, header))


@pytest.mark.parametrize(
    "key, value",
    [("width", 2.7), ("width", 2.0), ("height", True), ("n", "2"), ("n", None), ("width", [2])],
)
def test_header_dimensions_must_be_json_integers(rng, key, value):
    blob = encode_dataset(random_dataset(rng, 2, 2, 2))
    doc = _header_doc(blob)
    doc[key] = value
    with pytest.raises(FileFormatError, match=key):
        decode_dataset(_with_header(blob, json.dumps(doc).encode()))


def test_header_missing_dimension_rejected(rng):
    blob = encode_dataset(random_dataset(rng, 2, 2, 2))
    doc = _header_doc(blob)
    del doc["height"]
    with pytest.raises(FileFormatError, match="height"):
        decode_dataset(_with_header(blob, json.dumps(doc).encode()))


@pytest.mark.parametrize("seed", ["abc", "7", 1.5, True, [1]])
def test_header_seed_must_be_integer_or_null(rng, seed):
    blob = encode_dataset(random_dataset(rng, 2, 2, 2))
    doc = _header_doc(blob)
    doc["seed"] = seed
    with pytest.raises(FileFormatError, match="seed"):
        decode_dataset(_with_header(blob, json.dumps(doc).encode()))
    doc["seed"] = None
    assert decode_dataset(_with_header(blob, json.dumps(doc).encode())).header.seed is None


def test_truncation_names_expected_and_actual(rng):
    ds = random_dataset(rng, 3, 4, 4)
    blob = encode_dataset(ds)
    with pytest.raises(FileFormatError) as err:
        decode_dataset(blob[:-4])
    expected = 3 * (8 + 4 * 16)
    assert str(expected) in str(err.value)
    assert str(expected - 4) in str(err.value)


def test_nan_payload_rejected(rng):
    ds = random_dataset(rng, 2, 2, 2)
    blob = bytearray(encode_dataset(ds))
    header_len = struct.unpack("<I", blob[4:8])[0]
    blob[8 + header_len : 8 + header_len + 8] = struct.pack("<d", float("nan"))
    with pytest.raises(FileFormatError, match="non-finite"):
        decode_dataset(bytes(blob))


def test_import_scene_p5_8bit(tmp_path):
    raster = bytes([0, 255, 255, 0])
    path = tmp_path / "scene.pgm"
    path.write_bytes(b"P5\n# binary test\n2 2\n255\n" + raster)
    scene = import_scene(path)
    np.testing.assert_array_equal(scene.transmission, [[0.0, 1.0], [1.0, 0.0]])
    assert scene.binary


def test_import_scene_p2_and_comments(tmp_path):
    path = tmp_path / "scene.pgm"
    path.write_text("P2\n# ascii graymap\n3 1\n4\n0 2 4\n")
    scene = import_scene(path)
    np.testing.assert_allclose(scene.transmission, [[0.0, 0.5, 1.0]])


def test_import_scene_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(FileFormatError, match="P5/P2"):
        import_scene(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FileFormatError, match="raster"):
        import_scene(trunc)
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(FileFormatError, match="zero"):
        import_scene(zero)


def test_export_image_16bit_and_constant_convention(tmp_path):
    path = tmp_path / "img.pgm"
    export_image(ReconImage([[-1.0, 0.0], [1.0, -1.0]]), path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n65535\n")
    samples = np.frombuffer(blob[len(b"P5\n2 2\n65535\n") :], dtype=">u2")
    np.testing.assert_array_equal(samples, [0, 32768, 65535, 0])

    export_image(ReconImage(np.full((2, 2), 7.0)), path)
    samples = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    np.testing.assert_array_equal(samples, 32768)


def test_scene_export_import_binary_endpoints(tmp_path):
    scene = ObjectScene([[1.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "binary.pgm"
    export_image(ReconImage(scene.transmission), path)
    samples = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert set(samples.tolist()) == {0, 65535}
    back = import_scene(path)
    np.testing.assert_array_equal(back.transmission, scene.transmission)


def test_export_raw_round_trip(tmp_path):
    image = ReconImage([[1.5, -2.25], [0.0, 3.125]])
    path = tmp_path / "img.f64"
    export_raw(image, path)
    back = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(2, 2)
    np.testing.assert_array_equal(back, image.data)


def _row(method="sgi1", n=64, k=1):
    return ManifestRow(
        method=method,
        n=n,
        k=k,
        drift_kind="none",
        noise_mean=0.0,
        cnr=1.25,
        pair_count=n - 1,
        wall_time_ms=4.2,
        settings={"seed": 7, "method": method},
    )


def test_manifest_single_row(tmp_path):
    csv_path, json_path = write_manifest([_row()], tmp_path / "run")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(MANIFEST_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 8
    sidecar = json.loads(json_path.read_text())
    assert sidecar[0]["settings"]["seed"] == 7


def test_manifest_cardinality_and_empty(tmp_path):
    rows = [_row(method=m, n=n) for m in ("dgi", "sgi1") for n in range(5)]
    csv_path, _ = write_manifest(rows, tmp_path / "sweep.csv")
    assert len(csv_path.read_text().strip().splitlines()) == 11  # header + 10

    empty_csv, empty_json = write_manifest([], tmp_path / "empty")
    assert empty_csv.read_text().strip() == ",".join(MANIFEST_COLUMNS)
    assert json.loads(empty_json.read_text()) == []


def test_manifest_append(tmp_path):
    base = tmp_path / "log"
    append_manifest_row(_row(), base)
    append_manifest_row(_row(method="dgi", k=None), base)
    lines = (tmp_path / "log.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[2] == ""  # k column empty for non-sgi methods
    sidecar = json.loads((tmp_path / "log.json").read_text())
    assert [e["row"]["method"] for e in sidecar] == ["sgi1", "dgi"]


def test_write_dataset_bytes_equal_encode(rng, tmp_path):
    ds = random_dataset(rng, 5, 3, 4)
    path = tmp_path / "run.gid"
    write_dataset(ds, path)
    assert path.read_bytes() == encode_dataset(ds)
    assert [p.name for p in tmp_path.iterdir()] == ["run.gid"]


def test_failed_write_leaves_the_old_file_and_no_temporary(rng, tmp_path):
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, 3), path)
    old = path.read_bytes()
    bad = Dataset.from_arrays(rng.random((2, 8, 8)), [1.0, float("nan")])
    with pytest.raises(DatasetValidationError):
        write_dataset(bad, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["run.gid"]


def test_manifest_sidecar_rewrite_leaves_no_temporary(tmp_path):
    for method in ("sgi1", "dgi", "ci"):
        append_manifest_row(_row(method=method), tmp_path / "log")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "log.json"]
    assert len(json.loads((tmp_path / "log.json").read_text())) == 3


def _decodes_or_format_error(blob: bytes) -> None:
    try:
        dataset = decode_dataset(blob)
    except FileFormatError:
        return
    assert isinstance(dataset, Dataset)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_decode_arbitrary_bytes_is_dataset_or_format_error(blob):
    _decodes_or_format_error(blob)
    _decodes_or_format_error(MAGIC + blob)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_damaged_container_is_dataset_or_format_error(data):
    blob = bytearray(encode_dataset(random_dataset(np.random.default_rng(5), 3, 2, 2)))
    for _ in range(data.draw(st.integers(0, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    _decodes_or_format_error(bytes(blob[:cut]) + data.draw(st.binary(max_size=16)))
