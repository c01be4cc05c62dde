"""Block-streamed container reading: the CLI reads containers a few records
at a time, and must give the same results as reading them whole."""

import struct

import numpy as np
import pytest

from conftest import assert_images_close

import gikit.fileio
from gikit import (
    FileFormatError,
    ReconImage,
    SgiAccumulator,
    binary_demo_scene,
    decode_dataset,
    export_image,
    export_raw,
    open_container,
    read_dataset,
)
from gikit.cli import main
from gikit.reconstruct import reconstruct

BLOCK_ROWS = 5
SIDE = 12
RECORD_BYTES = 8 + 4 * SIDE * SIDE


@pytest.fixture
def scene_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(SIDE, SIDE).transmission), path)
    return path


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * RECORD_BYTES)


def _simulate(tmp_path, scene_pgm, n, name="run.gid"):
    out = tmp_path / name
    assert main(["simulate", "--scene", str(scene_pgm), "--n", str(n), "--seed", "11",
                 "--drift", "linear:0.3", "--noise-mean", "0.012", "--noise-std", "0.05",
                 "--out", str(out)]) == 0
    return out


def _raw_images(prefix, count):
    names = [f"{prefix}.f64"] if count == 1 else [f"{prefix}_pos.f64", f"{prefix}_neg.f64"]
    return [np.fromfile(name, dtype="<f8") for name in names]


CASES = [
    ("g2", 1, False), ("dgi-delta", 1, False), ("dgi", 1, False), ("ci", 1, False),
    ("sgi1", 1, False), ("sgi2", 1, False), ("sgi3", 1, False),
    ("sgi1", 2, False), ("sgi2", 2, False), ("sgi3", 2, False),
    ("sgi1", 1, True), ("sgi2", 1, True), ("sgi3", 1, True),
]


@pytest.mark.parametrize("n", [17, 64])
def test_blocks_cover_every_record_once(tmp_path, scene_pgm, small_blocks, n):
    gid = _simulate(tmp_path, scene_pgm, n)
    whole = read_dataset(gid)
    container = open_container(gid)
    starts, buckets, frames = [], [], []
    for start, b, f in container.blocks():  # views of one buffer, valid until the next block
        assert not f.flags.writeable and not b.flags.writeable
        starts.append(start)
        buckets.append(b.copy())
        frames.append(f.copy())
    assert starts == list(range(0, n, BLOCK_ROWS))
    np.testing.assert_array_equal(np.concatenate(buckets), whole.buckets)
    np.testing.assert_array_equal(np.concatenate(frames), whole.frame_matrix)


@pytest.mark.parametrize("n", [17, 64])
def test_bucket_column_equals_the_whole_read(tmp_path, scene_pgm, small_blocks, n):
    gid = _simulate(tmp_path, scene_pgm, n)
    container = open_container(gid)
    for source, expected in ((container, read_dataset(gid)), (container.first(12), read_dataset(gid).first(12))):
        buckets = source.buckets
        assert buckets.dtype == np.float64 and not buckets.flags.writeable
        assert buckets.tobytes() == expected.buckets.tobytes()


class _InMemoryBlocks:
    """A dataset's arrays served as a container at ``small_blocks`` serves
    its file: the bucket column whole, the frames in BLOCK_ROWS-record blocks."""

    def __init__(self, dataset):
        self.header, self.n, self.buckets = dataset.header, dataset.n, dataset.buckets
        self._frames = dataset.frame_matrix

    def blocks(self):
        for start in range(0, self.n, BLOCK_ROWS):
            yield start, self.buckets[start : start + BLOCK_ROWS], self._frames[start : start + BLOCK_ROWS]


@pytest.mark.parametrize("n", [17, 64])
@pytest.mark.parametrize("method", ["g2", "dgi-delta", "dgi", "ci"])
def test_classic_container_images_byte_equal_in_memory(tmp_path, scene_pgm, small_blocks, n, method):
    # A whole Dataset is one block, a different summation order (about 1e-15
    # apart); cut at the same blocks, the arrays in memory give the same bits.
    gid = _simulate(tmp_path, scene_pgm, n)
    got = reconstruct(open_container(gid), method)
    expected = reconstruct(_InMemoryBlocks(read_dataset(gid)), method)
    assert [image.data.tobytes() for image in got.images] == [image.data.tobytes() for image in expected.images]
    assert got.count == expected.count


@pytest.mark.parametrize("n", [17, 64])
@pytest.mark.parametrize("method, shift, close_loop", CASES)
def test_cli_blocks_match_whole_dataset(tmp_path, scene_pgm, small_blocks, n, method, shift, close_loop):
    gid = _simulate(tmp_path, scene_pgm, n)
    out = tmp_path / "rec"
    argv = ["reconstruct", "--in", str(gid), "--method", method, "--shift", str(shift),
            "--raw", "--out", str(out)]
    assert main(argv + (["--close-loop"] if close_loop else [])) == 0
    expected = reconstruct(read_dataset(gid), method, shift=shift, close_loop=close_loop)
    for got, image in zip(_raw_images(out, len(expected.images)), expected.images, strict=True):
        assert_images_close(got, image.data.ravel(), 1e-12)


@pytest.mark.parametrize("n", [17, 64])
def test_cli_limit_inside_a_block(tmp_path, scene_pgm, small_blocks, n):
    gid = _simulate(tmp_path, scene_pgm, n)
    limit = 2 * BLOCK_ROWS + 2
    out = tmp_path / "rec"
    for method in ("dgi", "sgi1"):
        assert main(["reconstruct", "--in", str(gid), "--method", method, "--limit", str(limit),
                     "--raw", "--manifest", str(tmp_path / "log"), "--out", str(out)]) == 0
        expected = reconstruct(read_dataset(gid).first(limit), method)
        assert_images_close(_raw_images(out, 1)[0], expected.image.data.ravel(), 1e-12)
    rows = [line.split(",") for line in (tmp_path / "log.csv").read_text().splitlines()[1:]]
    assert [(r[1], r[6]) for r in rows] == [(str(limit), str(limit)), (str(limit), str(limit - 1))]


@pytest.mark.parametrize("n", [17, 64])
def test_diagnose_csv_independent_of_block_size(tmp_path, scene_pgm, monkeypatch, n):
    gid = _simulate(tmp_path, scene_pgm, n)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert main(["diagnose", "--in", str(gid), "--shift", "3", "--out", str(whole)]) == 0
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * RECORD_BYTES)
    assert main(["diagnose", "--in", str(gid), "--shift", "3", "--out", str(blocked)]) == 0
    assert blocked.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("n", [17, 64])
def test_progressive_bytes_independent_of_block_size(tmp_path, scene_pgm, monkeypatch, n):
    gid = _simulate(tmp_path, scene_pgm, n)
    argv = ["reconstruct", "--in", str(gid), "--method", "sgi3", "--shift", "2",
            "--progressive", "4", "--raw", "--out"]
    assert main(argv + [str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * RECORD_BYTES)
    assert main(argv + [str(tmp_path / "blocked")]) == 0

    # The reference: the accumulator fed from the whole dataset in memory.
    acc = SgiAccumulator(mode=3, shift=2)
    for record in read_dataset(gid).records:
        acc.push(record)
    for image, suffix in zip(acc.snapshot().images, ("_pos", "_neg")):
        export_raw(image, tmp_path / f"memory{suffix}.f64")

    for suffix in ("_pos.f64", "_neg.f64", "_pos.pgm", "_neg.pgm"):
        blocked = (tmp_path / f"blocked{suffix}").read_bytes()
        assert blocked == (tmp_path / f"whole{suffix}").read_bytes()
        if suffix.endswith(".f64"):
            assert blocked == (tmp_path / f"memory{suffix}").read_bytes()
    for seen in range(4, n + 1, 4):
        for suffix in ("_pos.pgm", "_neg.pgm"):
            name = f"_snap{seen:06d}{suffix}"
            assert (tmp_path / f"blocked{name}").read_bytes() == (tmp_path / f"whole{name}").read_bytes()


def test_progressive_reads_the_container_once(tmp_path, scene_pgm, small_blocks, monkeypatch):
    gid = _simulate(tmp_path, scene_pgm, 17)
    passes = []
    blocks = gikit.fileio.Container.blocks

    def counted_blocks(container):
        passes.append(container.path)
        return blocks(container)

    monkeypatch.setattr(gikit.fileio.Container, "blocks", counted_blocks)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["reconstruct", "--in", str(gid), "--method", "sgi2", "--progressive", "4", "--raw",
                 "--out", str(tmp_path / "live")]) == 0
    assert passes == [gid]
    # Every staged snapshot was renamed into place: no temporary file is left.
    snapshots = [f"live_snap{seen:06d}_{part}.pgm" for seen in range(4, 17, 4) for part in ("pos", "neg")]
    finals = ["live_pos.pgm", "live_pos.f64", "live_neg.pgm", "live_neg.f64"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + finals + snapshots)


def _corrupt(blob: bytes, kind: str) -> bytes:
    out = bytearray(blob)
    if kind == "nan-pixel":
        out[-4:] = struct.pack("<f", float("nan"))
    elif kind == "negative-pixel":
        out[-4:] = struct.pack("<f", -1.0)
    elif kind == "nan-bucket":
        out[-RECORD_BYTES : -RECORD_BYTES + 8] = struct.pack("<d", float("nan"))
    else:  # truncated
        del out[-4:]
    return bytes(out)


HOSTILE_RUNS = {
    "batch": ["reconstruct", "--method", "sgi2", "--raw", "--manifest", "{dir}/log",
              "--scene", "{dir}/scene.pgm", "--out", "{dir}/rec"],
    "progressive": ["reconstruct", "--method", "sgi1", "--progressive", "2", "--raw",
                    "--manifest", "{dir}/log", "--out", "{dir}/live"],
    "diagnose": ["diagnose", "--out", "{dir}/sr.csv"],
}


@pytest.mark.parametrize("kind", ["nan-pixel", "negative-pixel", "nan-bucket", "truncated"])
@pytest.mark.parametrize("command", sorted(HOSTILE_RUNS))
def test_hostile_last_record_writes_nothing(tmp_path, scene_pgm, small_blocks, capsys, kind, command):
    gid = _simulate(tmp_path, scene_pgm, 17)
    hostile = tmp_path / "hostile.gid"
    hostile.write_bytes(_corrupt(gid.read_bytes(), kind))
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [arg.format(dir=tmp_path) for arg in HOSTILE_RUNS[command]]
    assert main(argv[:1] + ["--in", str(hostile)] + argv[1:]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


NON_FINITE = "payload contains non-finite values"
NEGATIVE = "payload contains negative frame intensities"


def _poke(blob: bytes, n: int, edits) -> bytes:
    """``blob`` with each ``(record, pixel, value)`` stored; pixel None is the bucket."""
    out = bytearray(blob)
    payload = len(blob) - n * RECORD_BYTES
    for record, pixel, value in edits:
        at = payload + record * RECORD_BYTES
        if pixel is None:
            out[at : at + 8] = struct.pack("<d", value)
        else:
            out[at + 8 + 4 * pixel : at + 12 + 4 * pixel] = struct.pack("<f", value)
    return bytes(out)


DEFECTS = {
    "nan-pixel": ([(7, 3, np.nan)], NON_FINITE),
    "inf-pixel": ([(7, 3, np.inf)], NON_FINITE),
    "minus-inf-pixel": ([(7, 3, -np.inf)], NON_FINITE),
    "negative-pixel": ([(7, 3, -0.5)], NEGATIVE),
    "nan-bucket": ([(7, None, np.nan)], NON_FINITE),
    "inf-bucket": ([(7, None, np.inf)], NON_FINITE),
    "minus-inf-bucket": ([(7, None, -np.inf)], NON_FINITE),
    # One block (records 5..9) with both: the non-finite value is reported.
    "negative-then-nan-pixel": ([(6, 0, -1.0), (8, 3, np.nan)], NON_FINITE),
    "nan-then-negative-pixel": ([(6, 0, np.nan), (8, 3, -1.0)], NON_FINITE),
    "inf-and-negative-pixel": ([(5, 2, np.inf), (5, 7, -2.0)], NON_FINITE),
}


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("method", ["g2", "dgi", "ci"])
def test_infinite_last_pixel_writes_nothing_for_classic_batch(tmp_path, scene_pgm, small_blocks, capsys,
                                                              method, value):
    gid = _simulate(tmp_path, scene_pgm, 17)
    hostile = tmp_path / "hostile.gid"
    hostile.write_bytes(_poke(gid.read_bytes(), 17, [(16, SIDE * SIDE - 1, value)]))
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["reconstruct", "--in", str(hostile), "--method", method, "--raw", "--manifest",
                 str(tmp_path / "log"), "--out", str(tmp_path / "rec")]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_every_reader_names_the_defect_alike(tmp_path, scene_pgm, small_blocks, defect):
    edits, message = DEFECTS[defect]
    gid = _simulate(tmp_path, scene_pgm, 17)
    clean = open_container(gid).buckets
    blob = _poke(gid.read_bytes(), 17, edits)
    gid.write_bytes(blob)
    container = open_container(gid)
    readers = [lambda: read_dataset(gid), lambda: decode_dataset(blob), lambda: list(container.blocks())]
    if any(pixel is None for _, pixel, _ in edits):
        readers.append(lambda: container.buckets)
    else:  # the bucket column does not read the pixels
        assert container.buckets.tobytes() == clean.tobytes()
    for read in readers:
        with pytest.raises(FileFormatError) as failure:
            read()
        assert str(failure.value) == message


def test_bucket_column_of_a_file_cut_short_after_opening(tmp_path, scene_pgm, small_blocks):
    gid = _simulate(tmp_path, scene_pgm, 17)
    container = open_container(gid)
    blob = gid.read_bytes()
    for cut, record in ((RECORD_BYTES + 4, 16), (RECORD_BYTES * 3 - 4, 14)):
        gid.write_bytes(blob[:-cut])
        with pytest.raises(FileFormatError, match=f"payload ended inside record {record}$"):
            container.buckets
        with pytest.raises(FileFormatError, match="payload ended inside records"):
            list(container.blocks())


def test_bucket_column_read_in_groups(tmp_path, scene_pgm, monkeypatch):
    # Groups of 5 records: records 14 and 16 fall in the third and fourth.
    monkeypatch.setattr(gikit.fileio, "_BUCKET_GROUP", 5)
    gid = _simulate(tmp_path, scene_pgm, 17)
    container = open_container(gid)
    assert container.buckets.tobytes() == read_dataset(gid).buckets.tobytes()
    blob = gid.read_bytes()
    for cut, record in ((RECORD_BYTES + 4, 16), (RECORD_BYTES * 3 - 4, 14)):
        gid.write_bytes(blob[:-cut])
        with pytest.raises(FileFormatError, match=f"payload ended inside record {record}$"):
            container.buckets
