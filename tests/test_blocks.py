"""Block-streamed container reading: the CLI reads containers a few records
at a time, and must give the same results as reading them whole."""

import io
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_images_close

import gikit.fileio
from gikit import (
    DegenerateDivisorError,
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
from gikit.reconstruct import METHODS, reconstruct

BLOCK_ROWS = 5
SIDE = 12
RECORD_BYTES = 8 + 4 * SIDE * SIDE
# Runs of 17 and 64 records in blocks of 5, the last block cut short, and
# of 17 records in blocks of one record, which a byte budget below one
# record gives.
SIZES = pytest.mark.parametrize("n, rows", [(17, BLOCK_ROWS), (64, BLOCK_ROWS), (17, 1)],
                                ids=["17", "64", "17-one-record"])


@pytest.fixture
def scene_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(SIDE, SIDE).transmission), path)
    return path


def _use_blocks(monkeypatch, rows=BLOCK_ROWS):
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", rows * RECORD_BYTES if rows > 1 else RECORD_BYTES - 1)
    assert gikit.fileio._block_rows(SIDE * SIDE) == rows


@pytest.fixture
def small_blocks(monkeypatch):
    _use_blocks(monkeypatch)


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


@SIZES
def test_blocks_cover_every_record_once(tmp_path, scene_pgm, monkeypatch, n, rows):
    _use_blocks(monkeypatch, rows)
    gid = _simulate(tmp_path, scene_pgm, n)
    whole = read_dataset(gid)
    container = open_container(gid)
    starts, buckets, frames = [], [], []
    for start, b, f in container.blocks():  # views of one buffer, valid until the next block
        assert not f.flags.writeable and not b.flags.writeable
        starts.append(start)
        buckets.append(b.copy())
        frames.append(f.copy())
    assert starts == list(range(0, n, rows))
    np.testing.assert_array_equal(np.concatenate(buckets), whole.buckets)
    np.testing.assert_array_equal(np.concatenate(frames), whole.frame_matrix)


@SIZES
def test_bucket_column_equals_the_whole_read(tmp_path, scene_pgm, monkeypatch, n, rows):
    _use_blocks(monkeypatch, rows)
    gid = _simulate(tmp_path, scene_pgm, n)
    container = open_container(gid)
    for source, expected in ((container, read_dataset(gid)), (container.first(12), read_dataset(gid).first(12))):
        buckets = source.buckets
        assert buckets.dtype == np.float64 and not buckets.flags.writeable
        assert buckets.tobytes() == expected.buckets.tobytes()


class _InMemoryBlocks:
    """A dataset's arrays served as a container in blocks of ``rows``
    records serves its file: the bucket column whole, the frames in blocks."""

    def __init__(self, dataset, rows):
        self.header, self.n, self.buckets = dataset.header, dataset.n, dataset.buckets
        self._frames, self._rows = dataset.frame_matrix, rows

    def blocks(self):
        for start in range(0, self.n, self._rows):
            yield start, self.buckets[start : start + self._rows], self._frames[start : start + self._rows]


@SIZES
@pytest.mark.parametrize("method", ["g2", "dgi-delta", "dgi", "ci"])
def test_classic_container_images_byte_equal_in_memory(tmp_path, scene_pgm, monkeypatch, n, rows, method):
    # The arrays in memory, cut at the container's blocks, give the same bits
    # as the container; so does a whole Dataset in one block
    # (test_every_read_route_gives_the_same_bits).
    _use_blocks(monkeypatch, rows)
    gid = _simulate(tmp_path, scene_pgm, n)
    got = reconstruct(open_container(gid), method)
    expected = reconstruct(_InMemoryBlocks(read_dataset(gid), rows), method)
    assert [image.data.tobytes() for image in got.images] == [image.data.tobytes() for image in expected.images]
    assert got.count == expected.count


@pytest.mark.parametrize("method", METHODS)
def test_every_read_route_gives_the_same_bits(tmp_path, scene_pgm, small_blocks, method):
    # A whole Dataset is one block; the container comes in blocks of 5
    # records, across the chunks of 128 that every method sums: 300 records
    # make two whole chunks and a cut one.
    gid = _simulate(tmp_path, scene_pgm, 300)
    whole = reconstruct(read_dataset(gid), method)
    blocks = reconstruct(open_container(gid), method)
    assert [image.data.tobytes() for image in blocks.images] == [image.data.tobytes() for image in whole.images]
    assert blocks.count == whole.count


@SIZES
@pytest.mark.parametrize("method, shift, close_loop", CASES)
def test_cli_blocks_match_whole_dataset(tmp_path, scene_pgm, monkeypatch, n, rows, method, shift, close_loop):
    _use_blocks(monkeypatch, rows)
    gid = _simulate(tmp_path, scene_pgm, n)
    out = tmp_path / "rec"
    argv = ["reconstruct", "--in", str(gid), "--method", method, "--shift", str(shift),
            "--raw", "--out", str(out)]
    assert main(argv + (["--close-loop"] if close_loop else [])) == 0
    expected = reconstruct(read_dataset(gid), method, shift=shift, close_loop=close_loop)
    for got, image in zip(_raw_images(out, len(expected.images)), expected.images, strict=True):
        assert_images_close(got, image.data.ravel(), 1e-12)


@SIZES
def test_cli_limit_inside_a_block(tmp_path, scene_pgm, monkeypatch, n, rows):
    _use_blocks(monkeypatch, rows)
    gid = _simulate(tmp_path, scene_pgm, n)
    limit = 2 * rows + 2
    out = tmp_path / "rec"
    for method in ("dgi", "sgi1"):
        assert main(["reconstruct", "--in", str(gid), "--method", method, "--limit", str(limit),
                     "--raw", "--manifest", str(tmp_path / "log"), "--out", str(out)]) == 0
        expected = reconstruct(read_dataset(gid).first(limit), method)
        assert_images_close(_raw_images(out, 1)[0], expected.image.data.ravel(), 1e-12)
    rows = [line.split(",") for line in (tmp_path / "log.csv").read_text().splitlines()[1:]]
    assert [(r[1], r[6]) for r in rows] == [(str(limit), str(limit)), (str(limit), str(limit - 1))]


@SIZES
def test_diagnose_csv_independent_of_block_size(tmp_path, scene_pgm, monkeypatch, n, rows):
    gid = _simulate(tmp_path, scene_pgm, n)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert main(["diagnose", "--in", str(gid), "--shift", "3", "--out", str(whole)]) == 0
    _use_blocks(monkeypatch, rows)
    assert main(["diagnose", "--in", str(gid), "--shift", "3", "--out", str(blocked)]) == 0
    assert blocked.read_bytes() == whole.read_bytes()


@SIZES
def test_progressive_bytes_independent_of_block_size(tmp_path, scene_pgm, monkeypatch, n, rows):
    gid = _simulate(tmp_path, scene_pgm, n)
    argv = ["reconstruct", "--in", str(gid), "--method", "sgi3", "--shift", "2",
            "--progressive", "4", "--raw", "--out"]
    assert main(argv + [str(tmp_path / "whole")]) == 0
    _use_blocks(monkeypatch, rows)
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
    threads = threading.enumerate()
    assert main(argv[:1] + ["--in", str(hostile)] + argv[1:]) == 1
    assert threading.enumerate() == threads  # the pass started no thread
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", sorted(HOSTILE_RUNS))
def test_no_thread_outlives_a_pass(tmp_path, scene_pgm, small_blocks, command):
    gid = _simulate(tmp_path, scene_pgm, 17)
    argv = [arg.format(dir=tmp_path) for arg in HOSTILE_RUNS[command]]
    threads = threading.enumerate()
    assert main(argv[:1] + ["--in", str(gid)] + argv[1:]) == 0
    assert threading.enumerate() == threads


def test_no_thread_outlives_a_consumer_that_raises(tmp_path, scene_pgm, small_blocks, monkeypatch, capsys):
    gid = _simulate(tmp_path, scene_pgm, 17)
    threads = threading.enumerate()

    def consume():
        for start, _, _ in open_container(gid).blocks():
            if start:
                raise RuntimeError("the consumer failed")

    with pytest.raises(RuntimeError, match="the consumer failed"):
        consume()
    assert threading.enumerate() == threads

    # The engine fails at the second block, as an overflowing sum would.
    import gikit.sgi

    push = gikit.sgi._WeightedSum._push

    def failing_push(engine, start, *args):
        if start:
            raise DegenerateDivisorError("the engine failed")
        return push(engine, start, *args)

    monkeypatch.setattr(gikit.sgi._WeightedSum, "_push", failing_push)
    assert main(["reconstruct", "--in", str(gid), "--method", "dgi", "--out", str(tmp_path / "rec")]) == 1
    assert "the engine failed" in capsys.readouterr().err
    assert threading.enumerate() == threads


def test_a_pass_closed_early_ends_its_worker_before_its_file(tmp_path, scene_pgm, small_blocks, monkeypatch):
    # A pass starts no thread, and closing it early closes its file.
    container = open_container(_simulate(tmp_path, scene_pgm, 17))
    threads, at_close = threading.enumerate(), []

    class WatchedFile(io.BufferedReader):
        def close(self):
            at_close.append(threading.enumerate())
            super().close()

    monkeypatch.setattr(gikit.fileio, "open", lambda path, mode: WatchedFile(io.FileIO(path, mode)), raising=False)
    blocks = container.blocks()
    next(blocks)
    assert threading.enumerate() == threads and not at_close
    blocks.close()
    assert at_close == [threads]
    assert threading.enumerate() == threads


class _FailingRead(io.BytesIO):
    """Container bytes whose ``reads``-th read, counted from 1, raises OSError."""

    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def readinto(self, buffer):
        self.reads -= 1
        if not self.reads:
            raise OSError(5, "Input/output error")
        return super().readinto(buffer)


@pytest.mark.parametrize("reads", [1, 2, 3])
def test_a_read_error_reaches_the_block_it_falls_in(tmp_path, scene_pgm, small_blocks, reads):
    # Each block is one read, so a read that fails ends the pass at the
    # block it would have filled, after every block before it.
    gid = _simulate(tmp_path, scene_pgm, 17)
    fh = _FailingRead(gid.read_bytes(), reads)
    header, offset = gikit.fileio._read_header(fh)
    threads, starts = threading.enumerate(), []
    with pytest.raises(OSError, match="Input/output error"):
        for start, _, _ in gikit.fileio._read_blocks(fh, offset, header):
            starts.append(start)
    assert starts == list(range(0, (reads - 1) * BLOCK_ROWS, BLOCK_ROWS))
    assert threading.enumerate() == threads


@SIZES
def test_the_reader_holds_one_record_slot_per_thread(tmp_path, scene_pgm, monkeypatch, n, rows):
    # NumPy's buffers of a record or more that gikit.fileio holds at the
    # first block: one slot of one block of stored records, on the calling
    # thread, the only one that reads. No float64 frame buffer: the frames
    # are handed out as stored.
    _use_blocks(monkeypatch, rows)
    container = open_container(_simulate(tmp_path, scene_pgm, n))
    tracemalloc.start()
    try:
        blocks = container.blocks()
        next(blocks)
        snapshot = tracemalloc.take_snapshot()
        blocks.close()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = held.filter_traces([tracemalloc.Filter(True, gikit.fileio.__file__)])
    records = sum(trace.size for trace in held.traces if trace.size >= RECORD_BYTES)
    assert records == rows * RECORD_BYTES


SRC = str(Path(gikit.__file__).resolve().parents[1])
THREAD_PROBE = """
import sys, threading
started, start = [], threading.Thread.start

def counted(thread):
    started.append(thread)
    start(thread)

threading.Thread.start = counted
import gikit.fileio
from gikit.cli import main
gikit.fileio._BLOCK_BYTES = int(sys.argv[1])
code = main(sys.argv[2:])
print(len(started), code, len(threading.enumerate()))
"""


@pytest.mark.parametrize("command", ["progressive", "diagnose"])
def test_one_cpu_starts_no_thread_and_writes_the_same_bytes(tmp_path, scene_pgm, small_blocks, command):
    # A reading command starts no thread on any number of CPUs: a child on
    # every CPU this process may use writes the bytes of the same run here.
    gid = _simulate(tmp_path, scene_pgm, 17)
    argv = {"progressive": ["reconstruct", "--method", "sgi3", "--shift", "2", "--progressive", "4", "--raw",
                            "--out", "{dir}/live"],
            "diagnose": ["diagnose", "--shift", "3", "--out", "{dir}/sr.csv"]}[command]
    outputs = {}
    for where in ("child", "here"):
        out = tmp_path / where
        out.mkdir()
        run = [arg.format(dir=out) for arg in argv]
        run = run[:1] + ["--in", str(gid)] + run[1:]
        if where == "here":
            assert main(run) == 0
        else:
            done = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(BLOCK_ROWS * RECORD_BYTES), *run],
                                  env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert list(map(int, done.stdout.split()[-3:])) == [0, 0, 1]  # no thread started, exit 0, one alive
        outputs[where] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert outputs["child"] == outputs["here"] and outputs["here"]


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


@pytest.mark.parametrize("defect", ["negative-pixel", "nan-bucket", "negative-then-nan-pixel"])
def test_a_defect_is_named_while_the_worker_could_read_on(tmp_path, scene_pgm, small_blocks, monkeypatch, defect):
    # A slow check: the block that holds the defect (records 5..9) must
    # raise its own error, though the block after it is clean, before the
    # pass reads on.
    edits, message = DEFECTS[defect]
    gid = _simulate(tmp_path, scene_pgm, 17)
    gid.write_bytes(_poke(gid.read_bytes(), 17, edits))
    check = gikit.fileio._defect

    def slow_check(pieces):
        time.sleep(0.01)
        return check(pieces)

    monkeypatch.setattr(gikit.fileio, "_defect", slow_check)
    with pytest.raises(FileFormatError) as failure:
        list(open_container(gid).blocks())
    assert str(failure.value) == message


@pytest.mark.parametrize("defect", [None, "nan-pixel", "inf-pixel", "minus-inf-pixel", "negative-pixel"])
def test_negative_zero_pixels_read(tmp_path, scene_pgm, small_blocks, defect):
    # -0.0 has its sign bit set, so it fails the reader's one integer scan;
    # the exact scans that follow accept it and still name a defect beside
    # it in the same block (records 5..9).
    gid = _simulate(tmp_path, scene_pgm, 17)
    clean = read_dataset(gid).frame_matrix.copy()
    clean[6, 0] = clean[16, -1] = -0.0
    edits = [(6, 0, -0.0), (16, SIDE * SIDE - 1, -0.0)] + (DEFECTS[defect][0] if defect else [])
    blob = _poke(gid.read_bytes(), 17, edits)
    gid.write_bytes(blob)
    readers = [lambda: read_dataset(gid).frame_matrix, lambda: decode_dataset(blob).frame_matrix,
               lambda: np.concatenate([frames.astype(np.float64) for _, _, frames in open_container(gid).blocks()])]
    for read in readers:
        if defect:
            with pytest.raises(FileFormatError) as failure:
                read()
            assert str(failure.value) == DEFECTS[defect][1]
            continue
        frames = read()
        assert np.signbit(frames[6, 0]) and np.signbit(frames[16, -1])
        assert frames.tobytes() == clean.tobytes()


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
