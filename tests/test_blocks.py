"""Block-streamed container reading: the CLI reads containers a few records
at a time, and must give the same results as reading them whole."""

import struct

import numpy as np
import pytest

from conftest import assert_images_close

import gikit.fileio
from gikit import (
    ReconImage,
    SgiAccumulator,
    binary_demo_scene,
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
    blocks = list(container.blocks())
    assert [start for start, _, _ in blocks] == list(range(0, n, BLOCK_ROWS))
    buckets = np.concatenate([b for _, b, _ in blocks])
    frames = np.concatenate([f for _, _, f in blocks])
    np.testing.assert_array_equal(buckets, whole.buckets)
    np.testing.assert_array_equal(frames, whole.frame_matrix)
    for _, b, f in blocks:
        assert not f.flags.writeable and not b.flags.writeable
    for (_, _, older), (_, _, newer) in zip(blocks, blocks[1:]):
        assert not np.shares_memory(older, newer)  # an accumulator may keep rows of the older


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
