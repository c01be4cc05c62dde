"""Frames are widened to float64 where they are summed: the reader hands out
the stored float32 frames, the engine widens a chunk's rows a column tile
at a time into one scratch, and the frame totals widen whole rows. Every
route must still give the same bits, at the grid's frame sizes the bits of
one full-width product per chunk, and R must be a float64 sum of whole
rows."""

import csv

import numpy as np
import pytest

import gikit.sgi
from gikit import DriftProfile, NoiseModel, SgiAccumulator, binary_demo_scene, open_container, read_dataset
from gikit import write_container
from gikit.cli import main
from gikit.reconstruct import METHODS, _reconstructions, reconstruct
from gikit.simulate import Simulation


def _container(path, width, height, n, seed=3):
    run = Simulation(binary_demo_scene(width, height), n, seed=seed, drift=DriftProfile("linear", 0.3),
                     noise=NoiseModel(0.01, 0.05))
    write_container(run.header, run.blocks(), path)
    return path


def _tiles(width, height) -> int:
    """The column tiles of a chunk of frames of ``width`` x ``height``."""
    pixels = width * height
    acc = SgiAccumulator()
    acc.push_block(0, np.ones(2), np.ones((2, height, width), dtype=np.float32))
    return -(-pixels // acc._tile)


def _bits(result):
    return [image.data.tobytes() for image in result.images]


# Runs of three chunks and a cut one, across a compensation group.
GRID = {32: (2, 3 * 128 + 37), 64: (4, 3 * 56 + 13), 128: (2, 9 * 8 + 5)}


@pytest.fixture(scope="module", params=sorted(GRID), ids=[f"{side}x{side}" for side in sorted(GRID)])
def grid_run(request, tmp_path_factory):
    side = request.param
    tiles, n = GRID[side]
    assert _tiles(side, side) == tiles
    return _container(tmp_path_factory.mktemp("grid") / "run.gid", side, side, n)


@pytest.mark.parametrize("method, shift, close_loop",
                         [(method, 1, False) for method in METHODS]
                         + [("sgi1", 3, False), ("sgi3", 2, False), ("sgi2", 1, True)])
def test_grid_shapes_give_the_bits_of_one_full_width_product(grid_run, monkeypatch, method, shift, close_loop):
    container = open_container(grid_run)
    tiled = reconstruct(container, method, shift=shift, close_loop=close_loop)
    in_memory = reconstruct(read_dataset(grid_run), method, shift=shift, close_loop=close_loop)
    monkeypatch.setattr(gikit.sgi, "_WIDE_BYTES", 2**40)  # one tile: each chunk takes one full-width product
    full_width = reconstruct(container, method, shift=shift, close_loop=close_loop)
    assert _bits(tiled) == _bits(in_memory) == _bits(full_width)
    assert tiled.count == in_memory.count == full_width.count


def test_tiled_sweep_columns_give_the_same_bits_on_every_route(tmp_path):
    # 37x53 frames: a chunk of 128 records spans four tiles, the last one
    # cut short, and the pixels are no multiple of 64. Three bucket columns,
    # as a sweep gives for three noise models, share each chunk's product.
    width, height, n = 37, 53, 2 * 128 + 41
    assert _tiles(width, height) == 4
    path = _container(tmp_path / "run.gid", width, height, n)
    dataset = read_dataset(path)
    rng = np.random.default_rng(11)
    columns = dataset.buckets + rng.normal(0.0, 0.05, size=(3, n)) * dataset.buckets.std()
    jobs = [(method, count, column) for method in METHODS for count in (n, 200) for column in range(3)]

    def container_blocks(_):
        for start, _, frames in open_container(path).blocks():  # the stored float32 frames
            yield start, columns[:, start : start + len(frames)], frames

    def memory_blocks(rows):
        def blocks(_):
            for start in range(0, n, rows):
                yield start, columns[:, start : start + rows], dataset.frame_matrix[start : start + rows]
        return blocks

    results = {}
    for route, blocks in (("container", container_blocks), ("whole", memory_blocks(n)), ("cut", memory_blocks(37))):
        found = [None] * len(jobs)
        for job, _, result in _reconstructions(blocks, (height, width), jobs, shift=2):
            found[job] = _bits(result)
        results[route] = found
    assert None not in results["container"]
    assert results["container"] == results["whole"] == results["cut"]


def test_frame_totals_are_float64_sums_of_whole_rows(tmp_path):
    # At 256x256 a row is 65536 pixels, more than NumPy's 8192-element cast
    # buffer: summing the stored float32 rows with dtype=float64 adds the
    # row a buffer at a time and rounds otherwise, and a float32 sum loses
    # digits. diagnose and dgi must both take R from whole float64 rows.
    side, n = 256, 10
    path = _container(tmp_path / "run.gid", side, side, n)
    frames = read_dataset(path).frame_matrix
    expected = np.sum(frames, axis=1)
    assert main(["diagnose", "--in", str(path), "--out", str(tmp_path / "sr.csv")]) == 0
    with open(tmp_path / "sr.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["s_r"] for row in rows] == [repr(float(total)) for total in expected]

    dgi = reconstruct(open_container(path), "dgi")
    reference = reconstruct(read_dataset(path), "dgi")  # float64 frames: np.sum over each whole row
    assert _bits(dgi) == _bits(reference)
