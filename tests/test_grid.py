"""The block grid and what a pass holds: blocks of at most 1 MiB of stored
records and at most 128 records, on which the reader, the writer, the
simulator and the weighted-sum engine all cut a run, and classic weights
made one chunk at a time, never a row of the whole run."""

import tracemalloc

import numpy as np
import pytest

from gikit import binary_demo_scene, open_container, write_container
from gikit.fileio import _block_rows
from gikit.reconstruct import _reconstructions
from gikit.sgi import _chunk_rows
from gikit.simulate import Simulation


@pytest.mark.parametrize("side, rows", [(32, 128), (64, 56), (128, 8)])
def test_every_layer_cuts_on_one_grid(tmp_path, side, rows):
    pixels, n = side * side, 2 * rows + 3
    assert _block_rows(pixels) == rows
    assert _chunk_rows(pixels) == rows
    run = Simulation(binary_demo_scene(side, side), n, seed=3)
    expected = [rows, rows, 3]
    assert [len(frames) for _, _, frames in run.blocks()] == expected
    path = tmp_path / "run.gid"
    write_container(run.header, run.blocks(), path)
    assert [len(frames) for _, _, frames in open_container(path).blocks()] == expected


def _classic_pass_peak(n: int) -> int:
    """The traced peak of one pass of g2, dgi-delta, dgi and ci over three
    bucket columns of n records of 4x4 frames, read in 64-record blocks."""
    rng = np.random.default_rng(7)
    frames, buckets = rng.random((n, 16)), rng.normal(5.0, 2.0, size=(3, n))
    jobs = [(method, n, column) for column in range(3) for method in ("g2", "dgi-delta", "dgi", "ci")]

    def blocks(read_buckets):
        for start in range(0, n, 64):
            yield start, buckets[:, start : start + 64] if read_buckets else None, frames[start : start + 64]

    tracemalloc.start()
    try:
        results = list(_reconstructions(blocks, (4, 4), jobs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == len(jobs)
    return peak


def test_classic_weights_do_not_grow_with_the_run():
    # A pass holds a few float64 per record: the three bucket columns (twice
    # while ci's first pass joins its blocks), dgi's frame totals,
    # dgi-delta's unit totals and the vectors of the checks after the pass.
    # Its peak grew 56 B per record; with a (21, n) weight matrix, every
    # job's rows held whole and unshared, it grew 241 B per record.
    short, long = 2048, 8192
    growth = _classic_pass_peak(long) - _classic_pass_peak(short)
    assert growth < 12 * 8 * (long - short), f"traced peak grew {growth / (long - short):.0f} B per record"


@pytest.mark.parametrize("method", ["ci", "g2"])
def test_a_pass_holds_the_bucket_matrix_once(method):
    # ci's first pass, and the last pass of a classic job without it, fill
    # one (K, n) bucket matrix block by block: 8 K bytes per record. Joining
    # a list of the blocks' copies held it twice, 50-52 B per record at K = 3.
    def peak(n):
        frames, buckets = np.random.default_rng(7).random((n, 16)), np.ones((3, n))
        buckets[:, ::2] = 2.0

        def blocks(read_buckets):
            for start in range(0, n, 64):
                yield start, buckets[:, start : start + 64] if read_buckets else None, frames[start : start + 64]

        tracemalloc.start()
        try:
            assert len(list(_reconstructions(blocks, (4, 4), [(method, n, column) for column in range(3)]))) == 3
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = 2048, 8192
    growth = (peak(long) - peak(short)) / (long - short)
    assert growth < 8 * 3 + 8, f"traced peak grew {growth:.0f} B per record"
