"""Memory of the streamed commands: a `reconstruct`, `--progressive` or
`diagnose` run holds one reused read block, the sgi accumulator's row buffer
and O(images x pixels) state, whatever the number of records."""

import tracemalloc

import pytest

from conftest import random_dataset

import gikit.fileio
import gikit.reconstruct
from gikit import ReconImage, SgiAccumulator, binary_demo_scene, export_image, open_container, write_dataset
from gikit.cli import main

SIDE, N, SHIFT = 64, 1024, 4
PIXELS = SIDE * SIDE

RUNS = {
    "g2": (["reconstruct", "--method", "g2", "--raw"], 1),
    "dgi": (["reconstruct", "--method", "dgi", "--raw"], 1),
    "sgi3": (["reconstruct", "--method", "sgi3", "--shift", str(SHIFT), "--raw"], 2),
    "progressive": (["reconstruct", "--method", "sgi3", "--shift", str(SHIFT), "--progressive", "256", "--raw"], 2),
    "diagnose": (["diagnose", "--shift", str(SHIFT)], 1),
}


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    directory = tmp_path_factory.mktemp("memory")
    scene = directory / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(SIDE, SIDE).transmission), scene)
    gid = directory / "run.gid"
    assert main(["simulate", "--scene", str(scene), "--n", str(N), "--seed", "5", "--pattern", "speckle",
                 "--drift", "random-walk:0.002", "--out", str(gid)]) == 0
    return gid


def _traced(call, *args) -> tuple:
    """``call(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_streamed_command_holds_one_block(container, tmp_path, run):
    argv, images = RUNS[run]
    argv = argv[:1] + ["--in", str(container)] + argv[1:] + ["--out", str(tmp_path / "out")]
    code, peak = _traced(main, argv)
    assert code == 0

    # The reader's record buffer and its one float64 block buffer, the sgi
    # accumulator's (shift + chunk, pixels) rows, then the O(images x pixels)
    # totals, terms and exports and the O(n) bucket and frame-total vectors.
    record_bytes = 8 + 4 * PIXELS
    rows = min(N, gikit.fileio._BLOCK_BYTES // record_bytes)
    reader = rows * record_bytes + rows * (PIXELS + 1) * 8
    chunk = gikit.reconstruct._CHUNK_BYTES // (PIXELS * 8)
    accumulator = (SHIFT + chunk) * (PIXELS + 1) * 8 if "sgi3" in argv else 0
    bound = reader + accumulator + 16 * images * PIXELS * 8 + 64 * N
    assert peak < bound, f"{run}: traced peak {peak} bytes over {bound}"
    assert peak < N * PIXELS * 8 / 4  # far below the frame matrix


def test_push_block_allocates_no_per_chunk_image(rng):
    # Per-chunk (images, pixels) temporaries would be allocated and freed
    # on every chunk; the accumulator reuses its buffers instead, so pushing
    # many chunks peaks no higher than pushing a few.
    chunk = gikit.reconstruct._CHUNK_BYTES // (PIXELS * 8)
    many = 40 * chunk
    frames = rng.random((chunk + many, SIDE, SIDE))
    buckets = rng.normal(5.0, 2.0, size=chunk + many)

    def transient(rows: int) -> int:
        acc = SgiAccumulator(mode=3, shift=SHIFT)
        acc.push_block(0, buckets[:chunk], frames[:chunk])  # allocates the state
        return _traced(acc.push_block, chunk, buckets[chunk : chunk + rows], frames[chunk : chunk + rows])[1]

    few_peak, many_peak = transient(3 * chunk), transient(many)
    image_bytes = 2 * PIXELS * 8
    assert few_peak < image_bytes / 4
    assert many_peak <= few_peak + 3 * 8 * (chunk + many)


def test_accumulator_state_does_not_grow_with_the_stream(rng):
    # The retained state is the (shift + chunk, pixels) row buffer and the
    # weight, term and compensation buffers, whatever the number of records.
    chunk = gikit.reconstruct._CHUNK_BYTES // (PIXELS * 8)
    frames = rng.random((chunk, SIDE, SIDE))
    buckets = rng.normal(5.0, 2.0, size=chunk)

    def retained(blocks: int) -> int:
        tracemalloc.start()
        try:
            acc = SgiAccumulator(mode=3, shift=SHIFT)
            for block in range(blocks):
                acc.push_block(block * chunk, buckets, frames)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    few, many = retained(3), retained(400)
    assert abs(many - few) < 4096, f"retained {few} bytes after 3 chunks, {many} after 400"


def test_bucket_column_costs_its_own_bytes(tmp_path, rng):
    # The column is read a group of records at a time into one float64
    # array, so its transient reads stay bounded however many records.
    n = 65536
    path = tmp_path / "long.gid"
    dataset = random_dataset(rng, n, 2, 2)
    write_dataset(dataset, path)
    container = open_container(path)
    buckets, peak = _traced(lambda: container.buckets)
    assert buckets.tobytes() == dataset.buckets.tobytes()
    assert peak < 8 * n + 2**20, f"traced peak {peak} bytes for {n} buckets"
