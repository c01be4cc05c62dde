"""Memory of the streamed commands: a `reconstruct`, `--progressive` or
`diagnose` run holds one reused read block, the sgi accumulator's carried
rows and O(images x pixels) state, whatever the number of records, and a
`sweep` holds O(records) vectors but never a run's frames."""

import sys
import tracemalloc

import pytest

from conftest import random_dataset

import gikit.fileio
from gikit import NoiseModel, ReconImage, SgiAccumulator, binary_demo_scene, export_image, open_container, write_dataset
from gikit.cli import main
from gikit.reconstruct import reconstruct
from gikit.sgi import _chunk_rows
from gikit.simulate import _block_noise

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


def _reader_bytes(n: int) -> int:
    """The reader's record buffer and its float64 block buffer, for n records."""
    record_bytes = 8 + 4 * PIXELS
    rows = min(n, gikit.fileio._block_rows(PIXELS))
    return rows * record_bytes + rows * (PIXELS + 1) * 8


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
    # accumulator's carried rows, then the O(images x pixels) totals, terms
    # and exports and the O(n) bucket and frame-total vectors. No pass stages
    # a row: the reader's blocks are chunks of the grid, the run's last chunk
    # is summed where it arrives, and a snapshot reads the block it falls
    # in. --progressive peaks as a snapshot is made: its accumulator's six
    # (images, pixels) buffers and the snapshot's own, 7.2 of them above the
    # carried rows against a slack of 8; one staged chunk of 56 rows is 28.
    carried = SHIFT * (PIXELS + 1) * 8 if run in ("sgi3", "progressive") else 0
    slack = 8 if run == "progressive" else 16
    bound = _reader_bytes(N) + carried + slack * images * PIXELS * 8 + 64 * N
    assert peak < bound, f"{run}: traced peak {peak} bytes over {bound}"
    assert peak < N * PIXELS * 8 / 4  # far below the frame matrix


@pytest.mark.parametrize("tail", [False, True])
def test_batch_sgi_pass_stages_no_chunk(container, tail):
    # The reader's blocks are whole chunks, summed where they are: beyond the
    # reader's buffers the pass holds the carried rows, the cut end of the
    # run (none when it ends on a block) and the accumulator's six
    # (images, pixels) buffers and snapshot, never a chunk of rows.
    chunk = _chunk_rows(PIXELS)
    source = open_container(container)
    source = source if tail else source.first(N - N % chunk)
    assert (source.n % chunk != 0) == tail
    result, peak = _traced(lambda: reconstruct(source, "sgi3", shift=SHIFT))
    assert result.count == source.n - SHIFT
    images = 2 * PIXELS * 8
    beyond = peak - _reader_bytes(source.n)
    assert beyond < (SHIFT + source.n % chunk) * (PIXELS + 1) * 8 + 12 * images + 64 * N
    assert beyond < chunk * PIXELS * 8


def test_progressive_holds_one_staged_chunk_and_the_carried_rows(container):
    # Snapshots every 256 records cut a chunk each (256 is no multiple of the
    # chunk). While a cut chunk fills, its rows are staged; once summed they
    # are dropped, so the memory held returns to the carried rows alone.
    every, chunk = 256, _chunk_rows(PIXELS)
    assert every % chunk
    tracemalloc.start()
    try:
        acc, held, peaks = SgiAccumulator(mode=3, shift=SHIFT), [], []
        for start, buckets, frames in open_container(container).blocks():
            frames = frames.reshape(len(frames), SIDE, SIDE)
            cuts = range(every - start % every, len(buckets), every)
            for lo, hi in zip((0, *cuts), (*cuts, len(buckets))):
                tracemalloc.reset_peak()
                acc.push_block(start + lo, buckets[lo:hi], frames[lo:hi])
                peaks.append(tracemalloc.get_traced_memory()[1])
                if acc.records_seen % chunk == 0:  # no chunk open
                    held.append(tracemalloc.get_traced_memory()[0])
                if acc.records_seen % every == 0:
                    acc.snapshot()
    finally:
        tracemalloc.stop()
    # The reader's buffers, the carried rows and buckets, and the term and
    # compensated-sum buffers.
    state = _reader_bytes(N) + SHIFT * (PIXELS + 1) * 8 + 6 * 2 * PIXELS * 8
    row_bytes = PIXELS * 8
    assert max(held) < state + 64 * 1024
    assert max(peaks) < state + chunk * row_bytes + 64 * 1024
    assert max(peaks) - max(held) > (chunk - 1) * row_bytes  # a whole chunk was staged


def test_push_block_allocates_no_per_chunk_image(rng):
    # Per-chunk (images, pixels) temporaries would be allocated and freed
    # on every chunk; the accumulator reuses its buffers instead, so pushing
    # many chunks peaks no higher than pushing a few.
    chunk = _chunk_rows(PIXELS)
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
    # The retained state is the (shift, pixels) carried rows and the weight,
    # term and compensation buffers, whatever the number of records.
    chunk = _chunk_rows(PIXELS)
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


def test_sweep_holds_one_point_at_a_time(tmp_path, monkeypatch):
    side, n = 32, 1024
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", 8 * (8 + 4 * side * side))
    scene = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(side, side).transmission), scene)
    argv = ["sweep", "--scene", str(scene), "--axis", "noise-mean", "--values", "0.01,0.02,0.03",
            "--methods", "g2,dgi,sgi1", "--n", str(n), "--seed", "3", "--out", str(tmp_path / "sweep")]
    code, peak = _traced(main, argv)
    assert code == 0
    # One point's frame matrix and the simulator's 8-row block buffer; two
    # frame matrices would mean the previous point's run is still held.
    matrix, block = n * side * side * 8, 8 * side * side * 8
    assert peak < 1.5 * matrix + block, f"traced peak {peak / matrix:.2f} frame matrices"


def test_sweep_memory_does_not_grow_with_its_longest_point(tmp_path):
    # Axis n streams one run past every point: what grows with the records
    # is O(n) vectors (buckets, frame totals, gains, weight rows), not the
    # 8 KB of a 32x32 frame per record.
    side, methods = 32, "g2,dgi,ci,sgi1"
    scene = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(side, side).transmission), scene)

    def peak(most: int) -> int:
        argv = ["sweep", "--scene", str(scene), "--axis", "n", "--values", f"1024,{most}", "--methods", methods,
                "--n", str(most), "--seed", "3", "--drift", "linear:0.3", "--out", str(tmp_path / "sweep")]
        code, traced = _traced(main, argv)
        assert code == 0
        return traced

    short, long = 4096, 16384
    rows = 2 * len(methods.split(","))
    growth = peak(long) - peak(short)
    assert growth < 64 * (long - short) * rows, f"traced peak grew {growth / (long - short):.0f} B per record"


def test_object_field_noise_draws_a_bounded_group():
    # A 32x32 simulator block of 248 records under three noise models: the
    # normals are drawn and scaled about 64 KB at a time, never as a
    # (records, pixels) matrix of 2 MB. The block's generator states, worked
    # out at once, cost a few hundred bytes a record.
    models = [NoiseModel(0.01, 0.05, "object-field"), NoiseModel(0.0, 0.05, "object-field"), NoiseModel(0.1, 0.2)]
    rows, pixels = 248, 32 * 32
    noise, peak = _traced(_block_noise, 5, 0, rows, pixels, models)
    assert noise.shape == (len(models), rows)
    assert peak < 2 * sys.modules["gikit.simulate"]._NOISE_GROUP_BYTES + 8 * noise.size + 512 * rows + 16 * 1024
