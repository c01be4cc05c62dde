"""Streaming accumulator contract: pushes match the batch path on any prefix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_images_close, random_dataset

import gikit.fileio
import gikit.sgi
from gikit import (
    Dataset,
    DatasetValidationError,
    DriftProfile,
    InsufficientRecordsError,
    NoiseModel,
    SgiAccumulator,
    Simulation,
    binary_demo_scene,
    open_container,
    read_dataset,
    recon_sgi,
    write_container,
    write_dataset,
)
from gikit.reconstruct import _one_job, reconstruct
from gikit.sweep import _sweep_run


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shift", [1, 2, 5])
def test_streaming_equals_batch(mode, shift, rng):
    ds = random_dataset(rng, 40)
    acc = SgiAccumulator(mode=mode, shift=shift)
    for rec in ds.records:
        acc.push(rec)
    batch = recon_sgi(ds, mode=mode, shift=shift)
    snap = acc.snapshot()
    assert snap.count == batch.count
    for a, b in zip(snap.images, batch.images):
        assert_images_close(a.data, b.data, 1e-12)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("close_loop", [False, True])
def test_streaming_equals_batch_close_loop(mode, close_loop, rng):
    ds = random_dataset(rng, 17)
    result = recon_sgi(ds.records, mode=mode, shift=1, close_loop=close_loop)
    batch = recon_sgi(ds, mode=mode, shift=1, close_loop=close_loop)
    assert result.count == batch.count == (17 if close_loop else 16)
    for a, b in zip(result.images, batch.images):
        assert_images_close(a.data, b.data, 1e-12)


def test_snapshot_matches_batch_on_every_prefix(rng):
    ds = random_dataset(rng, 12, 4, 4)
    for mode in (1, 2, 3):
        acc = SgiAccumulator(mode=mode, shift=2)
        for i, rec in enumerate(ds.records):
            acc.push(rec)
            if acc.pairs >= 1:
                snap = acc.snapshot()
                batch = recon_sgi(ds.first(i + 1), mode=mode, shift=2)
                for a, b in zip(snap.images, batch.images):
                    assert_images_close(a.data, b.data, 1e-12)


def test_snapshot_does_not_mutate_state(rng):
    ds = random_dataset(rng, 8)
    acc = SgiAccumulator(mode=2, shift=1, close_loop=True)
    for rec in ds.records[:5]:
        acc.push(rec)
    first = acc.snapshot()
    second = acc.snapshot()
    for a, b in zip(first.images, second.images):
        np.testing.assert_array_equal(a.data, b.data)
    for rec in ds.records[5:]:
        acc.push(rec)
    final = acc.snapshot()
    batch = recon_sgi(ds, mode=2, shift=1, close_loop=True)
    for a, b in zip(final.images, batch.images):
        assert_images_close(a.data, b.data, 1e-12)


def test_accumulator_guards(rng):
    ds = random_dataset(rng, 6)
    acc = SgiAccumulator(mode=1, shift=3)
    with pytest.raises(InsufficientRecordsError):
        acc.snapshot()
    for rec in ds.records[:3]:
        acc.push(rec)
    assert acc.pairs == 0
    with pytest.raises(InsufficientRecordsError):
        acc.snapshot()
    other = random_dataset(rng, 1, 3, 3)
    with pytest.raises(ValueError):
        acc.push(other.records[0])
    with pytest.raises(ValueError):
        SgiAccumulator(mode=1, shift=2, close_loop=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.sampled_from([1, 2, 5]))
def test_streaming_property(seed, n, shift):
    rng = np.random.default_rng(seed)
    if n <= shift:
        shift = 1
    ds = random_dataset(rng, n, 3, 5)
    streamed = recon_sgi(iter(ds.records), mode=3, shift=shift)
    batch = recon_sgi(ds, mode=3, shift=shift)
    for a, b in zip(streamed.images, batch.images):
        assert_images_close(a.data, b.data, 1e-12)


def test_long_run_compensated_accumulation_stays_tight(rng):
    # 5k pushes at 16x16: the compensated sums must still match the batch
    # matvec essentially exactly.
    ds = random_dataset(rng, 5000, 16, 16)
    acc = SgiAccumulator(mode=1, shift=1)
    for rec in ds.records:
        acc.push(rec)
    batch = recon_sgi(ds, mode=1, shift=1)
    assert_images_close(acc.snapshot().image.data, batch.image.data, 1e-13)


def test_long_run_matches_exactly_rounded_pair_sums(rng):
    # An oracle that shares no code with the accumulator: every pair term
    # dS * I_new and -dS * I_old rounded once, then summed exactly per pixel.
    ds = random_dataset(rng, 5000, 16, 16)
    frames, buckets = ds.frame_matrix, ds.buckets
    d_s = (buckets[1:] - buckets[:-1])[:, np.newaxis]
    terms = np.concatenate((d_s * frames[1:], -d_s * frames[:-1]))
    reference = np.array([math.fsum(column) for column in terms.T]) / (ds.n - 1)
    for result in (recon_sgi(ds, mode=1), recon_sgi(ds.records, mode=1)):
        assert result.count == ds.n - 1
        assert_images_close(result.image.data.ravel(), reference, 1e-13)


def test_compensated_sum_keeps_the_bits_a_plain_sum_drops():
    # Each 2**-60 is below half an ulp of 1.0, so a plain running sum stays
    # at 1.0; the compensation carries them into the total.
    terms = [1.0] + [2.0**-60] * 4096 + [-(2.0**-62)] * 1024
    acc = gikit.sgi._CompensatedSum((2,))
    for term in terms:
        acc.add(np.array([term, -term]))
    expected = math.fsum(terms)
    assert expected == 1.0 + 2.0**-48 - 2.0**-52
    np.testing.assert_array_equal(acc.value(), [expected, -expected])
    late = 2.0**-60
    with_late = math.fsum(terms + [late])
    np.testing.assert_array_equal(acc.value(np.array([late, -late])), [with_late, -with_late])


def _image_bytes(result):
    return [image.data.tobytes() for image in result.images]


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (2, False), (5, False)])
@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
def test_every_route_gives_the_same_bytes(tmp_path, monkeypatch, rng, mode, shift, close_loop, chunk_rows):
    height, width, n = 5, 6, 29
    if chunk_rows is not None:  # chunk_rows 1 and 3 put shift 5 across several chunks
        monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, n, height, width), path)
    ds = read_dataset(path)  # the frames as the container stores them
    expected = reconstruct(ds, f"sgi{mode}", shift=shift, close_loop=close_loop)

    pushed = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    for record in ds.records:
        pushed.push(record)
    cut = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    frames = ds.frame_matrix.reshape(n, height, width)
    bounds = np.unique(np.concatenate(([0, n], rng.integers(0, n, size=8))))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cut.push_block(int(lo), ds.buckets[lo:hi], frames[lo:hi])
        if cut.records_seen > shift:  # a snapshot after any cut equals batch on the prefix
            prefix = reconstruct(ds.first(int(hi)), f"sgi{mode}", shift=shift, close_loop=close_loop)
            assert _image_bytes(cut.snapshot()) == _image_bytes(prefix)
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", 4 * (8 + 4 * height * width))
    from_file = reconstruct(open_container(path), f"sgi{mode}", shift=shift, close_loop=close_loop)

    for result in (pushed.snapshot(), cut.snapshot(), from_file):
        assert result.count == expected.count
        assert _image_bytes(result) == _image_bytes(expected)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (5, False)])
@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_routes_across_compensation_groups_give_the_same_bytes(tmp_path, monkeypatch, rng, mode, shift,
                                                               close_loop, chunk_rows):
    # Chunks of 1 or 3 records make groups of 64 or 66: 211 records close
    # three groups and stop inside a fourth, so the cuts land in open groups.
    height, width, n = 4, 5, 211
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, n, height, width), path)
    ds = read_dataset(path)
    method = f"sgi{mode}"
    expected = reconstruct(ds, method, shift=shift, close_loop=close_loop)
    frames = ds.frame_matrix.reshape(n, height, width)
    pushed = recon_sgi(ds.records, mode=mode, shift=shift, close_loop=close_loop)
    cut = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    bounds = [0, 7, 63, 64, 65, 100, 131, 132, 133, 190, 197, n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cut.push_block(lo, ds.buckets[lo:hi], frames[lo:hi])
        prefix = reconstruct(ds.first(hi), method, shift=shift, close_loop=close_loop)
        assert _image_bytes(cut.snapshot()) == _image_bytes(prefix)
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", 7 * (8 + 4 * height * width))
    from_file = reconstruct(open_container(path), method, shift=shift, close_loop=close_loop)
    for result in (pushed, cut.snapshot(), from_file):
        assert result.count == expected.count
        assert _image_bytes(result) == _image_bytes(expected)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_grouped_chunks_match_exactly_rounded_pair_sums(monkeypatch, rng, mode):
    # 8-record chunks, compensated once per group of 64 records; the oracle
    # rounds each pair term once and sums them exactly per pixel.
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 8)
    n, shift = 2003, 2
    ds = random_dataset(rng, n, 6, 7)
    frames, s = ds.frame_matrix, ds.buckets[:, np.newaxis]
    new, old, s_new, s_old = frames[shift:], frames[:-shift], s[shift:], s[:-shift]
    d_s = s_new - s_old
    terms = {1: [(d_s * new, -d_s * old)], 2: [(d_s * new,), (d_s * old,)],
             3: [(s_new * new, -s_new * old), (s_old * new, -s_old * old)]}[mode]
    result = reconstruct(ds, f"sgi{mode}", shift=shift)
    assert result.count == n - shift and len(result.images) == len(terms)
    for image, parts in zip(result.images, terms):
        reference = np.array([math.fsum(column) for column in np.concatenate(parts).T]) / (n - shift)
        assert_images_close(image.data.ravel(), reference, 1e-13)


def _bucket_columns(buckets, k):
    """K = 1: the buckets; K = 3: the buckets and two columns made from them."""
    return buckets if k == 1 else np.stack((buckets, 0.5 * buckets - 1.0, buckets + 3.0), axis=1)


@pytest.mark.parametrize("modes", [1, 2, 3, (1, 2, 3)])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (5, False), (11, False)])
def test_block_views_and_staged_chunks_give_the_same_bits(tmp_path, monkeypatch, rng, modes, k, shift, close_loop):
    # Chunks of 8 records; shift 11 reaches back past a whole chunk. A chunk
    # that arrives whole in a block is summed from the block's rows; one
    # that blocks cut is staged; both give the same bytes.
    height, width, n, chunk = 5, 6, 61, 8
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", chunk)
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, n, height, width), path)
    ds = read_dataset(path)  # the frames as the container stores them
    staged = []  # (route, first record, rows) of every staging
    stage = SgiAccumulator._stage

    def staging(acc, at, rows):
        staged.append((route, acc.records_seen - len(rows), len(rows)))
        stage(acc, at, rows)

    monkeypatch.setattr(SgiAccumulator, "_stage", staging)

    def cut(bounds):
        return [(lo, ds.buckets[lo:hi], ds.frame_matrix[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def image_bytes(blocks):
        acc = SgiAccumulator(mode=modes, shift=shift, close_loop=close_loop)
        for start, buckets, frames in blocks:
            acc.push_block(start, _bucket_columns(buckets, k), frames.reshape(len(frames), height, width))
        return [image.data.tobytes() for results in acc.snapshots_by_mode().values()
                for result in results for image in result.images]

    def container(rows=None):
        """The container's blocks, of ``rows`` records or at the default size."""
        block_bytes = rows * (8 + 4 * height * width) if rows else gikit.fileio._GRID_BYTES
        monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", block_bytes)
        return open_container(path).blocks()

    routes = {
        "grid": lambda: cut([*range(0, n, 2 * chunk), n]),
        "off the grid": lambda: cut([0, 3, 4, 11, 13, 20, 29, 37, 38, 50, n]),
        "one record at a time": lambda: cut([*range(n), n]),
        "container": container,
        "container, 5-record blocks": lambda: container(5),
        "container, 16-record blocks": lambda: container(16),
    }
    results = {}
    for route, blocks in routes.items():  # staging() reads the route
        results[route] = image_bytes(blocks())
    assert all(result == results["grid"] for result in results.values())
    # Whole chunks came from views: on the grid only the run's end, records 56..60, was staged.
    tail = [(56, n - 56)]
    for route in ("grid", "container", "container, 16-record blocks"):
        assert [(first, rows) for name, first, rows in staged if name == route] == tail
    assert len([name for name, _, _ in staged if name == "off the grid"]) > len(tail)


@pytest.mark.parametrize("route", ["progressive", "sweep"])
def test_points_inside_chunks_of_the_grid_stage_nothing(tmp_path, monkeypatch, route):
    # At 12x12 a block of the grid, and a chunk, is 128 records. Snapshots
    # every 100 records and the sweep's sgi counts 150 and 300 fall inside
    # chunks; each is read from its block's own rows, so a pass on the grid
    # stages nothing. The images are those of one record at a time, a
    # route that stages every chunk.
    run = Simulation(binary_demo_scene(12, 12), n=1000, seed=3, drift=DriftProfile("linear", 0.3))
    path = tmp_path / "run.gid"
    write_container(run.header, run.blocks(), path)
    stages = []
    stage = gikit.sgi._WeightedSum._stage
    with monkeypatch.context() as patch:
        patch.setattr(gikit.sgi._WeightedSum, "_stage", lambda acc, at, rows: (stages.append(at), stage(acc, at, rows)))
        if route == "progressive":
            dataset, modes = read_dataset(path), 3
            results = [(seen, result) for _, seen, result in _one_job(open_container(path), "sgi3", shift=4, every=100)]
            assert [seen for seen, _ in results] == list(range(100, 1001, 100))
        else:
            dataset, modes, counts = run.dataset(), (1, 3), [150, 300, 1000]
            points = _sweep_run(run, 3, [(n, NoiseModel()) for n in counts], ["sgi1", "sgi3"], 4)
            results = [(n, result) for n, point in zip(counts, points) for result in point]
    assert stages == []
    acc, expected = SgiAccumulator(mode=modes, shift=4), {}  # the sweep's modes share one product
    for record in dataset.records:
        acc.push(record)
        if acc.records_seen in {seen for seen, _ in results}:
            for mode, [snapshot] in acc.snapshots_by_mode().items():
                expected[acc.records_seen, f"sgi{mode}"] = _image_bytes(snapshot)
    for seen, result in results:
        assert _image_bytes(result) == expected[seen, result.method]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (5, False), (11, False)])
def test_several_modes_equal_their_single_mode_runs(monkeypatch, rng, k, shift, close_loop):
    # One product of the stacked weight rows per chunk; BLAS may split a
    # one-row product otherwise than a five-row one, so 1e-12, not bits.
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 8)
    ds = random_dataset(rng, 61, 5, 6)
    buckets, frames = _bucket_columns(ds.buckets, k), ds.frame_matrix.reshape(61, 5, 6)
    several = SgiAccumulator(mode=(3, 1, 2), shift=shift, close_loop=close_loop)
    for lo, hi in [(0, 3), (3, 16), (16, 29), (29, 61)]:
        several.push_block(lo, buckets[lo:hi], frames[lo:hi])
    results = several.snapshots_by_mode()
    assert list(results) == [3, 1, 2]
    with pytest.raises(ValueError):
        several.snapshots()  # three modes give a list each
    for mode, columns in results.items():
        single = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
        single.push_block(0, buckets, frames)
        expected = single.snapshots()
        assert len(columns) == len(expected) == k
        for got, want in zip(columns, expected):
            assert got.method == want.method and got.count == want.count
            assert len(got.images) == len(want.images)
            for a, b in zip(got.images, want.images):
                assert_images_close(a.data, b.data, 1e-12)


def test_staged_chunk_grows_past_a_held_view(monkeypatch, rng):
    # A staged chunk's buffer holds the whole chunk from the first rows
    # staged, so a view of it held between pushes keeps the rows it saw
    # while more arrive, and the image bytes are those of one whole block.
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 8)
    ds = random_dataset(rng, 21, 4, 5)
    frames = ds.frame_matrix.reshape(21, 4, 5)
    whole = SgiAccumulator(mode=3, shift=2)
    whole.push_block(0, ds.buckets, frames)
    cut = SgiAccumulator(mode=3, shift=2)
    views = []
    for lo, hi in [(0, 3), (3, 5), (5, 11), (11, 13), (13, 21)]:
        cut.push_block(lo, ds.buckets[lo:hi], frames[lo:hi])
        if cut._staged is not None:
            views.append((cut._staged[:hi % 8], frames[hi - hi % 8 : hi].reshape(hi % 8, -1).copy()))
    for view, rows in views:
        assert view.tobytes() == rows.tobytes()
    assert _image_bytes(cut.snapshot()) == _image_bytes(whole.snapshot())


@pytest.mark.parametrize("mode", [0, 4, (), (1, 1), (1, 4)])
def test_modes_are_checked(mode):
    with pytest.raises(ValueError):
        SgiAccumulator(mode=mode)


class _CountingSource:
    """A source that counts the passes made over it."""

    def __init__(self, source):
        self.source, self.header, self.n = source, source.header, source.n
        self.passes = 0

    @property
    def buckets(self):
        return self.source.buckets

    def blocks(self):
        self.passes += 1
        return self.source.blocks()


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_batch_sgi_reads_the_source_once(tmp_path, rng, mode):
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, 23), path)
    for source in (read_dataset(path), open_container(path)):
        counting = _CountingSource(source)
        reconstruct(counting, f"sgi{mode}", shift=2)
        assert counting.passes == 1


@pytest.mark.parametrize("method, passes", [("g2", 1), ("dgi-delta", 1), ("dgi", 1), ("ci", 1),
                                            ("sgi1", 1), ("sgi2", 1), ("sgi3", 1)])
def test_reconstruct_frame_passes(tmp_path, rng, method, passes):
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, 23), path)
    for source in (read_dataset(path), open_container(path)):
        counting = _CountingSource(source)
        reconstruct(counting, method)
        assert counting.passes == passes


@pytest.mark.parametrize("first_block", ["all dark", "far ratio"])
def test_dgi_from_blocks_equals_the_run_in_memory(tmp_path, monkeypatch, rng, first_block):
    # dgi centres its one pass on the S/R ratio of the first block, 0 when
    # that block is dark; the run in memory is one block, so its ratio is
    # the run's own. Either way the images agree.
    height, width, n, rows = 6, 5, 97, 8
    frames, buckets = rng.random((n, height, width)), rng.normal(5.0, 2.0, size=n)
    if first_block == "all dark":
        frames[:rows] = 0.0
    else:
        buckets[:rows] *= 40.0
    path = tmp_path / "run.gid"
    write_dataset(Dataset.from_arrays(frames, buckets), path)
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", rows * (8 + 4 * height * width))
    blocks = reconstruct(open_container(path), "dgi")
    memory = reconstruct(read_dataset(path), "dgi")
    assert blocks.count == memory.count == n
    assert_images_close(blocks.image.data, memory.image.data, 1e-12)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_dgi_delta_from_blocks_equals_a_compensated_sum(tmp_path, monkeypatch, rng, rows):
    # dgi-delta centres its one pass on the first block's mean bucket, here
    # about 1e6 from the run's mean, and corrects the image after the pass.
    height, width, n = 6, 5, 97
    frames, buckets = rng.random((n, height, width)), rng.normal(5.0, 2.0, size=n)
    buckets[:rows] += 1e6
    path = tmp_path / "run.gid"
    write_dataset(Dataset.from_arrays(frames, buckets), path)
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", rows * (8 + 4 * height * width))
    assert [len(block) for _, block, _ in open_container(path).blocks()][0] == rows
    image = reconstruct(open_container(path), "dgi-delta").image.data.ravel()
    stored = read_dataset(path)  # the frames as stored, rounded to float32
    s_mean = math.fsum(stored.buckets) / n
    expected = np.array([math.fsum((s - s_mean) * f for s, f in zip(stored.buckets, column)) / n
                         for column in stored.frame_matrix.T])
    assert np.abs(image - expected).max() <= 1e-12 * np.abs(expected).max()


def test_only_ci_reads_the_bucket_column(tmp_path, monkeypatch, rng):
    # g2, dgi-delta and dgi fill their weights from the blocks of their one
    # pass; ci's partition needs <S> before it reads a frame.
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, 23), path)
    memory = read_dataset(path)

    def column(self):
        raise AssertionError("the bucket column was read")

    monkeypatch.setattr(gikit.fileio.Container, "buckets", property(column))
    for method in ("g2", "dgi-delta", "dgi"):
        result = reconstruct(open_container(path), method)
        assert result.count == 23
        assert_images_close(result.image.data, reconstruct(memory, method).image.data, 1e-12)
    with pytest.raises(AssertionError, match="bucket column"):
        reconstruct(open_container(path), "ci")


def test_routes_reject_a_non_finite_bucket_alike(rng):
    buckets = rng.normal(5.0, 2.0, size=12)
    buckets[7] = np.nan
    ds = Dataset.from_arrays(rng.random((12, 4, 4)), buckets)

    def push_all():
        acc = SgiAccumulator(mode=1)
        for record in ds.records:
            acc.push(record)

    for route in (lambda: recon_sgi(ds), lambda: recon_sgi(ds.records), push_all):
        with pytest.raises(DatasetValidationError) as failure:
            route()
        assert [issue.index for issue in failure.value.report.issues] == [7]


def test_rejected_block_adds_nothing(monkeypatch, rng):
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 2)  # record 4 starts a chunk
    ds = random_dataset(rng, 10, 3, 3)
    frames = ds.frame_matrix.reshape(10, 3, 3)
    acc = SgiAccumulator(mode=3, shift=2, close_loop=False)
    acc.push_block(0, ds.buckets[:4], frames[:4])
    bad = ds.buckets[4:7].copy()
    bad[1] = np.inf
    with pytest.raises(DatasetValidationError):
        acc.push_block(4, bad, frames[4:7])
    with pytest.raises(ValueError):
        acc.push_block(5, ds.buckets[5:7], frames[5:7])  # records 4.. come next
    with pytest.raises(ValueError):
        acc.push_block(4, ds.buckets[4:7], ds.frame_matrix[4:7])  # frames must be (rows, h, w)
    assert acc.records_seen == 4
    acc.push_block(4, ds.buckets[4:4], frames[4:4])  # an empty block is no record
    acc.push_block(4, ds.buckets[4:], frames[4:])
    assert _image_bytes(acc.snapshot()) == _image_bytes(recon_sgi(ds, mode=3, shift=2))


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (3, False)])
def test_bucket_columns_match_their_single_column_runs(monkeypatch, rng, mode, shift, close_loop):
    # K bucket columns over one set of frames: each column's images are those
    # of an accumulator fed that column alone, across chunks and block cuts.
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 4)
    n, k = 37, 4
    frames = rng.random((n, 5, 6))
    columns = rng.normal(5.0, 2.0, size=(n, k))
    stacked = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    for lo, hi in [(0, 3), (3, 11), (11, 12), (12, n)]:
        stacked.push_block(lo, columns[lo:hi], frames[lo:hi])
    results = stacked.snapshots()
    assert len(results) == k
    for j, result in enumerate(results):
        single = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
        single.push_block(0, columns[:, j], frames)
        expected = single.snapshot()
        assert result.count == expected.count and result.method == expected.method
        for a, b in zip(result.images, expected.images):
            assert_images_close(a.data, b.data, 1e-12)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_one_bucket_column_is_the_bucket_vector(rng, mode):
    ds = random_dataset(rng, 29, 5, 6)
    frames = ds.frame_matrix.reshape(29, 5, 6)
    column = SgiAccumulator(mode=mode, shift=2)
    column.push_block(0, ds.buckets[:, np.newaxis], frames)
    (result,) = column.snapshots()
    assert _image_bytes(result) == _image_bytes(column.snapshot())
    assert _image_bytes(result) == _image_bytes(recon_sgi(ds, mode=mode, shift=2))


def test_bucket_columns_are_checked_and_fixed(rng):
    frames = rng.random((6, 3, 3))
    columns = rng.normal(5.0, 2.0, size=(6, 3))
    acc = SgiAccumulator(mode=1)
    acc.push_block(0, columns[:3], frames[:3])
    with pytest.raises(ValueError):
        acc.push_block(3, columns[3:, :2], frames[3:])  # K is fixed by the first block
    with pytest.raises(ValueError):
        acc.push_block(3, columns[3:, 0], frames[3:])
    bad = columns[3:].copy()
    bad[1, 2] = np.inf
    with pytest.raises(DatasetValidationError) as failure:
        acc.push_block(3, bad, frames[3:])
    assert [issue.index for issue in failure.value.report.issues] == [4]
    assert acc.records_seen == 3
    with pytest.raises(ValueError):
        acc.snapshot()  # three columns give three results
    assert len(acc.snapshots()) == 3
