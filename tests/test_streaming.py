"""Streaming accumulator contract: pushes match the batch path on any prefix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_images_close, random_dataset

import gikit.fileio
import gikit.reconstruct
from gikit import (
    Dataset,
    DatasetValidationError,
    InsufficientRecordsError,
    SgiAccumulator,
    open_container,
    read_dataset,
    recon_sgi,
    write_dataset,
)
from gikit.reconstruct import reconstruct


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
    acc = gikit.reconstruct._CompensatedSum((2,))
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
        monkeypatch.setattr(gikit.reconstruct, "_CHUNK_BYTES", chunk_rows * 8 * height * width)
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


@pytest.mark.parametrize("method, passes", [("g2", 1), ("dgi-delta", 1), ("dgi", 2), ("ci", 1),
                                            ("sgi1", 1), ("sgi2", 1), ("sgi3", 1)])
def test_reconstruct_frame_passes(tmp_path, rng, method, passes):
    path = tmp_path / "run.gid"
    write_dataset(random_dataset(rng, 23), path)
    for source in (read_dataset(path), open_container(path)):
        counting = _CountingSource(source)
        reconstruct(counting, method)
        assert counting.passes == passes


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
    monkeypatch.setattr(gikit.reconstruct, "_CHUNK_BYTES", 2 * 8 * 3 * 3)  # record 4 starts a chunk
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
