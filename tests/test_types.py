import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gikit import (
    Dataset,
    DatasetValidationError,
    DatasetHeader,
    Frame,
    MeasurementRecord,
    NoiseModel,
    ObjectMask,
    ReconImage,
    binary_demo_scene,
    decode_dataset,
    encode_dataset,
    frame_sum,
    read_dataset,
    simulate,
    validate_dataset,
    write_dataset,
)
from gikit.reconstruct import METHODS, reconstruct


def test_frame_sum_hand_cases():
    assert frame_sum(Frame([[0.5, 1.0], [1.5, 2.0]])) == pytest.approx(5.0, abs=1e-12)
    assert frame_sum(Frame(np.zeros((3, 4)))) == 0.0
    assert frame_sum(Frame([[3.25]])) == 3.25


def test_frame_rejects_bad_data():
    with pytest.raises(ValueError):
        Frame([[1.0, -0.5]])
    with pytest.raises(ValueError):
        Frame([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        Frame([[np.inf]])
    with pytest.raises(ValueError):
        Frame(np.ones(4))  # 1-D
    with pytest.raises(ValueError):
        Frame(np.ones((0, 3)))


def test_frame_data_is_frozen_and_caller_buffer_untouched():
    src = np.ones((2, 2))
    frame = Frame(src)
    with pytest.raises(ValueError):
        frame.data[0, 0] = 7.0
    src[0, 0] = 7.0  # caller's array was copied, not stolen
    assert frame.data[0, 0] == 1.0


@settings(max_examples=50)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_frame_sum_is_linear(seed, a, b, h, w):
    gen = np.random.default_rng(seed)
    f = gen.random((h, w))
    g = gen.random((h, w))
    combined = frame_sum(Frame(a * f + b * g))
    expected = a * frame_sum(Frame(f)) + b * frame_sum(Frame(g))
    assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _dataset_from_frames(frames, buckets):
    records = tuple(
        MeasurementRecord(i, Frame(f), b) for i, (f, b) in enumerate(zip(frames, buckets))
    )
    header = DatasetHeader(width=frames[0].shape[1], height=frames[0].shape[0], n=len(records))
    return Dataset.from_records(records, header)


def test_validate_dataset_ok():
    ds = _dataset_from_frames([np.ones((4, 4))], [1.0])
    report = validate_dataset(ds)
    assert report.ok
    report.raise_if_failed()  # no-op when clean
    assert ds.records == ds.records  # round-trips unchanged


def test_validate_dataset_dimension_mismatch_at_index():
    frames = [np.ones((4, 4)), np.ones((3, 4)), np.ones((4, 4))]
    with pytest.raises(DatasetValidationError) as err:
        _dataset_from_frames(frames, [1.0, 2.0, 3.0])
    report = err.value.report
    assert not report.ok
    assert [(i.index, i.code) for i in report.issues] == [(1, "dimension-mismatch")]


def test_validate_dataset_nan_bucket_at_index():
    frames = [np.ones((2, 2))] * 8
    buckets = [1.0] * 8
    buckets[7] = np.nan
    ds = _dataset_from_frames(frames, buckets)
    report = validate_dataset(ds)
    assert [(i.index, i.code) for i in report.issues] == [(7, "non-finite-bucket")]


def test_validate_dataset_header_count_and_index_order():
    frames = [np.ones((2, 2))] * 2
    records = tuple(MeasurementRecord(i + 1, Frame(f), 0.5) for i, f in enumerate(frames))
    with pytest.raises(DatasetValidationError) as err:
        Dataset.from_records(records, DatasetHeader(width=2, height=2, n=3))
    codes = {i.code for i in err.value.report.issues}
    assert codes == {"count-mismatch", "index-order"}


def test_negative_buckets_are_legal():
    ds = _dataset_from_frames([np.ones((2, 2))] * 2, [-1.0, 2.0])
    assert validate_dataset(ds).ok


def test_dataset_from_arrays_views_and_first():
    frames = np.arange(24, dtype=float).reshape(4, 2, 3)
    ds = Dataset.from_arrays(frames, [1.0, 2.0, 3.0, 4.0], seed=9, provenance="test")
    assert ds.n == 4 and ds.width == 3 and ds.height == 2
    assert ds.frame_matrix.shape == (4, 6)
    # records share the stacked buffer
    assert ds.records[2].frame.data.base is ds.frame_matrix.base
    sub = ds.first(2)
    assert sub.n == 2 and sub.header.seed == 9
    np.testing.assert_array_equal(sub.buckets, [1.0, 2.0])
    with pytest.raises(ValueError):
        ds.first(0)
    with pytest.raises(ValueError):
        ds.first(5)


def test_dataset_requires_records():
    with pytest.raises(DatasetValidationError):
        Dataset.from_records((), DatasetHeader(width=1, height=1, n=1))
    with pytest.raises(ValueError):
        DatasetHeader(width=0, height=1, n=1)
    with pytest.raises(ValueError):
        DatasetHeader(width=1, height=1, n=0)


def test_recon_image_allows_negative_but_not_nan():
    image = ReconImage([[-1.0, 2.0]])
    assert image.width == 2
    with pytest.raises(ValueError):
        ReconImage([[np.nan, 0.0]])


def test_object_mask_needs_both_classes():
    mask = ObjectMask([[True, False], [False, False]])
    assert mask.n_in == 1 and mask.n_out == 3
    with pytest.raises(ValueError):
        ObjectMask(np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        ObjectMask(np.zeros((2, 2), dtype=bool))


@pytest.mark.parametrize("n", [1, 17])
def test_from_records_restacks_the_records_view(n):
    ds = simulate(binary_demo_scene(6, 5), n=n, seed=3, noise=NoiseModel(mean=0.1, std=0.2))
    back = Dataset.from_records(ds.records, ds.header)
    assert back.header == ds.header
    np.testing.assert_array_equal(back.buckets, ds.buckets)
    np.testing.assert_array_equal(back.frame_matrix, ds.frame_matrix)
    assert encode_dataset(back) == encode_dataset(ds)


def test_dataset_constructor_checks_shapes_and_pixels():
    header = DatasetHeader(width=3, height=2, n=4)
    frames = np.ones((4, 6))
    ds = Dataset(header, [1.0, np.nan, -2.0, 3.0], frames)  # any bucket value is representable
    assert ds.n == 4 and not ds.frame_matrix.flags.writeable and not ds.buckets.flags.writeable
    frames[0, 0] = 5.0  # the caller's buffer was copied, not taken
    assert ds.frame_matrix[0, 0] == 1.0
    for buckets, matrix in [
        (np.zeros(3), frames),
        (np.zeros((4, 1)), frames),
        (np.zeros(4), np.ones((4, 5))),
        (np.zeros(4), np.ones((5, 6))),
        (np.zeros(4), np.ones((4, 2, 3))),
    ]:
        with pytest.raises(ValueError, match="do not match"):
            Dataset(header, buckets, matrix)
    for bad in (np.nan, np.inf, -0.5):
        matrix = np.ones((4, 6))
        matrix[2, 1] = bad
        with pytest.raises(ValueError, match="frame matrix"):
            Dataset(header, np.zeros(4), matrix)


def test_array_routes_build_no_records(monkeypatch, tmp_path):
    built = []
    post_init = MeasurementRecord.__post_init__

    def counting(record):
        built.append(record.index)
        post_init(record)

    monkeypatch.setattr(MeasurementRecord, "__post_init__", counting)
    ds = simulate(binary_demo_scene(8, 8), n=24, seed=2, noise=NoiseModel(std=0.1))
    write_dataset(ds, tmp_path / "run.gid")
    sources = [
        ds,
        ds.first(20),
        Dataset.from_arrays(ds.frame_matrix.reshape(24, 8, 8), ds.buckets),
        read_dataset(tmp_path / "run.gid"),
        decode_dataset(encode_dataset(ds)),
    ]
    for source in sources:
        for method in METHODS:
            reconstruct(source, method)
        encode_dataset(source)
    assert built == []
    assert [r.index for r in ds.records] == built == list(range(24))  # the view does build them
