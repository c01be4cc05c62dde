import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_images_close, random_dataset

from gikit import (
    Dataset,
    DegenerateDivisorError,
    DegeneratePartitionError,
    DriftProfile,
    InsufficientRecordsError,
    ObjectScene,
    PatternModel,
    binary_demo_scene,
    recon_ci,
    recon_delta_gi,
    recon_dgi,
    recon_g2,
    recon_sgi,
    simulate,
    sr_diagnostics,
)


@pytest.fixture
def tiny():
    """The 1x1 worked example: I = [0.5, 1, 2], S = [1, 2, 4]."""
    return Dataset.from_arrays(
        np.array([0.5, 1.0, 2.0]).reshape(3, 1, 1), np.array([1.0, 2.0, 4.0])
    )


def px(result, which=0):
    return float(result.images[which].data[0, 0])


def test_hand_values_on_tiny_dataset(tiny):
    assert px(recon_g2(tiny)) == pytest.approx(3.5, abs=1e-12)
    assert px(recon_delta_gi(tiny)) == pytest.approx(7.0 / 9.0, abs=1e-12)
    assert px(recon_dgi(tiny)) == pytest.approx(0.0, abs=1e-12)
    ci = recon_ci(tiny)
    assert (px(ci, 0), px(ci, 1)) == (2.0, 0.75)
    assert px(recon_sgi(tiny, mode=1)) == pytest.approx(1.25, abs=1e-12)
    m2 = recon_sgi(tiny, mode=2)
    assert (px(m2, 0), px(m2, 1)) == (2.5, 1.25)
    m3 = recon_sgi(tiny, mode=3)
    assert (px(m3, 0), px(m3, 1)) == (2.5, 1.25)


def test_g2_edge_cases(rng):
    frames = rng.random((3, 2, 2))
    zeros = recon_g2(Dataset.from_arrays(frames, np.zeros(3)))
    np.testing.assert_array_equal(zeros.image.data, 0.0)
    single = Dataset.from_arrays(frames[:1], [2.5])
    np.testing.assert_allclose(recon_g2(single).image.data, 2.5 * frames[0], rtol=1e-15)
    assert recon_g2(single).count == 1


def test_delta_gi_zero_fluctuation_cases(rng):
    frames = rng.random((5, 3, 3))
    constant_buckets = Dataset.from_arrays(frames, np.full(5, 3.7))
    assert np.abs(recon_delta_gi(constant_buckets).image.data).max() < 1e-12
    same_frame = Dataset.from_arrays(np.repeat(frames[:1], 5, axis=0), rng.normal(size=5))
    assert np.abs(recon_delta_gi(same_frame).image.data).max() < 1e-12
    with pytest.raises(InsufficientRecordsError):
        recon_delta_gi(Dataset.from_arrays(frames[:1], [1.0]))


def test_dgi_cancels_pure_source_fluctuation(rng):
    # T == 1 everywhere makes the bucket exactly the frame total.
    ds = simulate(ObjectScene(np.ones((8, 8))), n=64, seed=2)
    result = recon_dgi(ds)
    scale = np.abs(recon_g2(ds).image.data).max()
    assert np.abs(result.image.data).max() <= 1e-10 * scale


def test_dgi_all_dark_frames_error():
    ds = Dataset.from_arrays(np.zeros((3, 2, 2)), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDivisorError):
        recon_dgi(ds)


def test_ci_partition_rules(rng):
    frames = rng.random((4, 2, 2))
    with pytest.raises(DegeneratePartitionError):
        recon_ci(Dataset.from_arrays(frames, np.full(4, 2.0)))
    # exactly one bucket above the mean: positive image is that single frame
    ds = Dataset.from_arrays(frames, [0.0, 0.0, 0.0, 4.0])
    result = recon_ci(ds)
    np.testing.assert_allclose(result.positive.data, frames[3], rtol=1e-15)
    # ties join the positive subset
    tie = Dataset.from_arrays(frames[:3], [1.0, 2.0, 3.0])
    result = recon_ci(tie)
    np.testing.assert_allclose(result.positive.data, (frames[1] + frames[2]) / 2, rtol=1e-14)


def test_sgi_validation(tiny, rng):
    with pytest.raises(InsufficientRecordsError):
        recon_sgi(tiny, mode=1, shift=3)
    with pytest.raises(ValueError):
        recon_sgi(tiny, mode=1, shift=2, close_loop=True)
    with pytest.raises(ValueError):
        recon_sgi(tiny, mode=4)
    with pytest.raises(ValueError):
        recon_sgi(tiny, mode=1, shift=0)
    constant = Dataset.from_arrays(np.ones((4, 2, 2)), np.full(4, 2.0))
    for mode in (1, 2, 3):
        for image in recon_sgi(constant, mode=mode).images:
            np.testing.assert_array_equal(image.data, 0.0)


def test_sgi_pair_counts(rng):
    ds = random_dataset(rng, 10)
    assert recon_sgi(ds, mode=1, shift=1).count == 9
    assert recon_sgi(ds, mode=1, shift=3).count == 7
    assert recon_sgi(ds, mode=1, shift=1, close_loop=True).count == 10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(3, 40),
    st.sampled_from([1, 2, 5]),
)
def test_mode_identity_property(seed, n, shift):
    if n <= shift:
        shift = 1
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 4, 4)
    one = recon_sgi(ds, mode=1, shift=shift).image.data
    two = recon_sgi(ds, mode=2, shift=shift)
    three = recon_sgi(ds, mode=3, shift=shift)
    assert_images_close(one, two.positive.data - two.negative.data, 1e-10)
    assert_images_close(one, three.positive.data - three.negative.data, 1e-10)


def test_mode_identity_holds_with_close_loop(rng):
    ds = random_dataset(rng, 12)
    one = recon_sgi(ds, mode=1, close_loop=True).image.data
    two = recon_sgi(ds, mode=2, close_loop=True)
    three = recon_sgi(ds, mode=3, close_loop=True)
    assert_images_close(one, two.positive.data - two.negative.data, 1e-10)
    assert_images_close(one, three.positive.data - three.negative.data, 1e-10)


def test_common_gain_equivariance(rng):
    ds = random_dataset(rng, 24, 6, 6)
    scaled = Dataset.from_arrays(
        3.0 * np.stack([r.frame.data for r in ds.records]), 3.0 * ds.buckets
    )
    quadratic = [recon_g2, recon_delta_gi, recon_dgi, lambda d: recon_sgi(d, mode=1)]
    for recon in quadratic:
        base = recon(ds)
        test = recon(scaled)
        assert_images_close(test.image.data, 9.0 * base.image.data, 1e-10)
        assert np.argmax(test.image.data) == np.argmax(base.image.data)
        assert np.argmin(test.image.data) == np.argmin(base.image.data)
    base, test = recon_ci(ds), recon_ci(scaled)
    for b, t in zip(base.images, test.images):
        assert_images_close(t.data, 3.0 * b.data, 1e-10)
        assert np.argmax(t.data) == np.argmax(b.data)


def test_sr_diagnostics_hand_case(tiny):
    s_r, dev = sr_diagnostics(tiny, 1)
    np.testing.assert_allclose(s_r, [0.5, 1.0, 2.0])
    np.testing.assert_allclose(dev, [0.5, 1.0])
    with pytest.raises(InsufficientRecordsError):
        sr_diagnostics(tiny, 3)
    with pytest.raises(ValueError):
        sr_diagnostics(tiny, 0)


def test_drift_suppression_of_pair_deviations():
    # Slowly rotating speckle under linear drift: pair deviations of the
    # frame total collapse to the per-step drift increment, while the
    # mean-centered totals keep the full drift excursion.
    scene = binary_demo_scene(32, 32)
    pattern = PatternModel("correlated-speckle", grain_radius=3.0, step_shift=1.0, jitter=0.0)
    ds = simulate(scene, n=1000, seed=10, pattern=pattern, drift=DriftProfile("linear", 0.3))
    s_r, dev = sr_diagnostics(ds, 1)
    centered = s_r - s_r.mean()
    assert dev.std() <= (2 * 1 / 1000) * centered.std() * 2


def test_reconstructors_reject_invalid_datasets(rng):
    frames = rng.random((4, 2, 2))
    buckets = np.array([1.0, np.nan, 2.0, 3.0])
    ds = Dataset.from_arrays(frames, buckets)
    from gikit import DatasetValidationError

    for recon in (recon_g2, recon_delta_gi, recon_dgi, recon_ci, recon_sgi):
        with pytest.raises(DatasetValidationError):
            recon(ds)


def test_result_diagnostics_attached(rng):
    ds = random_dataset(rng, 9)
    recon_sgi(ds, mode=1, shift=2)
    with pytest.raises(ValueError):
        recon_g2(ds).negative  # single-image method has no negative half


def _pair_loop(ds, mode, shift, close_loop):
    """Independent oracle: an explicit loop over the defining sgi formulas."""
    frames = [r.frame.data for r in ds.records]
    buckets = [r.bucket for r in ds.records]
    n = len(frames)
    pairs = [(i + shift, i) for i in range(n - shift)]
    if close_loop:
        pairs.append((n - 1, 0))
    plus = np.zeros(frames[0].shape)
    minus = np.zeros(frames[0].shape)
    for hi, lo in pairs:
        d_s = buckets[hi] - buckets[lo]
        if mode == 1:
            plus = plus + d_s * (frames[hi] - frames[lo])
        elif mode == 2:
            plus = plus + d_s * frames[hi]
            minus = minus + d_s * frames[lo]
        else:
            plus = plus + buckets[hi] * (frames[hi] - frames[lo])
            minus = minus + buckets[lo] * (frames[hi] - frames[lo])
    images = [plus] if mode == 1 else [plus, minus]
    return [image / len(pairs) for image in images], len(pairs)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shift, close_loop", [(1, False), (1, True), (2, False), (5, False)])
def test_batch_sgi_matches_explicit_pair_loop(mode, shift, close_loop, rng):
    ds = random_dataset(rng, 40)
    batch = recon_sgi(ds, mode=mode, shift=shift, close_loop=close_loop)
    expected, pairs = _pair_loop(ds, mode, shift, close_loop)
    assert batch.count == pairs
    assert len(batch.images) == len(expected)
    for image, ref in zip(batch.images, expected):
        assert_images_close(image.data, ref, 1e-12)


def _classic_loop(ds, method):
    """Independent oracle: per-record loops over the README formulas."""
    frames = [r.frame.data for r in ds.records]
    buckets = [r.bucket for r in ds.records]
    n = len(frames)
    s_mean = sum(buckets) / n
    i_mean = sum(frames) / n
    si_mean = sum(s * f for s, f in zip(buckets, frames)) / n
    if method == "g2":
        return [si_mean]
    if method == "dgi-delta":
        return [si_mean - s_mean * i_mean]
    if method == "dgi":
        totals = [float(f.sum()) for f in frames]
        r_mean = sum(totals) / n
        ri_mean = sum(r * f for r, f in zip(totals, frames)) / n
        return [si_mean - (s_mean / r_mean) * ri_mean]
    positive = [f for s, f in zip(buckets, frames) if s >= s_mean]
    negative = [f for s, f in zip(buckets, frames) if s < s_mean]
    return [sum(positive) / len(positive), sum(negative) / len(negative)]


@pytest.mark.parametrize(
    "method, recon",
    [("g2", recon_g2), ("dgi-delta", recon_delta_gi), ("dgi", recon_dgi), ("ci", recon_ci)],
)
def test_classic_estimators_match_per_record_loops(method, recon, rng):
    for n in (2, 3, 17, 64):
        ds = random_dataset(rng, n, 8, 8)
        result = recon(ds)
        expected = _classic_loop(ds, method)
        assert result.method == method and result.count == n
        assert len(result.images) == len(expected)
        for image, ref in zip(result.images, expected):
            assert_images_close(image.data, ref, 1e-12)
