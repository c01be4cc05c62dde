import numpy as np
import pytest

from gikit import (
    DriftProfile,
    Frame,
    NoiseModel,
    ObjectScene,
    PatternModel,
    apply_drift,
    apply_noise,
    binary_demo_scene,
    drift_gains,
    encode_dataset,
    forward_bucket,
    frame_sum,
    generate_patterns,
    simulate,
)

SPECKLE = PatternModel("correlated-speckle", grain_radius=2.0, step_shift=1.0, jitter=0.0)


def test_scene_validation():
    scene = ObjectScene([[0.0, 1.0], [0.25, 0.75]])
    assert not scene.binary
    assert binary_demo_scene(32, 32).binary
    with pytest.raises(ValueError):
        ObjectScene([[1.5, 0.0]])
    with pytest.raises(ValueError):
        ObjectScene([[-0.1, 0.0]])


def test_forward_bucket_cases():
    pattern = Frame([[1.0, 2.0], [3.0, 4.0]])
    assert forward_bucket(pattern, ObjectScene(np.ones((2, 2)))) == frame_sum(pattern)
    assert forward_bucket(pattern, ObjectScene(np.zeros((2, 2)))) == 0.0
    scene = ObjectScene([[1.0, 0.0], [0.0, 1.0]])
    assert forward_bucket(pattern, scene) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        forward_bucket(Frame(np.ones((3, 2))), scene)


def test_iid_patterns_deterministic_and_in_range():
    a = generate_patterns(8, 8, 5, PatternModel(), seed=42)
    b = generate_patterns(8, 8, 5, PatternModel(), seed=42)
    c = generate_patterns(8, 8, 5, PatternModel(), seed=43)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.data, fb.data)
    assert not np.array_equal(a[0].data, c[0].data)
    stacked = np.stack([f.data for f in a])
    assert stacked.min() >= 0.0 and stacked.max() < 1.0


def test_iid_patterns_prefix_stable():
    # Per-frame counter-split streams: frame i does not depend on n.
    short = generate_patterns(6, 6, 3, PatternModel(), seed=7)
    long = generate_patterns(6, 6, 10, PatternModel(), seed=7)
    for fs, fl in zip(short, long):
        np.testing.assert_array_equal(fs.data, fl.data)


def test_generate_patterns_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_patterns(0, 8, 3, PatternModel(), seed=1)
    with pytest.raises(ValueError):
        generate_patterns(8, 8, 0, PatternModel(), seed=1)
    with pytest.raises(ValueError):
        PatternModel(kind="bogus")
    with pytest.raises(ValueError):
        PatternModel(grain_radius=-1.0)


def test_speckle_zero_shift_frames_identical():
    model = PatternModel("correlated-speckle", grain_radius=2.0, step_shift=0.0, jitter=0.0)
    frames = generate_patterns(8, 8, 3, model, seed=5)
    np.testing.assert_array_equal(frames[0].data, frames[1].data)
    np.testing.assert_array_equal(frames[0].data, frames[2].data)


def test_speckle_unit_shift_is_cyclic_translation():
    frames = generate_patterns(8, 8, 2, SPECKLE, seed=5)
    rolled = np.roll(frames[0].data.ravel(), 1).reshape(8, 8)
    np.testing.assert_array_equal(frames[1].data, rolled)


def test_speckle_rolls_preserve_frame_total():
    frames = generate_patterns(16, 16, 4, SPECKLE, seed=3)
    totals = [frame_sum(f) for f in frames]
    assert totals == pytest.approx([totals[0]] * 4, rel=1e-12)


def test_speckle_adjacent_correlation_decreases_with_shift():
    def adjacent_corr(step):
        model = PatternModel("correlated-speckle", grain_radius=2.0, step_shift=step, jitter=0.0)
        f = generate_patterns(64, 64, 2, model, seed=11)
        return np.corrcoef(f[0].data.ravel(), f[1].data.ravel())[0, 1]

    assert adjacent_corr(1) > adjacent_corr(4)


def test_drift_gains_none_and_zero_amplitude():
    frames = generate_patterns(4, 4, 3, PatternModel(), seed=1)
    for profile in (DriftProfile(), DriftProfile("linear", 0.0)):
        out = apply_drift(frames, profile)
        for fo, fi in zip(out, frames):
            np.testing.assert_array_equal(fo.data, fi.data)


def test_linear_drift_gains_match_formula():
    frames = generate_patterns(4, 4, 3, PatternModel(), seed=1)
    out = apply_drift(frames, DriftProfile("linear", 0.2))
    for i, (fo, fi) in enumerate(zip(out, frames)):
        gain = 1.0 + 0.2 * (i / 3 - 0.5)
        assert frame_sum(fo) == pytest.approx(gain * frame_sum(fi), rel=1e-12)


def test_step_and_sinusoidal_gains():
    step = drift_gains(DriftProfile("step", 0.25, period_or_knots=2), 4)
    np.testing.assert_allclose(step, [1.25, 1.25, 0.75, 0.75])
    sine = drift_gains(DriftProfile("sinusoidal", 0.5, period_or_knots=4), 4)
    np.testing.assert_allclose(sine, 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(4) / 4), atol=1e-15)


def test_random_walk_gains_positive_and_deterministic():
    profile = DriftProfile("random-walk", 0.5)
    a = drift_gains(profile, 200, seed=3)
    b = drift_gains(profile, 200, seed=3)
    np.testing.assert_array_equal(a, b)
    assert (a > 0).all() and a[0] == 1.0
    assert a.min() >= 0.1 and a.max() <= 10.0


def test_drift_amplitude_validation():
    with pytest.raises(ValueError):
        DriftProfile("linear", 1.0)
    with pytest.raises(ValueError):
        DriftProfile("sinusoidal", -0.1)
    DriftProfile("random-walk", 2.0)  # clamped family tolerates large amplitude


def test_step_drift_needs_at_least_one_segment():
    with pytest.raises(ValueError, match="segment"):
        DriftProfile("step", 0.3, 0.5)
    for period in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DriftProfile("step", 0.3, period)
    np.testing.assert_allclose(drift_gains(DriftProfile("step", 0.3, 1.0), 3), 1.3)
    DriftProfile("sinusoidal", 0.3, 0.5)  # a sub-unit period is still a period


def test_noise_degenerate_cases():
    scene = ObjectScene(np.ones((4, 4)))
    ds = simulate(scene, n=3, seed=2)
    silent = list(apply_noise(ds.records, NoiseModel(0.0, 0.0), seed=9))
    assert [r.bucket for r in silent] == [r.bucket for r in ds.records]

    shifted = list(apply_noise(ds.records, NoiseModel(mean=5.0, std=0.0), seed=9))
    for before, after in zip(ds.records, shifted):
        assert after.bucket == before.bucket + 5.0
        assert after.frame is before.frame  # reference frames never altered

    field = list(apply_noise(ds.records, NoiseModel(mean=0.0625, std=0.0, target="object-field"), seed=9))
    for before, after in zip(ds.records, field):
        assert after.bucket == pytest.approx(before.bucket + 0.0625 * 16, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(std=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(target="ccd")


def test_simulate_proportional_arms_and_determinism():
    scene = binary_demo_scene(8, 8)
    ds = simulate(scene, n=16, seed=21)
    t = scene.transmission.ravel()
    for rec in ds.records:
        expected = float(rec.frame.data.ravel() @ t)
        assert rec.bucket == pytest.approx(expected, rel=1e-12)
    assert encode_dataset(ds) == encode_dataset(simulate(scene, n=16, seed=21))


def test_simulate_drift_commutes_with_bucket():
    scene = binary_demo_scene(8, 8)
    plain = simulate(scene, n=32, seed=4)
    profile = DriftProfile("linear", 0.4)
    drifted = simulate(scene, n=32, seed=4, drift=profile)
    gains = drift_gains(profile, 32, seed=4)
    np.testing.assert_allclose(drifted.buckets, gains * plain.buckets, rtol=1e-12)


def test_simulate_single_record_and_provenance():
    scene = binary_demo_scene(8, 8)
    ds = simulate(scene, n=1, seed=0)
    assert ds.n == 1
    assert '"seed":0' in ds.header.provenance
    noisy = simulate(scene, n=2, seed=0, noise=NoiseModel(mean=0.012, std=0.05))
    assert '"mean":0.012' in noisy.header.provenance


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["grain_radius", "step_shift", "jitter"])
def test_pattern_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        PatternModel("correlated-speckle", **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["mean", "std"])
def test_noise_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("kind", ["linear", "random-walk"])
def test_drift_amplitude_must_be_finite(kind, value):
    with pytest.raises(ValueError, match="amplitude"):
        DriftProfile(kind, value)


def test_speckle_grain_wider_than_frame_rejected():
    with pytest.raises(ValueError, match="grain radius"):
        generate_patterns(8, 6, 2, PatternModel("correlated-speckle", grain_radius=8.5), seed=0)
    frames = generate_patterns(8, 6, 2, PatternModel("correlated-speckle", grain_radius=8.0), seed=0)
    assert len(frames) == 2
