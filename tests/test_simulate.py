import numpy as np
import pytest

from gikit import (
    DriftProfile,
    NoiseModel,
    ObjectScene,
    PatternModel,
    apply_noise,
    binary_demo_scene,
    drift_gains,
    encode_dataset,
    frame_sum,
    generate_patterns,
    simulate,
)
from gikit.simulate import _wrap_blur

SPECKLE = PatternModel("correlated-speckle", grain_radius=2.0, step_shift=1.0, jitter=0.0)


def test_scene_validation():
    scene = ObjectScene([[0.0, 1.0], [0.25, 0.75]])
    assert not scene.binary
    assert binary_demo_scene(32, 32).binary
    with pytest.raises(ValueError):
        ObjectScene([[1.5, 0.0]])
    with pytest.raises(ValueError):
        ObjectScene([[-0.1, 0.0]])


def test_bucket_is_frame_dot_transmission():
    ones = simulate(ObjectScene(np.ones((2, 2))), n=6, seed=8)
    zeros = simulate(ObjectScene(np.zeros((2, 2))), n=6, seed=8)
    diagonal = simulate(ObjectScene([[1.0, 0.0], [0.0, 1.0]]), n=6, seed=8)
    for rec in ones.records:
        assert rec.bucket == pytest.approx(frame_sum(rec.frame), rel=1e-12)
    assert (zeros.buckets == 0.0).all()
    for rec in diagonal.records:
        assert rec.bucket == pytest.approx(rec.frame.data[0, 0] + rec.frame.data[1, 1], rel=1e-12)
    # The scene does not change the frames.
    assert ones.frame_matrix.tobytes() == zeros.frame_matrix.tobytes() == diagonal.frame_matrix.tobytes()


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
    scene = binary_demo_scene(4, 4)
    plain = simulate(scene, n=3, seed=1)
    for profile in (DriftProfile(), DriftProfile("linear", 0.0)):
        out = simulate(scene, n=3, seed=1, drift=profile)
        np.testing.assert_array_equal(out.frame_matrix, plain.frame_matrix)


def test_linear_drift_gains_match_formula():
    scene = binary_demo_scene(4, 4)
    plain = simulate(scene, n=3, seed=1)
    out = simulate(scene, n=3, seed=1, drift=DriftProfile("linear", 0.2))
    for i, (fo, fi) in enumerate(zip(out.records, plain.records)):
        gain = 1.0 + 0.2 * (i / 3 - 0.5)
        assert frame_sum(fo.frame) == pytest.approx(gain * frame_sum(fi.frame), rel=1e-12)


@pytest.mark.parametrize("profile", [DriftProfile("linear", 0.2), DriftProfile("sinusoidal", 0.5, 7.0),
                                     DriftProfile("step", 0.3, 3.0), DriftProfile("random-walk", 0.1)])
@pytest.mark.parametrize("pattern", [PatternModel(), SPECKLE])
def test_drifted_frames_are_frames_times_gains(profile, pattern):
    scene = binary_demo_scene(6, 6)
    plain = simulate(scene, n=20, seed=6, pattern=pattern)
    drifted = simulate(scene, n=20, seed=6, pattern=pattern, drift=profile)
    gains = drift_gains(profile, 20, seed=6)
    assert drifted.frame_matrix.tobytes() == (plain.frame_matrix * gains[:, None]).tobytes()


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


@pytest.mark.parametrize("pattern", [PatternModel(), PatternModel("correlated-speckle", 2.5, 1.5, jitter=0.7)])
def test_generate_patterns_are_the_simulated_frames(pattern):
    frames = generate_patterns(9, 7, 40, pattern, seed=12)
    run = simulate(binary_demo_scene(9, 7), n=40, seed=12, pattern=pattern)
    assert np.stack([f.data for f in frames]).tobytes() == run.frame_matrix.tobytes()


@pytest.mark.parametrize("pattern", [PatternModel(), PatternModel("correlated-speckle", 2.5, 1.5, jitter=0.7)])
def test_generate_patterns_over_many_blocks_are_the_simulated_frames(pattern):
    # 64x64 frames fill a block with 63 records, so 150 frames span three.
    frames = generate_patterns(64, 64, 150, pattern, seed=12)
    run = simulate(binary_demo_scene(64, 64), n=150, seed=12, pattern=pattern)
    assert np.stack([f.data for f in frames]).tobytes() == run.frame_matrix.tobytes()


@pytest.mark.parametrize("target", ["bucket", "object-field"])
def test_apply_noise_gives_the_noised_run(target):
    scene = binary_demo_scene(8, 8)
    drift = DriftProfile("random-walk", 0.05)
    noise = NoiseModel(mean=0.02, std=0.1, target=target)
    clean = simulate(scene, n=40, seed=13, drift=drift)
    noised = simulate(scene, n=40, seed=13, drift=drift, noise=noise)
    buckets = [rec.bucket for rec in apply_noise(clean.records, noise, seed=13)]
    assert np.array(buckets).tobytes() == noised.buckets.tobytes()


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


BLUR_SHAPES = [(1, 9), (9, 1), (5, 12), (128, 128)]


@pytest.mark.parametrize("shape", BLUR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("sigma", [1e-200, 0.1, 0.5, 1.5, 2.5, 8.0])
def test_wrap_blur_is_scipy_gaussian_filter_bit_for_bit(shape, sigma):
    # SciPy is imported directly, so this check cannot skip. At sigma 8 the
    # kernel radius, 32, is wider than every frame here but 128x128; SciPy
    # leaves a sigma of 1e-15 or less unfiltered.
    from scipy.ndimage import gaussian_filter

    image = np.random.default_rng(sum(shape)).random(shape)
    expected = gaussian_filter(image, sigma=sigma, mode="wrap")
    assert np.array_equal(_wrap_blur(image, sigma), expected)


@pytest.mark.parametrize("step_shift, jitter, n, lowest, highest", [
    (1.5, 3.0, 40, -1, 50),  # negative jittered offsets
    (1e9 + 0.5, 3.0, 30, 0, 10**10),  # offsets far above the pixel count
    (0.0, 2.0**61, 32, -(2**61), 2**62),  # offsets of either sign near 2**62
])
def test_gathered_speckle_frames_are_rolls(step_shift, jitter, n, lowest, highest):
    height, width, seed = 3, 4, 2
    flat = generate_patterns(width, height, 1, PatternModel("correlated-speckle", 1.5, 0.0), seed)[0].data.ravel()
    draws = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 1))).normal(0.0, jitter, size=n)
    offsets = np.rint(np.arange(n) * step_shift + draws).astype(np.int64)
    assert offsets.min() <= lowest and offsets.max() >= highest
    frames = generate_patterns(width, height, n, PatternModel("correlated-speckle", 1.5, step_shift, jitter), seed)
    for offset, frame in zip(offsets, frames):
        assert np.array_equal(frame.data.ravel(), np.roll(flat, offset))


@pytest.mark.parametrize("amplitude", [1.5, 1000.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 31, 2024])
def test_random_walk_gains_equal_the_scalar_loop(seed, amplitude):
    # Over 400 shots both amplitudes drive the walk into both bounds; at
    # 1000, exp(eps) overflows to inf, which the walk clamps without a warning.
    profile, n = DriftProfile("random-walk", amplitude), 400
    eps = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))).normal(0.0, amplitude, size=n)
    expected = np.empty(n)
    expected[0] = 1.0
    with np.errstate(over="ignore"):
        for j in range(1, n):
            expected[j] = min(max(expected[j - 1] * np.exp(eps[j]), 0.1), 10.0)
    assert expected.min() == 0.1 and expected.max() == 10.0
    assert drift_gains(profile, n, seed=seed).tobytes() == expected.tobytes()
