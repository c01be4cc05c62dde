"""Per-record random streams: pattern i draws from SeedSequence(seed,
spawn_key=(0, i)) and the noise of record i from SeedSequence(seed,
spawn_key=(2, i)). The simulator derives these streams in bulk; here they
are built one record at a time, the plain way, and must agree bit for bit."""

import sys

import numpy as np
import pytest

import gikit.fileio
from gikit import DriftProfile, NoiseModel, apply_noise, binary_demo_scene, drift_gains, simulate
from gikit.simulate import Simulation, _block_noise, _pcg64_states

BLOCK_ROWS = 8
SIDE = 12


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * (8 + 4 * SIDE * SIDE))


def _stream(seed, key, i):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))


def _reference_run(scene, n, seed, noise):
    """Frames and buckets of an iid run without drift, one record at a time."""
    frames = np.empty((n, SIDE, SIDE))
    for i in range(n):
        _stream(seed, 0, i).random(out=frames[i])
    flat = frames.reshape(n, -1)
    transmission = scene.transmission.ravel()
    buckets = np.concatenate([flat[b : b + BLOCK_ROWS] @ transmission for b in range(0, n, BLOCK_ROWS)])
    for i in range(n) if noise.enabled else ():
        rng = _stream(seed, 2, i)
        if noise.target == "bucket":
            buckets[i] += float(rng.normal(noise.mean, noise.std))
        else:
            buckets[i] += float(rng.normal(noise.mean, noise.std, size=SIDE * SIDE).sum())
    return flat, buckets


@pytest.mark.parametrize("n", [17, 64])
@pytest.mark.parametrize("target", [None, "bucket", "object-field"])
@pytest.mark.parametrize("seed", [0, 9, 2**40 + 1])
def test_simulation_equals_per_record_streams(small_blocks, n, target, seed):
    scene = binary_demo_scene(SIDE, SIDE)
    noise = NoiseModel() if target is None else NoiseModel(mean=0.02, std=0.1, target=target)
    frames, buckets = _reference_run(scene, n, seed, noise)
    run = Simulation(scene, n, seed=seed, noise=noise)
    dataset = run.dataset()
    assert dataset.frame_matrix.tobytes() == frames.tobytes()
    assert dataset.buckets.tobytes() == buckets.tobytes()
    streamed = [(b.copy(), f.copy()) for _, b, f in run.blocks()]
    assert np.concatenate([f for _, f in streamed]).tobytes() == frames.tobytes()
    assert np.concatenate([b for b, _ in streamed]).tobytes() == buckets.tobytes()


def _reference_state(seed, key, i):
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key, i))).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("key", [0, 2])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5])
def test_pcg64_states_equal_seed_sequence(seed, key):
    for i in (0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1):
        assert _pcg64_states(seed, key, i, 1) == [_reference_state(seed, key, i)]
    # One block across the seam where the index becomes two words long.
    start = 2**32 - 2
    assert _pcg64_states(seed, key, start, 4) == [_reference_state(seed, key, i) for i in range(start, start + 4)]
    assert _pcg64_states(seed, key, 5, 40) == [_reference_state(seed, key, i) for i in range(5, 45)]
    assert _pcg64_states(seed, key, 7, 0) == []


@pytest.mark.parametrize("seed", [None, True, False, np.True_, 1.0, 2.5, "3", -1, np.int64(-4)])
def test_simulation_rejects_a_seed_that_is_not_a_non_negative_int(monkeypatch, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("the seed is checked before any work")

    module = sys.modules[Simulation.__module__]  # gikit.simulate is also a function's name
    monkeypatch.setattr(module, "_pattern_filler", no_work)
    monkeypatch.setattr(module, "drift_gains", no_work)
    scene = binary_demo_scene(SIDE, SIDE)
    for run in (Simulation, simulate):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run(scene, 4, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.uint64(5)])
def test_numpy_integer_seed_is_the_int_seed(seed):
    scene = binary_demo_scene(SIDE, SIDE)
    noise = NoiseModel(std=0.1)
    expected = simulate(scene, 9, seed=5, noise=noise)
    got = simulate(scene, 9, seed=seed, noise=noise)
    assert type(got.header.seed) is int
    assert got.header == expected.header
    assert got.frame_matrix.tobytes() == expected.frame_matrix.tobytes()
    assert got.buckets.tobytes() == expected.buckets.tobytes()


BAD_SEEDS = [None, True, 2.5, "3", -1]
WALK = DriftProfile("random-walk", 0.2)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_apply_noise_checks_its_seed_at_the_call(seed):
    def records():
        raise AssertionError("the seed is checked before the first record is drawn")
        yield

    for target in ("bucket", "object-field"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            apply_noise(records(), NoiseModel(std=0.1, target=target), seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_drift_gains_checks_its_seed(seed):
    for profile in (WALK, DriftProfile("linear", 0.2)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            drift_gains(profile, 6, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**40 + 1])
@pytest.mark.parametrize("target", ["bucket", "object-field"])
def test_apply_noise_draws_each_record_from_its_stream(seed, target):
    noise = NoiseModel(mean=0.02, std=0.1, target=target)
    records = simulate(binary_demo_scene(SIDE, SIDE), 5, seed=1).records
    got = [rec.bucket for rec in apply_noise(records, noise, seed=seed)]
    expected = []
    for rec in records:
        rng = _stream(int(seed), 2, rec.index)
        size = None if target == "bucket" else SIDE * SIDE
        expected.append(rec.bucket + float(np.sum(rng.normal(noise.mean, noise.std, size=size))))
    assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("group_bytes", [1, 3 * 8 * SIDE * SIDE, 1 << 20])
def test_block_noise_is_the_same_in_any_draw_group(monkeypatch, group_bytes):
    # The normals are drawn a group of records at a time, one record per
    # group up to all 37; every model gets numpy's normal of its records'
    # streams, bit for bit, wherever the groups are cut.
    models = [NoiseModel(0.02, 0.1, "bucket"), NoiseModel(-0.5, 0.05, "object-field"), NoiseModel(0.3, 2.0)]
    expected = [[float(np.sum(_stream(3, 2, i).normal(m.mean, m.std, size=None if m.target == "bucket" else SIDE**2)))
                 for i in range(40, 77)] for m in models]
    monkeypatch.setattr(sys.modules["gikit.simulate"], "_NOISE_GROUP_BYTES", group_bytes)
    assert _block_noise(3, 40, 37, SIDE * SIDE, models).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**40 + 1])
def test_random_walk_gains_draw_from_the_drift_stream(seed):
    eps = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(1,))).normal(0.0, WALK.amplitude, size=50)
    expected = [1.0]
    for step in eps[1:]:
        expected.append(min(max(expected[-1] * np.exp(step), 0.1), 10.0))
    assert drift_gains(WALK, 50, seed=seed).tobytes() == np.array(expected).tobytes()
