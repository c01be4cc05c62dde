"""Block-streamed simulation: `gikit simulate` generates and writes the run a
few records at a time, and must write the bytes of the in-memory run."""

import tracemalloc

import numpy as np
import pytest

import gikit.fileio
from gikit import (
    DriftProfile,
    NoiseModel,
    PatternModel,
    ReconImage,
    binary_demo_scene,
    encode_dataset,
    export_image,
    import_scene,
    open_container,
    simulate,
)
from gikit.cli import main
from gikit.simulate import Simulation

BLOCK_ROWS = 8
SIDE = 12


def _record_bytes(side: int) -> int:
    return 8 + 4 * side * side


def _scene_pgm(directory, side):
    path = directory / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(side, side).transmission), path)
    return path


@pytest.fixture
def scene_pgm(tmp_path):
    return _scene_pgm(tmp_path, SIDE)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * _record_bytes(SIDE))


SETTINGS = {
    "iid": (["--pattern", "iid"], PatternModel()),
    "speckle-jitter": (
        ["--pattern", "speckle", "--grain", "2.5", "--step-shift", "1.5", "--jitter", "0.7"],
        PatternModel("correlated-speckle", grain_radius=2.5, step_shift=1.5, jitter=0.7),
    ),
}


@pytest.mark.parametrize("n", [17, 64])
@pytest.mark.parametrize("target", ["bucket", "object-field"])
@pytest.mark.parametrize("pattern", sorted(SETTINGS))
def test_cli_bytes_equal_in_memory_run(tmp_path, scene_pgm, small_blocks, n, target, pattern):
    flags, model = SETTINGS[pattern]
    out = tmp_path / "run.gid"
    assert main(["simulate", "--scene", str(scene_pgm), "--n", str(n), "--seed", "9",
                 "--drift", "random-walk:0.05", "--noise-mean", "0.02", "--noise-std", "0.1",
                 "--noise-target", target, "--out", str(out)] + flags) == 0
    dataset = simulate(import_scene(scene_pgm), n=n, seed=9, pattern=model,
                       drift=DriftProfile("random-walk", 0.05),
                       noise=NoiseModel(mean=0.02, std=0.1, target=target))
    assert out.read_bytes() == encode_dataset(dataset)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.gid", "scene.pgm"]


@pytest.mark.parametrize("n", [1, 17, 64])
def test_blocks_partition_the_run(small_blocks, n):
    run = Simulation(binary_demo_scene(SIDE, SIDE), n, seed=3, pattern=SETTINGS["speckle-jitter"][1],
                     noise=NoiseModel(std=0.1))
    whole = run.dataset()
    starts, buckets, frames = [], [], []
    for start, block_buckets, block_frames in run.blocks():
        starts.append(start)
        buckets.append(block_buckets.copy())
        frames.append(block_frames.copy())
    assert starts == list(range(0, n, BLOCK_ROWS))
    np.testing.assert_array_equal(np.concatenate(buckets), whole.buckets)
    np.testing.assert_array_equal(np.concatenate(frames), whole.frame_matrix)
    assert run.header == whole.header


def test_cli_simulate_memory_is_one_block(tmp_path, monkeypatch):
    side, n = 64, 512
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", BLOCK_ROWS * _record_bytes(side))
    scene = _scene_pgm(tmp_path, side)
    argv = ["simulate", "--scene", str(scene), "--n", str(n), "--seed", "4", "--drift", "linear:0.3",
            "--noise-mean", "0.01", "--noise-std", "0.05", "--noise-target", "object-field",
            "--out", str(tmp_path / "run.gid")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * side * side * 8 / 4
    assert open_container(tmp_path / "run.gid").n == n


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("target", ["bucket", "object-field"])
def test_overflowing_bucket_exits_1_and_writes_nothing(tmp_path, scene_pgm, small_blocks, capsys, target):
    old = tmp_path / "run.gid"
    old.write_bytes(b"the previous run")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["simulate", "--scene", str(scene_pgm), "--n", "64", "--seed", "2",
                 "--noise-std", "1e308", "--noise-target", target, "--out", str(old)]) == 1
    assert "bucket is" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
