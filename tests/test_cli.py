"""Black-box checks of the command-line surface: flags, exit codes, outputs."""

import csv
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gikit
from gikit import ReconImage, binary_demo_scene, export_image, read_dataset
from gikit.cli import main


@pytest.fixture
def scene_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(12, 12).transmission), path)
    return path


def _simulate(tmp_path, scene_pgm, name="run.gid", n=24, extra=()):
    out = tmp_path / name
    code = main(
        ["simulate", "--scene", str(scene_pgm), "--n", str(n), "--seed", "5", "--out", str(out)]
        + list(extra)
    )
    assert code == 0
    return out


def test_simulate_writes_container_and_summary(tmp_path, scene_pgm, capsys):
    out = _simulate(tmp_path, scene_pgm)
    ds = read_dataset(out)
    assert ds.n == 24 and ds.width == 12
    captured = capsys.readouterr().out
    assert "n=24" in captured and "provenance" in captured


def test_simulate_n_zero_is_usage_error(tmp_path, scene_pgm):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scene", str(scene_pgm), "--n", "0", "--out", str(tmp_path / "x.gid")])
    assert err.value.code == 2


def test_simulate_missing_scene_is_runtime_error(tmp_path, capsys):
    code = main(["simulate", "--scene", str(tmp_path / "nope.pgm"), "--n", "4",
                 "--out", str(tmp_path / "x.gid")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path, scene_pgm):
    a = _simulate(tmp_path, scene_pgm, "a.gid", extra=["--drift", "linear:0.3", "--noise-mean", "0.012", "--noise-std", "0.05"])
    b = _simulate(tmp_path, scene_pgm, "b.gid", extra=["--drift", "linear:0.3", "--noise-mean", "0.012", "--noise-std", "0.05"])
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_single_image_with_manifest(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    out = tmp_path / "recon"
    manifest = tmp_path / "log"
    code = main([
        "reconstruct", "--in", str(gid), "--method", "sgi1", "--out", str(out),
        "--scene", str(scene_pgm), "--manifest", str(manifest), "--raw",
    ])
    assert code == 0
    assert (tmp_path / "recon.pgm").exists()
    assert (tmp_path / "recon.f64").exists()
    lines = (tmp_path / "log.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "sgi1" and fields[1] == "24" and fields[2] == "1"
    assert fields[3] == "none" and fields[6] == "23"
    assert fields[5] != ""  # cnr computed when scene given


@pytest.mark.parametrize("sidecar, message", [(b"{}\n", "must hold a JSON list, got dict"),
                                              (b"not json\n", "is not valid JSON")], ids=["object", "not-json"])
def test_reconstruct_manifest_with_a_bad_sidecar_changes_nothing(tmp_path, scene_pgm, capsys, sidecar, message):
    gid = _simulate(tmp_path, scene_pgm)
    manifest = tmp_path / "log"
    argv = ["reconstruct", "--in", str(gid), "--method", "g2", "--out", str(tmp_path / "r"),
            "--manifest", str(manifest)]
    assert main(argv) == 0
    csv_bytes = (tmp_path / "log.csv").read_bytes()
    (tmp_path / "log.json").write_bytes(sidecar)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest sidecar ") and message in err and "Traceback" not in err
    assert (tmp_path / "log.csv").read_bytes() == csv_bytes
    assert (tmp_path / "log.json").read_bytes() == sidecar


@pytest.mark.parametrize("sidecar", [b"{}\n", b"not json\n"], ids=["object", "not-json"])
@pytest.mark.parametrize("flags", [["--method", "g2"], ["--method", "sgi1", "--progressive", "8"]],
                         ids=["batch", "progressive"])
def test_bad_sidecar_fails_before_any_record_is_read(tmp_path, scene_pgm, monkeypatch, capsys, sidecar, flags):
    gid = _simulate(tmp_path, scene_pgm)
    (tmp_path / "log.json").write_bytes(sidecar)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    reads = []
    monkeypatch.setattr(gikit.fileio.Container, "blocks", lambda self: reads.append(self) or iter(()))
    assert main(["reconstruct", "--in", str(gid), *flags, "--scene", str(scene_pgm),
                 "--out", str(tmp_path / "r"), "--manifest", str(tmp_path / "log")]) == 1
    assert capsys.readouterr().err.startswith("error: manifest sidecar ")
    assert reads == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_reconstruct_limit_and_pair_count(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    manifest = tmp_path / "log"
    code = main([
        "reconstruct", "--in", str(gid), "--method", "sgi1", "--limit", "10",
        "--out", str(tmp_path / "r"), "--manifest", str(manifest),
    ])
    assert code == 0
    fields = (tmp_path / "log.csv").read_text().strip().splitlines()[1].split(",")
    assert fields[1] == "10" and fields[6] == "9"


def test_reconstruct_dual_images(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    for method in ("ci", "sgi2", "sgi3"):
        out = tmp_path / method
        assert main(["reconstruct", "--in", str(gid), "--method", method, "--out", str(out)]) == 0
        assert (tmp_path / f"{method}_pos.pgm").exists()
        assert (tmp_path / f"{method}_neg.pgm").exists()


def test_reconstruct_close_loop_shift_conflict_exits_2(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--in", str(gid), "--method", "sgi1", "--shift", "3",
              "--close-loop", "--out", str(tmp_path / "r")])
    assert err.value.code == 2


def test_reconstruct_unknown_method_exits_2(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--in", str(gid), "--method", "fista", "--out", str(tmp_path / "r")])
    assert err.value.code == 2


def test_reconstruct_hostile_header_is_runtime_error(tmp_path, scene_pgm, capsys):
    gid = _simulate(tmp_path, scene_pgm)
    blob = gid.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    hostile = tmp_path / "hostile.gid"
    hostile.write_bytes(blob[:4] + (2).to_bytes(4, "little") + b"[]" + blob[8 + header_len :])
    code = main(["reconstruct", "--in", str(hostile), "--method", "g2", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "object" in capsys.readouterr().err


def test_simulate_step_drift_below_one_segment_exits_2(tmp_path, scene_pgm):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scene", str(scene_pgm), "--n", "4", "--drift", "step:0.3:0.5",
              "--out", str(tmp_path / "x.gid")])
    assert err.value.code == 2


def test_reconstruct_ci_constant_buckets_runtime_error(tmp_path, scene_pgm, capsys):
    gid = _simulate(
        tmp_path, scene_pgm, "flat.gid",
        extra=["--pattern", "speckle", "--step-shift", "0", "--jitter", "0"],
    )
    code = main(["reconstruct", "--in", str(gid), "--method", "ci", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "degenerate" in capsys.readouterr().err.lower()


def test_reconstruct_deterministic_outputs(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm)
    for tag in ("x", "y"):
        assert main(["reconstruct", "--in", str(gid), "--method", "dgi",
                     "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "y.pgm").read_bytes()


def test_reconstruct_progressive_snapshots(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm, n=10)
    out = tmp_path / "live"
    code = main(["reconstruct", "--in", str(gid), "--method", "sgi1",
                 "--progressive", "3", "--out", str(out)])
    assert code == 0
    for seen in (3, 6, 9):
        assert (tmp_path / f"live_snap{seen:06d}.pgm").exists()
    assert (tmp_path / "live.pgm").exists()
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--in", str(gid), "--method", "g2",
              "--progressive", "3", "--out", str(out)])
    assert err.value.code == 2


@pytest.mark.parametrize("flags, seen", [
    (["--shift", "3", "--progressive", "2"], range(4, 13, 2)),  # record 2 has no pair yet
    (["--close-loop", "--progressive", "1"], range(2, 13)),  # nor has record 1, loop or not
], ids=["shift", "close-loop"])
def test_progressive_writes_a_snapshot_at_each_point_with_a_pair(tmp_path, scene_pgm, flags, seen):
    gid = _simulate(tmp_path, scene_pgm, n=12)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["reconstruct", "--in", str(gid), "--method", "sgi1", "--out", str(tmp_path / "live")] + flags) == 0
    snapshots = [f"live_snap{count:06d}.pgm" for count in seen]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + snapshots + ["live.pgm"])


def test_progressive_renames_each_file_once(tmp_path, scene_pgm, monkeypatch):
    # A snapshot is written straight to its one temporary, renamed into
    # place after the pass: never a temporary of a temporary.
    gid = _simulate(tmp_path, scene_pgm, n=12)
    before = {p.name for p in tmp_path.iterdir()}
    renames, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (renames.append((Path(src), Path(dst))), replace(src, dst)))
    assert main(["reconstruct", "--in", str(gid), "--method", "sgi2", "--progressive", "4", "--raw",
                 "--out", str(tmp_path / "live")]) == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.name not in before)
    assert len(written) == 4 + 2 * 3  # the final .pgm and .f64 pairs, and 3 snapshot pairs
    assert sorted(dst.name for _, dst in renames) == written
    assert all(src.name.count(".tmp") == 1 and src.parent == tmp_path for src, _ in renames)


def test_sweep_noise_mean_cardinality(tmp_path, scene_pgm):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--scene", str(scene_pgm), "--axis", "noise-mean",
        "--values", "0.012,0.024,0.036,0.048,0.06", "--methods", "dgi,sgi1",
        "--n", "16", "--noise-std", "0.05", "--drift", "linear:0.3",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header + 5 values x 2 methods
    sidecar = json.loads((tmp_path / "sweep.json").read_text())
    assert len(sidecar) == 10 and sidecar[0]["settings"]["axis"] == "noise-mean"


def test_sweep_single_point_and_n_axis(tmp_path, scene_pgm):
    out = tmp_path / "one"
    code = main(["sweep", "--scene", str(scene_pgm), "--axis", "n", "--values", "12",
                 "--methods", "g2", "--n", "12", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "one.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "12"


def test_sweep_empty_methods_exits_2(tmp_path, scene_pgm):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scene", str(scene_pgm), "--axis", "n", "--values", "8",
              "--methods", ",", "--n", "8", "--seed", "1", "--out", str(tmp_path / "s")])
    assert err.value.code == 2


def test_sweep_drift_kind_axis(tmp_path, scene_pgm):
    out = tmp_path / "drifts"
    code = main(["sweep", "--scene", str(scene_pgm), "--axis", "drift-kind",
                 "--values", "none,linear,sinusoidal", "--methods", "sgi1",
                 "--n", "16", "--drift", "linear:0.3", "--seed", "2", "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "drifts.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[3] for r in rows] == ["none", "linear", "sinusoidal"]


def test_diagnose_columns_and_boundary(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm, "d.gid", n=2)
    out = tmp_path / "sr.csv"
    assert main(["diagnose", "--in", str(gid), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,s_r,dev_index,s_r_deviation"
    assert len(lines) == 3
    assert lines[2].endswith(",,")  # deviation column exhausted

    ds = read_dataset(gid)
    s_r = ds.frame_matrix.sum(axis=1)
    assert float(lines[1].split(",")[1]) == pytest.approx(s_r[0])
    assert float(lines[1].split(",")[3]) == pytest.approx(s_r[1] - s_r[0])


def test_diagnose_deterministic(tmp_path, scene_pgm):
    gid = _simulate(tmp_path, scene_pgm, "d.gid", n=8,
                    extra=["--drift", "linear:0.2"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["diagnose", "--in", str(gid), "--out", str(a)]) == 0
    assert main(["diagnose", "--in", str(gid), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rows_deterministic_except_wall_time(tmp_path, scene_pgm):
    outs = []
    for tag in ("p", "q"):
        out = tmp_path / tag
        assert main(["sweep", "--scene", str(scene_pgm), "--axis", "n",
                     "--values", "8,16", "--methods", "dgi,sgi1", "--n", "16",
                     "--seed", "9", "--out", str(out)]) == 0
        rows = (tmp_path / f"{tag}.csv").read_text().strip().splitlines()
        outs.append([",".join(r.split(",")[:-1]) for r in rows])  # drop wall_time_ms
    assert outs[0] == outs[1]


def _scipy_speckle_filler(width, height, n, model, seed):
    """The speckle frames as earlier versions made them: SciPy's wrap-mode
    Gaussian blur of the base frame, then one np.roll of it per frame."""
    from scipy.ndimage import gaussian_filter

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    base = gaussian_filter(stream(0, 0).random((height, width)), sigma=model.grain_radius, mode="wrap")
    base = (base - base.min()) / (base.max() - base.min()) * np.nextafter(1.0, 0.0)
    shifts = np.arange(n) * model.step_shift + stream(0, 1).normal(0.0, model.jitter, size=n)
    offsets = np.rint(shifts).astype(np.int64)

    def fill(start, out):
        for i, frame in enumerate(out, start):
            frame[...] = np.roll(base.ravel(), offsets[i]).reshape(height, width)

    return fill


def test_speckle_simulate_runs_without_scipy(tmp_path, scene_pgm):
    # The CLI child cannot import SciPy; its container must equal, byte for
    # byte, the one written through the simulator with SciPy's blur and rolls.
    flags = ["--scene", str(scene_pgm), "--n", "700", "--seed", "3", "--pattern", "speckle", "--grain", "2.5",
             "--step-shift", "1.5", "--jitter", "0.7", "--drift", "random-walk:0.05"]
    probe = ("import sys; sys.modules['scipy'] = None; from gikit.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    src = str(Path(gikit.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", probe, "simulate", *flags, "--out", str(tmp_path / "child.gid")],
                   env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True, timeout=60)

    pattern = gikit.PatternModel("correlated-speckle", 2.5, 1.5, 0.7)
    run = gikit.Simulation(gikit.import_scene(scene_pgm), 700, 3, pattern, gikit.DriftProfile("random-walk", 0.05))
    run._fill = _scipy_speckle_filler(12, 12, 700, pattern, 3)
    gikit.write_container(run.header, run.blocks(), tmp_path / "scipy.gid")
    assert (tmp_path / "child.gid").read_bytes() == (tmp_path / "scipy.gid").read_bytes()


NON_FINITE_SETTINGS = [
    ["--pattern", "speckle", "--grain", "inf"],
    ["--grain", "nan"],
    ["--step-shift", "inf"],
    ["--step-shift", "nan"],
    ["--jitter", "inf"],
    ["--drift", "random-walk:inf"],
    ["--noise-mean", "nan"],
    ["--noise-std", "inf"],
]


@pytest.mark.parametrize("flags", NON_FINITE_SETTINGS, ids=" ".join)
def test_simulate_non_finite_setting_exits_2_before_work(tmp_path, scene_pgm, capsys, flags):
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scene", str(scene_pgm), "--n", "4", "--out", str(tmp_path / "x.gid")] + flags)
    assert err.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_sweep_non_finite_noise_mean_exits_2(tmp_path, scene_pgm):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", "0.01,nan",
              "--methods", "g2", "--n", "8", "--out", str(tmp_path / "sweep")])
    assert err.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize("grain", ["12.5", "1e308"])
def test_simulate_speckle_grain_wider_than_scene_exits_1(tmp_path, scene_pgm, capsys, grain):
    code = main(["simulate", "--scene", str(scene_pgm), "--n", "4", "--pattern", "speckle",
                 "--grain", grain, "--out", str(tmp_path / "x.gid")])
    assert code == 1
    assert "grain radius" in capsys.readouterr().err
    assert not (tmp_path / "x.gid").exists()


def test_sweep_drift_kind_point_checked_before_any_run(tmp_path, scene_pgm, monkeypatch):
    # random-walk accepts amplitude 2, but a linear point with it is invalid.
    def no_run(*args, **kwargs):
        raise AssertionError("sweep simulated a point before checking every point")

    monkeypatch.setattr(importlib.import_module("gikit.simulate"), "Simulation", no_run)
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scene", str(scene_pgm), "--drift", "random-walk:2", "--axis", "drift-kind",
              "--values", "none,linear", "--methods", "g2", "--n", "16", "--out", str(tmp_path / "sweep")])
    assert err.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "16"],
    ["sweep", "--axis", "n", "--values", "8", "--methods", "g2", "--n", "16"],
])
def test_negative_seed_exits_2_before_work(tmp_path, scene_pgm, capsys, command):
    with pytest.raises(SystemExit) as err:
        main(command + ["--scene", str(scene_pgm), "--seed", "-1", "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize("flag", ["--step-shift", "--jitter"])
def test_simulate_speckle_offsets_out_of_int64_range_exit_1(tmp_path, capsys, flag):
    scene = tmp_path / "scene.pgm"
    export_image(ReconImage(binary_demo_scene(8, 8).transmission), scene)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow must be caught, not warned about
        code = main(["simulate", "--scene", str(scene), "--n", "16", "--pattern", "speckle",
                     flag, "1e308", "--out", str(tmp_path / "x.gid")])
    assert code == 1
    assert "speckle offsets" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize("flags", [
    ["--axis", "n", "--values", "8", "--methods", "g2", "--shift", "0"],
    ["--axis", "n", "--values", "8", "--methods", "g2,sgi1", "--shift", "-3"],
    ["--axis", "noise-mean", "--values", "0.01", "--methods", "sgi1", "--shift", "300"],
    ["--axis", "n", "--values", "64,4", "--methods", "g2,sgi2", "--shift", "4"],  # the 4-record point
])
def test_sweep_bad_shift_checked_before_any_run(tmp_path, scene_pgm, monkeypatch, flags):
    def no_run(*args, **kwargs):
        raise AssertionError("sweep simulated a point before checking --shift")

    monkeypatch.setattr(importlib.import_module("gikit.simulate"), "Simulation", no_run)
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scene", str(scene_pgm), "--n", "64", "--out", str(tmp_path / "sweep")] + flags)
    assert err.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


def test_sweep_shift_beyond_points_is_fine_without_sgi(tmp_path, scene_pgm):
    assert main(["sweep", "--scene", str(scene_pgm), "--axis", "n", "--values", "8", "--methods", "g2",
                 "--n", "8", "--shift", "300", "--out", str(tmp_path / "sweep")]) == 0


@pytest.mark.parametrize("method", [["--method", "g2"], ["--method", "sgi1", "--progressive", "4"]])
def test_reconstruct_scene_of_other_size_exits_2_before_reading(tmp_path, scene_pgm, capsys, method):
    gid = _simulate(tmp_path, scene_pgm, n=16)
    big = tmp_path / "big.pgm"
    export_image(ReconImage(binary_demo_scene(32, 32).transmission), big)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--in", str(gid), "--scene", str(big), "--manifest", str(tmp_path / "log"),
              "--out", str(tmp_path / "img")] + method)
    assert err.value.code == 2
    assert "32x32 but the frames are 12x12" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _printed_drift_ratio(capsys) -> str:
    line = capsys.readouterr().out.strip()
    assert "drift ratio std(dR)/std(R-<R>) = " in line
    return line.rsplit(" ", 1)[1]


@pytest.mark.parametrize("shift", [1, 3])
def test_diagnose_prints_drift_ratio_of_its_csv(tmp_path, scene_pgm, capsys, shift):
    gid = _simulate(tmp_path, scene_pgm, n=40, extra=["--drift", "linear:0.3"])
    capsys.readouterr()
    out = tmp_path / "sr.csv"
    assert main(["diagnose", "--in", str(gid), "--shift", str(shift), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    s_r = np.array([float(r[1]) for r in rows])
    dev = np.array([float(r[3]) for r in rows if r[3]])
    assert len(dev) == 40 - shift
    assert float(_printed_drift_ratio(capsys)) == dev.std() / s_r.std()


def test_diagnose_constant_totals_drift_ratio_undefined(tmp_path, capsys):
    frames = np.full((8, 4, 4), 0.1)  # every total equal, so std(R - <R>) is 0
    gid = tmp_path / "flat.gid"
    gikit.write_dataset(gikit.Dataset.from_arrays(frames, np.arange(8.0)), gid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--in", str(gid), "--out", str(tmp_path / "sr.csv")]) == 0
    assert _printed_drift_ratio(capsys) == "undefined"


def _integer_flag_argv(tmp_path, scene_pgm, command):
    """A valid argv of ``command`` that writes into ``tmp_path``."""
    gid = str(tmp_path / "in.gid")
    return {
        "simulate": ["simulate", "--scene", str(scene_pgm), "--n", "16", "--out", str(tmp_path / "x.gid")],
        "reconstruct": ["reconstruct", "--in", gid, "--method", "sgi1", "--out", str(tmp_path / "img")],
        "sweep": ["sweep", "--scene", str(scene_pgm), "--axis", "n", "--values", "8", "--methods", "sgi1",
                  "--n", "16", "--out", str(tmp_path / "sweep")],
        "diagnose": ["diagnose", "--in", gid, "--out", str(tmp_path / "sr.csv")],
    }[command]


INTEGER_FLOORS = [
    ("simulate", "--n", 1), ("simulate", "--seed", 0), ("sweep", "--seed", 0),
    ("reconstruct", "--shift", 1), ("reconstruct", "--limit", 1), ("reconstruct", "--progressive", 1),
    ("sweep", "--n", 2), ("sweep", "--shift", 1), ("diagnose", "--shift", 1),
]


@pytest.mark.parametrize("below", [True, False], ids=["floor-1", "non-integer"])
@pytest.mark.parametrize("command, flag, floor", INTEGER_FLOORS, ids=str)
def test_bad_integer_flag_exits_2_before_work(tmp_path, scene_pgm, capsys, command, flag, floor, below):
    _simulate(tmp_path, scene_pgm, "in.gid", n=16)
    argv = _integer_flag_argv(tmp_path, scene_pgm, command)
    assert main(argv) == 0  # the argv is valid without the bad flag
    for output in set(tmp_path.iterdir()) - {scene_pgm, tmp_path / "in.gid"}:
        output.unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, str(floor - 1) if below else "2.5"])
    assert err.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.gid", "scene.pgm"]


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "1" + "0" * 17],
    ["sweep", "--axis", "n", "--values", "1" + "0" * 17, "--methods", "g2", "--n", "16"],
])
def test_run_too_large_to_allocate_exits_1(tmp_path, scene_pgm, capsys, command):
    # 10**17 records need more memory than any address space holds
    assert main(command + ["--scene", str(scene_pgm), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


def test_drift_spec_with_extra_fields_exits_2(tmp_path, scene_pgm, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scene", str(scene_pgm), "--n", "8", "--drift", "linear:0.3:2:9",
              "--out", str(tmp_path / "x.gid")])
    assert err.value.code == 2
    assert "linear:0.3:2:9" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


def test_sweep_methods_are_stripped(tmp_path, scene_pgm):
    rows = []
    for name, methods in (("plain", "g2,sgi1"), ("spaced", "g2, sgi1 ")):
        out = tmp_path / name
        assert main(["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", "0,0.1",
                     "--noise-std", "0.05", "--methods", methods, "--n", "16", "--out", str(out)]) == 0
        entries = json.loads(out.with_suffix(".json").read_text())
        for entry in entries:
            del entry["row"]["wall_time_ms"]
        rows.append(entries)
    assert [entry["settings"]["method"] for entry in rows[0]] == ["g2", "sgi1", "g2", "sgi1"]
    assert rows[1] == rows[0]


def test_sweep_values_are_stripped(tmp_path, scene_pgm):
    assert main(["sweep", "--scene", str(scene_pgm), "--axis", "drift-kind", "--values", "none, linear",
                 "--drift", "linear:0.3", "--methods", "g2", "--n", "16", "--out", str(tmp_path / "s")]) == 0
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert [entry["settings"]["value"] for entry in sidecar] == ["none", "linear"]
    assert [entry["row"]["drift_kind"] for entry in sidecar] == ["none", "linear"]


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "1", "--out", "x.gid"],
    ["sweep", "--n", "4", "--axis", "noise-mean", "--values", "0.01,1e308", "--methods", "g2,sgi1", "--out", "x"],
])
def test_object_field_noise_overflow_exits_1_quietly(tmp_path, scene_pgm, capsys, command):
    # 144 pixels of noise with mean 1e308 sum past float64: the bucket is inf,
    # which the bucket check rejects without a warning reaching stderr.
    argv = command + ["--scene", str(scene_pgm), "--noise-target", "object-field", "--noise-mean", "1e308",
                      "--grain", "0"]
    argv = [str(tmp_path / a) if a in ("x", "x.gid") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid dataset: record 0: bucket is inf") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize("values, methods, message", [
    ("1e308", "dgi", "error: invalid dataset: the buckets are too large: float64 overflows in the bucket sum"),
    ("1e300", "g2,dgi,sgi1", "error: the pixel statistics overflow float64; CNR undefined"),
], ids=["bucket-sum", "pixel-variance"])
def test_sweep_of_buckets_near_the_float64_limit_exits_1_quietly(tmp_path, scene_pgm, capsys, values,
                                                                 methods, message):
    # Finite buckets whose sums (1e308) or whose image's pixel variance (1e300)
    # overflow float64 end in one typed error and no RuntimeWarning.
    argv = ["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", values,
            "--methods", methods, "--n", "4", "--out", str(tmp_path / "x")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == message + "\n"


def test_reconstruct_of_buckets_near_the_float64_limit_exits_1_quietly(tmp_path, scene_pgm, capsys):
    gid = _simulate(tmp_path, scene_pgm, n=4, extra=["--noise-mean", "1e308"])
    capsys.readouterr()
    for method in ("dgi-delta", "ci"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reconstruct", "--in", str(gid), "--method", method, "--out", str(tmp_path / method)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid dataset: the buckets are too large")


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--scene", "{scene}", "--n", "4", "--drift", "bogus", "--out", "{tmp}/x.gid"]),
    ("reconstruct", ["--in", "{gid}", "--method", "sgi1", "--shift", "2", "--close-loop", "--out", "{tmp}/x"]),
    ("sweep", ["--scene", "{scene}", "--n", "4", "--axis", "n", "--values", "3", "--methods", "nope",
               "--out", "{tmp}/x"]),
    ("diagnose", ["--in", "{gid}", "--shift", "24", "--out", "{tmp}/x.csv"]),
])
def test_command_checks_report_as_their_command(tmp_path, scene_pgm, capsys, command, flags):
    gid = _simulate(tmp_path, scene_pgm)
    capsys.readouterr()
    names = {"scene": scene_pgm, "tmp": tmp_path, "gid": gid}
    with pytest.raises(SystemExit) as err:
        main([command] + [flag.format(**names) for flag in flags])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: gikit {command} ")
    assert lines[-1].startswith(f"gikit {command}: error: ")


@pytest.mark.parametrize("target", ["bucket", "object-field"])
def test_sweep_buckets_equal_each_points_simulation(monkeypatch, target):
    # Blocks of 8 records, so that the 70 records span several.
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", 8 * (8 + 4 * 9 * 7))
    scene = binary_demo_scene(9, 7)
    drift = gikit.DriftProfile("linear", 0.3)
    noises = [gikit.NoiseModel(mean, 0.05, target) for mean in (0.0, 0.012, -0.5)] + [gikit.NoiseModel()]
    run = gikit.Simulation(scene, n=70, seed=4, drift=drift)
    expected = [gikit.simulate(scene, n=70, seed=4, drift=drift, noise=noise) for noise in noises]
    starts = []
    for start, buckets, frames in gikit.sweep._noised_blocks(run, 4, noises, 70, True):
        records = slice(start, start + len(frames))
        for row, simulated in zip(buckets, expected, strict=True):
            assert row.tobytes() == simulated.buckets[records].tobytes()
        assert frames.tobytes() == expected[0].frame_matrix[records].tobytes()
        starts.append(start)
    assert starts == list(range(0, 70, 8))


def test_sweep_draws_each_records_noise_once(monkeypatch):
    # Six noise models, both targets: each record's noise stream is set up
    # once, and every model scales the same draws.
    simulate = importlib.import_module("gikit.simulate")
    drawn, record_rngs = [], simulate._record_rngs

    def counted(seed, key, start, count):
        if key == simulate._NOISE_KEY:
            drawn.append(count)
        return record_rngs(seed, key, start, count)

    monkeypatch.setattr(simulate, "_record_rngs", counted)
    run = gikit.Simulation(binary_demo_scene(9, 7), n=70, seed=4)
    noises = [gikit.NoiseModel(mean, 0.05, target) for mean in (0.0, 0.012, -0.5)
              for target in ("bucket", "object-field")]
    for _ in gikit.sweep._noised_blocks(run, 4, noises, 70, True):
        pass
    assert sum(drawn) == 70


@pytest.mark.parametrize("methods, expected_passes", [("g2,dgi,sgi1,sgi3", 1), ("ci,sgi1", 2)], ids=["no-ci", "ci"])
def test_mixed_sweep_noises_once_and_passes_twice_only_for_ci(tmp_path, scene_pgm, monkeypatch, methods,
                                                              expected_passes):
    # One pass draws each record's noise. Only ci's partition needs the
    # buckets ahead: its bucket pass draws the noise, and the last pass
    # takes the run's frames alone and draws nothing again.
    simulate = importlib.import_module("gikit.simulate")
    drawn, passes, record_rngs, blocks = [], [], simulate._record_rngs, simulate.Simulation.blocks

    def counted(seed, key, start, count):
        if key == simulate._NOISE_KEY:
            drawn.append(count)
        return record_rngs(seed, key, start, count)

    monkeypatch.setattr(simulate, "_record_rngs", counted)
    monkeypatch.setattr(simulate.Simulation, "blocks", lambda self: passes.append(self) or blocks(self))
    assert main(["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", "0.01,0.05",
                 "--noise-std", "0.05", "--methods", methods, "--n", "70",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert sum(drawn) == 70
    assert len(passes) == expected_passes


SWEEP_AXES_ARGV = {
    "noise-mean": ["--axis", "noise-mean", "--values", "0.012,0.06,0.012,-0.3", "--noise-target", "object-field"],
    "drift-kind": ["--axis", "drift-kind", "--values", "none,random-walk,step,none", "--drift", "linear:0.3",
                   "--pattern", "speckle", "--grain", "1.5"],
    "n": ["--axis", "n", "--values", "250,37,120", "--drift", "sinusoidal:0.4", "--noise-mean", "0.1"],
}


@pytest.mark.parametrize("axis, methods", [
    *(pytest.param(axis, ",".join(gikit.reconstruct.METHODS), id=axis) for axis in sorted(SWEEP_AXES_ARGV)),
    *(pytest.param(axis, "sgi1,sgi3", id=f"{axis}-sgi") for axis in sorted(SWEEP_AXES_ARGV)),  # one pass
])
def test_sweep_rows_equal_reconstructions_of_each_point(tmp_path, scene_pgm, monkeypatch, axis, methods):
    # Every row's CNR against the in-memory simulation of its point,
    # reconstructed alone; blocks of 40 and chunks of 56 records cut the
    # passes at other records than the points' counts.
    monkeypatch.setattr(gikit.fileio, "_BLOCK_BYTES", 40 * (8 + 4 * 144))
    monkeypatch.setattr(gikit.sgi, "_CHUNK_ROWS", 56)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scene", str(scene_pgm), "--methods", methods,
                 "--n", "200", "--noise-std", "0.05", "--shift", "2", "--seed", "8", "--out", str(out)]
                + SWEEP_AXES_ARGV[axis]) == 0
    scene = gikit.import_scene(scene_pgm)
    mask = gikit.mask_from_scene(scene)
    entries = json.loads(out.with_suffix(".json").read_text())
    assert len(entries) == (3 if axis == "n" else 4) * len(methods.split(","))
    for entry in entries:
        settings, row = entry["settings"], entry["row"]
        provenance = json.loads(settings["provenance"])
        run = gikit.simulate(
            scene, n=provenance["n"], seed=8, pattern=gikit.PatternModel(**provenance["pattern"]),
            drift=gikit.DriftProfile(**provenance["drift"]), noise=gikit.NoiseModel(**provenance["noise"]),
        ).first(row["n"])
        expected = gikit.reconstruct.reconstruct(run, settings["method"], shift=2)
        assert row["pair_count"] == expected.count
        cnr = gikit.cnr(expected.images[0], mask).cnr
        assert abs(row["cnr"] - cnr) <= 1e-12 * abs(cnr), (settings["method"], settings["value"])


def test_all_sgi_sweep_makes_one_pass(tmp_path, scene_pgm, monkeypatch):
    # No classic method needs the bucket pass: one Simulation.blocks for the run.
    simulation = importlib.import_module("gikit.simulate").Simulation
    passes, blocks = [], simulation.blocks
    monkeypatch.setattr(simulation, "blocks", lambda self: passes.append(self) or blocks(self))
    assert main(["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", "0,0.1",
                 "--methods", "sgi1,sgi3", "--n", "64", "--out", str(tmp_path / "sweep")]) == 0
    assert len(passes) == 1


SWEEP_POINT_COLUMNS = {  # (n, drift_kind, noise_mean) of each point of SWEEP_AXES_ARGV[axis] at --n 200
    "noise-mean": [(200, "none", mean) for mean in (0.012, 0.06, 0.012, -0.3)],
    "drift-kind": [(200, kind, 0.0) for kind in ("none", "random-walk", "step", "none")],
    "n": [(n, "sinusoidal", 0.1) for n in (250, 37, 120)],
}


@pytest.mark.parametrize("axis", sorted(SWEEP_AXES_ARGV))
def test_sweep_manifest_columns_are_each_points(tmp_path, scene_pgm, axis):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scene", str(scene_pgm), "--methods", "g2,sgi1", "--n", "200", "--shift", "2",
                 "--out", str(out)] + SWEEP_AXES_ARGV[axis]) == 0
    rows = list(csv.DictReader(out.with_suffix(".csv").read_text().splitlines()))
    expected = [(str(n), k, kind, mean) for n, kind, mean in SWEEP_POINT_COLUMNS[axis] for k in ("", "2")]
    assert [(row["n"], row["k"], row["drift_kind"], float(row["noise_mean"])) for row in rows] == expected


@pytest.mark.parametrize("flags", [["--method", method] for method in gikit.reconstruct.METHODS]
                         + [["--method", "sgi1", "--progressive", "8"]], ids=" ".join)
def test_reconstruct_makes_one_frame_pass(tmp_path, scene_pgm, monkeypatch, flags):
    # Only ci reads the bucket column, and it does so before its one pass:
    # a second pass over a lab-size container would read it all again.
    gid = _simulate(tmp_path, scene_pgm)
    container = gikit.fileio.Container
    passes, columns, blocks, buckets = [], [], container.blocks, container.buckets
    monkeypatch.setattr(container, "blocks", lambda self: passes.append(self.path) or blocks(self))
    monkeypatch.setattr(container, "buckets", property(lambda self: columns.append(self.path) or buckets.fget(self)))
    assert main(["reconstruct", "--in", str(gid), "--out", str(tmp_path / "rec")] + flags) == 0
    assert passes == [gid]
    assert columns == ([gid] if flags[1] == "ci" else [])


@pytest.mark.parametrize("provenance", [
    pytest.param("[" * 200000, id="deeply-nested"),
    pytest.param('{"drift": {"kind": "none"}, "noise": {"mean": 1' + "0" * 400 + "}}", id="overflowing-mean"),
])
def test_reconstruct_of_an_unparseable_provenance_leaves_its_columns_empty(tmp_path, provenance):
    gid, rng = tmp_path / "run.gid", np.random.default_rng(1)
    gikit.write_dataset(gikit.Dataset.from_arrays(rng.random((8, 4, 4)), rng.random(8), seed=1,
                                                  provenance=provenance), gid)
    assert main(["reconstruct", "--in", str(gid), "--method", "g2", "--manifest", str(tmp_path / "log"),
                 "--out", str(tmp_path / "rec")]) == 0
    [row] = csv.DictReader((tmp_path / "log.csv").read_text().splitlines())
    assert (row["n"], row["drift_kind"], row["noise_mean"]) == ("8", "", "")


@pytest.mark.parametrize("out, flags", [
    ("nodir/x", ["--method", "g2"]),
    ("nodir/p", ["--method", "sgi1", "--progressive", "8"]),
    ("x", ["--method", "dgi", "--manifest", "nodir/log"]),
], ids=["batch", "progressive", "manifest"])
def test_reconstruct_into_a_missing_directory_fails_before_reading(tmp_path, scene_pgm, monkeypatch, capsys,
                                                                    out, flags):
    gid = _simulate(tmp_path, scene_pgm)
    monkeypatch.chdir(tmp_path)
    reads = []
    monkeypatch.setattr(gikit.fileio.Container, "blocks", lambda self: reads.append(self) or iter(()))
    assert main(["reconstruct", "--in", str(gid), "--out", out, *flags]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: 'nodir'\n"
    assert reads == []


def test_diagnose_into_a_missing_directory_names_it(tmp_path, scene_pgm, monkeypatch, capsys):
    gid = _simulate(tmp_path, scene_pgm)
    monkeypatch.chdir(tmp_path)
    assert main(["diagnose", "--in", str(gid), "--out", "nodir/sr.csv"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir'\n"


def test_simulate_into_a_missing_directory_names_its_output(tmp_path, scene_pgm, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scene", str(scene_pgm), "--n", "8", "--out", "nodir/r.gid"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir/r.gid'\n"


def test_sweep_into_a_missing_directory_fails_before_simulating(tmp_path, scene_pgm, monkeypatch, capsys):
    simulation = importlib.import_module("gikit.simulate").Simulation
    runs = []
    monkeypatch.setattr(simulation, "blocks", lambda self: runs.append(self) or iter(()))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--scene", str(scene_pgm), "--axis", "noise-mean", "--values", "0,0.1",
                 "--methods", "g2,sgi1", "--n", "16", "--out", "nodir/s"]) == 1
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir'\n"
    assert runs == []
