"""Black-box checks of the command-line surface: flags, exit codes, outputs."""

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


def test_import_cli_leaves_scipy_unloaded():
    src = str(Path(gikit.__file__).resolve().parents[1])
    probe = "import sys, gikit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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

    monkeypatch.setattr("gikit.cli.simulate", no_run)
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

    monkeypatch.setattr("gikit.cli.simulate", no_run)
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
