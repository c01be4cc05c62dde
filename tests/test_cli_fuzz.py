"""Hypothesis fuzz of the command line: any argv drawn from the four
subcommands, their flags and hostile values ends in exit code 0, 1 or 2,
never in another exception."""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gikit import ReconImage, binary_demo_scene, export_image
from gikit.cli import main
from gikit.reconstruct import METHODS

HOSTILE = ["nan", "inf", "-inf", "-1", "0", "", "1e308", "9" * 40, "x" * 5000]


def _values(valid, hostile=HOSTILE):
    """A flag's values: ``valid`` ones, or with ``hostile`` ones mixed in."""
    return lambda calm: st.sampled_from(valid) if calm else st.sampled_from([*valid, *hostile])


FLOATS = _values(["0", "0.05", "1", "2.5", "8"], HOSTILE + ["9", "1e300"])
COUNTS = _values(["1", "2", "3", "17", "64"], ["-1", "0", "nan", "", "1e3", "x" * 5000])  # --n <= 64
SHIFTS = _values(["1", "2", "5", "16"], HOSTILE + ["17", "64"])
SEEDS = _values(["0", "7", "9" * 40], ["-1", "nan", "", "1e3"])
DRIFTS = _values(
    ["none", "linear:0.3", "sinusoidal:0.5", "sinusoidal:0.5:3", "step:0.3:3", "random-walk:0.05"],
    ["linear:1", "sinusoidal:0.5:0", "sinusoidal:0.5:nan", "step:0.3:0.5", "random-walk:inf",
     "random-walk:nan", "random-walk:1e308", "linear:", "linear:x", "bogus", "", ":::", "linear:0.3:2:9"],
)
SWEEP_VALUES = _values(
    ["2,17,64", "64", "0.01,0.05", "none,linear,step", "random-walk"],
    ["1", "0", "-1,2", "nan", "inf", "", ",", "1e308", "bogus", "x" * 5000],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid, damaged and missing inputs, and a directory for outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    export_image(ReconImage(binary_demo_scene(8, 8).transmission), root / "scene.pgm")
    export_image(ReconImage(binary_demo_scene(4, 4).transmission), root / "small.pgm")
    (root / "flat.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes([255]) * 64)
    (root / "cut.pgm").write_bytes((root / "scene.pgm").read_bytes()[:40])
    (root / "bad.pgm").write_bytes(b"P6\n8 8\n255\n" + bytes(192))
    (root / "zero.pgm").write_bytes(b"P2\n8 8\n0\n" + b"0 " * 64)
    (root / "empty.pgm").write_bytes(b"")
    assert main(["simulate", "--scene", str(root / "scene.pgm"), "--n", "17", "--seed", "3",
                 "--drift", "linear:0.3", "--noise-std", "0.05", "--out", str(root / "run.gid")]) == 0
    blob = (root / "run.gid").read_bytes()
    (root / "cut.gid").write_bytes(blob[:-5])
    (root / "nan.gid").write_bytes(blob[:-4] + struct.pack("<f", float("nan")))
    (root / "garbage.gid").write_bytes(b"GID1" + bytes(range(256)))
    (root / "empty.gid").write_bytes(b"")
    (root / "out").mkdir()
    return root


def _paths(root, valid, hostile):
    return _values([str(root / name) for name in valid], [str(root / name) for name in hostile] + [""])


@st.composite
def argvs(draw, root):
    scenes = _paths(root, ["scene.pgm"], ["small.pgm", "flat.pgm", "cut.pgm", "bad.pgm", "zero.pgm",
                                          "empty.pgm", "missing.pgm", "out"])
    containers = _paths(root, ["run.gid"], ["cut.gid", "nan.gid", "garbage.gid", "empty.gid",
                                            "missing.gid", "scene.pgm", "out"])
    outputs = _paths(root, ["out/a", "out/b.gid", "out/a.csv"], ["missing/a", "out"])

    # Argvs are drawn calm (valid values only, so they reach the real work),
    # with one hostile flag, or wild.
    mode = draw(st.sampled_from(["calm", "one", "wild"]))
    command = draw(st.sampled_from(["simulate", "reconstruct", "sweep", "diagnose"]))
    flags = {
        "simulate": {"--scene": scenes, "--n": COUNTS, "--out": outputs},
        "reconstruct": {"--in": containers, "--method": _values(METHODS, ["bogus", ""]),
                        "--out": outputs},
        "sweep": {"--scene": scenes, "--n": COUNTS,
                  "--axis": _values(["n", "noise-mean", "drift-kind"], ["bogus", ""]),
                  "--values": SWEEP_VALUES,
                  "--methods": _values(["g2", "dgi,sgi1", ",".join(METHODS)], ["", ",", "bogus"]),
                  "--out": outputs},
        "diagnose": {"--in": containers, "--out": outputs},
    }[command]
    optional = {
        "reconstruct": {"--shift": SHIFTS, "--close-loop": None,
                        "--limit": SHIFTS, "--progressive": SHIFTS,
                        "--scene": scenes, "--manifest": outputs, "--raw": None},
        "sweep": {"--shift": SHIFTS},
        "diagnose": {"--shift": SHIFTS},
    }.get(command, {})
    if command in ("simulate", "sweep"):
        optional.update({
            "--pattern": _values(["iid", "speckle"], ["bogus"]),
            "--grain": FLOATS,
            "--step-shift": FLOATS,
            "--jitter": FLOATS,
            "--drift": DRIFTS,
            "--noise-mean": FLOATS,
            "--noise-std": FLOATS,
            "--noise-target": _values(["bucket", "object-field"], ["bogus"]),
            "--seed": SEEDS,
        })
    chosen = dict(flags)
    for name in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)) if optional else []:
        chosen[name] = optional[name]
    if mode == "wild" and draw(st.booleans()):  # leave out a required flag
        del chosen[draw(st.sampled_from(sorted(flags)))]
    hostile = draw(st.sampled_from(sorted(chosen))) if mode == "one" else None
    argv = [command]
    for name, values in chosen.items():
        argv.append(name)
        if values is not None:
            argv.append(draw(values(mode == "calm" or (mode == "one" and name != hostile))))
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # hostile values overflow on purpose
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_exits_0_1_or_2(files, data):
    argv = data.draw(argvs(files), label="argv")
    cwd = os.getcwd()
    os.chdir(files / "out")  # an empty --out prefix writes to the working directory
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2)
    else:
        assert code in (0, 1)
    finally:
        os.chdir(cwd)
