"""How a command ends: ``gikit.cli.entry`` runs the atexit callbacks,
flushes stdout and stderr and leaves with ``os._exit``, skipping the
interpreter's teardown, unless a tracer or profiler watches the process or
a flush fails. ``main`` returns the code and leaves no file open."""

import atexit
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gikit
from gikit import ReconImage, binary_demo_scene, export_image
from gikit import cli


class _Exited(Exception):
    """Raised in place of ``os._exit``, so the test process lives on."""


class _Stream:
    def __init__(self, name, calls, error=None):
        self.name, self.calls, self.error = name, calls, error

    def flush(self):
        self.calls.append(("flush", self.name))
        if self.error is not None:
            raise self.error


def _patch_exit(monkeypatch, code, calls):
    """``main`` returning ``code``; the atexit run and ``os._exit`` recorded."""
    def fast_exit(status):
        calls.append(("_exit", status))
        raise _Exited

    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append(("atexit",)))
    monkeypatch.setattr(os, "_exit", fast_exit)


@pytest.mark.parametrize("stdout", [True, False])
@pytest.mark.parametrize("code", [0, 1])
def test_entry_flushes_then_exits_with_mains_code(monkeypatch, code, stdout):
    if cli._watched():
        pytest.skip("a tracer or profiler watches this test run")
    calls = []
    _patch_exit(monkeypatch, code, calls)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", calls) if stdout else None)
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", calls))
    with pytest.raises(_Exited):
        cli.entry()
    assert calls == [("atexit",), *([("flush", "stdout")] if stdout else []), ("flush", "stderr"), ("_exit", code)]


def test_entry_keeps_the_normal_exit_under_a_profiler(monkeypatch):
    calls = []
    _patch_exit(monkeypatch, 1, calls)
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entry()
    finally:
        sys.setprofile(previous)
    assert exited.value.code == 1
    assert calls == []


def test_entry_keeps_the_normal_exit_when_a_flush_fails(monkeypatch):
    if cli._watched():
        pytest.skip("a tracer or profiler watches this test run")
    calls = []
    _patch_exit(monkeypatch, 0, calls)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", calls, BrokenPipeError(32, "Broken pipe")))
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 0
    assert calls == [("atexit",), ("flush", "stdout")]


@pytest.fixture
def work(tmp_path):
    """A 12x12 scene and a 64-record container made from it."""
    export_image(ReconImage(binary_demo_scene(12, 12).transmission), tmp_path / "scene.pgm")
    assert cli.main(["simulate", "--scene", str(tmp_path / "scene.pgm"), "--n", "64", "--seed", "5",
                     "--out", str(tmp_path / "run.gid")]) == 0
    return tmp_path


def _child(args, stdout=subprocess.PIPE):
    """``python -m gikit.cli args`` with block-buffered stdout (no
    ``PYTHONUNBUFFERED``), as a pipe or a file gets it."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gikit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "gikit.cli", *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=120)


def test_commands_end_with_their_summary_line_through_a_pipe(work):
    simulate = _child(["simulate", "--scene", str(work / "scene.pgm"), "--n", "64", "--seed", "5",
                       "--out", str(work / "child.gid")])
    assert (simulate.returncode, simulate.stderr) == (0, b"")
    assert simulate.stdout.startswith(f"wrote {work / 'child.gid'}: 12x12, n=64, seed=5\nprovenance: ".encode())
    assert (work / "child.gid").read_bytes() == (work / "run.gid").read_bytes()

    reconstruct = _child(["reconstruct", "--in", str(work / "child.gid"), "--method", "sgi1",
                          "--scene", str(work / "scene.pgm"), "--out", str(work / "sgi1")])
    assert (reconstruct.returncode, reconstruct.stderr) == (0, b"")
    assert reconstruct.stdout.startswith(b"sgi1: n=64, pairs=63, cnr=") and reconstruct.stdout.endswith(b"\n")

    diagnose = _child(["diagnose", "--in", str(work / "child.gid"), "--out", str(work / "sr.csv")])
    assert (diagnose.returncode, diagnose.stderr) == (0, b"")
    assert diagnose.stdout.startswith(f"wrote {work / 'sr.csv'}: 64 totals, 63 deviations".encode())
    assert len((work / "sr.csv").read_text().splitlines()) == 65


def test_errors_keep_their_exit_codes_and_messages(work):
    (work / "bad.gid").write_bytes(b"not a container")
    failed = _child(["reconstruct", "--in", str(work / "bad.gid"), "--method", "g2", "--out", str(work / "g2")])
    assert failed.returncode == 1 and failed.stdout == b""
    assert failed.stderr.startswith(b"error: ") and failed.stderr.count(b"\n") == 1

    usage = _child(["reconstruct", "--in", str(work / "run.gid"), "--method", "nope", "--out", str(work / "g2")])
    assert usage.returncode == 2 and usage.stdout == b""
    assert b"gikit reconstruct: error: argument --method: invalid choice: 'nope'" in usage.stderr


def test_a_closed_stdout_exits_120_without_a_traceback(work):
    read, write = os.pipe()
    os.close(read)  # nobody reads: the child's flush meets EPIPE
    try:
        closed = _child(["reconstruct", "--in", str(work / "run.gid"), "--method", "g2",
                         "--out", str(work / "g2")], stdout=write)
    finally:
        os.close(write)
    assert closed.returncode == 120
    assert b"Traceback" not in closed.stderr
    assert b"BrokenPipeError" in closed.stderr
    assert (work / "g2.pgm").exists()


@pytest.mark.parametrize("command, output", [
    (["reconstruct", "--in", "{work}/run.gid", "--method", "g2", "--out", "{work}/g2"], "g2.pgm"),
    (["diagnose", "--in", "{work}/run.gid", "--out", "{work}/sr.csv"], "sr.csv"),
], ids=["reconstruct", "diagnose"])
def test_a_closed_stdout_ends_alike_with_or_without_pythonunbuffered(work, command, output):
    # Unbuffered, the summary line itself meets the closed pipe; buffered,
    # the flush at exit does. Both end in exit 120 with one line naming the error.
    ended = []
    for unbuffered in (False, True):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(gikit.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        (work / output).unlink(missing_ok=True)
        read, write = os.pipe()
        os.close(read)
        try:
            closed = subprocess.run([sys.executable, "-m", "gikit.cli", *(arg.format(work=work) for arg in command)],
                                    stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (work / output).exists()
        ended.append((closed.returncode, closed.stderr))
    assert ended[0] == ended[1]
    code, stderr = ended[1]
    assert code == 120 and stderr.endswith(b"\nBrokenPipeError: [Errno 32] Broken pipe\n"), ended
    assert b"error:" not in stderr and b"Traceback" not in stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command, expected", [
    (["simulate", "--scene", "{work}/scene.pgm", "--n", "300", "--out", "{work}/out.gid"], 0),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "dgi", "--scene", "{work}/scene.pgm",
     "--manifest", "{work}/manifest", "--raw", "--out", "{work}/dgi"], 0),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "ci", "--out", "{work}/ci"], 0),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "sgi3", "--progressive", "16", "--out", "{work}/sgi3"], 0),
    (["sweep", "--scene", "{work}/scene.pgm", "--axis", "noise-mean", "--values", "0,0.1", "--n", "64",
     "--methods", "ci,sgi1", "--out", "{work}/sweep"], 0),
    (["diagnose", "--in", "{work}/run.gid", "--out", "{work}/sr.csv"], 0),
    (["reconstruct", "--in", "{work}/missing.gid", "--method", "g2", "--out", "{work}/g2"], 1),
], ids=["simulate", "reconstruct-manifest", "reconstruct-ci", "progressive", "sweep", "diagnose", "error"])
def test_main_leaves_no_file_open(work, capsys, command, expected):
    # The fast exit closes nothing, so a buffered write still open when
    # main returns would be lost: every command closes what it opened.
    argv = [arg.format(work=work) for arg in command]
    cli.main(argv)  # a first run loads the command's modules
    before = set(os.listdir("/proc/self/fd"))
    code = cli.main(argv)
    assert set(os.listdir("/proc/self/fd")) == before
    assert code == expected
