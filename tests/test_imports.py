"""What each command loads, and the two meanings of ``gikit.simulate``.

Each check runs in a fresh interpreter, since the modules that one test
imports stay loaded for the next.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gikit

SRC = str(Path(gikit.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": SRC}
# The real `secrets` and what it loads: hmac, hashlib and OpenSSL's libcrypto.
OPENSSL = {"secrets", "hmac", "hashlib", "_hashlib", "ssl"}
# Modules that a command reading a container has no use for: the simulator,
# the sweep, NumPy's random generators, and the OpenSSL bindings.
NOT_FOR_READING = {"gikit.simulate", "gikit.sweep", "numpy.random"} | OPENSSL


def _cli_imports(*argv) -> set:
    """The modules that ``python -m gikit.cli argv`` imports; the command must succeed."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "gikit.cli", *map(str, argv)],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # -X importtime writes "import time: self | cumulative | module" per import
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")}


SIMULATE = ["simulate", "--scene", "{work}/scene.pgm", "--n", "64", "--drift", "linear:0.3", "--noise-std", "0.05"]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A scene, ``run.gid`` simulated from it by the CLI, and the modules that ``simulate`` loaded."""
    work = tmp_path_factory.mktemp("imports")
    gikit.export_image(gikit.ReconImage(gikit.binary_demo_scene(8, 8).transmission), work / "scene.pgm")
    loaded = _cli_imports(*(arg.format(work=work) for arg in SIMULATE), "--out", work / "run.gid")
    assert {"gikit.simulate", "numpy.random"} <= loaded
    return work, loaded


@pytest.fixture(scope="module")
def workdir(simulated):
    return simulated[0]


def _skip_if_numpy_loads_random():
    done = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                          capture_output=True, text=True, timeout=60, check=True)
    if done.stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.random, and with it secrets and OpenSSL")


def test_sweep_loads_the_simulator_and_the_sweep(simulated):
    # Both simulating commands import numpy.random with a stand-in secrets
    # (cli._import_numpy_random): the fixture's simulate and this sweep.
    workdir, simulate_loaded = simulated
    loaded = _cli_imports("sweep", "--scene", workdir / "scene.pgm", "--axis", "n", "--values", "16,32",
                          "--methods", "g2,sgi1", "--n", "32", "--out", workdir / "sweep")
    assert {"gikit.simulate", "gikit.sweep", "numpy.random"} <= loaded
    _skip_if_numpy_loads_random()
    assert not simulate_loaded & OPENSSL, sorted(simulate_loaded & OPENSSL)
    assert not loaded & OPENSSL, sorted(loaded & OPENSSL)


SECRETS_PROBE = """
import json, sys
{first}
from gikit.cli import main
assert main(sys.argv[1:]) == 0
loaded = sorted(name for name in {openssl} if name in sys.modules)
import secrets
import numpy as np
assert sys.modules["secrets"] is secrets and secrets.__file__ and len(secrets.token_hex(8)) == 16
assert np.random.SeedSequence().entropy != np.random.SeedSequence().entropy
np.random.default_rng().random()
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("first, openssl", [
    ("", False),
    ("import secrets", True),
    ("import numpy.random", True),
    ("import types, gikit.cli; gikit.cli._secrets_stand_in = lambda: types.ModuleType('secrets')", True),
], ids=["stand-in", "secrets-first", "numpy-random-first", "stand-in-without-randbits"])
def test_simulate_writes_the_same_bytes_and_leaves_the_real_secrets(simulated, first, openssl):
    # The stand-in route, the two routes where the helper does nothing, and the
    # fallback to a plain import when NumPy asks the stand-in for more.
    workdir, _ = simulated
    argv = [arg.format(work=workdir) for arg in SIMULATE] + ["--out", str(workdir / "route.gid")]
    done = subprocess.run([sys.executable, "-c", SECRETS_PROBE.format(first=first, openssl=sorted(OPENSSL)),
                           *argv], env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (workdir / "route.gid").read_bytes() == (workdir / "run.gid").read_bytes()
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    if openssl:
        assert {"secrets", "hmac"} <= loaded
    else:
        _skip_if_numpy_loads_random()
        assert not loaded, sorted(loaded)


@pytest.mark.parametrize("command", [
    ["reconstruct", "--method", "dgi", "--scene", "{work}/scene.pgm", "--manifest", "{work}/log", "--raw",
     "--out", "{work}/dgi"],
    ["reconstruct", "--method", "sgi2", "--progressive", "16", "--shift", "2", "--out", "{work}/sgi2"],
    ["diagnose", "--out", "{work}/dev.csv"],
], ids=["reconstruct", "progressive", "diagnose"])
def test_reading_commands_load_no_simulator_and_no_openssl(workdir, command):
    argv = [arg.format(work=workdir) for arg in command]
    loaded = _cli_imports(*argv[:1], "--in", workdir / "run.gid", *argv[1:])
    assert "gikit.reconstruct" in loaded
    assert not loaded & NOT_FOR_READING, sorted(loaded & NOT_FOR_READING)


NAME_PROBE = """
import sys, types
{first}
import gikit
from gikit import simulate
from gikit.simulate import Simulation, _pcg64_states
assert isinstance(gikit.simulate, types.FunctionType) and simulate is gikit.simulate, gikit.simulate
assert isinstance(sys.modules["gikit.simulate"], types.ModuleType)
assert sys.modules["gikit.simulate"].simulate is simulate and gikit.Simulation is Simulation
assert callable(_pcg64_states) and "simulate" in dir(gikit) and "simulate" in gikit.__all__
"""


@pytest.mark.parametrize("first", [
    "import gikit.simulate",
    "from gikit import Simulation",
    "from gikit.cli import main; assert main(sys.argv[1:]) == 0",
], ids=["submodule", "public-name", "cli-simulate"])
def test_gikit_simulate_is_the_function_in_any_import_order(workdir, first):
    argv = ["simulate", "--scene", workdir / "scene.pgm", "--n", "8", "--out", workdir / "names.gid"]
    subprocess.run([sys.executable, "-c", NAME_PROBE.format(first=first), *map(str, argv)],
                   env=ENV, check=True, timeout=60)


@pytest.mark.parametrize("command, engine", [
    (["reconstruct", "--in", "{work}/run.gid", "--method", "g2", "--out", "{work}/g2"], True),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "ci", "--out", "{work}/ci"], True),
    (["diagnose", "--in", "{work}/run.gid", "--out", "{work}/dev.csv"], False),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "sgi3", "--shift", "2", "--out", "{work}/sgi3"], True),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "sgi1", "--progressive", "16", "--out", "{work}/sgi1"],
     True),
    (["simulate", "--scene", "{work}/scene.pgm", "--n", "16", "--out", "{work}/small.gid"], False),
    (["sweep", "--scene", "{work}/scene.pgm", "--axis", "drift-kind", "--values", "none,linear", "--n", "16",
      "--methods", "dgi,ci", "--out", "{work}/kinds"], True),
    (["sweep", "--scene", "{work}/scene.pgm", "--axis", "noise-mean", "--values", "0,0.1", "--n", "16",
      "--methods", "g2,sgi2", "--out", "{work}/means"], True),
], ids=["g2", "ci", "diagnose", "sgi3", "progressive", "simulate", "sweep-classic", "sweep-sgi"])
def test_only_an_sgi_job_loads_the_accumulator_and_no_command_loads_dataclasses(workdir, command, engine):
    # gikit.sgi holds the accumulator and the engine that every pass sums
    # with: each reconstruct and sweep loads it, diagnose and simulate never.
    loaded = _cli_imports(*(arg.format(work=workdir) for arg in command))
    assert "dataclasses" not in loaded
    assert ("gikit.sgi" in loaded) == engine


def test_importing_the_cli_loads_no_dataclasses():
    done = subprocess.run([sys.executable, "-c", "import sys, gikit.cli; print(*sys.modules, sep='\\n')"],
                          env=ENV, capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.splitlines())
    assert "gikit.cli" in loaded and not loaded & {"dataclasses", "gikit.sgi", "gikit.simulate"}


@pytest.mark.parametrize("command, writes_manifest", [
    (["reconstruct", "--in", "{work}/run.gid", "--method", "dgi", "--out", "{work}/dgi"], False),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "sgi1", "--progressive", "16", "--out", "{work}/sgi1"],
     False),
    (["diagnose", "--in", "{work}/run.gid", "--out", "{work}/dev.csv"], False),
    (["reconstruct", "--in", "{work}/run.gid", "--method", "g2", "--manifest", "{work}/csvlog", "--out", "{work}/g2"],
     True),
    (["sweep", "--scene", "{work}/scene.pgm", "--axis", "noise-mean", "--values", "0,0.1", "--n", "16",
      "--methods", "g2", "--out", "{work}/csvsweep"], True),
], ids=["reconstruct", "progressive", "diagnose", "manifest", "sweep"])
def test_only_the_manifest_writers_load_csv(workdir, command, writes_manifest):
    loaded = _cli_imports(*(arg.format(work=workdir) for arg in command))
    assert ("csv" in loaded) == writes_manifest
    assert ("_csv" in loaded) == writes_manifest
