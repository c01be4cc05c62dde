#!/usr/bin/env python3
"""gikit benchmark: the real CLI, end to end, plus a traced in-process replay.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` the run times the workload's CLI job (``python -m
gikit.cli`` against this checkout's ``src``), one child process at a time,
repeating the job for ``--seconds``; each child's wall time and peak RSS
come from ``os.wait4``. With ``--trace 1`` it runs the job once untraced,
then replays it in process with a span around every library call (see
``replay.py``). Outputs are checked against an oracle that does not use the
library (see ``oracle.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists
of ``BENCHMARK.json``. The full report, with machine information, is
printed before it and written under ``bench/out/``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# Single-threaded BLAS in this process and in every child: on a 2-vCPU
# Xeon VM a second BLAS thread made a desk reconstruct slower (0.90 s
# against 0.65 s) and left the figures at the mercy of the other core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import replay

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

METHODS = replay.METHODS
CLASSIC = ("g2", "dgi-delta", "dgi", "ci")
SGI = ("sgi1", "sgi2", "sgi3")
SCENE = "scene.pgm"
CONTAINER = "run.gid"
SWEEP_VALUES = "0.012,0.024,0.036,0.048,0.06"
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_JOBS = 2
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # no new job starts if it would end after this
# Calibration. On a shared machine the speed of the same child drifts by
# 20-45% over minutes. Between commands the run times a reference child
# that does not touch gikit: the start of Python and the import of gikit's
# dependencies, the largest share of every CLI command. Each command's wall
# is scaled by REF_NOMINAL_S over the mean of the reference walls just
# before and just after it, i.e. to a machine on which the reference takes
# REF_NOMINAL_S. The raw walls are reported too.
REF_ARGS = ("-c", "import numpy, scipy.ndimage")
REF_NOMINAL_S = 0.4
REF_EVERY_S = 2.5  # command wall between two reference children
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import gikit.cli; "
    "print(time.perf_counter() - t); print(sys.modules['gikit'].__file__)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    shots: int
    sim: dict
    shift: int  # pair shift k of the sgi methods and of diagnose
    batch: tuple  # methods the job reconstructs in batch
    progressive: tuple  # methods the job reconstructs with --progressive
    every: int  # snapshot interval of --progressive (job, or replay coverage)
    sweep: bool
    simulate_in_setup: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk", "small arrays: interpreter start, import, per-record Python work and per-frame seeding dominate",
            32, 32, 4096,
            {"pattern": "iid", "drift": "linear:0.3", "noise_mean": 0.012, "noise_std": 0.05,
             "noise_target": "object-field"},
            shift=1, batch=METHODS, progressive=(), every=1024, sweep=True, simulate_in_setup=False,
        ),
        Workload(
            "lab", "full-scale frames: pattern generation, container encode/decode and kernels over a 537 MB matrix dominate",
            128, 128, 4096,
            {"pattern": "iid", "drift": "linear:0.3", "noise_mean": 0.012, "noise_std": 0.05,
             "noise_target": "bucket"},
            shift=1, batch=METHODS, progressive=(), every=1024, sweep=False, simulate_in_setup=False,
        ),
        Workload(
            "stream", "long correlated-speckle stream: per-record push, snapshots and accumulator state dominate",
            64, 64, 16384,
            {"pattern": "speckle", "drift": "random-walk:0.002", "noise_mean": 0.0, "noise_std": 0.0,
             "noise_target": "bucket"},
            shift=4, batch=(), progressive=SGI, every=2048, sweep=False, simulate_in_setup=True,
        ),
    )
}

@dataclass(frozen=True)
class Command:
    kind: str  # simulate, reconstruct, progressive, diagnose or sweep
    label: str
    args: tuple
    method: str | None = None
    prefix: str | None = None  # output prefix of a reconstruct


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    log: Path


def simulate_args(w: Workload, seed: int) -> tuple:
    s = w.sim
    return (
        "simulate", "--scene", SCENE, "--n", str(w.shots), "--seed", str(seed),
        "--pattern", s["pattern"], "--drift", s["drift"], "--noise-mean", repr(s["noise_mean"]),
        "--noise-std", repr(s["noise_std"]), "--noise-target", s["noise_target"], "--out", CONTAINER,
    )


def job_commands(w: Workload, seed: int) -> list[Command]:
    cmds = []
    if not w.simulate_in_setup:
        cmds.append(Command("simulate", "simulate", simulate_args(w, seed)))
    for m in w.batch:
        cmds.append(Command(
            "reconstruct", f"reconstruct {m}",
            ("reconstruct", "--in", CONTAINER, "--method", m, "--scene", SCENE,
             "--manifest", "recon", "--raw", "--out", f"rec_{m}"),
            m, f"rec_{m}",
        ))
    for m in w.progressive:
        cmds.append(Command(
            "progressive", f"progressive {m}",
            ("reconstruct", "--in", CONTAINER, "--method", m, "--progressive", str(w.every),
             "--shift", str(w.shift), "--raw", "--out", f"prog_{m}"),
            m, f"prog_{m}",
        ))
    cmds.append(Command("diagnose", "diagnose",
                        ("diagnose", "--in", CONTAINER, "--shift", str(w.shift), "--out", "sr.csv")))
    if w.sweep:
        # The README sweep: bucket noise, every method.
        cmds.append(Command("sweep", "sweep", (
            "sweep", "--scene", SCENE, "--axis", "noise-mean", "--values", SWEEP_VALUES,
            "--methods", ",".join(METHODS), "--n", str(w.shots), "--drift", w.sim["drift"],
            "--noise-std", repr(w.sim["noise_std"]), "--seed", str(seed), "--out", "sweep",
        )))
    return cmds


def write_scene(path: Path, width: int, height: int, seed: int) -> None:
    """Binary scene of a few overlapping rectangles, drawn from the seed."""
    rng = np.random.default_rng([seed, width, height])
    while True:
        mask = np.zeros((height, width), dtype=bool)
        for _ in range(5):
            h = int(rng.integers(height // 8, height // 2, endpoint=True))
            w = int(rng.integers(width // 8, width // 2, endpoint=True))
            y = int(rng.integers(0, height - h, endpoint=True))
            x = int(rng.integers(0, width - w, endpoint=True))
            mask[y : y + h, x : x + w] = True
        if 0.2 <= mask.mean() <= 0.6:
            break
    raster = np.where(mask, 255, 0).astype(np.uint8)
    path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + raster.tobytes())


# -- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # this checkout's source and nothing else
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: Path, env: dict) -> Child:
    """Run one child to completion; wall time and peak RSS from wait4.

    A child inherits the peak RSS of this process at spawn time, so heavy
    in-process work runs only after the last child of a run.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return Child(wall, usage.ru_maxrss * 1024 / 1e6, os.waitstatus_to_exitcode(status), log)


def log_tail(child: Child) -> str:
    try:
        lines = child.log.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# -- one run -------------------------------------------------------------------

@dataclass
class Run:
    w: Workload
    seed: int
    work: Path
    env: dict = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    checked: bool = False
    timeline: list = field(default_factory=list)  # [start, label, wall, rss] of every child
    start: float = field(default_factory=time.perf_counter)

    def spawn(self, args, label: str) -> Child:
        log = self.work / f"log{len(self.timeline):04d}.txt"
        begin = time.perf_counter() - self.start
        child = spawn([sys.executable, *args], log, self.env)
        self.timeline.append([round(begin, 4), label, child.wall, child.rss_mb])
        return child

    def child(self, args, label: str) -> Child:
        """One operation of the program; counted in ``attempted``."""
        self.attempted += 1
        return self.spawn(args, label)

    def ref_child(self) -> float:
        return self.spawn(REF_ARGS, "reference").wall

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def setup(self) -> float:
        """Make the inputs: the scene graymap, a warm import of the CLI (which
        also compiles bytecode on a fresh checkout) and, for ``stream``, the
        input container."""
        start = time.perf_counter()
        write_scene(self.work / SCENE, self.w.width, self.w.height, self.seed)
        probe = self.child(["-c", IMPORT_PROBE], "setup import")
        lines = probe.log.read_text().split() if probe.code == 0 else []
        if len(lines) != 2 or not Path(lines[1]).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: gikit did not import from {SRC}: {log_tail(probe)}")
        self.import_s.append(float(lines[0]))
        if self.w.simulate_in_setup:
            sim = self.child(["-m", "gikit.cli", *simulate_args(self.w, self.seed)], "setup simulate")
            if sim.code != 0:
                raise SystemExit(f"error: setup simulate failed: {log_tail(sim)}")
        return time.perf_counter() - start

    def job(self) -> tuple[list[tuple[Command, Child]], list[float]]:
        """Run the job's commands with reference children between them.

        Returns the commands' results and, for each command, the mean wall
        of the reference children just before and just after it.
        """
        for pattern in ("rec_*", "prog_*", "recon.*", "sweep.*", "sr.csv", "liveness*"):
            for path in glob.glob(str(self.work / pattern)):
                os.unlink(path)
        if not self.w.simulate_in_setup:
            (self.work / CONTAINER).unlink(missing_ok=True)
        results, before, refs, since = [], [], [], REF_EVERY_S
        for cmd in job_commands(self.w, self.seed):
            if since >= REF_EVERY_S:
                refs.append(self.ref_child())
                since = 0.0
            results.append((cmd, self.child(["-m", "gikit.cli", *cmd.args], cmd.label)))
            before.append(len(refs) - 1)
            since += results[-1][1].wall
        refs.append(self.ref_child())
        return results, [(refs[i] + refs[i + 1]) / 2 for i in before]

    # -- output checks (never timed) -------------------------------------------
    def check(self, results: list[tuple[Command, Child]]) -> None:
        """Check every output of a job in a checker child (``oracle.py``).

        The reference images come from the first job's container; later jobs
        must reproduce them, which also checks that outputs are deterministic.
        """
        passed = []
        for cmd, child in results:
            if child.code != 0:
                self.fail(cmd.label, [f"exit code {child.code}: {log_tail(child)}"])
            else:
                passed.append(cmd)
        request = {
            "container": CONTAINER, "cache": "oracle.npz", "shift": self.w.shift,
            "every": self.w.every, "progressive": list(self.w.progressive),
            "liveness": not self.checked,
            "commands": [{"label": c.label, "kind": c.kind, "method": c.method, "prefix": c.prefix,
                          "manifest_rows": manifest_rows(self.w, c)} for c in passed],
        }
        self.checked = True
        (self.work / "check.json").write_text(json.dumps(request))
        checker = self.spawn([str(BENCH / "oracle.py"), "check.json"], "check")
        try:
            found = json.loads(checker.log.read_text().strip().splitlines()[-1])
        except (OSError, IndexError, ValueError):
            found = None
        if checker.code != 0 or not isinstance(found, dict):
            for cmd in passed:
                self.fail(cmd.label, [f"checker failed: {log_tail(checker)}"])
            return
        for label, problems in found.items():
            if problems:
                self.fail(label, problems)


def manifest_rows(w: Workload, cmd: Command) -> int:
    """Rows the manifest written by ``cmd`` must hold once it has run (0: not checked)."""
    if cmd.kind == "sweep":
        return len(SWEEP_VALUES.split(",")) * len(METHODS)
    if cmd.kind == "reconstruct" and cmd.method == w.batch[-1]:
        return len(w.batch)
    return 0


def job_metrics(results: list[tuple[Command, Child]]) -> dict[str, float]:
    """End-to-end figures of one job; a command kind the job lacks is absent."""
    groups = {
        "simulate": [c for c in results if c[0].kind == "simulate"],
        "reconstruct_classic": [c for c in results if c[0].kind == "reconstruct" and c[0].method in CLASSIC],
        "reconstruct_sgi": [c for c in results if c[0].kind == "reconstruct" and c[0].method in SGI],
        "progressive": [c for c in results if c[0].kind == "progressive"],
        "diagnose": [c for c in results if c[0].kind == "diagnose"],
        "sweep": [c for c in results if c[0].kind == "sweep"],
        "reconstruct_all": [c for c in results if c[0].kind in ("reconstruct", "progressive")],
    }
    out = {"wall_s": sum(ch.wall for _, ch in results),
           "peak_rss_mb": max(ch.rss_mb for _, ch in results)}
    for name, members in groups.items():
        if members:
            out[f"{name}_s"] = sum(ch.wall for _, ch in members)
    for name in ("simulate", "progressive", "reconstruct_all"):
        if groups[name]:
            out[f"{name}_rss_mb"] = max(ch.rss_mb for _, ch in groups[name])
    batch = groups["reconstruct_classic"] + groups["reconstruct_sgi"]
    if batch:
        out["reconstruct_rss_mb"] = max(ch.rss_mb for _, ch in batch)
    return out


def calibrated(results: list[tuple[Command, Child]], refs: list[float]) -> list[tuple[Command, Child]]:
    return [(cmd, Child(child.wall * REF_NOMINAL_S / ref, child.rss_mb, child.code, child.log))
            for (cmd, child), ref in zip(results, refs)]


def median_job(jobs: list[list[tuple[Command, Child]]]) -> list[tuple[Command, Child]]:
    """Each command with the median of its wall times and peak RSS over the
    jobs, so a slow stretch that hits a few commands moves no figure."""
    return [
        (cmd, Child(statistics.median(job[i][1].wall for job in jobs),
                    statistics.median(job[i][1].rss_mb for job in jobs), child.code, child.log))
        for i, (cmd, child) in enumerate(jobs[0])
    ]


def medians(samples: list[dict]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- machine information -------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _meminfo_bytes(key: str) -> int | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) * 1024
    return None


def llc_bytes() -> int:
    """Size of the highest-level data or unified cache of CPU 0."""
    best = (0, 0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        if _read(f"{index}/type").strip() == "Instruction":
            continue
        size = _read(f"{index}/size").strip()
        level = _read(f"{index}/level").strip()
        if size and level.isdigit():
            scale = {"K": 1024, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            best = max(best, (int(level), int(size.rstrip("KMG")) * scale))
    return best[1] or (32 << 20)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": model,
        "ram_mb": (_meminfo_bytes("MemTotal") or 0) / 1e6,
        "llc_mb": llc_bytes() / 1e6,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "page_cache": "warm: the page cache is not dropped between commands, so reads are warm reads",
    }


# -- traced replay -------------------------------------------------------------

def replay_once(gikit, run: Run, walls: dict[str, float]) -> tuple[dict, replay.Tracer]:
    w, work, seed = run.w, run.work, run.seed
    tracer = replay.Tracer()
    rp = replay.Replay(gikit, w, work, tracer)
    scene, container = work / SCENE, work / CONTAINER
    cmds = job_commands(w, seed)
    for cmd in cmds:
        if cmd.kind == "simulate":
            rp.simulate(cmd.label, scene, seed, container)
        elif cmd.kind == "reconstruct":
            rp.reconstruct(cmd.label, container, cmd.method, w.shift, scene)
        elif cmd.kind == "progressive":
            rp.progressive(cmd.label, container, cmd.method, w.shift, w.every)
        elif cmd.kind == "diagnose":
            rp.diagnose(cmd.label, container, w.shift)
        else:
            rp.sweep(cmd.label, scene, seed, [float(v) for v in SWEEP_VALUES.split(",")], METHODS)
    tracer.coverage = True
    if w.simulate_in_setup:
        rp.simulate("setup simulate", scene, seed, container)
    for m in METHODS:
        if m not in w.batch:
            rp.reconstruct(f"coverage reconstruct {m}", container, m, w.shift, scene)
    for m in SGI:
        if m not in w.progressive:
            rp.progressive(f"coverage progressive {m}", container, m, w.shift, w.every)
    tracer.coverage = False
    rp.probes(scene, seed, container)

    total = tracer.total
    m = {
        "simulate.patterns_s": total("simulate.patterns"),
        "simulate.drift_s": total("simulate.drift"),
        "simulate.noise_s": total("simulate.noise"),
        "simulate.total_s": total("simulate.total"),
        "simulate.frames": sum(s["frames"] for s in tracer.named("simulate.total")),
        "fileio.write_s": total("fileio.write"),
        "fileio.encode_s": total("fileio.encode"),
        "fileio.read_s": total("fileio.read"),
        "fileio.decode_s": total("fileio.decode"),
        "fileio.container_mb": container.stat().st_size / 1e6,
        "fileio.export_s": total("fileio.export"),
        "fileio.manifest_s": total("fileio.manifest"),
        "types.from_arrays_s": total("types.from_arrays"),
        "types.validate_s": total("types.validate"),
        "types.records": w.shots,
        "reconstruct.pushes": rp.pushes,
        "reconstruct.pairs": rp.pairs,
        "reconstruct.snapshot_s": total("reconstruct.snapshot"),
        "reconstruct.sr_diagnostics_s": total("reconstruct.sr_diagnostics"),
        "metrics.cnr_s": total("metrics.cnr"),
        "metrics.images": len(tracer.named("metrics.cnr")),
    }
    for method in METHODS:
        spans = tracer.named(f"reconstruct.{method}")
        seconds = sum(s["end"] - s["start"] for s in spans)
        m[f"reconstruct.{method}_s"] = seconds
        m[f"reconstruct.{method}.gbps_computed"] = sum(s["bytes"] for s in spans) / seconds / 1e9
    m.update(replay.push_percentiles(rp.push_ns))
    gaps = {}
    for cmd in cmds:
        root = tracer.named(f"cmd:{cmd.label}")[0]
        gaps[cmd.label] = walls[cmd.label] - (root["end"] - root["start"])
    m["trace.gap_s"] = sum(gaps.values())
    m.update({f"trace.gap_s[{label}]": gap for label, gap in gaps.items()})
    return m, tracer


def traced(run: Run, seconds: float, info: dict) -> dict:
    results, _ = run.job()
    run.check(results)
    walls = {cmd.label: ch.wall for cmd, ch in results}
    # Every child of the run has ended; in-process work may now grow this
    # process without inflating any child's peak RSS.
    sys.path.insert(0, str(SRC))
    import gikit

    samples, start = [], time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        metrics, tracer = replay_once(gikit, run, walls)
        samples.append(metrics)
    tracer.write(BENCH / "out" / f"spans-{run.w.name}-seed{run.seed}.json")
    out = medians(samples)
    out["cli.import_s"] = statistics.median(run.import_s)
    rp = replay.Replay(gikit, run.w, run.work, replay.Tracer())
    out.update(rp.memory(run.work / SCENE, run.seed, run.work / CONTAINER, run.w.shift))
    probe = replay.stream_probe(llc_bytes(), _meminfo_bytes("MemAvailable"))
    out["machine.stream_gbps"] = probe.pop("machine.stream_gbps")
    info["stream_probe"] = {k: round(v, 1) for k, v in probe.items()}
    out["replays"] = len(samples)
    return out


# -- entry point ---------------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool, info: dict) -> tuple[Run, dict]:
    work = BENCH / ".work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (BENCH / "out").mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    run = Run(w, seed, work)
    t0 = time.perf_counter()
    try:
        # Set-ups are calibrated like commands, by the references around them.
        walls, setup_refs = [], [run.ref_child()]
        for _ in range(SETUPS):
            walls.append(run.setup())
            setup_refs.append(run.ref_child())
        setup = statistics.median(walls)
        setup_cal = statistics.median(
            wall * REF_NOMINAL_S * 2 / (before + after)
            for wall, before, after in zip(walls, setup_refs, setup_refs[1:]))
        if trace:
            return run, traced(run, seconds, info)
        # Jobs repeat until their calibrated walls add up to ``seconds``, so
        # the number of jobs does not depend on the machine's current speed,
        # and at least MIN_JOBS times, so every command has repeats.
        jobs, scaled, measured = [], [], 0.0
        while True:
            began = time.perf_counter()
            results, job_refs = run.job()
            jobs.append(results)
            scaled.append(calibrated(results, job_refs))
            measured += sum(child.wall for _, child in scaled[-1])
            run.check(results)
            now = time.perf_counter()
            if (len(jobs) >= MIN_JOBS and measured >= seconds) or now - t0 + (now - began) > RUN_BUDGET_S:
                break
        out = job_metrics(median_job(scaled))
        out["setup_s"] = setup_cal
        out["fail_rate"] = run.failed / run.attempted
        out["jobs"] = len(jobs)
        out["reference_s"] = statistics.median(e[2] for e in run.timeline if e[1] == "reference")
        out.update({f"raw.{k}": v for k, v in job_metrics(median_job(jobs)).items() if k.endswith("_s")})
        out["raw.setup_s"] = setup
        return run, out
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)  # containers are hundreds of MB


def report(w: Workload, seed: int, trace: bool, run: Run, metrics: dict, info: dict) -> None:
    kind = "per-layer (traced replay)" if trace else "end-to-end"
    print(f"== {w.name} seed={seed} {kind}: {w.shots} shots of {w.width}x{w.height}; {w.why}")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    suffixes = {"_s": "s", "_mb": "MB", "_rate": "ratio"}
    for name, value in metrics.items():
        base = name.removeprefix("raw.").split("[")[0]
        unit = units.get(base) or next((u for x, u in suffixes.items() if base.endswith(x)), "count")
        print(f"  {name:40s} {value:14.6g} {unit}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print("machine: " + json.dumps(info, sort_keys=True))


def spec_metrics(trace: bool, values: dict) -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gikit" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: no gikit source under {SRC} or no {SPEC.name}; run from a checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    info = machine_info()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (False, True) if args.workload == "all" else (bool(args.trace),)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in passes:
            w = WORKLOADS[name]
            run, metrics = run_workload(w, args.seed, args.seconds, trace, info)
            report(w, args.seed, trace, run, metrics, info)
            result = {
                "workload": name, "seed": args.seed, "trace": trace, "machine": info,
                "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
                "problems": run.problems, "timeline": run.timeline,
            }
            out = BENCH / "out" / f"result-{name}-seed{args.seed}-trace{int(trace)}.json"
            out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            final["attempted"] += run.attempted
            final["failed"] += run.failed
            for key, value in spec_metrics(trace, metrics).items():
                final["metrics"][key if len(names) == 1 else f"{name}.{key}"] = value
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
