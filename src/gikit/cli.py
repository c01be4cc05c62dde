"""Command-line front end: simulate datasets, reconstruct images, sweep
parameters, and dump drift diagnostics.

Exit codes: 0 success, 2 flag/validation errors (before any real work), 1
runtime failures (I/O, degenerate data, a run too large to allocate). All
outputs are deterministic given the same flags and seed, except the
wall_time_ms manifest column.

``reconstruct`` has one route into the pass routine
(``reconstruct._one_job``): batch is ``--progressive`` with no snapshot
points, and only ``ci`` reads the bucket column ahead of its frame pass.

Each command ends at its last write: :func:`entry` runs the atexit
callbacks, flushes stdout and stderr and leaves with ``os._exit``, which
skips the interpreter's teardown (clearing every module, the collector's
last passes). Every file a command writes is closed before :func:`main`
returns. The one thread a command may start is the container reader's
worker, which reads the next block while a pass sums this one when the
process may run on more than one CPU: it is joined when its pass ends,
fails or is closed, so it has ended before ``os._exit`` could cut it off.
The normal exit is kept when a tracer, profiler or coverage tool watches
the process, when a flush fails, for argparse's own exits (``--help``,
exit 2) and for an uncaught exception.
A closed stdout ends in exit 120, buffered or not (``PYTHONUNBUFFERED``).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GikitError
from .fileio import (
    ManifestRow,
    _atomic_open,
    _check_destination,
    _graymap,
    _read_sidecar,
    _temporary_path,
    append_manifest_row,
    export_image,
    export_raw,
    import_scene,
    open_container,
    write_container,
    write_manifest,
)
from .metrics import cnr, mask_from_scene
from .reconstruct import METHODS, SGI_METHODS, _one_job, sr_diagnostics

if TYPE_CHECKING:  # simulate and sweep load inside the commands that run them
    from .simulate import DriftProfile, NoiseModel, PatternModel

PATTERN_ALIASES = {"iid": "iid-uniform", "speckle": "correlated-speckle"}
SWEEP_AXES = ("n", "noise-mean", "drift-kind")


def _at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _secrets_stand_in():
    """A ``secrets`` that holds only ``randbits``, the callable that the real
    module's ``randbits`` is, and that NumPy's ``bit_generator`` imports."""
    import random
    from types import ModuleType

    stand_in = ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    return stand_in


def _import_numpy_random() -> None:
    """Import ``numpy.random`` without OpenSSL. NumPy's ``bit_generator``
    imports ``randbits`` from ``secrets``, whose ``hmac`` loads ``hashlib``
    and libcrypto (about 4 MB), so a stand-in ``secrets`` is in
    ``sys.modules`` during the import and removed after it; a later ``import
    secrets`` gets the real module. Every run is seeded: only NumPy's legacy
    global generator draws from ``randbits``, once, from the same OS entropy.
    It does nothing if ``numpy.random`` or ``secrets`` is loaded already, and
    imports plainly if NumPy asks the stand-in for more. Not thread-safe, so
    the CLI alone calls it, before a simulating command's first generator."""
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        return
    sys.modules["secrets"] = _secrets_stand_in()
    try:
        import numpy.random  # noqa: F401
        return
    except ImportError:
        pass
    finally:
        del sys.modules["secrets"]
    import numpy.random  # noqa: F401, F811  (with the real secrets)


def _simulation_models(args, parser) -> tuple[PatternModel, DriftProfile, NoiseModel]:
    """The models of :func:`_add_simulation_flags`'s flags; a bad value exits 2.
    ``--drift`` is ``kind[:amplitude[:period_or_knots]]``, e.g. ``linear:0.3``."""
    from .simulate import DriftProfile, NoiseModel, PatternModel

    _import_numpy_random()

    kind, *numbers = args.drift.split(":")
    try:
        if len(numbers) > 2:
            raise ValueError(f"bad drift spec {args.drift!r}: expected kind[:amplitude[:period]]")
        return (
            PatternModel(PATTERN_ALIASES[args.pattern], args.grain, args.step_shift, args.jitter),
            DriftProfile(kind, *map(float, numbers)),
            NoiseModel(args.noise_mean, args.noise_std, args.noise_target),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _add_simulation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scene", required=True, help="transmission map (P5/P2 graymap)")
    sub.add_argument("--pattern", choices=sorted(PATTERN_ALIASES), default="iid")
    sub.add_argument("--grain", type=float, default=2.0, help="speckle grain radius, pixels")
    sub.add_argument("--step-shift", type=float, default=1.0, help="speckle translation per shot, pixels")
    sub.add_argument("--jitter", type=float, default=0.0, help="random perturbation of the translation, pixels")
    sub.add_argument("--drift", default="none", help="drift spec kind[:amplitude[:period]], e.g. linear:0.3")
    sub.add_argument("--noise-mean", type=float, default=0.0)
    sub.add_argument("--noise-std", type=float, default=0.0)
    sub.add_argument("--noise-target", choices=("bucket", "object-field"), default="bucket")
    sub.add_argument("--seed", type=_at_least(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs: the commands and the exit codes
    parser = argparse.ArgumentParser(prog="gikit", description="\n\n".join(__doc__.split("\n\n")[:2]))
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic dataset container")
    _add_simulation_flags(sim)
    sim.add_argument("--n", type=_at_least(1), required=True, help="number of measurements")
    sim.add_argument("--out", required=True, help="output .gid container path")
    sim.set_defaults(run=cmd_simulate, parser=sim)

    rec = subs.add_parser("reconstruct", help="reconstruct image(s) from a container")
    rec.add_argument("--in", dest="input", required=True, help="input .gid container")
    rec.add_argument("--method", choices=METHODS, required=True)
    rec.add_argument("--shift", type=_at_least(1), default=1, help="pair shift k for sgi methods")
    rec.add_argument("--close-loop", action="store_true", help="add the last-minus-first pair (k=1 only)")
    rec.add_argument("--limit", type=_at_least(1), default=None, help="use only the first M records")
    rec.add_argument(
        "--progressive", type=_at_least(1), default=None, metavar="E",
        help="for sgi methods, also export a snapshot every E records",
    )
    rec.add_argument("--scene", default=None, help="ground-truth scene for the CNR manifest column")
    rec.add_argument("--manifest", default=None, help="manifest CSV to append to")
    rec.add_argument("--raw", action="store_true", help="also dump raw float64 image values")
    rec.add_argument("--out", required=True, help="output prefix (writes <out>.pgm or <out>_pos/_neg.pgm)")
    rec.set_defaults(run=cmd_reconstruct, parser=rec)

    swp = subs.add_parser("sweep", help="CNR across a parameter sweep, one manifest row per run")
    _add_simulation_flags(swp)
    swp.add_argument("--n", type=_at_least(2), required=True,
                     help="measurements per point (max over points for axis=n)")
    swp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    swp.add_argument("--values", required=True, help="comma-separated sweep values")
    swp.add_argument("--methods", required=True, help="comma-separated methods")
    swp.add_argument("--shift", type=_at_least(1), default=1)
    swp.add_argument("--out", required=True, help="output prefix (writes <out>.csv and <out>.json)")
    swp.set_defaults(run=cmd_sweep, parser=swp)

    dia = subs.add_parser("diagnose", help="dump frame totals and their successive deviations")
    dia.add_argument("--in", dest="input", required=True)
    dia.add_argument("--shift", type=_at_least(1), default=1)
    dia.add_argument("--out", required=True, help="output CSV path")
    dia.set_defaults(run=cmd_diagnose, parser=dia)

    return parser


def _exports(result, prefix: str, raw: bool) -> list:
    """``(export, image, path)`` for every file that ``result`` is exported to."""
    suffixes = [""] if len(result.images) == 1 else ["_pos", "_neg"]
    exports = []
    for image, suffix in zip(result.images, suffixes):
        exports.append((export_image, image, Path(f"{prefix}{suffix}.pgm")))
        if raw:
            exports.append((export_raw, image, Path(f"{prefix}{suffix}.f64")))
    return exports


def _provenance_fields(header) -> tuple[str, float | None]:
    """The drift kind and noise mean of a container header's provenance, or
    ``("", None)`` where they do not parse: bad JSON (a ValueError), deep
    nesting, missing keys or a mean that overflows a float."""
    try:
        settings = json.loads(header.provenance)
        return settings["drift"]["kind"], float(settings["noise"]["mean"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return "", None


def _manifest_row(result, n, drift_kind, noise_mean, shift, mask, wall_ms, settings) -> ManifestRow:
    return ManifestRow(
        method=result.method,
        n=n,
        k=shift if result.method in SGI_METHODS else None,
        drift_kind=drift_kind,
        noise_mean=noise_mean,
        cnr=cnr(result.images[0], mask).cnr if mask is not None else None,
        pair_count=result.count,
        wall_time_ms=round(wall_ms, 3),
        settings=settings,
    )


def cmd_simulate(args, parser) -> int:
    from .simulate import Simulation

    pattern, drift, noise = _simulation_models(args, parser)
    scene = import_scene(args.scene)
    run = Simulation(scene, n=args.n, seed=args.seed, pattern=pattern, drift=drift, noise=noise)
    write_container(run.header, run.blocks(), args.out)
    header = run.header
    print(f"wrote {args.out}: {header.width}x{header.height}, n={header.n}, seed={header.seed}")
    print(f"provenance: {header.provenance}")
    return 0


def _export_pass(results, every, prefix, raw):
    """Export the final images of a one-job pass, ``results`` from
    :func:`~gikit.reconstruct._one_job`, and, unless ``every`` is None, a
    snapshot at each multiple of ``every`` records. Each snapshot is written
    to a temporary file beside its target and renamed into place only after
    the pass and the final export succeed, so a bad record anywhere leaves
    no snapshot. Returns the final result."""
    staged = []  # (temporary, target) path of every snapshot file
    try:
        for _, seen, result in results:
            if every is not None and seen % every == 0:  # else the final images alone
                for _, image, path in _exports(result, f"{prefix}_snap{seen:06d}", raw=False):
                    staged.append((_temporary_path(path), path))
                    with open(staged[-1][0], "xb") as fh:
                        fh.write(_graymap(image))
        for export, image, path in _exports(result, prefix, raw):
            export(image, path)
        for temporary, path in staged:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        raise
    return result


def cmd_reconstruct(args, parser) -> int:
    if args.close_loop and args.shift != 1:
        parser.error(
            "--close-loop is only defined for --shift 1 "
            "(the wrap-around pair has no agreed meaning for larger shifts)"
        )
    if args.progressive is not None and args.method not in SGI_METHODS:
        parser.error("--progressive requires a streaming method (sgi1/sgi2/sgi3)")

    source = open_container(args.input)
    if args.limit is not None:
        if args.limit > source.n:
            parser.error(f"--limit {args.limit} exceeds dataset size {source.n}")
        source = source.first(args.limit)
    if args.method in SGI_METHODS and source.n <= args.shift:
        parser.error(f"--shift {args.shift} needs more than {args.shift} records, dataset has {source.n}")

    scene = import_scene(args.scene) if args.scene else None
    header = source.header
    if scene is not None and (scene.width, scene.height) != (header.width, header.height):
        parser.error(f"--scene is {scene.width}x{scene.height} but the frames are {header.width}x{header.height}")
    _check_destination(f"{args.out}.pgm")  # a missing directory fails before the pass, not after it
    if args.manifest:
        _read_sidecar(args.manifest)  # so do a bad sidecar and the manifest's directory

    start = time.perf_counter()
    passes = _one_job(source, args.method, shift=args.shift, close_loop=args.close_loop, every=args.progressive)
    result = _export_pass(passes, args.progressive, args.out, args.raw)
    wall_ms = (time.perf_counter() - start) * 1000.0

    settings = {
        "input": str(args.input),
        "method": args.method,
        "shift": args.shift,
        "close_loop": args.close_loop,
        "limit": args.limit,
        "progressive": args.progressive,
        "seed": source.header.seed,
    }
    mask = mask_from_scene(scene) if scene is not None else None
    row = _manifest_row(result, source.n, *_provenance_fields(header), args.shift, mask, wall_ms, settings)
    if args.manifest:
        append_manifest_row(row, args.manifest)
    print(f"{result.method}: n={source.n}, pairs={result.count}" +
          (f", cnr={row.cnr:.4f}" if row.cnr is not None else ""))
    return 0


def _sweep_points(args, parser, drift: DriftProfile, noise: NoiseModel) -> list:
    """``(value, n, drift, noise)`` of every point of ``--values``, each value
    stripped; a bad value exits 2 before any run."""
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        parser.error("--values must list at least one sweep point")
    points = []
    for value in values:
        try:
            if args.axis == "n":
                value = _at_least(2)(value)
                points.append((value, value, drift, noise))
            elif args.axis == "noise-mean":
                value = float(value)
                points.append((value, args.n, drift, noise._replace(mean=value)))
            else:  # a none point has no amplitude; every other kind takes --drift's
                amplitude = drift.amplitude if value != "none" else 0.0
                points.append((value, args.n, drift._replace(kind=value, amplitude=amplitude), noise))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"bad sweep value {value!r} on axis {args.axis}: {exc}")
    return points


def cmd_sweep(args, parser) -> int:
    from .simulate import Simulation, _provenance
    from .sweep import _sweep_run

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods must list at least one method")
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method {m!r}, expected one of {METHODS}")
    pattern, drift, noise = _simulation_models(args, parser)
    points = _sweep_points(args, parser, drift, noise)
    fewest = min(n for _, n, _, _ in points)  # records in the smallest point
    if any(m in SGI_METHODS for m in methods) and fewest <= args.shift:
        parser.error(f"--shift {args.shift} needs more than {args.shift} records, a sweep point has {fewest}")
    _check_destination(args.out)  # the directory of <out>.csv and <out>.json
    scene = import_scene(args.scene)

    # Points of one drift share their frames: one run of the longest point
    # (axis n takes every point as a prefix of it) in one streamed pass, two with ci.
    n_run = max(args.n, *(n for _, n, _, _ in points))
    runs = {}
    for index, (_, _, point_drift, _) in enumerate(points):
        runs.setdefault(point_drift, []).append(index)
    results, wall_ms = [None] * len(points), [0.0] * len(points)
    for point_drift, indices in runs.items():
        start = time.perf_counter()
        run = Simulation(scene, n=n_run, seed=args.seed, pattern=pattern, drift=point_drift)
        run_results = _sweep_run(run, args.seed, [(points[i][1], points[i][3]) for i in indices],
                                 methods, args.shift)
        each_ms = (time.perf_counter() - start) * 1000.0 / (len(indices) * len(methods))
        for index, point_results in zip(indices, run_results):
            results[index], wall_ms[index] = point_results, each_ms

    rows, mask = [], mask_from_scene(scene)
    for (value, n, point_drift, point_noise), point_results, ms in zip(points, results, wall_ms):
        provenance = _provenance(scene, pattern, point_drift, point_noise, n_run, args.seed)
        for method, result in zip(methods, point_results):
            settings = {
                "axis": args.axis,
                "value": value,
                "method": method,
                "shift": args.shift,
                "seed": args.seed,
                "provenance": provenance,
            }
            rows.append(_manifest_row(result, n, point_drift.kind, point_noise.mean, args.shift, mask, ms, settings))
    csv_path, json_path = write_manifest(rows, args.out)
    print(f"wrote {csv_path} and {json_path}: {len(rows)} rows")
    return 0


def cmd_diagnose(args, parser) -> int:
    source = open_container(args.input)
    if source.n <= args.shift:
        parser.error(f"--shift {args.shift} needs more than {args.shift} records, dataset has {source.n}")
    _check_destination(args.out)
    s_r, dev = sr_diagnostics(source, args.shift)
    out = Path(args.out)
    with _atomic_open(out, "w", newline="") as fh:
        fh.write("index,s_r,dev_index,s_r_deviation\n")
        for i in range(len(s_r)):
            dev_part = f"{i},{float(dev[i])!r}" if i < len(dev) else ","
            fh.write(f"{i},{float(s_r[i])!r},{dev_part}\n")
    # std(R - <R>) is 0 only for constant totals, where the ratio has no meaning
    ratio = repr(float(dev.std() / s_r.std())) if s_r.min() < s_r.max() else "undefined"
    print(f"wrote {out}: {len(s_r)} totals, {len(dev)} deviations (shift={args.shift}), "
          f"drift ratio std(dR)/std(R-<R>) = {ratio}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # each command's own exit-2 checks report through its subparser: "gikit <command>: error:"
        return args.run(args, args.parser)
    except BrokenPipeError as exc:  # an unbuffered stdout's reader has gone: the summary line, after every write
        print(f"Exception ignored in: {sys.stdout!r}\n{type(exc).__name__}: {exc}", file=sys.stderr)
        return 120  # as a buffered stdout ends, whose flush at exit fails
    except (GikitError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _watched() -> bool:
    """Whether a debugger, profiler or coverage tool watches the process:
    one set through ``sys.settrace`` or ``sys.setprofile``, or, on Python
    3.12 and later, a ``sys.monitoring`` tool (cProfile is one there)."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)))


def entry() -> None:
    """The ``gikit`` console script and ``python -m gikit.cli``: exit with
    :func:`main`'s code, without the interpreter's teardown.

    Unless :func:`_watched`, it runs the atexit callbacks, flushes stdout and
    stderr (either may be None) and calls ``os._exit``. A flush that fails, as
    on a closed stdout pipe, falls back to ``sys.exit``, whose own flush then
    reports it (exit 120). Library callers use :func:`main`, which returns
    the code and never exits.
    """
    code = main()
    if not _watched():
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass  # the normal exit flushes again and reports the failure
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
