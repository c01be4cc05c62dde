"""Command-line front end: simulate datasets, reconstruct images, sweep
parameters, and dump drift diagnostics.

Exit codes: 0 success, 2 flag/validation errors (before any real work), 1
runtime failures (I/O, degenerate data). All outputs are deterministic given
the same flags and seed, except the wall_time_ms manifest column.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import GikitError
from .fileio import (
    ManifestRow,
    _atomic_open,
    append_manifest_row,
    export_image,
    export_raw,
    import_scene,
    open_container,
    write_container,
    write_manifest,
)
from .metrics import cnr, mask_from_scene
from .reconstruct import METHODS, SGI_METHODS, SgiAccumulator, reconstruct, sr_diagnostics
from .simulate import DRIFT_KINDS, DriftProfile, NoiseModel, PatternModel, Simulation, simulate

PATTERN_ALIASES = {"iid": "iid-uniform", "speckle": "correlated-speckle"}
SWEEP_AXES = ("n", "noise-mean", "drift-kind")


def _parse_drift(spec: str, parser: argparse.ArgumentParser) -> DriftProfile:
    """Parse 'kind[:amplitude[:period_or_knots]]', e.g. 'linear:0.3'."""
    parts = spec.split(":")
    kind = parts[0]
    if kind not in DRIFT_KINDS:
        parser.error(f"unknown drift kind {kind!r}, expected one of {DRIFT_KINDS}")
    try:
        amplitude = float(parts[1]) if len(parts) > 1 else 0.0
        period = float(parts[2]) if len(parts) > 2 else None
        return DriftProfile(kind=kind, amplitude=amplitude, period_or_knots=period)
    except (ValueError, IndexError) as exc:
        parser.error(f"bad drift spec {spec!r}: {exc}")


def _pattern_from_args(args, parser) -> PatternModel:
    kind = PATTERN_ALIASES.get(args.pattern, args.pattern)
    try:
        return PatternModel(
            kind=kind,
            grain_radius=args.grain,
            step_shift=args.step_shift,
            jitter=args.jitter,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _noise_from_args(args, parser) -> NoiseModel:
    try:
        return NoiseModel(mean=args.noise_mean, std=args.noise_std, target=args.noise_target)
    except ValueError as exc:
        parser.error(str(exc))


def _simulation_models(args, parser) -> tuple[PatternModel, DriftProfile, NoiseModel]:
    """Check the flags of :func:`_add_simulation_flags` and build their models."""
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    pattern = _pattern_from_args(args, parser)
    return pattern, _parse_drift(args.drift, parser), _noise_from_args(args, parser)


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
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gikit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic dataset container")
    _add_simulation_flags(sim)
    sim.add_argument("--n", type=int, required=True, help="number of measurements")
    sim.add_argument("--out", required=True, help="output .gid container path")

    rec = subs.add_parser("reconstruct", help="reconstruct image(s) from a container")
    rec.add_argument("--in", dest="input", required=True, help="input .gid container")
    rec.add_argument("--method", choices=METHODS, required=True)
    rec.add_argument("--shift", type=int, default=1, help="pair shift k for sgi methods")
    rec.add_argument("--close-loop", action="store_true", help="add the last-minus-first pair (k=1 only)")
    rec.add_argument("--limit", type=int, default=None, help="use only the first M records")
    rec.add_argument(
        "--progressive", type=int, default=None, metavar="E",
        help="for sgi methods, also export a snapshot every E records",
    )
    rec.add_argument("--scene", default=None, help="ground-truth scene for the CNR manifest column")
    rec.add_argument("--manifest", default=None, help="manifest CSV to append to")
    rec.add_argument("--raw", action="store_true", help="also dump raw float64 image values")
    rec.add_argument("--out", required=True, help="output prefix (writes <out>.pgm or <out>_pos/_neg.pgm)")

    swp = subs.add_parser("sweep", help="CNR across a parameter sweep, one manifest row per run")
    _add_simulation_flags(swp)
    swp.add_argument("--n", type=int, required=True, help="measurements per point (max over points for axis=n)")
    swp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    swp.add_argument("--values", required=True, help="comma-separated sweep values")
    swp.add_argument("--methods", required=True, help="comma-separated methods")
    swp.add_argument("--shift", type=int, default=1)
    swp.add_argument("--out", required=True, help="output prefix (writes <out>.csv and <out>.json)")

    dia = subs.add_parser("diagnose", help="dump frame totals and their successive deviations")
    dia.add_argument("--in", dest="input", required=True)
    dia.add_argument("--shift", type=int, default=1)
    dia.add_argument("--out", required=True, help="output CSV path")

    return parser


def _export_result(result, prefix: str, raw: bool) -> list[Path]:
    paths = []
    if len(result.images) == 1:
        targets = [(result.images[0], Path(f"{prefix}.pgm"), Path(f"{prefix}.f64"))]
    else:
        targets = [
            (result.images[0], Path(f"{prefix}_pos.pgm"), Path(f"{prefix}_pos.f64")),
            (result.images[1], Path(f"{prefix}_neg.pgm"), Path(f"{prefix}_neg.f64")),
        ]
    for image, pgm_path, raw_path in targets:
        export_image(image, pgm_path)
        paths.append(pgm_path)
        if raw:
            export_raw(image, raw_path)
            paths.append(raw_path)
    return paths


def _provenance_fields(source) -> tuple[str, float | None]:
    try:
        settings = json.loads(source.header.provenance)
        return settings["drift"]["kind"], float(settings["noise"]["mean"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return "", None


def _manifest_row(result, source, shift, scene, wall_ms, settings) -> ManifestRow:
    drift_kind, noise_mean = _provenance_fields(source)
    cnr_value = None
    if scene is not None:
        cnr_value = cnr(result.images[0], mask_from_scene(scene)).cnr
    return ManifestRow(
        method=result.method,
        n=source.n,
        k=shift if result.method in SGI_METHODS else None,
        drift_kind=drift_kind,
        noise_mean=noise_mean,
        cnr=cnr_value,
        pair_count=result.count,
        wall_time_ms=round(wall_ms, 3),
        settings=settings,
    )


def cmd_simulate(args, parser) -> int:
    if args.n < 1:
        parser.error(f"--n must be >= 1, got {args.n}")
    pattern, drift, noise = _simulation_models(args, parser)
    scene = import_scene(args.scene)
    run = Simulation(scene, n=args.n, seed=args.seed, pattern=pattern, drift=drift, noise=noise)
    write_container(run.header, run.blocks(), args.out)
    header = run.header
    print(f"wrote {args.out}: {header.width}x{header.height}, n={header.n}, seed={header.seed}")
    print(f"provenance: {header.provenance}")
    return 0


def _progressive_reconstruct(source, method, shift, close_loop, every, prefix, raw):
    for _ in source.blocks():  # check every record before the first snapshot is written
        pass
    mode = int(method[-1])
    acc = SgiAccumulator(mode=mode, shift=shift, close_loop=close_loop)
    for rec in source.iter_records():
        acc.push(rec)
        if acc.records_seen % every == 0 and acc.pairs >= 1:
            snap = acc.snapshot()
            _export_result(snap, f"{prefix}_snap{acc.records_seen:06d}", raw=False)
    result = acc.snapshot()
    _export_result(result, prefix, raw)
    return result


def cmd_reconstruct(args, parser) -> int:
    if args.shift < 1:
        parser.error(f"--shift must be >= 1, got {args.shift}")
    if args.close_loop and args.shift != 1:
        parser.error(
            "--close-loop is only defined for --shift 1 "
            "(the wrap-around pair has no agreed meaning for larger shifts)"
        )
    if args.limit is not None and args.limit < 1:
        parser.error(f"--limit must be >= 1, got {args.limit}")
    if args.progressive is not None:
        if args.progressive < 1:
            parser.error(f"--progressive must be >= 1, got {args.progressive}")
        if args.method not in SGI_METHODS:
            parser.error("--progressive requires a streaming method (sgi1/sgi2/sgi3)")

    source = open_container(args.input)
    if args.limit is not None:
        if args.limit > source.n:
            parser.error(f"--limit {args.limit} exceeds dataset size {source.n}")
        source = source.first(args.limit)
    if args.method in SGI_METHODS and source.n <= args.shift:
        parser.error(f"--shift {args.shift} needs more than {args.shift} records, dataset has {source.n}")

    scene = import_scene(args.scene) if args.scene else None

    start = time.perf_counter()
    if args.progressive is not None:
        result = _progressive_reconstruct(
            source, args.method, args.shift, args.close_loop, args.progressive, args.out, args.raw
        )
    else:
        result = reconstruct(source, args.method, shift=args.shift, close_loop=args.close_loop)
        _export_result(result, args.out, args.raw)
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
    row = _manifest_row(result, source, args.shift, scene, wall_ms, settings)
    if args.manifest:
        append_manifest_row(row, args.manifest)
    print(f"{result.method}: n={source.n}, pairs={result.count}" +
          (f", cnr={row.cnr:.4f}" if row.cnr is not None else ""))
    return 0


def _parse_values(args, parser) -> list:
    raw = [v for v in args.values.split(",") if v.strip()]
    if not raw:
        parser.error("--values must list at least one sweep point")
    try:
        if args.axis == "n":
            values = [int(v) for v in raw]
            if any(v < 2 for v in values):
                parser.error("axis=n values must be >= 2")
            return values
        if args.axis == "noise-mean":
            values = [float(v) for v in raw]
            for v in values:
                NoiseModel(mean=v)  # rejects a non-finite mean before the first run
            return values
    except ValueError as exc:
        parser.error(f"bad sweep value: {exc}")
    for v in raw:
        if v not in DRIFT_KINDS:
            parser.error(f"unknown drift kind {v!r} in --values")
    return raw


def cmd_sweep(args, parser) -> int:
    if args.n < 2:
        parser.error(f"--n must be >= 2, got {args.n}")
    methods = [m for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods must list at least one method")
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method {m!r}, expected one of {METHODS}")
    values = _parse_values(args, parser)
    pattern, base_drift, base_noise = _simulation_models(args, parser)
    drifts = {}  # every drift-kind point's profile, checked before the first run
    for value in values if args.axis == "drift-kind" else ():
        amplitude = base_drift.amplitude if value != "none" else 0.0
        try:
            drifts[value] = DriftProfile(value, amplitude, base_drift.period_or_knots)
        except ValueError as exc:
            parser.error(f"--drift {args.drift} does not suit sweep value {value!r}: {exc}")
    scene = import_scene(args.scene)

    base = None
    if args.axis == "n":
        n_max = max(max(values), args.n)
        base = simulate(scene, n=n_max, seed=args.seed, pattern=pattern,
                        drift=base_drift, noise=base_noise)

    rows = []
    for value in values:
        if args.axis == "n":
            dataset = base.first(int(value))
        elif args.axis == "noise-mean":
            noise = NoiseModel(mean=float(value), std=base_noise.std, target=base_noise.target)
            dataset = simulate(scene, n=args.n, seed=args.seed, pattern=pattern,
                               drift=base_drift, noise=noise)
        else:
            dataset = simulate(scene, n=args.n, seed=args.seed, pattern=pattern,
                               drift=drifts[value], noise=base_noise)
        for method in methods:
            start = time.perf_counter()
            result = reconstruct(dataset, method, shift=args.shift)
            wall_ms = (time.perf_counter() - start) * 1000.0
            settings = {
                "axis": args.axis,
                "value": value,
                "method": method,
                "shift": args.shift,
                "seed": args.seed,
                "provenance": dataset.header.provenance,
            }
            rows.append(_manifest_row(result, dataset, args.shift, scene, wall_ms, settings))
    csv_path, json_path = write_manifest(rows, args.out)
    print(f"wrote {csv_path} and {json_path}: {len(rows)} rows")
    return 0


def cmd_diagnose(args, parser) -> int:
    if args.shift < 1:
        parser.error(f"--shift must be >= 1, got {args.shift}")
    source = open_container(args.input)
    if source.n <= args.shift:
        parser.error(f"--shift {args.shift} needs more than {args.shift} records, dataset has {source.n}")
    s_r, dev = sr_diagnostics(source, args.shift)
    out = Path(args.out)
    with _atomic_open(out, "w", newline="") as fh:
        fh.write("index,s_r,dev_index,s_r_deviation\n")
        for i in range(len(s_r)):
            dev_part = f"{i},{float(dev[i])!r}" if i < len(dev) else ","
            fh.write(f"{i},{float(s_r[i])!r},{dev_part}\n")
    print(f"wrote {out}: {len(s_r)} totals, {len(dev)} deviations (shift={args.shift})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "simulate": cmd_simulate,
        "reconstruct": cmd_reconstruct,
        "sweep": cmd_sweep,
        "diagnose": cmd_diagnose,
    }
    try:
        return commands[args.command](args, parser)
    except (GikitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
