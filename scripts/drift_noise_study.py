#!/usr/bin/env python3
"""Robustness study: source drift and additive detector noise.

Part 1 runs every drift family (linear, sinusoidal, step, random-walk) in the
slowly-rotating-speckle regime and compares dgi-delta / dgi / sgi1 by CNR,
dumping the frame-total diagnostics that show why mean subtraction breaks.
Part 2 sweeps the noise mean from 0.012 to 0.06 on top of linear drift.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gikit
from gikit.fileio import ManifestRow, write_manifest

METHODS = {
    "dgi-delta": gikit.recon_delta_gi,
    "dgi": gikit.recon_dgi,
    "sgi1": lambda ds: gikit.recon_sgi(ds, mode=1),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=10)
    ap.add_argument("--amplitude", type=float, default=0.3)
    ap.add_argument("--noise-std", type=float, default=0.05)
    ap.add_argument("--outdir", default="out/drift_noise")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scene = gikit.binary_demo_scene(args.size, args.size)
    mask = gikit.mask_from_scene(scene)
    pattern = gikit.PatternModel("correlated-speckle", grain_radius=3.0, step_shift=1.0)

    rows = []
    print("== drift kinds (noise off) ==")
    print(f"{'drift':12s} " + " ".join(f"{m:>10s}" for m in METHODS) + f" {'sr-dev/ctr':>11s}")
    for kind in ("none", "linear", "sinusoidal", "step", "random-walk"):
        drift = gikit.DriftProfile(kind, args.amplitude if kind != "none" else 0.0)
        ds = gikit.simulate(scene, n=args.n, seed=args.seed, pattern=pattern, drift=drift)
        s_r, dev = gikit.sr_diagnostics(ds, 1)
        centered = s_r - s_r.mean()
        ratio = dev.std() / centered.std() if centered.std() > 0 else float("nan")
        cnrs = []
        for name, recon in METHODS.items():
            result = recon(ds)
            quality = gikit.cnr(result.images[0], mask).cnr
            cnrs.append(quality)
            rows.append(ManifestRow(
                method=name, n=ds.n, k=1 if name == "sgi1" else None,
                drift_kind=kind, noise_mean=0.0, cnr=quality,
                pair_count=result.count, wall_time_ms=0.0,
                settings={"seed": args.seed, "part": "drift-kinds"},
            ))
        with open(outdir / f"sr_{kind}.csv", "w") as fh:
            fh.write("index,s_r,s_r_deviation\n")
            for i, total in enumerate(s_r):
                tail = repr(float(dev[i])) if i < len(dev) else ""
                fh.write(f"{i},{float(total)!r},{tail}\n")
        print(f"{kind:12s} " + " ".join(f"{c:10.3f}" for c in cnrs) + f" {ratio:11.2e}")

    print("== noise means under linear drift ==")
    print(f"{'mean':>6s} " + " ".join(f"{m:>10s}" for m in METHODS))
    drift = gikit.DriftProfile("linear", args.amplitude)
    for mean in np.arange(0.012, 0.0601, 0.012):
        noise = gikit.NoiseModel(mean=float(mean), std=args.noise_std)
        ds = gikit.simulate(scene, n=args.n, seed=args.seed, pattern=pattern,
                            drift=drift, noise=noise)
        cnrs = []
        for name, recon in METHODS.items():
            result = recon(ds)
            quality = gikit.cnr(result.images[0], mask).cnr
            cnrs.append(quality)
            rows.append(ManifestRow(
                method=name, n=ds.n, k=1 if name == "sgi1" else None,
                drift_kind="linear", noise_mean=float(mean), cnr=quality,
                pair_count=result.count, wall_time_ms=0.0,
                settings={"seed": args.seed, "part": "noise-sweep"},
            ))
        print(f"{mean:6.3f} " + " ".join(f"{c:10.3f}" for c in cnrs))

    write_manifest(rows, outdir / "drift_noise")
    print(f"manifest and diagnostics written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
