#!/usr/bin/env bash
# Reproduce the paper's three studies with the gikit CLI (seed 10 throughout):
#   baseline/     all seven estimators on one clean iid run: images, baseline.csv
#   drift_noise/  dgi-delta, dgi and sgi1 on slowly moving speckle across the
#                 drift families (drift_kinds.csv, one sr_<kind>.csv each) and
#                 across noise means under linear drift (noise_means.csv)
#   sampling/     sgi1 quality against shot count: sampling.csv, sgi1_n<count>.pgm
# Usage: scripts/studies.sh OUTDIR [SIZE=32] [N=4096] [SERIES=30000,20000,10000,5000,1000,500]
set -euo pipefail
out=${1:?usage: $0 OUTDIR [SIZE] [N] [SERIES]} size=${2:-32} n=${3:-4096} series=${4:-30000,20000,10000,5000,1000,500}
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
gikit() { python3 -m gikit.cli "$@"; }
mkdir -p "$out"/{baseline,drift_noise,sampling}
scene=$out/scene.pgm common=(--scene "$scene" --seed 10)
python3 -c "import sys, gikit; side = int(sys.argv[2])
gikit.export_image(gikit.ReconImage(gikit.binary_demo_scene(side, side).transmission), sys.argv[1])" "$scene" "$size"

d=$out/baseline
rm -f "$d/baseline.csv" "$d/baseline.json"  # reconstruct --manifest appends
gikit simulate "${common[@]}" --n "$n" --out "$d/baseline.gid"
for method in g2 dgi-delta dgi ci sgi1 sgi2 sgi3; do
  gikit reconstruct --in "$d/baseline.gid" --method "$method" --scene "$scene" --manifest "$d/baseline" --out "$d/$method"
done

d=$out/drift_noise speckle=("${common[@]}" --pattern speckle --grain 3 --n "$n") methods=dgi-delta,dgi,sgi1
kinds=none,linear,sinusoidal,step,random-walk
gikit sweep "${speckle[@]}" --axis drift-kind --values "$kinds" --drift linear:0.3 --methods "$methods" --out "$d/drift_kinds"
for kind in ${kinds//,/ }; do
  gikit simulate "${speckle[@]}" --drift "$([ "$kind" = none ] && echo none || echo "$kind:0.3")" --out "$d/drift_$kind.gid"
  gikit diagnose --in "$d/drift_$kind.gid" --out "$d/sr_$kind.csv"
done
gikit sweep "${speckle[@]}" --axis noise-mean --values 0.012,0.024,0.036,0.048,0.06 --drift linear:0.3 --noise-std 0.05 \
  --methods "$methods" --out "$d/noise_means"

d=$out/sampling most=$(tr , '\n' <<<"$series" | sort -n | tail -n 1)
gikit sweep "${common[@]}" --axis n --values "$series" --n "$most" --methods sgi1 --out "$d/sampling"
gikit simulate "${common[@]}" --n "$most" --out "$d/sampling.gid"
for count in ${series//,/ }; do
  gikit reconstruct --in "$d/sampling.gid" --method sgi1 --limit "$count" --out "$d/sgi1_n$(printf %06d "$count")"
done
