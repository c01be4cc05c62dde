"""Output checks, run by ``run.py`` as a child process:

    python3 bench/oracle.py REQUEST.json

A child inherits in its ``ru_maxrss`` the peak resident size of the process
that started it, so everything that touches a container runs here and
``run.py`` stays small. The last line of standard output is a JSON object
mapping each checked command to its problems (an empty list if none).

The reference images do not use the library under test. The container is
read from its documented layout (magic ``GID1``,
uint32 header length, header JSON, then per record a float64 bucket and
float32 frame pixels), memory-mapped and converted to float64 in row
blocks, so the check never holds the whole frame matrix. The reference
images follow the README formula table in float64. Where a formula is a
difference of two large means, it is evaluated in the algebraically equal
weighted form (for example ``<SI> - <S><I> = <(S - <S>) I>``), which keeps
the reference free of the cancellation the check is meant to catch.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RAW_TOL = 1e-10  # --raw image against the float64 reference
STREAM_TOL = 1e-12  # last --progressive image against batch recon_sgi
BLOCK_BYTES = 16 << 20  # float64 bytes per frame block

PAIR_METHODS = ("ci", "sgi2", "sgi3")  # methods that write _pos and _neg images


def rel_gap(a, b) -> float:
    """Max elementwise difference relative to the larger image magnitude
    (the same measure the test suite uses)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max() / scale)


@dataclass
class Container:
    width: int
    height: int
    n: int
    buckets: np.ndarray  # float64, (n,)
    records: np.ndarray  # memory-mapped structured records

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def frames(self, start: int, stop: int) -> np.ndarray:
        return self.records["frame"][start:stop].astype(np.float64)

    def blocks(self, count: int):
        rows = max(1, BLOCK_BYTES // (8 * self.pixels))
        for start in range(0, count, rows):
            yield start, min(start + rows, count)


def open_container(path) -> Container:
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8 or head[:4] != b"GID1":
            raise ValueError(f"{path}: not a GID1 container")
        header_len = int.from_bytes(head[4:8], "little")
        doc = json.loads(fh.read(header_len))
    width, height, n = int(doc["width"]), int(doc["height"]), int(doc["n"])
    dtype = np.dtype([("bucket", "<f8"), ("frame", "<f4", (width * height,))])
    offset = 8 + header_len
    if path.stat().st_size != offset + n * dtype.itemsize:
        raise ValueError(f"{path}: payload size does not match the header")
    records = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(n,))
    return Container(width, height, n, np.array(records["bucket"], dtype=np.float64), records)


def frame_totals(c: Container) -> np.ndarray:
    """R_i = sum_x I_i(x)."""
    totals = np.empty(c.n)
    for a, b in c.blocks(c.n):
        totals[a:b] = c.frames(a, b).sum(axis=1)
    return totals


def reference_images(c: Container, shift: int) -> dict[str, list[np.ndarray]]:
    """Every estimator of the README table, as flat float64 images."""
    n, k, s = c.n, shift, c.buckets
    totals = frame_totals(c)
    s_mean = s.mean()
    w_g2 = s / n
    w_delta = (s - s_mean) / n
    w_dgi = (s - (s_mean / totals.mean()) * totals) / n
    positive = s >= s_mean
    n_pos = int(positive.sum())
    w_pos = positive / n_pos
    w_neg = ~positive / (n - n_pos)
    weights = np.stack([w_g2, w_delta, w_dgi, w_pos, w_neg])
    batch = np.zeros((len(weights), c.pixels))
    for a, b in c.blocks(n):
        batch += weights[:, a:b] @ c.frames(a, b)

    m = n - k
    d_s = s[k:] - s[:m]
    pair = np.zeros((5, c.pixels))
    for a, b in c.blocks(m):
        early = c.frames(a, b)
        late = c.frames(a + k, b + k)
        diff = late - early
        pair[0] += d_s[a:b] @ diff  # sgi1
        pair[1] += d_s[a:b] @ late  # sgi2 +
        pair[2] += d_s[a:b] @ early  # sgi2 -
        pair[3] += s[a + k : b + k] @ diff  # sgi3 +
        pair[4] += s[a:b] @ diff  # sgi3 -
    pair /= m
    return {
        "g2": [batch[0]],
        "dgi-delta": [batch[1]],
        "dgi": [batch[2]],
        "ci": [batch[3], batch[4]],
        "sgi1": [pair[0]],
        "sgi2": [pair[1], pair[2]],
        "sgi3": [pair[3], pair[4]],
        "totals": [totals],
    }


def raw_paths(prefix: str, method: str) -> list[str]:
    if method in PAIR_METHODS:
        return [f"{prefix}_pos.f64", f"{prefix}_neg.f64"]
    return [f"{prefix}.f64"]


def load_raw(path, pixels: int) -> np.ndarray:
    values = np.fromfile(path, dtype="<f8")
    if values.size != pixels:
        raise ValueError(f"{path}: {values.size} values, expected {pixels}")
    return values


def check_raw(prefix: str, method: str, reference: list[np.ndarray], pixels: int,
              tol: float = RAW_TOL) -> list[str]:
    """Problems with the --raw images written under ``prefix``; empty if none."""
    problems = []
    for path, expected in zip(raw_paths(prefix, method), reference):
        try:
            got = load_raw(path, pixels)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        gap = rel_gap(got, expected)
        if not gap <= tol:
            problems.append(f"{path}: relative gap {gap:.3e} > {tol:.0e}")
    return problems


def check_pgms(prefix: str, method: str) -> list[str]:
    paths = [p[: -len(".f64")] + ".pgm" for p in raw_paths(prefix, method)]
    return [f"{p}: missing" for p in paths if not Path(p).is_file()]


def check_diagnose(path, totals: np.ndarray, shift: int) -> list[str]:
    """The diagnose CSV holds R_i and R_{i+k} - R_i for every record."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [str(exc)]
    n = len(totals)
    if len(rows) != n:
        return [f"{path}: {len(rows)} rows, expected {n}"]
    s_r = np.array([float(r["s_r"]) for r in rows])
    dev = np.array([float(r["s_r_deviation"]) for r in rows[: n - shift]])
    problems = []
    if any(r["s_r_deviation"] for r in rows[n - shift :]):
        problems.append(f"{path}: deviations past row {n - shift}")
    for name, got, expected in (
        ("s_r", s_r, totals),
        ("s_r_deviation", dev, totals[shift:] - totals[: n - shift]),
    ):
        gap = rel_gap(got, expected)
        if not gap <= RAW_TOL:
            problems.append(f"{path}: {name} relative gap {gap:.3e} > {RAW_TOL:.0e}")
    return problems


def check_manifest(path, expected_rows: int, n: int, shift: int) -> list[str]:
    """Every row has a finite CNR and a pair count of n or n - k."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [str(exc)]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        try:
            cnr = float(row["cnr"])
            pairs = int(row["pair_count"])
        except (KeyError, ValueError) as exc:
            problems.append(f"{path} row {i}: {exc}")
            continue
        if not math.isfinite(cnr):
            problems.append(f"{path} row {i}: CNR {cnr}")
        if pairs not in (n, n - shift):
            problems.append(f"{path} row {i}: pair count {pairs}, expected {n} or {n - shift}")
    return problems


def liveness(prefix: str, method: str, reference: list[np.ndarray], pixels: int,
             scratch: str) -> str | None:
    """Corrupt one value of a raw image that passed and confirm the raw check
    now fails. Returns a problem if the check missed the corruption."""
    source = raw_paths(prefix, method)[0]
    values = load_raw(source, pixels)
    values[pixels // 2] += 1e-6 * max(np.abs(values).max(), 1.0)
    target = raw_paths(scratch, method)
    for path in target:
        Path(path).unlink(missing_ok=True)
    values.astype("<f8").tofile(target[0])
    for path, image in zip(target[1:], reference[1:]):
        image.astype("<f8").tofile(path)
    if check_raw(scratch, method, reference, pixels):
        return None
    return f"liveness: a corrupted copy of {source} passed the raw check"


def batch_sgi(container_path, methods, shift: int) -> dict[str, list[np.ndarray]]:
    """Batch ``recon_sgi`` from the library, for the streaming check."""
    import gikit

    dataset = gikit.read_dataset(container_path)
    return {m: [image.data.ravel() for image in
                gikit.recon_sgi(dataset, mode=int(m[-1]), shift=shift).images]
            for m in methods}


def load_images(req: dict) -> dict[str, list[np.ndarray]]:
    """Reference images of the run's container, computed once and cached."""
    cache = Path(req["cache"])
    if cache.is_file():
        with np.load(cache) as data:
            images: dict[str, list[np.ndarray]] = {}
            for key in data.files:
                name, _, _ = key.rpartition(".")
                images.setdefault(name, []).append(data[key])
            return images
    images = reference_images(open_container(req["container"]), req["shift"])
    if req["progressive"]:
        for m, batch in batch_sgi(req["container"], req["progressive"], req["shift"]).items():
            images[f"batch.{m}"] = batch
    np.savez(cache, **{f"{name}.{i}": image for name, imgs in images.items()
                       for i, image in enumerate(imgs)})
    return images


def check_command(cmd: dict, req: dict, images: dict) -> list[str]:
    method, prefix, k = cmd["method"], cmd["prefix"], req["shift"]
    n, pixels = req["n"], images["g2"][0].size
    if cmd["kind"] == "reconstruct":
        problems = check_raw(prefix, method, images[method], pixels) + check_pgms(prefix, method)
        if cmd["manifest_rows"]:
            problems += check_manifest("recon.csv", cmd["manifest_rows"], n, k)
        return problems
    if cmd["kind"] == "progressive":
        problems = check_raw(prefix, method, images[method], pixels)
        problems += [p + " (against batch recon_sgi)" for p in check_raw(
            prefix, method, images[f"batch.{method}"], pixels, STREAM_TOL)]
        for seen in range(req["every"], n + 1, req["every"]):
            problems += check_pgms(f"{prefix}_snap{seen:06d}", method)
        return problems
    if cmd["kind"] == "diagnose":
        return check_diagnose("sr.csv", images["totals"][0], k)
    if cmd["kind"] == "sweep":
        return check_manifest("sweep.csv", cmd["manifest_rows"], n, 1)
    return []


def main(argv: list[str]) -> int:
    req = json.loads(Path(argv[1]).read_text())
    images = load_images(req)
    req["n"] = images["totals"][0].size
    out = {cmd["label"]: check_command(cmd, req, images) for cmd in req["commands"]}
    if req["liveness"]:
        raw = [c for c in req["commands"] if c["prefix"] and not out[c["label"]]]
        if raw:
            cmd = raw[0]
            problem = liveness(cmd["prefix"], cmd["method"], images[cmd["method"]],
                               images["g2"][0].size, "liveness")
            out["liveness"] = [problem] if problem else []
        else:
            out["liveness"] = ["no raw output passed its check, so liveness is unproven"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
