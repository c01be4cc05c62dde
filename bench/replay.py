"""Traced in-process replay of a workload's CLI job.

Each command of the job is replayed by calling the same public library
functions the CLI calls, in the same order, with a span around every call.
Spans record name, start, end and parent; they are kept in memory and
written out once at the end. A layer the job never reaches (batch kernels
on ``stream``, the push loop on ``desk`` and ``lab``) is replayed once more
as coverage on the same container, with its spans marked, so every
per-layer metric exists on every workload.

Three extra passes follow the replay: component probes that split
``simulate`` and the container codec into their parts, a tracemalloc pass
that reports the peak Python-visible allocation of each heavy call, and a
memory-bandwidth probe for the roofline.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

METHODS = ("g2", "dgi-delta", "dgi", "ci", "sgi1", "sgi2", "sgi3")


class Tracer:
    """In-memory span recorder: name, start, end, parent and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.coverage = False

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "coverage": self.coverage,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        """Spans called ``name`` from the job, or from coverage if the job has none."""
        job = [s for s in self.spans if s["name"] == name and not s["coverage"]]
        return job or [s for s in self.spans if s["name"] == name and s["coverage"]]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


class Replay:
    """Replays CLI commands against the library imported from the checkout."""

    def __init__(self, gikit, workload, work: Path, tracer: Tracer):
        self.g = gikit
        self.w = workload
        self.work = work
        self.out = work / "replay"
        shutil.rmtree(self.out, ignore_errors=True)  # a manifest must not grow across replays
        self.out.mkdir()
        self.t = tracer
        self.push_ns: list[np.ndarray] = []
        self.pushes = 0
        self.pairs = 0

    # -- models ------------------------------------------------------------
    def models(self):
        """The workload's simulate flags as library model objects."""
        g, sim = self.g, self.w.sim
        kind, _, amplitude = sim["drift"].partition(":")
        pattern = g.PatternModel(kind={"iid": "iid-uniform", "speckle": "correlated-speckle"}[sim["pattern"]])
        drift = g.DriftProfile(kind=kind, amplitude=float(amplitude or 0.0))
        noise = g.NoiseModel(mean=sim["noise_mean"], std=sim["noise_std"], target=sim["noise_target"])
        return pattern, drift, noise

    def _kernel(self, dataset, method: str, shift: int):
        g = self.g
        size = dataset.n * dataset.width * dataset.height * 8
        with self.t.span(f"reconstruct.{method}", bytes=size):
            if method == "g2":
                return g.recon_g2(dataset)
            if method == "dgi-delta":
                return g.recon_delta_gi(dataset)
            if method == "dgi":
                return g.recon_dgi(dataset)
            if method == "ci":
                return g.recon_ci(dataset)
            return g.recon_sgi(dataset, mode=int(method[-1]), shift=shift)

    def _export(self, result, prefix: Path, raw: bool) -> None:
        g = self.g
        names = [""] if len(result.images) == 1 else ["_pos", "_neg"]
        with self.t.span("fileio.export", images=len(names)):
            for image, suffix in zip(result.images, names):
                g.export_image(image, f"{prefix}{suffix}.pgm")
                if raw:
                    g.export_raw(image, f"{prefix}{suffix}.f64")

    def _cnr(self, image, scene) -> float:
        with self.t.span("metrics.cnr"):
            return self.g.cnr(image, self.g.mask_from_scene(scene)).cnr

    def _row(self, result, dataset, shift, cnr_value, settings):
        sim = self.w.sim
        return self.g.ManifestRow(
            method=result.method, n=dataset.n,
            k=shift if result.method.startswith("sgi") else None,
            drift_kind=sim["drift"].partition(":")[0], noise_mean=settings.get("noise_mean"),
            cnr=cnr_value, pair_count=result.count, wall_time_ms=0.0, settings=settings,
        )

    # -- commands ----------------------------------------------------------
    def simulate(self, label: str, scene_path: Path, seed: int, container: Path) -> None:
        g = self.g
        pattern, drift, noise = self.models()
        with self.t.span(f"cmd:{label}"):
            with self.t.span("fileio.import_scene"):
                scene = g.import_scene(scene_path)
            with self.t.span("simulate.total", frames=self.w.shots):
                dataset = g.simulate(scene, n=self.w.shots, seed=seed, pattern=pattern,
                                     drift=drift, noise=noise)
            with self.t.span("fileio.write"):
                g.write_dataset(dataset, self.out / container.name)

    def reconstruct(self, label: str, container: Path, method: str, shift: int,
                    scene_path: Path) -> None:
        g = self.g
        with self.t.span(f"cmd:{label}"):
            with self.t.span("fileio.read"):
                dataset = g.read_dataset(container)
            with self.t.span("fileio.import_scene"):
                scene = g.import_scene(scene_path)
            result = self._kernel(dataset, method, shift)
            self._export(result, self.out / f"rec_{method}", raw=True)
            cnr_value = self._cnr(result.images[0], scene)
            row = self._row(result, dataset, shift, cnr_value, {"method": method})
            with self.t.span("fileio.manifest"):
                g.append_manifest_row(row, self.out / "recon")

    def progressive(self, label: str, container: Path, method: str, shift: int,
                    every: int) -> None:
        g = self.g
        with self.t.span(f"cmd:{label}"):
            with self.t.span("fileio.read"):
                dataset = g.read_dataset(container)
            acc = g.SgiAccumulator(mode=int(method[-1]), shift=shift)
            times = np.empty(dataset.n, dtype=np.int64)
            clock = time.perf_counter_ns
            with self.t.span("reconstruct.push_loop", records=dataset.n):
                for i, record in enumerate(dataset.records):
                    start = clock()
                    acc.push(record)
                    times[i] = clock() - start
                    if acc.records_seen % every == 0 and acc.pairs >= 1:
                        with self.t.span("reconstruct.snapshot"):
                            snap = acc.snapshot()
                        self._export(snap, self.out / f"prog_{method}_snap{acc.records_seen:06d}", raw=False)
            with self.t.span("reconstruct.snapshot"):
                result = acc.snapshot()
            self._export(result, self.out / f"prog_{method}", raw=True)
        self.push_ns.append(times)
        self.pushes += dataset.n
        self.pairs += result.count

    def diagnose(self, label: str, container: Path, shift: int) -> None:
        g = self.g
        with self.t.span(f"cmd:{label}"):
            with self.t.span("fileio.read"):
                dataset = g.read_dataset(container)
            with self.t.span("reconstruct.sr_diagnostics"):
                s_r, dev = g.sr_diagnostics(dataset, shift)
            with self.t.span("diagnose.write_csv"):
                with open(self.out / "sr.csv", "w", newline="") as fh:
                    fh.write("index,s_r,dev_index,s_r_deviation\n")
                    for i in range(len(s_r)):
                        dev_part = f"{i},{float(dev[i])!r}" if i < len(dev) else ","
                        fh.write(f"{i},{float(s_r[i])!r},{dev_part}\n")

    def sweep(self, label: str, scene_path: Path, seed: int, values, methods) -> None:
        g = self.g
        pattern, drift, base_noise = self.models()
        with self.t.span(f"cmd:{label}"):
            with self.t.span("fileio.import_scene"):
                scene = g.import_scene(scene_path)
            rows = []
            for value in values:
                noise = g.NoiseModel(mean=value, std=base_noise.std, target=base_noise.target)
                with self.t.span("simulate.total", frames=self.w.shots):
                    dataset = g.simulate(scene, n=self.w.shots, seed=seed, pattern=pattern,
                                         drift=drift, noise=noise)
                for method in methods:
                    result = self._kernel(dataset, method, 1)
                    cnr_value = self._cnr(result.images[0], scene)
                    rows.append(self._row(result, dataset, 1, cnr_value,
                                          {"method": method, "noise_mean": value}))
            with self.t.span("fileio.manifest"):
                g.write_manifest(rows, self.out / "sweep")

    # -- probes ------------------------------------------------------------
    def probes(self, scene_path: Path, seed: int, container: Path) -> None:
        """Component calls that split simulate and the codec into parts."""
        g = self.g
        pattern, drift, noise = self.models()
        scene = g.import_scene(scene_path)
        w = self.w
        with self.t.span("simulate.patterns"):
            frames = g.generate_patterns(scene.width, scene.height, w.shots, pattern, seed)
        with self.t.span("simulate.drift"):
            g.drift_gains(drift, w.shots, seed)
        records = [g.MeasurementRecord(i, f, 0.0) for i, f in enumerate(frames)]
        with self.t.span("simulate.noise"):
            for _ in g.apply_noise(records, noise, seed):
                pass
        del frames, records
        data = container.read_bytes()
        with self.t.span("fileio.decode"):
            dataset = g.decode_dataset(data)
        del data
        with self.t.span("fileio.encode"):
            g.encode_dataset(dataset)
        stack = dataset.frame_matrix.reshape(dataset.n, dataset.height, dataset.width)
        with self.t.span("types.from_arrays"):
            g.Dataset.from_arrays(stack, dataset.buckets, validate=False)
        with self.t.span("types.validate"):
            g.validate_dataset(dataset)

    def memory(self, scene_path: Path, seed: int, container: Path, shift: int) -> dict[str, float]:
        """Peak tracemalloc allocation, in MB, of each heavy call on its own."""
        g = self.g
        pattern, drift, noise = self.models()
        scene = g.import_scene(scene_path)
        data = container.read_bytes()
        dataset = None

        def decode():
            nonlocal data, dataset
            dataset = g.decode_dataset(data)
            data = None  # the CLI drops the bytes once decoded, too

        ops = {
            "fileio.decode.peak_alloc_mb": decode,
            "simulate.peak_alloc_mb": lambda: g.simulate(scene, n=self.w.shots, seed=seed, pattern=pattern,
                                                         drift=drift, noise=noise),
            "fileio.encode.peak_alloc_mb": lambda: g.encode_dataset(dataset),
        }
        for method in METHODS:
            ops[f"reconstruct.{method}.peak_alloc_mb"] = lambda m=method: self._kernel(dataset, m, shift)

        def push_all():
            acc = g.SgiAccumulator(mode=1, shift=shift)
            for record in dataset.records:
                acc.push(record)
            return acc.snapshot()

        ops["reconstruct.push.peak_alloc_mb"] = push_all
        peaks = {}
        tracemalloc.start()
        try:
            for name, op in ops.items():
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = op()
                peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                del result
        finally:
            tracemalloc.stop()
        return peaks


def push_percentiles(push_ns: list[np.ndarray]) -> dict[str, float]:
    us = np.concatenate(push_ns) / 1e3
    return {
        "reconstruct.push_us.p50": float(np.percentile(us, 50)),
        "reconstruct.push_us.p99": float(np.percentile(us, 99)),
        "reconstruct.push_us.samples": int(us.size),
    }


def stream_probe(llc_bytes: int, avail_bytes: int | None) -> dict[str, float]:
    """Measured bandwidth of a numpy sum over an array of at least 4x the LLC.

    The array shrinks below that only when it would take more than half of
    the memory the machine reports as available; the sizes are returned so
    the report can state them.
    """
    size = max(4 * llc_bytes, 256 << 20)
    if avail_bytes is not None:
        size = min(size, avail_bytes // 2)
    array = np.empty(size // 8)
    array.fill(1.0)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        array.sum()
        times.append(time.perf_counter() - start)
    nbytes = array.nbytes
    del array
    return {
        "machine.stream_gbps": nbytes / statistics.median(times) / 1e9,
        "array_mb": nbytes / 1e6,
        "llc_mb": llc_bytes / 1e6,
    }
