"""Synthetic measurement generation: speckle sequences, the bucket forward
model, source-power drift, and detector noise.

The forward model is a two-arm split with unit gain: the object arm sees the
same field as the reference arm, and the bucket detector integrates the
transmitted field over the whole frame,

    bucket_i = sum_x pattern_i(x) * transmission(x).

Drift multiplies each shot's source field by a gain d_i > 0 (common to both
arms, so reference frames carry it too); detector noise afflicts only the
collection arm and never touches the reference frames.

Reproducibility: every random stream is derived from the run seed via
counter-based SeedSequence splitting, namespaced as (0, i) for pattern i,
(1,) for drift, (2, i) for the noise hitting record i. Streams therefore do
not overlap, per-frame generation is order-independent (parallel and serial
agree bit for bit), and the first n frames of a longer run equal an n-frame
run exactly.

A run is produced a block of consecutive records at a time by
:class:`Simulation`, which fills each block's frames in place, scales them
by the drift gains, integrates the buckets and adds the noise. ``gikit
simulate`` writes each block straight into the container, so it holds one
block (about 32 MB of float64 frames) and never the whole run;
:func:`simulate` fills one in-memory stack with the same blocks, so both
give the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .fileio import _block_rows
from .types import (
    Dataset,
    DatasetHeader,
    Frame,
    MeasurementRecord,
    ObjectScene,
    _frame_unchecked,
)

__all__ = [
    "ObjectScene",
    "PatternModel",
    "DriftProfile",
    "NoiseModel",
    "generate_patterns",
    "forward_bucket",
    "apply_drift",
    "drift_gains",
    "apply_noise",
    "simulate",
    "Simulation",
    "binary_demo_scene",
]

PATTERN_KINDS = ("iid-uniform", "correlated-speckle")
DRIFT_KINDS = ("none", "linear", "sinusoidal", "step", "random-walk")
NOISE_TARGETS = ("bucket", "object-field")

# Random-walk gains are clamped into this band so the source can never
# underflow to a non-physical gain <= 0.
_WALK_BOUNDS = (0.1, 10.0)

_PATTERN_KEY = 0
_DRIFT_KEY = 1
_NOISE_KEY = 2


def _child_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _require_finite(model, *names: str) -> None:
    for name in names:
        value = getattr(model, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PatternModel:
    """Illumination pattern law.

    iid-uniform draws every pixel independently uniform on [0, 1).

    correlated-speckle emulates a slowly evolving pseudo-thermal field: one
    white-noise field is blurred by a Gaussian kernel of scale
    ``grain_radius`` (periodic boundaries), min-max normalized into [0, 1),
    then cyclically translated by ``step_shift`` pixels per shot in row-major
    scan order, so consecutive frames differ only slightly and every offset
    yields a distinct frame. ``jitter`` adds a Gaussian perturbation to each
    shot's translation, standing in for wobble of the rotation axis. All
    rolls preserve the frame total exactly.
    """

    kind: str = "iid-uniform"
    grain_radius: float = 2.0
    step_shift: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}, expected one of {PATTERN_KINDS}")
        _require_finite(self, "grain_radius", "step_shift", "jitter")
        if self.grain_radius < 0 or self.step_shift < 0 or self.jitter < 0:
            raise ValueError("grain_radius, step_shift, and jitter must be >= 0")


@dataclass(frozen=True)
class DriftProfile:
    """Per-shot multiplicative source gain d_i > 0.

    Parametric families (i = 0..n-1):
      linear       d_i = 1 + amplitude * (i/n - 1/2)
      sinusoidal   d_i = 1 + amplitude * sin(2*pi*i / period),  period defaults to n
      step         d_i = 1 +/- amplitude, alternating over equal segments
                   (``period_or_knots`` segments, default 4)
      random-walk  d_i = clamp(d_{i-1} * exp(eps_i)), eps_i ~ N(0, amplitude^2), d_0 = 1
    """

    kind: str = "none"
    amplitude: float = 0.0
    period_or_knots: float | None = None

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}, expected one of {DRIFT_KINDS}")
        _require_finite(self, "amplitude")
        if self.amplitude < 0:
            raise ValueError("drift amplitude must be >= 0")
        if self.kind in ("linear", "sinusoidal", "step") and self.amplitude >= 1.0:
            raise ValueError("drift amplitude must be < 1 so gains stay positive")
        if self.period_or_knots is not None:
            if not np.isfinite(self.period_or_knots) or self.period_or_knots <= 0:
                raise ValueError("period_or_knots must be positive and finite")
            if self.kind == "step" and int(self.period_or_knots) < 1:
                raise ValueError(
                    f"step drift needs at least one segment, got period_or_knots={self.period_or_knots}"
                )


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian detector noise N(mean, std^2).

    target="bucket" perturbs the single collected scalar per shot.
    target="object-field" adds independent noise to every pixel of the field
    arriving at the detector before integration, so the bucket picks up a
    shift with mean ``mean * pixels`` and std ``std * sqrt(pixels)``.
    """

    mean: float = 0.0
    std: float = 0.0
    target: str = "bucket"

    def __post_init__(self):
        _require_finite(self, "mean", "std")
        if self.std < 0:
            raise ValueError("noise std must be >= 0")
        if self.target not in NOISE_TARGETS:
            raise ValueError(f"unknown noise target {self.target!r}, expected one of {NOISE_TARGETS}")

    @property
    def enabled(self) -> bool:
        return self.mean != 0.0 or self.std != 0.0


def _pattern_filler(width: int, height: int, n: int, model: PatternModel, seed: int):
    """Return ``fill(start, out)``, which writes frames ``start`` to
    ``start + len(out) - 1`` of an ``n``-frame run into ``out``, a C-contiguous
    (rows, height, width) float64 array."""
    if width < 1 or height < 1:
        raise ValueError(f"pattern dimensions must be positive, got {width}x{height}")
    if n < 1:
        raise ValueError(f"measurement count must be >= 1, got {n}")

    if model.kind == "iid-uniform":
        def fill_iid(start: int, out: np.ndarray) -> None:
            for i, frame in enumerate(out, start):
                _child_rng(seed, _PATTERN_KEY, i).random(out=frame)

        return fill_iid

    if model.grain_radius > max(width, height):
        # Less than one grain would fit in the frame, and the blur kernel
        # grows with the radius.
        raise ValueError(f"speckle grain radius {model.grain_radius} exceeds the {width}x{height} frame")
    base_rng = _child_rng(seed, _PATTERN_KEY, 0)
    base = base_rng.random((height, width))
    if model.grain_radius > 0:
        from scipy.ndimage import gaussian_filter  # imported here: it is most of gikit's import time

        base = gaussian_filter(base, sigma=model.grain_radius, mode="wrap")
    span = base.max() - base.min()
    if span > 0:
        base = (base - base.min()) / span
    else:
        base = np.zeros_like(base)
    base *= np.nextafter(1.0, 0.0)  # keep strictly inside [0, 1)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        shifts = np.arange(n, dtype=np.float64) * model.step_shift
        if model.jitter > 0:
            jitter_rng = _child_rng(seed, _PATTERN_KEY, 1)
            shifts = shifts + jitter_rng.normal(0.0, model.jitter, size=n)
        shifts = np.rint(shifts)
    if not ((shifts >= -(2.0**63)) & (shifts < 2.0**63)).all():  # false for NaN, too
        raise ValueError(f"speckle offsets of step_shift={model.step_shift} and "
                         f"jitter={model.jitter} over {n} frames do not fit in int64")
    offsets = shifts.astype(np.int64)
    flat = base.ravel()

    def fill_speckle(start: int, out: np.ndarray) -> None:
        for i, frame in enumerate(out, start):
            frame[...] = np.roll(flat, offsets[i]).reshape(height, width)

    return fill_speckle


def generate_patterns(width: int, height: int, n: int, model: PatternModel, seed: int) -> list[Frame]:
    """Generate ``n`` illumination frames, deterministic in ``seed``."""
    fill = _pattern_filler(width, height, n, model, seed)
    stack = np.empty((n, height, width))
    fill(0, stack)
    stack.flags.writeable = False
    return [_frame_unchecked(stack[i]) for i in range(n)]


def forward_bucket(pattern: Frame, scene: ObjectScene) -> float:
    """Bucket value collected through the object for one illumination pattern."""
    if pattern.data.shape != scene.transmission.shape:
        raise ValueError(
            f"pattern is {pattern.height}x{pattern.width} but scene is "
            f"{scene.height}x{scene.width}"
        )
    return float(np.dot(pattern.data.ravel(), scene.transmission.ravel()))


def drift_gains(profile: DriftProfile, n: int, seed: int = 0) -> np.ndarray:
    """Evaluate the per-shot gain sequence d_0..d_{n-1} for a drift profile."""
    if n < 1:
        raise ValueError(f"measurement count must be >= 1, got {n}")
    i = np.arange(n, dtype=np.float64)
    a = profile.amplitude
    if profile.kind == "none" or a == 0.0:
        return np.ones(n)
    if profile.kind == "linear":
        gains = 1.0 + a * (i / n - 0.5)
    elif profile.kind == "sinusoidal":
        period = profile.period_or_knots if profile.period_or_knots is not None else float(n)
        gains = 1.0 + a * np.sin(2.0 * np.pi * i / period)
    elif profile.kind == "step":
        segments = int(profile.period_or_knots) if profile.period_or_knots is not None else 4
        segment = (np.arange(n) * segments) // n
        gains = 1.0 + a * np.where(segment % 2 == 0, 1.0, -1.0)
    else:  # random-walk
        eps = _child_rng(seed, _DRIFT_KEY).normal(0.0, a, size=n)
        gains = np.empty(n)
        gains[0] = 1.0
        lo, hi = _WALK_BOUNDS
        for j in range(1, n):
            gains[j] = min(max(gains[j - 1] * np.exp(eps[j]), lo), hi)
    if (gains <= 0.0).any():
        raise ValueError("drift gains must stay positive")
    return gains


def apply_drift(patterns, profile: DriftProfile, seed: int = 0) -> list[Frame]:
    """Scale frame i by the profile's gain d_i."""
    patterns = list(patterns)
    gains = drift_gains(profile, len(patterns), seed)
    return [Frame(frame.data * g) for frame, g in zip(patterns, gains)]


def _bucket_noise(index: int, pixels: int, model: NoiseModel, seed: int) -> float:
    rng = _child_rng(seed, _NOISE_KEY, index)
    if model.target == "bucket":
        return float(rng.normal(model.mean, model.std))
    # Independent per-pixel noise on the field reaching the detector,
    # integrated over the full collection area.
    return float(rng.normal(model.mean, model.std, size=pixels).sum())


def apply_noise(records, model: NoiseModel, seed: int = 0):
    """Yield records with noised buckets; reference frames are never altered."""
    for rec in records:
        if not model.enabled:
            yield rec
            continue
        eta = _bucket_noise(rec.index, rec.frame.data.size, model, seed)
        yield MeasurementRecord(rec.index, rec.frame, rec.bucket + eta)


def _provenance(scene: ObjectScene, pattern: PatternModel, drift: DriftProfile,
                noise: NoiseModel, n: int, seed: int) -> str:
    settings = {
        "n": n,
        "seed": seed,
        "width": scene.width,
        "height": scene.height,
        "scene_binary": scene.binary,
        "pattern": asdict(pattern),
        "drift": asdict(drift),
        "noise": asdict(noise),
    }
    return json.dumps(settings, sort_keys=True, separators=(",", ":"))


class Simulation:
    """One simulated run, produced a block of consecutive records at a time.

    A record needs only its own random streams and the O(n) drift gains and
    speckle offsets worked out here once, so a block needs no other records.
    :meth:`blocks` and :meth:`dataset` split the run the same way, into
    blocks of a multiple of 8 rows that fit the container writer's record
    buffer. A streamed run and an in-memory one therefore agree bit for bit:
    BLAS matrix-vector kernels sum rows in small groups, and a block boundary
    inside a group could change the last bit of a bucket.
    """

    def __init__(
        self,
        scene: ObjectScene,
        n: int,
        seed: int = 0,
        pattern: PatternModel = PatternModel(),
        drift: DriftProfile = DriftProfile(),
        noise: NoiseModel = NoiseModel(),
    ):
        self._fill = _pattern_filler(scene.width, scene.height, n, pattern, seed)
        self._gains = drift_gains(drift, n, seed)
        self._transmission = scene.transmission.ravel()
        self._noise = noise
        self._seed = seed
        self.header = DatasetHeader(
            width=scene.width,
            height=scene.height,
            n=n,
            seed=seed,
            provenance=_provenance(scene, pattern, drift, noise, n, seed),
        )

    def _forward(self, start: int, frames: np.ndarray) -> np.ndarray:
        """The forward model for records ``start`` to ``start + len(frames) - 1``:
        fill ``frames``, of shape (rows, height, width), with the drifted
        patterns in place and return the noised buckets."""
        stop = start + len(frames)
        self._fill(start, frames)
        frames *= self._gains[start:stop, None, None]
        buckets = frames.reshape(len(frames), -1) @ self._transmission
        if self._noise.enabled:
            pixels = self._transmission.size
            buckets += np.array(
                [_bucket_noise(i, pixels, self._noise, self._seed) for i in range(start, stop)]
            )
        return buckets

    def _partition(self) -> tuple[int, range]:
        rows = min(self.header.n, _block_rows(self._transmission.size, multiple=8))
        return rows, range(0, self.header.n, rows)

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield the run as ``(start, buckets, frames)`` blocks, frames of
        shape (rows, pixels): the form in which a container is read. All
        blocks share one frame buffer, so use each before asking for the next."""
        header = self.header
        rows, starts = self._partition()
        buffer = np.empty((rows, header.height, header.width))
        for start in starts:
            frames = buffer[: min(rows, header.n - start)]
            buckets = self._forward(start, frames)
            yield start, buckets, frames.reshape(len(frames), -1)

    def dataset(self) -> Dataset:
        """The whole run in memory, as one frame stack filled a block at a time."""
        header = self.header
        stack = np.empty((header.n, header.height, header.width))
        buckets = np.empty(header.n)
        rows, starts = self._partition()
        for start in starts:
            buckets[start : start + rows] = self._forward(start, stack[start : start + rows])
        # Patterns are in [0, 1) and gains are positive, so the stack is valid by
        # construction; freeze it so the dataset shares this buffer.
        stack.flags.writeable = False
        buckets.flags.writeable = False
        return Dataset.from_arrays(
            stack, buckets, seed=header.seed, provenance=header.provenance, validate=False
        )


def simulate(
    scene: ObjectScene,
    n: int,
    seed: int = 0,
    pattern: PatternModel = PatternModel(),
    drift: DriftProfile = DriftProfile(),
    noise: NoiseModel = NoiseModel(),
) -> Dataset:
    """Run the full forward model and return a validated dataset.

    Reference frames carry the drift gain (the source is common to both
    arms); buckets are integrated from the drifted patterns and then noised.
    The header provenance records every setting as compact JSON, so a run is
    reproducible from its container alone. :class:`Simulation` produces the
    same run block by block without holding it whole.
    """
    return Simulation(scene, n, seed, pattern, drift, noise).dataset()


# Blocky "GI" glyphs; upsampled with nearest-neighbor so any target size
# stays strictly binary.
_DEMO_GLYPH = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.float64,
)


def binary_demo_scene(width: int, height: int) -> ObjectScene:
    """Deterministic binary test object (blocky letters) at any resolution."""
    if width < 1 or height < 1:
        raise ValueError(f"scene dimensions must be positive, got {width}x{height}")
    gh, gw = _DEMO_GLYPH.shape
    rows = (np.arange(height) * gh) // height
    cols = (np.arange(width) * gw) // width
    return ObjectScene(_DEMO_GLYPH[rows[:, None], cols[None, :]])
