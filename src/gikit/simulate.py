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
run exactly. The seed must be a non-negative integer. The per-record streams
(0, i) and (2, i) are derived in bulk by :func:`_pcg64_states`, in
:class:`Simulation` for the fewest whole blocks of at least 64 records at
a time (8 blocks at 128x128, 1 at 32x32; :class:`_RecordStreams`), and
equal the SeedSequence splitting bit for bit; :func:`_child_rng`, which
builds one record's generator the plain way, is the reference.

A run is produced a block of consecutive records at a time by
:class:`Simulation`, which fills each block's frames into one reused
buffer, scales them by the drift gains, integrates the buckets and adds the
noise. ``gikit simulate`` writes each block straight into the container, so
it holds one block of the grid (at most 1 MiB of stored records and 128
records, about twice that as float64 frames) and never the whole run;
:func:`simulate` copies the same blocks into one in-memory stack, so both
give the same bytes. Noise comes from
:func:`_block_noise` alone: one draw of standard normals per record from
its stream (2, i), scaled by each noise model asked for. :func:`apply_noise`
asks it for one record, :class:`Simulation` for a block, and ``gikit
sweep``, which streams a run's blocks without noise, for a block under
every noise model of its points, so every point's buckets are those that
:class:`Simulation` gives with that model.

Correlated speckle needs NumPy alone. :func:`_wrap_blur` is SciPy's
wrap-mode ``gaussian_filter`` reproduced bit for bit, and a block of speckle
frames is one gather of rows from a sliding-window view of the doubled base
frame, each row equal to ``np.roll`` of the base by the frame's offset.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from typing import Iterator

import numpy as np

from .fileio import _block_rows
from .types import (
    Dataset,
    DatasetHeader,
    Frame,
    MeasurementRecord,
    ObjectScene,
    _Checked,
    _frame_unchecked,
    _stacked_dataset,
)

__all__ = [
    "ObjectScene",
    "PatternModel",
    "DriftProfile",
    "NoiseModel",
    "generate_patterns",
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


# SeedSequence's hash constants and PCG64's multiplier. The hash constants
# advance the same way whatever the data, so the words of many records can
# be mixed at once, in uint64 arrays of 32-bit words. Every operand is a
# uint64 array or scalar, so NumPy 1 and 2 promote alike.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_M32, _U32, _U16 = np.uint64(_MASK32), np.uint64(32), np.uint64(16)


def _hash_rows(words: np.ndarray, const: int, mult: int) -> np.ndarray:
    """SeedSequence's hash of each row of ``words``, a (rows, records) array
    of 32-bit words, where row k is hashed by the k-th of successive hash
    calls that start from the hash constant ``const``."""
    consts = [const]
    for _ in words:
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint64)[:, None]
    words = (words ^ consts[:-1]) * consts[1:] & _M32
    return words ^ words >> _U16


def _pcg64_states(seed: int, key: int, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` when seeded with
    ``SeedSequence(seed, spawn_key=(key, i))``, for i = start .. start + count - 1.

    The pool of ``SeedSequence(seed, spawn_key=(key,))`` is the pool before
    the index word is mixed in. The index word and ``generate_state(4,
    uint64)`` then run across the block of indices, and PCG64's seeding runs
    in Python ints. An index of 2**32 or more is two words long and goes
    through :func:`_child_rng`, the reference."""
    stop = start + count
    bulk_stop = max(start, min(stop, 1 << 32))
    index = np.arange(start, bulk_stop, dtype=np.uint64)
    pool = np.random.SeedSequence(seed, spawn_key=(key,)).pool.astype(np.uint64)[:, None]
    # Every word mixed into the pool so far (the seed's words, padded to
    # the pool size of 4, and the key) advanced the hash constant 4 times.
    seed_words = max(4, (seed.bit_length() + 31) // 32)
    const = _INIT_A * pow(_MULT_A, 4 * (seed_words + 1), 1 << 32) & _MASK32
    # Mix the index word into each pool word, then generate 8 32-bit words.
    hashed = _hash_rows(np.broadcast_to(index, (4, len(index))), const, _MULT_A)
    pool = (pool * np.uint64(_MIX_L) - hashed * np.uint64(_MIX_R)) & _M32
    pool ^= pool >> _U16
    halves = _hash_rows(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B)
    # generate_state(4, uint64): 64-bit word k is 32-bit words 2k (low) and 2k + 1 (high).
    words = (halves[0::2] | halves[1::2] << _U32).tolist()
    states = []
    for s0, s1, q0, q1 in zip(*words):
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        states.append(((((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    for i in range(bulk_stop, stop):
        state = _child_rng(seed, key, i).bit_generator.state["state"]
        states.append((state["state"], state["inc"]))
    return states


def _record_rngs(seed: int, key: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """Yield, for each record i = start .. start + count - 1, a generator at
    the start of ``_child_rng(seed, key, i)``'s stream. It is one generator,
    reset before each yield, so draw from it before asking for the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(seed, key, start, count):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


_STATE_RECORDS = 64  # states are derived for the fewest whole requests of at least this many records


class _RecordStreams:
    """The generators of :func:`_record_rngs` for records i < ``n`` of the
    streams (key, i), asked for as ``(start, count)`` runs of consecutive
    records; take exactly ``count`` generators from each answer. The states
    are derived for a group of records at once, the fewest whole requests of
    at least ``_STATE_RECORDS`` records, so the small blocks of a large
    frame share the fixed cost of a derivation. A request that does not
    follow the last one, or that passes the group, starts a new group."""

    def __init__(self, seed, key, n):
        self._args, self._n, self._next, self._left = (seed, key), n, 0, 0

    def __call__(self, start, count):
        if start != self._next or count > self._left:
            self._left = min(self._n - start, -(-_STATE_RECORDS // count) * count)
            self._rngs = _record_rngs(*self._args, start, self._left)
        self._next, self._left = start + count, self._left - count
        return self._rngs


def _run_seed(seed) -> int:
    """``seed`` as a Python int. A run must be reproducible, so the seed is a
    non-negative integer: ``SeedSequence(None)`` would draw fresh OS entropy."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0 or isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def _require_finite(model, *names: str) -> None:
    for name in names:
        value = getattr(model, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class PatternModel(_Checked, namedtuple("PatternModel", "kind grain_radius step_shift jitter",
                                        defaults=("iid-uniform", 2.0, 1.0, 0.0))):
    """Illumination pattern law.

    iid-uniform draws every pixel independently uniform on [0, 1).

    correlated-speckle emulates a slowly evolving pseudo-thermal field: one
    white-noise field is blurred by a Gaussian kernel of scale
    ``grain_radius`` (periodic boundaries; the blur equals SciPy's
    ``gaussian_filter(mode="wrap")`` bit for bit), min-max normalized into [0, 1),
    then cyclically translated by ``step_shift`` pixels per shot in row-major
    scan order, so consecutive frames differ only slightly and every offset
    yields a distinct frame. ``jitter`` adds a Gaussian perturbation to each
    shot's translation, standing in for wobble of the rotation axis. All
    rolls preserve the frame total exactly.
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}, expected one of {PATTERN_KINDS}")
        _require_finite(self, "grain_radius", "step_shift", "jitter")
        if self.grain_radius < 0 or self.step_shift < 0 or self.jitter < 0:
            raise ValueError("grain_radius, step_shift, and jitter must be >= 0")


class DriftProfile(_Checked, namedtuple("DriftProfile", "kind amplitude period_or_knots",
                                        defaults=("none", 0.0, None))):
    """Per-shot multiplicative source gain d_i > 0.

    Parametric families (i = 0..n-1):
      linear       d_i = 1 + amplitude * (i/n - 1/2)
      sinusoidal   d_i = 1 + amplitude * sin(2*pi*i / period),  period defaults to n
      step         d_i = 1 +/- amplitude, alternating over equal segments
                   (``period_or_knots`` segments, default 4)
      random-walk  d_i = clamp(d_{i-1} * exp(eps_i)), eps_i ~ N(0, amplitude^2), d_0 = 1
    """

    __slots__ = ()

    def _check(self):
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


class NoiseModel(_Checked, namedtuple("NoiseModel", "mean std target", defaults=(0.0, 0.0, "bucket"))):
    """Additive Gaussian detector noise N(mean, std^2).

    target="bucket" perturbs the single collected scalar per shot.
    target="object-field" adds independent noise to every pixel of the field
    arriving at the detector before integration, so the bucket picks up a
    shift with mean ``mean * pixels`` and std ``std * sqrt(pixels)``.
    """

    __slots__ = ()

    def _check(self):
        _require_finite(self, "mean", "std")
        if self.std < 0:
            raise ValueError("noise std must be >= 0")
        if self.target not in NOISE_TARGETS:
            raise ValueError(f"unknown noise target {self.target!r}, expected one of {NOISE_TARGETS}")

    @property
    def enabled(self) -> bool:
        return self.mean != 0.0 or self.std != 0.0


def _wrap_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(image, sigma, mode="wrap")``, bit for
    bit: SciPy's kernel, truncated at 4 sigma, and its symmetric correlation,
    one axis at a time from axis 0, each sum taken in SciPy's order."""
    if sigma <= 1e-15:  # SciPy leaves the image as it is
        return image.copy()
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    for axis in range(image.ndim):
        out = image * weights[radius]
        for j in range(radius, 0, -1):
            out += (np.roll(image, j, axis) + np.roll(image, -j, axis)) * weights[radius - j]
        image = out
    return image


def _pattern_filler(width: int, height: int, n: int, model: PatternModel, seed: int):
    """Return ``fill(start, out)``, which writes frames ``start`` to
    ``start + len(out) - 1`` of an ``n``-frame run into ``out``, a C-contiguous
    (rows, height, width) float64 array."""
    if width < 1 or height < 1:
        raise ValueError(f"pattern dimensions must be positive, got {width}x{height}")
    if n < 1:
        raise ValueError(f"measurement count must be >= 1, got {n}")

    if model.kind == "iid-uniform":
        streams = _RecordStreams(seed, _PATTERN_KEY, n)

        def fill_iid(start: int, out: np.ndarray) -> None:
            for frame, rng in zip(out, streams(start, len(out))):
                rng.random(out=frame)

        return fill_iid

    if model.grain_radius > max(width, height):
        # Less than one grain would fit in the frame, and the blur kernel
        # grows with the radius.
        raise ValueError(f"speckle grain radius {model.grain_radius} exceeds the {width}x{height} frame")
    base_rng = _child_rng(seed, _PATTERN_KEY, 0)
    base = base_rng.random((height, width))
    if model.grain_radius > 0:
        base = _wrap_blur(base, model.grain_radius)
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
    # Frame i is np.roll(flat, offsets[i]): the window of the doubled base
    # that starts at -offsets[i] mod pixels.
    pixels = width * height
    flat = base.ravel()
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((flat, flat)), pixels)
    starts = (pixels - offsets % pixels) % pixels

    def fill_speckle(start: int, out: np.ndarray) -> None:
        out.reshape(len(out), pixels)[...] = windows[starts[start : start + len(out)]]

    return fill_speckle


def generate_patterns(width: int, height: int, n: int, model: PatternModel, seed: int) -> list[Frame]:
    """Generate ``n`` illumination frames, deterministic in ``seed``."""
    fill = _pattern_filler(width, height, n, model, _run_seed(seed))
    stack = np.empty((n, height, width))
    rows = _block_rows(width * height)  # a block at a time: the speckle gather copies its rows once more
    for start in range(0, n, rows):
        fill(start, stack[start : start + rows])
    stack.flags.writeable = False
    return [_frame_unchecked(stack[i]) for i in range(n)]


def drift_gains(profile: DriftProfile, n: int, seed: int = 0) -> np.ndarray:
    """Evaluate the per-shot gain sequence d_0..d_{n-1} for a drift profile.
    The seed must be a non-negative integer."""
    seed = _run_seed(seed)
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
        with np.errstate(over="ignore"):  # an infinite step is clamped to the upper bound
            steps = np.exp(eps[1:]).tolist()
        walk = [1.0]
        lo, hi = _WALK_BOUNDS
        for step in steps:
            walk.append(min(max(walk[-1] * step, lo), hi))
        gains = np.array(walk)
    if (gains <= 0.0).any():
        raise ValueError("drift gains must stay positive")
    return gains


_NOISE_GROUP_BYTES = 64 * 1024  # the normals that _block_noise draws at once


def _scaled_noise(draws: np.ndarray, model: NoiseModel, out: np.ndarray) -> np.ndarray:
    """The noise of ``model`` on each record of ``draws``, one row of
    standard normals per record from its stream (2, i), ``pixels`` columns
    for an object-field model: ``mean + std * z`` of the first draw, or of
    every draw summed over the row, the object field worked out in ``out``.
    This is NumPy's ``normal`` of the same normals, bit for bit, and like
    ``normal`` it does not warn when a value overflows: the bucket check
    rejects the inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model.target == "bucket":
            return model.mean + model.std * draws[:, 0]
        # Independent per-pixel noise on the field reaching the detector,
        # integrated over the full collection area.
        field = np.multiply(draws, model.std, out=out)
        field += model.mean
        return field.sum(axis=1)


def _block_noise(seed: int, start: int, count: int, pixels: int, models: list, rngs=None) -> np.ndarray:
    """The noise of records ``start`` to ``start + count - 1`` under each of
    ``models``, shape (len(models), count). Each record's normals are drawn
    once from its stream (2, i), its generator taken from ``rngs`` when
    given, and scaled by every model, a group of records at a time: about
    64 KB of normals, or one record where its frame is larger, so the draws
    do not grow with the block."""
    noise = np.empty((len(models), count))
    size = pixels if any(model.target == "object-field" for model in models) else 1
    group = max(1, min(count, _NOISE_GROUP_BYTES // (8 * size)))
    draws, scratch = np.empty((group, size)), np.empty((group, size))
    rngs = rngs or _record_rngs(seed, _NOISE_KEY, start, count)  # the block's streams, derived at once
    for lo in range(0, count, group):
        rows = draws[: min(group, count - lo)]
        for row, rng in zip(rows, rngs):  # the rows first: zip takes no stream past the group
            rng.standard_normal(out=row)
        for row, model in zip(noise, models):
            row[lo : lo + len(rows)] = _scaled_noise(rows, model, out=scratch[: len(rows)])
    return noise


def apply_noise(records, model: NoiseModel, seed: int = 0) -> Iterator[MeasurementRecord]:
    """Iterate over the records with noised buckets; reference frames are
    never altered. The seed, a non-negative integer, is checked at the call."""
    seed = _run_seed(seed)
    if not model.enabled:
        return iter(records)

    def noised(rec: MeasurementRecord) -> MeasurementRecord:
        eta = float(_block_noise(seed, rec.index, 1, rec.frame.data.size, [model])[0, 0])
        return MeasurementRecord(rec.index, rec.frame, rec.bucket + eta)

    return map(noised, records)


def _provenance(scene: ObjectScene, pattern: PatternModel, drift: DriftProfile,
                noise: NoiseModel, n: int, seed: int) -> str:
    settings = {
        "n": n,
        "seed": seed,
        "width": scene.width,
        "height": scene.height,
        "scene_binary": scene.binary,
        "pattern": pattern._asdict(),
        "drift": drift._asdict(),
        "noise": noise._asdict(),
    }
    return json.dumps(settings, sort_keys=True, separators=(",", ":"))


class Simulation:
    """One simulated run, produced a block of consecutive records at a time.

    A record needs only its own random streams and the O(n) drift gains and
    speckle offsets worked out here once, so a block needs no other records.
    :meth:`blocks` is the only route through the forward model: a container
    is written from it and :meth:`dataset` stacks it, so a streamed run and
    an in-memory one agree bit for bit because they are one run. Blocks are
    those of the grid that the container reader and the sgi accumulator cut
    on (``fileio._block_rows``), and at least 8 rows where fewer records fit
    a block. Whole groups of 8 rows keep the buckets equal, bit for bit, to
    those of containers written by earlier versions: BLAS matrix-vector
    kernels sum rows in small groups, and a block boundary inside a group
    could change the last bit of a bucket.
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
        seed = _run_seed(seed)
        self._fill = _pattern_filler(scene.width, scene.height, n, pattern, seed)
        self._gains = drift_gains(drift, n, seed)
        self._transmission = scene.transmission.ravel()
        self._noise = noise
        self._noise_streams = _RecordStreams(seed, _NOISE_KEY, n)
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
            buckets += _block_noise(self._seed, start, len(frames), self._transmission.size, [self._noise],
                                    self._noise_streams(start, len(frames)))[0]
        return buckets

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield the run as ``(start, buckets, frames)`` blocks, frames of
        shape (rows, pixels): the form in which a container is read. All
        blocks share one frame buffer, so use each before asking for the next."""
        header = self.header
        rows = min(header.n, max(8, _block_rows(self._transmission.size)))
        buffer = np.empty((rows, header.height, header.width))
        for start in range(0, header.n, rows):
            frames = buffer[: header.n - start]
            buckets = self._forward(start, frames)
            yield start, buckets, frames.reshape(len(frames), -1)

    def dataset(self) -> Dataset:
        """The whole run in memory: the :meth:`blocks`, stacked. Patterns are in
        [0, 1) and gains are positive, so the frames are valid by construction."""
        return _stacked_dataset(self.header, self.blocks())


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
