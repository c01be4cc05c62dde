"""Reconstruction of many sweep points from one streamed simulated run.

The points of a ``gikit sweep`` that share their frames differ only in
their record count and their noise: the ``noise-mean`` points of one run,
or the axis-``n`` points, each a prefix of the longest. :func:`_sweep_run`
reconstructs all of them, with every method, in two passes over the
noise-free run's blocks, or one when every method is sgi, and never holds
the run's frames.
"""

from __future__ import annotations

import numpy as np

from .reconstruct import SGI_METHODS, ReconResult, SgiAccumulator, _classic_weights, _weighted_sum
from .simulate import Simulation, _block_noise
from .types import ReconImage, _bucket_report


def _first_records(blocks, stop: int):
    """The ``(start, buckets, frames)`` blocks cut short at record ``stop``."""
    for start, buckets, frames in blocks:
        if start >= stop:
            return
        yield start, buckets[: stop - start], frames[: stop - start]


def _noised_blocks(run: Simulation, seed: int, noises: list, stop: int):
    """The first ``stop`` records of the noise-free ``run`` as ``(start,
    buckets, frames)`` blocks with buckets of shape (len(noises), rows): row
    j noised by ``noises[j]``. Each record's normals are drawn once and
    scaled by every model (:func:`_block_noise`), the step the simulator
    takes, so each row is, byte for byte, the buckets of the run simulated
    with that noise model."""
    pixels = run.header.width * run.header.height
    enabled = [j for j, noise in enumerate(noises) if noise.enabled]
    for start, clean, frames in _first_records(run.blocks(), stop):
        buckets = np.empty((len(noises), len(clean)))
        buckets[:] = clean
        if enabled:
            buckets[enabled] += _block_noise(seed, start, len(clean), pixels, [noises[j] for j in enabled])
        yield start, buckets, frames


def _sweep_buckets(run: Simulation, seed: int, noises: list, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the first ``stop`` records of the noise-free ``run``:
    the frame totals R, and as row j the buckets noised by ``noises[j]``
    (:func:`_noised_blocks`)."""
    buckets, s_r = np.empty((len(noises), stop)), np.empty(stop)
    for start, block, frames in _noised_blocks(run, seed, noises, stop):
        rows = slice(start, start + len(frames))
        np.sum(frames, axis=1, out=s_r[rows])
        buckets[:, rows] = block
    return buckets, s_r


def _sweep_run(run: Simulation, seed: int, points: list, methods: list, shift: int) -> list:
    """Every method's :class:`ReconResult` on each ``(n, noise)`` point of
    ``run``'s frames: its first n records, noised by ``noise``.

    Two passes over the noise-free ``run`` when a method is classic. The
    first gives one bucket row per noise model (:func:`_sweep_buckets`). The
    second sums every classic image at once, as one stacked ``W`` of
    :func:`_classic_weights` rows, zero past each point's count, and feeds
    one :class:`SgiAccumulator` with every sgi method's mode and every
    bucket row as a column, taking its snapshots at the points' counts. When
    every method is sgi, that second pass is the only one, and it noises
    each block itself (:func:`_noised_blocks`)."""
    header = run.header
    shape, pixels = (header.height, header.width), header.width * header.height
    stop = max(n for n, _ in points)
    noises = list(dict.fromkeys(noise for _, noise in points))
    columns = [noises.index(noise) for _, noise in points]

    rows, classic = [], {}  # classic[point, method]: the method's rows of the stacked W
    if all(method in SGI_METHODS for method in methods):
        blocks = _noised_blocks(run, seed, noises, stop)  # push_block checks the buckets
    else:
        buckets, s_r = _sweep_buckets(run, seed, noises, stop)
        for point, ((n, _), column) in enumerate(zip(points, columns)):
            _bucket_report(0, buckets[column, :n]).raise_if_failed()
            for method in methods:
                if method not in SGI_METHODS:
                    weights = _classic_weights(method, buckets[column, :n], s_r[:n])
                    classic[point, method] = slice(len(rows), len(rows) + len(weights))
                    rows.extend(weights)
        blocks = ((start, buckets[:, start : start + len(frames)], frames)
                  for start, _, frames in _first_records(run.blocks(), stop))
    stacked = np.zeros((len(rows), stop))  # each point's rows are zero past its count
    for at, row in enumerate(rows):
        stacked[at, : len(row)] = row
    modes = tuple(dict.fromkeys(int(method[-1]) for method in methods if method in SGI_METHODS))
    acc = SgiAccumulator(mode=modes, shift=shift) if modes else None
    counts = {n for n, _ in points}
    snapshots = {}  # snapshots[count][mode]: one result per bucket column

    def fed(blocks):
        """The blocks, each pushed first to the accumulator, cut at the counts."""
        for start, block, frames in blocks:
            cuts = sorted(count - start for count in counts if start < count < start + len(frames))
            for lo, hi in zip((0, *cuts), (*cuts, len(frames))):
                if acc is not None:
                    acc.push_block(start + lo, block[:, lo:hi].T, frames[lo:hi].reshape(hi - lo, *shape))
                    if start + hi in counts:
                        snapshots[start + hi] = acc.snapshots_by_mode()
            yield start, None, frames

    total = _weighted_sum(fed(blocks), stacked, pixels)
    results = []
    for point, ((n, _), column) in enumerate(zip(points, columns)):
        results.append([
            snapshots[n][int(method[-1])][column] if method in SGI_METHODS else
            ReconResult(method, tuple(ReconImage(row.reshape(shape)) for row in total[classic[point, method]]), n)
            for method in methods
        ])
    return results
