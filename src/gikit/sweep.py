"""Reconstruction of many sweep points from one streamed simulated run.

The points of a ``gikit sweep`` that share their frames differ only in
their record count and their noise: the ``noise-mean`` points of one run,
or the axis-``n`` points, each a prefix of the longest. :func:`_sweep_run`
hands all of them, with every method, to the one pass routine
(``reconstruct._reconstructions``) as one job per point and method over one
bucket column per noise model. That takes one pass over the noise-free
run's blocks, or two when a method is ci, and never holds the run's frames.
"""

from __future__ import annotations

import numpy as np

from .reconstruct import _reconstructions
from .simulate import Simulation, _block_noise


def _noised_blocks(run: Simulation, seed: int, noises: list, stop: int, noised: bool):
    """The first ``stop`` records of the noise-free ``run`` as ``(start,
    buckets, frames)`` blocks with buckets of shape (len(noises), rows): row
    j noised by ``noises[j]``; or, unless ``noised``, None. Each record's
    normals are drawn once and scaled by every model (:func:`_block_noise`),
    the step the simulator takes, so each row is, byte for byte, the buckets
    of the run simulated with that noise model."""
    pixels = run.header.width * run.header.height
    enabled = [j for j, noise in enumerate(noises) if noise.enabled]
    for start, clean, frames in run.blocks():
        if start >= stop:
            return
        rows, buckets = min(len(frames), stop - start), None
        if noised:
            buckets = np.empty((len(noises), rows))
            buckets[:] = clean[:rows]
            if enabled:
                buckets[enabled] += _block_noise(seed, start, rows, pixels, [noises[j] for j in enabled])
        yield start, buckets, frames[:rows]


def _sweep_run(run: Simulation, seed: int, points: list, methods: list, shift: int) -> list:
    """Every method's :class:`ReconResult` on each ``(n, noise)`` point of
    ``run``'s frames: its first n records, noised by ``noise``.

    One pass noises each block's buckets as it goes (:func:`_noised_blocks`),
    one bucket column per noise model. With ci, a first pass does that, and
    the last pass takes the run's frames alone. A point that repeats is
    reconstructed once, and its repeats share the results."""
    header = run.header
    stop = max(n for n, _ in points)
    distinct = list(dict.fromkeys(points))
    noises = list(dict.fromkeys(noise for _, noise in distinct))
    jobs = [(method, n, noises.index(noise)) for n, noise in distinct for method in methods]
    results = [None] * len(jobs)
    for job, _, result in _reconstructions(lambda noised: _noised_blocks(run, seed, noises, stop, noised),
                                           (header.height, header.width), jobs, shift=shift):
        results[job] = result
    return [results[at : at + len(methods)] for at in (distinct.index(point) * len(methods) for point in points)]
