"""Property-based oracle for the pass routine, ``reconstruct._reconstructions``.

Hypothesis draws small runs (frames of at most 6x6, up to about 300
records, up to 3 bucket columns), a job list whose counts fall below, at and
past the ends of randomly cut blocks, ``shift``, ``close_loop``, ``every``
and the sgi chunk size. Every yielded result is compared with its formula,
summed per pixel with ``math.fsum``; every result must give the same bits
under a second, independent cut of the blocks.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gikit.sgi
from gikit.reconstruct import METHODS, SGI_METHODS, _reconstructions

TOLERANCE = 1e-12  # of the image's largest magnitude


@st.composite
def runs(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shift = draw(st.sampled_from([1, 1, 2, 3, 5, 11]))
    n = draw(st.integers(shift + 2, 300))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.random((n, height * width)) * np.linspace(0.7, 1.3, n)[:, np.newaxis]  # drift
    dark = draw(st.integers(0, min(8, n - 1)))
    frames[:dark] = 0.0
    clean = frames @ rng.random(height * width)
    buckets = clean + rng.normal(0.0, 0.3, size=(k, n)) + np.arange(k)[:, np.newaxis]
    buckets[:, : draw(st.integers(0, 20))] += draw(st.sampled_from([0.0, 1e3]))  # a far first block
    cuts = [sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=12)))) for _ in range(2)]
    ends = {0, n, *(cut + step for cut in cuts[0] for step in (-1, 0, 1))}  # below, at and past a block end
    count = st.sampled_from(sorted(ends)) | st.integers(2, n)
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        method = draw(st.sampled_from(METHODS))
        least = shift + 1 if method in SGI_METHODS else max(2, dark + 1)
        jobs.append((method, min(n, max(least, draw(count))), draw(st.integers(0, k - 1))))
    return {
        "shape": (height, width), "frames": frames, "buckets": buckets, "jobs": jobs, "cuts": cuts,
        "shift": shift, "close_loop": shift == 1 and draw(st.booleans()),
        "every": draw(st.none() | st.integers(16, 120)), "held": draw(st.booleans()),
        "chunk_rows": draw(st.sampled_from([1, 3, 8, None])),
    }


def _results(run, cut):
    """Every ``(job, records, count, images)`` that the routine yields over
    the blocks that ``cut`` makes, with one bucket vector when K is 1."""
    frames, buckets, stop = run["frames"], run["buckets"], max(count for _, count, _ in run["jobs"])
    bounds = [0, *(at for at in cut if at < stop), stop]

    def blocks(read_buckets):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = (buckets[0] if len(buckets) == 1 else buckets)[..., lo:hi] if read_buckets else None
            yield lo, block, frames[lo:hi]

    with mock.patch.object(gikit.sgi, "_CHUNK_ROWS", run["chunk_rows"]):
        return [(job, records, result.count, [image.data.ravel() for image in result.images])
                for job, records, result in _reconstructions(
                    blocks, run["shape"], run["jobs"], buckets=buckets if run["held"] else None,
                    shift=run["shift"], close_loop=run["close_loop"], every=run["every"])]


def _sums(weights, frames):
    """Per pixel, the exactly rounded sum of ``weights[i] * frames[i]``."""
    terms = weights[:, np.newaxis] * frames
    return np.array([math.fsum(column) for column in terms.T])


def _classic(method, s, frames):
    n = len(s)
    s_mean = math.fsum(s) / n
    if method == "g2":
        return [_sums(s / n, frames)]
    if method == "dgi-delta":
        return [_sums((s - s_mean) / n, frames)]
    if method == "dgi":
        r = np.array([math.fsum(frame) for frame in frames])
        return [_sums((s - s_mean / (math.fsum(r) / n) * r) / n, frames)]
    positive = s >= s_mean
    return [_sums(positive / positive.sum(), frames), _sums(~positive / (~positive).sum(), frames)]


def _sgi(mode, s, frames, shift, close_loop):
    """The pair sums of the records given, each pair term rounded once."""
    new, old = np.arange(shift, len(s)), np.arange(len(s) - shift)
    if close_loop:
        new, old = np.append(new, len(s) - 1), np.append(old, 0)
    d_s = s[new] - s[old]
    coefficients = {1: [(d_s, -d_s)], 2: [(d_s, 0.0 * d_s), (0.0 * d_s, d_s)],
                    3: [(s[new], -s[new]), (s[old], -s[old])]}[mode]
    return [np.array([math.fsum(column) for column in np.concatenate(
        (c_new[:, np.newaxis] * frames[new], c_old[:, np.newaxis] * frames[old])).T]) / len(new)
        for c_new, c_old in coefficients]


@settings(deadline=None)
@given(runs())
def test_every_job_matches_its_formula_under_any_cut(run):
    jobs, shift, every = run["jobs"], run["shift"], run["every"]
    first, second = (_results(run, cut) for cut in run["cuts"])
    for job, (method, count, column) in enumerate(jobs):
        points = [(records, pairs, images) for at, records, pairs, images in first if at == job]
        if method in SGI_METHODS:  # the snapshots that have a pair, then the count
            expected = [at for at in range(every, count, every) if at > shift] if every else []
            assert [records for records, _, _ in points] == expected + [count]
        else:
            assert [records for records, _, _ in points] == [count]
        again = [images for at, _, _, images in second if at == job]
        assert [[image.tobytes() for image in images] for _, _, images in points] == \
            [[image.tobytes() for image in images] for images in again]
        for records, pairs, images in points:
            s, frames = run["buckets"][column, :records], run["frames"][:records]
            if method in SGI_METHODS:
                references = _sgi(int(method[-1]), s, frames, shift, run["close_loop"])
                assert pairs == records - shift + run["close_loop"]
            else:
                references = _classic(method, s, frames)
                assert pairs == records
            assert len(images) == len(references)
            for image, reference in zip(images, references):
                scale = max(np.abs(reference).max(), np.abs(image).max())
                assert np.abs(image - reference).max() <= TOLERANCE * scale, (method, records)


def test_dgi_delta_takes_the_exactly_rounded_mean_bucket():
    # Buckets about 1e3 above zero over an image of 0.059: a pairwise mean
    # one unit in the last place off moved the image by 6.2e-14 from the
    # formula, past the 1e-12 tolerance; the mean from math.fsum keeps it.
    s = np.array([999.8300945410629, 1000.4572398939536, 1000.0302233891738, 1000.8029542271872,
                  1000.5302698630014, 1000.0501667179826, 1000.1949559176003, 1000.7465858360467])
    frames = np.array([0.1667883474319528, 0.2005868836682451, 0.15231926354518607, 0.8398500414745677,
                       0.4154986273096517, 0.6766845621349274, 0.9311171773708969, 0.9786901909902955])[:, np.newaxis]
    assert s.mean() != math.fsum(s) / len(s)  # the case that needs it
    for cut in ([1], []):
        run = {"frames": frames, "buckets": s[np.newaxis], "jobs": [("dgi-delta", 8, 0)], "shape": (1, 1),
               "shift": 1, "close_loop": False, "every": None, "held": False, "chunk_rows": None}
        [(_, _, _, [image])] = _results(run, cut)
        [reference] = _classic("dgi-delta", s, frames)
        assert abs(image[0] - reference[0]) <= TOLERANCE * abs(reference[0]), cut
