import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gikit import (
    DegenerateVarianceError,
    ObjectMask,
    ObjectScene,
    ReconImage,
    cnr,
    mask_from_scene,
    normalize_minmax,
    pearson,
)


def test_cnr_hand_oracle():
    # in-pixels {2, 4}, out-pixels {0, 2}: means 3, 1; population vars 1, 1
    image = ReconImage([[2.0, 4.0], [0.0, 2.0]])
    mask = ObjectMask([[True, True], [False, False]])
    report = cnr(image, mask)
    assert report.cnr == pytest.approx(2.0, abs=1e-12)
    assert (report.mean_in, report.mean_out) == (3.0, 1.0)
    assert (report.var_in, report.var_out) == (1.0, 1.0)
    assert (report.n_in, report.n_out) == (2, 2)


def test_cnr_degenerate_variance():
    mask = ObjectMask([[True, True], [False, False]])
    with pytest.raises(DegenerateVarianceError):
        cnr(ReconImage(np.full((2, 2), 3.0)), mask)
    # a perfect binary image has zero variance in both regions
    with pytest.raises(DegenerateVarianceError):
        cnr(ReconImage([[1.0, 1.0], [0.0, 0.0]]), mask)
    with pytest.raises(ValueError):
        cnr(ReconImage(np.zeros((3, 3))), mask)


def test_cnr_of_statistics_beyond_float64_raises_a_typed_error():
    # A finite image whose pixel variance overflows float64; the suite turns
    # the RuntimeWarning of an unguarded overflow into an error.
    mask = ObjectMask([[True, True], [False, False]])
    with pytest.raises(DegenerateVarianceError, match="overflow"):
        cnr(ReconImage([[1e300, -1e300], [0.0, 1.0]]), mask)
    with pytest.raises(DegenerateVarianceError, match="overflow"):
        cnr(ReconImage([[1.7e308, 1.7e308], [-1.7e308, -1.6e308]]), mask)


def test_mask_from_scene():
    binary = ObjectScene([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(mask_from_scene(binary, 0.3).data, binary.transmission == 1.0)
    gray = ObjectScene([[0.2, 0.8], [0.8, 0.2]])
    np.testing.assert_array_equal(mask_from_scene(gray).data, gray.transmission == 0.8)
    with pytest.raises(ValueError):
        mask_from_scene(ObjectScene(np.full((2, 2), 0.7)))  # all-true mask
    with pytest.raises(ValueError):
        mask_from_scene(gray, threshold=0.0)


def test_pearson_cases():
    ref = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert pearson(ReconImage(ref), ref) == pytest.approx(1.0, abs=1e-12)
    assert pearson(ReconImage(-ref + 10.0), ref) == pytest.approx(-1.0, abs=1e-12)
    image = ReconImage([[1.0, 0.0], [-1.0, 0.0]])
    other = np.array([[0.0, 1.0], [0.0, -1.0]])
    assert pearson(image, other) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateVarianceError):
        pearson(ReconImage(np.full((2, 2), 2.0)), ref)
    with pytest.raises(ValueError):
        pearson(ReconImage(ref), np.zeros((3, 3)))


def test_normalize_minmax():
    np.testing.assert_allclose(
        normalize_minmax(ReconImage([[-1.0, 0.0, 1.0]])).data, [[0.0, 0.5, 1.0]]
    )
    already = ReconImage([[0.0, 0.25], [1.0, 0.5]])
    np.testing.assert_array_equal(normalize_minmax(already).data, already.data)
    np.testing.assert_array_equal(normalize_minmax(ReconImage(np.full((2, 2), 7.0))).data, 0.5)


@settings(max_examples=50)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.01, 100.0),
    st.floats(-50.0, 50.0),
)
def test_cnr_affine_invariance(seed, scale, offset):
    gen = np.random.default_rng(seed)
    data = gen.normal(size=(5, 5))
    mask = ObjectMask(gen.random((5, 5)) < 0.5)
    if mask.n_in == 0 or mask.n_out == 0:
        return
    base = cnr(ReconImage(data), mask).cnr
    moved = cnr(ReconImage(scale * data + offset), mask).cnr
    assert moved == pytest.approx(base, rel=1e-10, abs=1e-10)
    negated = cnr(ReconImage(-data), mask).cnr
    assert negated == pytest.approx(-base, rel=1e-10, abs=1e-10)


@settings(max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_pearson_invariant_under_normalization(seed):
    gen = np.random.default_rng(seed)
    image = ReconImage(gen.normal(size=(4, 6)))
    ref = gen.normal(size=(4, 6))
    direct = pearson(image, ref)
    assert pearson(normalize_minmax(image), ref) == pytest.approx(direct, rel=1e-10, abs=1e-12)
