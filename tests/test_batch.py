"""A coefficient batch is rows of zero-padded polynomials; every batched
function gives, row by row, what it gives for the row alone."""

import numpy as np
import pytest

from bergman11 import (
    CoeffVector,
    FirstOrderOp,
    WeightParam,
    apply,
    bergman_norm_sq,
    derived_op,
    soltani_up,
    sobolev_norm_sq,
    xnorm_sq,
)
from bergman11.su11 import LieElement
from bergman11.weights import weighted_norm_sq

DEGREE = 12


def ragged_batch(rng):
    """Rows of degree 0..12, each zero-padded to degree 12, and the rows alone."""
    rows = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for d in range(DEGREE + 1)]
    batch = np.zeros((len(rows), DEGREE + 1), dtype=np.complex128)
    for b, r in zip(batch, rows):
        b[: len(r)] = r
    return batch, [CoeffVector(r) for r in rows]


def assert_rel(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("x", [-0.5, 0.0, 2.5])
def test_norms_match_rows(x):
    wp = WeightParam(x)
    batch, rows = ragged_batch(np.random.default_rng(40))
    phi = 1.0 + np.arange(DEGREE + 1) ** 1.5
    assert_rel(weighted_norm_sq(batch, wp, phi), [weighted_norm_sq(f, wp, phi[: f.degree + 1]) for f in rows])
    assert_rel(bergman_norm_sq(batch, wp), [bergman_norm_sq(f, wp) for f in rows])
    assert_rel(sobolev_norm_sq(batch, wp, 2), [sobolev_norm_sq(f, wp, 2) for f in rows])
    assert_rel(xnorm_sq(batch, wp), [xnorm_sq(f, wp) for f in rows])


def test_apply_maps_rows_to_their_images():
    rng = np.random.default_rng(41)
    batch, rows = ragged_batch(rng)
    wp = WeightParam(1.0)
    u = LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))
    ops = [derived_op(u, wp), FirstOrderOp(CoeffVector([1.0, 0.0, 1.0]), CoeffVector([0.5j, 3.0]))]
    for op in ops:
        images = apply(op, batch)
        assert isinstance(images, np.ndarray) and images.shape == (len(rows), DEGREE + 2)
        for image, f in zip(images, rows):
            assert_rel(image, apply(op, f).padded(DEGREE + 1))
        # leading axes are kept
        assert_rel(apply(op, batch.reshape(13, 1, DEGREE + 1))[:, 0], images)


def test_apply_keeps_coeffvector_type():
    f = CoeffVector([1.0, 2.0])
    out = apply(FirstOrderOp(CoeffVector([1.0]), CoeffVector([0.0])), f)
    assert isinstance(out, CoeffVector) and out == CoeffVector([2.0])


@pytest.mark.parametrize("x", [-0.5, 0.0, 2.5])
def test_soltani_up_broadcasts_shifts(x):
    wp = WeightParam(x)
    batch, rows = ragged_batch(np.random.default_rng(42))
    shifts_w, shifts_y = np.array([-2.0, 0.0, 1.5]), np.array([-1.0, 0.0, 0.25, 2.0])
    report = soltani_up(batch[:, None, None, :], shifts_w[:, None], shifts_y, wp)
    assert report.lhs.shape == (len(rows), 1, 1)
    assert report.rhs.shape == (len(rows), 3, 4)
    for i, f in enumerate(rows):
        for j, w in enumerate(shifts_w):
            for k, y in enumerate(shifts_y):
                one = soltani_up(f, w, y, wp)
                assert isinstance(one.lhs, float) and isinstance(one.rhs, float)
                assert_rel(report.lhs[i, 0, 0], one.lhs)
                assert_rel(report.rhs[i, j, k], one.rhs)
