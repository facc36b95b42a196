"""A coefficient batch is rows of zero-padded polynomials; every batched
function gives, row by row, what it gives for the row alone.  A batch of
operators is one FirstOrderOp, and a batch of group elements a sequence; both
give, bit for bit, what each gives alone."""

import numpy as np
import pytest

from bergman11.weights import (
    CoeffVector,
    WeightParam,
    bergman_norm_sq,
    inner_product,
    sobolev_norm_sq,
    weighted_norm_sq,
)
from bergman11.su11 import LieElement, W_GEN, Y_GEN, exp_at
from bergman11.representation import derivative_check, group_act, xnorm_sq
from bergman11.operators import (
    FirstOrderOp,
    apply,
    commutator_matrix,
    derived_op,
    gram_matrix,
    hermiticity_defect,
    stack,
)
from bergman11.uncertainty import consistency_check, lie_up, soltani_up
from bergman11.weightshift import ShiftOp, shift_apply, shift_invert

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
    with pytest.raises(ValueError, match="one operator"):
        apply(stack(ops), batch)


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


def test_weightshift_and_inner_product_match_rows():
    batch, rows = ragged_batch(np.random.default_rng(43))
    wp, op = WeightParam(0.5), ShiftOp(0.7 + 0.3j)
    for image, back, f in zip(shift_apply(op, batch), shift_invert(op, batch), rows):
        assert np.array_equal(image, shift_apply(op, f).padded(DEGREE))
        assert np.array_equal(back, shift_invert(op, f).padded(DEGREE))
    other = batch[::-1]
    for got, f, g in zip(inner_product(batch, other, wp), rows, rows[::-1]):
        assert_rel(got, inner_product(f, g, wp))


@pytest.mark.parametrize("x", [0.0, 1.5])
def test_lie_route_matches_rows(x):
    rng = np.random.default_rng(44)
    wp = WeightParam(x)
    batch = rng.normal(size=(6, DEGREE + 1)) + 1j * rng.normal(size=(6, DEGREE + 1))
    w, y = rng.normal(size=6), rng.normal(size=6)
    report = lie_up(W_GEN, Y_GEN, batch, w, y, wp)
    gaps = consistency_check(batch, w, y, wp)
    for i, row in enumerate(batch):
        one = lie_up(W_GEN, Y_GEN, CoeffVector(row), float(w[i]), float(y[i]), wp)
        assert (report.lhs[i], report.rhs[i]) == (one.lhs, one.rhs)
        assert gaps[i] == consistency_check(CoeffVector(row), float(w[i]), float(y[i]), wp)


def random_ops(rng, count, degrees=None):
    """Operators of random degrees (f up to 4, g up to 3), or of the given
    (deg f, deg g)."""
    return [FirstOrderOp(*(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                           for d in (degrees or rng.integers(0, (5, 4))))) for _ in range(count)]


@pytest.mark.parametrize("x", [-0.9, 0.0, 2.5])
def test_band_fill_of_a_batch_is_each_operators_matrix_bit_for_bit(x):
    rng = np.random.default_rng(45)
    wp = WeightParam(x)
    ops = random_ops(rng, 9)
    grams = gram_matrix(stack(ops), wp, 14)
    defects = hermiticity_defect(grams)
    for i, op in enumerate(ops):
        assert np.array_equal(grams[i], gram_matrix(op, wp, 14))
        assert defects[i] == hermiticity_defect(gram_matrix(op, wp, 14))
    # np.convolve orders a product's sums by the lengths of its factors, so a
    # batch of commutators holds operators with coefficient rows of one length
    for degrees in ((2, 1), (4, 0)):
        ops1, ops2 = random_ops(rng, 9, degrees), random_ops(rng, 9, degrees)
        commutators = commutator_matrix(stack(ops1), stack(ops2), wp, 14)
        for i, (op1, op2) in enumerate(zip(ops1, ops2)):
            assert np.array_equal(commutators[i], commutator_matrix(op1, op2, wp, 14))


def test_group_action_reads_z_only():
    g, f, wp = exp_at(LieElement(0.4, 0.3 - 0.2j), 0.7), CoeffVector([1.0, -0.5j, 0.25]), WeightParam(1.0)
    z = (0.9 * np.random.default_rng(46).random((8, 16))) * np.exp(1j * np.arange(16))
    before = z.copy()
    z.flags.writeable = False  # as integrate hands it its blocks
    for func in (f, lambda p: group_act(g, f, p, wp)):
        group_act(g, func, z, wp)
        assert np.array_equal(z, before)
    # an f that returns its argument sees the argument, not the buffer reused after it
    assert np.array_equal(group_act(g, lambda p: p, z, wp), group_act(g, lambda p: p.copy(), z, wp))


@pytest.mark.parametrize("x", [0.0, 2.0, 0.5])
def test_point_alone_and_inside_a_block_round_the_same(x):
    wp = WeightParam(x)
    g1, g2 = exp_at(LieElement(0.3, 0.2 + 0.1j), 0.5), exp_at(LieElement(-0.6, 0.1 - 0.4j), 0.2)
    f = CoeffVector([0.3, 1.0 - 2.0j, 0.5, -0.25j, 0.125, 1.5])
    z = (0.95 * np.random.default_rng(47).random((5, 7))) * np.exp(2j * np.pi * np.arange(7) / 7)
    block = group_act(g1, f, z, wp)
    for (i, j), point in np.ndenumerate(z):
        assert group_act(g1, f, point, wp) == block[i, j]
        assert group_act(g1, f, z[i, j : j + 1], wp)[0] == block[i, j]
    # a sequence of elements gives each element's block
    both = group_act([g1, g2], f, z, wp)
    assert np.array_equal(both[0], block) and np.array_equal(both[1], group_act(g2, f, z, wp))


def test_derivative_check_steps_match_single_steps():
    pts = np.array([0.1 + 0.2j, -0.3, 0.5j, 0.4 - 0.1j])
    f, wp = CoeffVector([1.0, 0.5, -0.25j, 0.1]), WeightParam(1.0)
    for u in (LieElement(0.7, 0.2 - 0.3j), LieElement(1.0, 0.0)):
        steps = (1e-3, 5e-4, 1e-4)
        got = derivative_check(u, f, steps, wp, pts)
        assert list(got) == [derivative_check(u, f, [t], wp, pts)[0] for t in steps]
