import numpy as np
import pytest
from scipy.linalg import expm

from bergman11.su11 import (
    BasisCoords,
    GroupElement,
    LieElement,
    W_GEN,
    X_GEN,
    Y_GEN,
    Z_GEN,
    bracket,
    coords,
    exp_at,
    from_coords,
)


def rand_elt(rng):
    return LieElement(float(rng.normal()), complex(rng.normal(), rng.normal()))


class TestAlgebra:
    def test_named_matrices(self):
        np.testing.assert_array_equal(X_GEN.matrix(), [[1j, 0], [0, -1j]])
        np.testing.assert_array_equal(Y_GEN.matrix(), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(Z_GEN.matrix(), [[1j, -1j], [1j, -1j]])
        np.testing.assert_array_equal(W_GEN.matrix(), [[0, -1j], [1j, 0]])

    def test_w_is_z_minus_x(self):
        np.testing.assert_array_equal(W_GEN.matrix(), (Z_GEN - X_GEN).matrix())

    def test_trace_free_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rand_elt(rng).matrix()
            assert m[0, 0] + m[1, 1] == 0
            assert m[1, 0] == np.conj(m[0, 1])

    def test_bracket_self_vanishes(self):
        assert bracket(Y_GEN, Y_GEN).norm() == 0.0

    def test_bracket_wy(self):
        assert bracket(W_GEN, Y_GEN) == -2.0 * X_GEN

    def test_bracket_closes_in_algebra(self):
        rng = np.random.default_rng(1)
        u, v = rand_elt(rng), rand_elt(rng)
        np.testing.assert_allclose(
            bracket(u, v).matrix(), u.matrix() @ v.matrix() - v.matrix() @ u.matrix(), atol=1e-14
        )

    def test_closed_form_matches_matrix_commutator(self):
        rng = np.random.default_rng(200)
        pairs = [(rand_elt(rng), rand_elt(rng)) for _ in range(200)]
        for u, v in pairs:
            want = u.matrix() @ v.matrix() - v.matrix() @ u.matrix()
            np.testing.assert_allclose(bracket(u, v).matrix(), want, rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(want))))
        # on array fields the bracket is elementwise, entry for entry the same
        us = LieElement(np.array([u.a for u, _ in pairs]), np.array([u.b for u, _ in pairs]))
        vs = LieElement(np.array([v.a for _, v in pairs]), np.array([v.b for _, v in pairs]))
        batch = bracket(us, vs)
        assert np.array_equal(batch.a, [bracket(u, v).a for u, v in pairs])
        assert np.array_equal(batch.b, [bracket(u, v).b for u, v in pairs])
        c = coords(us)
        assert np.array_equal(c.sigma, [coords(u).sigma for u, _ in pairs])


class TestCoords:
    def test_basis_coordinates(self):
        assert coords(X_GEN) == BasisCoords(1.0, 0.0, 0.0)
        assert coords(Y_GEN) == BasisCoords(0.0, 1.0, 0.0)
        assert coords(Z_GEN) == BasisCoords(0.0, 0.0, 1.0)
        assert coords(W_GEN) == BasisCoords(-1.0, 0.0, 1.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rand_elt(rng)
            assert (from_coords(coords(u)) - u).norm() <= 1e-15

    def test_from_coords_is_linear_combination(self):
        c = BasisCoords(0.4, -1.1, 0.9)
        expected = c.sigma * X_GEN.matrix() + c.tau * Y_GEN.matrix() + c.lam * Z_GEN.matrix()
        np.testing.assert_allclose(from_coords(c).matrix(), expected, atol=1e-15)


class TestGroupElement:
    def test_invariant_enforced(self):
        # (1e4, 1e4) has determinant 0: far outside the rounding noise of its size
        for alpha, beta in ((1.1, 0.0), (2.0, 0.0), (1.0 + 1e-6, 0.0), (1e4, 1e4)):
            with pytest.raises(ValueError):
                GroupElement(alpha, beta)

    def test_renormalizes_small_drift(self):
        g = GroupElement(1.0 + 4e-9, 0.0)
        assert abs(abs(g.alpha) ** 2 - abs(g.beta) ** 2 - 1.0) <= 1e-10

    def test_composition_and_inverse(self):
        g = exp_at(LieElement(0.4, 0.3 + 0.2j), 1.0)
        # g^{-1} = [[conj(alpha), -beta], [-conj(beta), alpha]]
        e = g @ GroupElement(np.conj(g.alpha), -g.beta)
        assert abs(e.alpha - 1.0) <= 1e-12 and abs(e.beta) <= 1e-12


class TestExponential:
    def test_at_zero(self):
        g = exp_at(LieElement(0.9, 1.0 - 2.0j), 0.0)
        assert g.alpha == 1.0 and g.beta == 0.0

    def test_rotation_generator(self):
        g = exp_at(X_GEN, 0.7)
        assert g.alpha == pytest.approx(np.exp(0.7j), abs=1e-14)
        assert g.beta == 0.0

    def test_boost_generator(self):
        g = exp_at(Y_GEN, 0.7)
        assert g.alpha == pytest.approx(np.cosh(0.7), abs=1e-14)
        assert g.beta == pytest.approx(np.sinh(0.7), abs=1e-14)

    def test_against_power_series_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rand_elt(rng)
            t = float(rng.uniform(-1.5, 1.5))
            np.testing.assert_allclose(exp_at(u, t).matrix(), expm(t * u.matrix()), atol=1e-11)

    def test_near_null_direction(self):
        # |b|^2 = a^2 makes mu vanish; the analytic limit must kick in
        u = LieElement(1.0, 1.0)
        np.testing.assert_allclose(exp_at(u, 0.8).matrix(), expm(0.8 * u.matrix()), atol=1e-12)

    def test_group_law(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rand_elt(rng)
            s, t = rng.uniform(-2, 2, size=2)
            lhs = exp_at(u, s + t).matrix()
            rhs = (exp_at(u, s) @ exp_at(u, t)).matrix()
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_unit_determinant(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = exp_at(rand_elt(rng), float(rng.uniform(-2, 2)))
            assert abs(np.linalg.det(g.matrix()) - 1.0) <= 1e-10
