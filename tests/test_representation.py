import numpy as np
import pytest

from bergman11 import (
    CoeffVector,
    GroupElement,
    LieElement,
    QuadratureGrid,
    WeightParam,
    apply,
    basis_elements,
    bergman_norm_sq,
    derivative_check,
    derived_op,
    exp_at,
    gram_matrix,
    group_act,
    integrate,
    xnorm_sq,
)
from bergman11.representation import BranchError

X, Y, Z, W = basis_elements()

SAMPLE_PTS = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.45, -0.2 - 0.5j, 0.6j])


class TestGroupAction:
    def test_identity(self):
        wp = WeightParam(0.0)
        f = CoeffVector([1, 2, 3])
        np.testing.assert_allclose(
            group_act(GroupElement.identity(), f, SAMPLE_PTS, wp), f(SAMPLE_PTS)
        )

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_rotation_subgroup_closed_form(self, x):
        # exp(tX) acts by e^{-it(xi+2)} f(e^{-2it} z)
        wp = WeightParam(x)
        f = CoeffVector([0.5, -1.0, 2.0j])
        t = 0.37
        got = group_act(exp_at(X, t), f, SAMPLE_PTS, wp)
        expected = np.exp(-1j * t * (x + 2.0)) * f(np.exp(-2j * t) * SAMPLE_PTS)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_requires_interior_points(self):
        wp = WeightParam(0.0)
        with pytest.raises(ValueError):
            group_act(GroupElement.identity(), CoeffVector([1]), 1.0, wp)

    def test_branch_validity_for_noninteger_weight(self):
        wp = WeightParam(0.5)
        near = exp_at(X, 1.5)  # Re(alpha) = cos 1.5 > 0 = |beta|: still valid
        assert group_act(near, CoeffVector([1]), 0.1, wp) is not None
        far = exp_at(X, 2.0)  # Re(alpha) = cos 2 < 0: leaves the branch region
        with pytest.raises(BranchError):
            group_act(far, CoeffVector([1]), 0.1, wp)

    def test_homomorphism_integer_weight(self):
        rng = np.random.default_rng(8)
        for x in (0.0, 1.0, 2.0):
            wp = WeightParam(x)
            u = LieElement(rng.normal(), complex(rng.normal(), rng.normal()))
            v = LieElement(rng.normal(), complex(rng.normal(), rng.normal()))
            g1 = exp_at(u, 0.4 / max(1.0, u.norm()))
            g2 = exp_at(v, 0.4 / max(1.0, v.norm()))
            f = CoeffVector([1, 0.5j, -0.2])
            lhs = group_act(g1, lambda z: group_act(g2, f, z, wp), SAMPLE_PTS, wp)
            rhs = group_act(g1 @ g2, f, SAMPLE_PTS, wp)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_unitarity_integer_weight(self):
        wp = WeightParam(1.0)
        grid = QuadratureGrid(wp, radial_points=96)
        g = exp_at(LieElement(0.3, 0.2 - 0.4j), 1.0)
        f = CoeffVector([1, 1j, 0.5])
        moved = integrate(lambda z: np.abs(group_act(g, f, z, wp)) ** 2, grid)
        assert moved.real == pytest.approx(bergman_norm_sq(f, wp), abs=1e-6)


class TestDerivedOp:
    def test_rotation_generator(self):
        op = derived_op(X, WeightParam(0.0))
        assert op.fcoeffs == CoeffVector([0, -2j])
        assert op.gcoeffs == CoeffVector([-2j])

    def test_boost_generator(self):
        op = derived_op(Y, WeightParam(0.0))
        assert op.fcoeffs == CoeffVector([-1, 0, 1])
        assert op.gcoeffs == CoeffVector([0, 2])

    def test_w_generator(self):
        # W = Z - X gives i(1+z^2) d/dz + (xi+2) i z
        op = derived_op(W, WeightParam(1.0))
        assert op.fcoeffs == CoeffVector([1j, 0, 1j])
        assert op.gcoeffs == CoeffVector([0, 3j])

    def test_skew_symmetric_gram(self):
        rng = np.random.default_rng(9)
        for x in (0.0, 0.5, 2.0):
            wp = WeightParam(x)
            for _ in range(5):
                u = LieElement(rng.normal(), complex(rng.normal(), rng.normal()))
                g = gram_matrix(derived_op(u, wp), wp, 16)
                assert np.max(np.abs(g + g.conj().T)) <= 1e-10


class TestDerivativeCheck:
    def test_rotation_on_constant(self):
        wp = WeightParam(0.0)
        err = derivative_check(X, CoeffVector([1.0]), 1e-3, wp, SAMPLE_PTS)
        assert err <= 1e-5  # pi(X) 1 = -2i, central difference converges as t^2

    def test_zero_element_exact(self):
        wp = WeightParam(1.0)
        err = derivative_check(LieElement(0.0, 0.0), CoeffVector([1, 2]), 1e-3, wp, SAMPLE_PTS)
        assert err == 0.0

    def test_second_order_convergence(self):
        wp = WeightParam(0.0)
        f = CoeffVector([1, 0.3, -0.7j])
        for u in (X, Y, Z):
            e1 = derivative_check(u, f, 1e-3, wp, SAMPLE_PTS)
            e2 = derivative_check(u, f, 5e-4, wp, SAMPLE_PTS)
            assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    def test_step_validation(self):
        wp = WeightParam(0.0)
        with pytest.raises(ValueError):
            derivative_check(X, CoeffVector([1]), 0.1, wp, SAMPLE_PTS)


class TestXnorm:
    def test_constant(self):
        assert xnorm_sq(CoeffVector([1]), WeightParam(0.0)) == pytest.approx(4.0)

    def test_linear(self):
        assert xnorm_sq(CoeffVector([0, 1]), WeightParam(0.0)) == pytest.approx(8.0)

    def test_matches_operator_route(self):
        rng = np.random.default_rng(10)
        for x in (0.0, 1.5):
            wp = WeightParam(x)
            f = CoeffVector(rng.normal(size=12) + 1j * rng.normal(size=12))
            via_op = bergman_norm_sq(apply(derived_op(X, wp), f), wp)
            assert xnorm_sq(f, wp) == pytest.approx(via_op, rel=1e-12)
