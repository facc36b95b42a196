import numpy as np
import pytest
from scipy.special import gammaln

from bergman11 import (
    CoeffVector,
    WeightParam,
    basis_to_taylor,
    bergman_norm_sq,
    inner_product,
    monomial_norm_sq,
    pochhammer,
    smooth_seminorm_sq,
    sobolev_norm_sq,
    taylor_to_basis,
)
from bergman11.weights import basis_scales, monomial_norms_sq


def product_pochhammer(x, k):
    """Independent oracle: iterated product (x+2)(x+3)...(x+k+1)."""
    out = 1.0
    for j in range(k):
        out *= x + 2.0 + j
    return out


class TestWeightParam:
    def test_rejects_boundary_and_below(self):
        with pytest.raises(ValueError):
            WeightParam(-1.0)
        with pytest.raises(ValueError):
            WeightParam(-2.5)

    def test_rejects_above_supported_range(self):
        with pytest.raises(ValueError):
            WeightParam(101.0)

    def test_accepts_interior(self):
        assert WeightParam(-0.999).xi == -0.999


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(WeightParam(0.0), 0) == 1.0

    def test_integer_case(self):
        assert pochhammer(WeightParam(0.0), 2) == pytest.approx(6.0, rel=1e-14)

    def test_half_integer_case(self):
        assert pochhammer(WeightParam(0.5), 1) == pytest.approx(2.5, rel=1e-14)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 2.5])
    def test_against_product_oracle(self, x):
        wp = WeightParam(x)
        for k in range(30):
            assert pochhammer(wp, k) == pytest.approx(product_pochhammer(x, k), rel=1e-12)

    def test_overflow_reported_as_range_error(self):
        with pytest.raises(OverflowError):
            pochhammer(WeightParam(100.0), 10**6)

    def test_norm_weights_stable_at_large_degree(self):
        # the Gamma ratio stays representable even where (xi+2)_k does not
        w = monomial_norms_sq(WeightParam(2.0), 10**4)
        assert np.all(np.isfinite(w)) and np.all(w > 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(WeightParam(0.0), -1)


class TestMonomialNorms:
    def test_constant_is_probability_mass(self):
        for x in (-0.5, 0.0, 3.0):
            assert monomial_norm_sq(WeightParam(x), 0) == pytest.approx(1.0)

    def test_low_degree_values(self):
        wp = WeightParam(0.0)
        assert monomial_norm_sq(wp, 1) == pytest.approx(0.5, rel=1e-14)
        assert monomial_norm_sq(wp, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 2.5])
    def test_recurrence(self, x):
        # ||z^{k-1}||^2 = (xi+1+k)/k ||z^k||^2
        wp = WeightParam(x)
        w = monomial_norms_sq(wp, 200)
        for k in range(1, 201):
            assert w[k - 1] == pytest.approx((x + 1.0 + k) / k * w[k], rel=1e-10)

    def test_shift_limit(self):
        wp = WeightParam(1.0)
        w = monomial_norms_sq(wp, 1003)
        for ell in (1, 2, 3):
            dist = np.abs(w[ell : 1001 + ell] / w[:1001] - 1.0)
            assert np.all(np.diff(dist) <= 1e-15)
            assert dist[-1] < 1e-2


class TestCoeffVector:
    def test_trailing_zero_equality(self):
        assert CoeffVector([1, 2, 0, 0]) == CoeffVector([1, 2])
        assert CoeffVector([0]) == CoeffVector([0, 0, 0])
        assert CoeffVector([1, 2]) != CoeffVector([1, 2, 3])

    def test_evaluation_and_derivative(self):
        f = CoeffVector([1, 2, 3])
        assert f(0.5) == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)
        assert f.derivative() == CoeffVector([2, 6])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoeffVector([np.inf])


class TestInnerProduct:
    def test_monomial_orthogonality(self):
        wp = WeightParam(1.3)
        assert inner_product(CoeffVector([0, 1]), CoeffVector([0, 0, 1]), wp) == 0

    def test_one_plus_z(self):
        wp = WeightParam(0.0)
        f = CoeffVector([1, 1])
        assert inner_product(f, f, wp) == pytest.approx(1.5, rel=1e-14)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        wp = WeightParam(0.7)
        for _ in range(10):
            f = CoeffVector(rng.normal(size=6) + 1j * rng.normal(size=6))
            g = CoeffVector(rng.normal(size=4) + 1j * rng.normal(size=4))
            assert inner_product(f, g, wp) == pytest.approx(
                np.conj(inner_product(g, f, wp)), rel=1e-12
            )

    def test_sesquilinear(self):
        wp = WeightParam(0.0)
        f = CoeffVector([1, 1j])
        g = CoeffVector([2, 1])
        s = 0.5 - 2j
        assert inner_product(s * f, g, wp) == pytest.approx(s * inner_product(f, g, wp))
        assert inner_product(f, s * g, wp) == pytest.approx(
            np.conj(s) * inner_product(f, g, wp)
        )


class TestNorms:
    def test_zero(self):
        assert bergman_norm_sq(CoeffVector([0]), WeightParam(2.0)) == 0.0

    def test_basis_vectors_are_unit(self):
        for x in (-0.5, 0.0, 2.5):
            wp = WeightParam(x)
            for n in range(8):
                e = np.zeros(n + 1)
                e[n] = 1.0
                assert bergman_norm_sq(basis_to_taylor(e, wp), wp) == pytest.approx(
                    1.0, rel=1e-12
                )

    def test_sobolev_constant(self):
        assert sobolev_norm_sq(CoeffVector([2 + 1j]), WeightParam(1.0), 3) == pytest.approx(5.0)

    def test_sobolev_values(self):
        wp = WeightParam(0.0)
        assert sobolev_norm_sq(CoeffVector([0, 1]), wp, 1) == pytest.approx(0.5)
        assert sobolev_norm_sq(CoeffVector([0, 0, 1]), wp, 2) == pytest.approx(16.0 / 3.0)

    def test_sobolev_rejects_order_zero(self):
        with pytest.raises(ValueError):
            sobolev_norm_sq(CoeffVector([1]), WeightParam(0.0), 0)

    def test_smooth_seminorm_values(self):
        assert smooth_seminorm_sq(CoeffVector([1]), WeightParam(0.0), 1) == 0.0
        assert smooth_seminorm_sq(CoeffVector([1]), WeightParam(1.0), 1) == pytest.approx(9.0)

    def test_smooth_seminorm_order_zero_is_norm(self):
        rng = np.random.default_rng(3)
        wp = WeightParam(0.5)
        f = CoeffVector(rng.normal(size=9) + 1j * rng.normal(size=9))
        assert smooth_seminorm_sq(f, wp, 0) == pytest.approx(bergman_norm_sq(f, wp))


class TestBasisConversion:
    def test_e0_is_constant_one(self):
        assert basis_to_taylor([1.0], WeightParam(1.7)) == CoeffVector([1.0])

    def test_e1_at_weight_zero(self):
        f = basis_to_taylor([0.0, 1.0], WeightParam(0.0))
        assert f.coeffs[1] == pytest.approx(np.sqrt(2.0))

    def test_scales_finite_where_norms_underflow(self):
        # at xi = 100, ||z^k||^2 underflows to 0 from k ~ 6e4 (so a power of
        # the norms gives inf); s_k = sqrt((xi+2)_k / k!) is about e^397 at k = 1e5
        x, n = 100.0, 10**5
        k = np.arange(n + 1)
        direct = np.exp(0.5 * (gammaln(k + x + 2.0) - gammaln(x + 2.0) - gammaln(k + 1.0)))
        s = basis_scales(WeightParam(x), n)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, direct, rtol=1e-13, atol=0)

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        wp = WeightParam(2.5)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        back = taylor_to_basis(basis_to_taylor(c, wp), wp)
        np.testing.assert_allclose(back, c, rtol=1e-10)
