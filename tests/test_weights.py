import math

import numpy as np
import pytest

from bergman11.weights import (
    CoeffVector,
    WeightParam,
    _derivative,
    _log_norms_sq,
    basis_scales,
    bergman_norm_sq,
    inner_product,
    monomial_norms_sq,
    sobolev_norm_sq,
)


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


class TestMonomialNorms:
    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 2.5])
    def test_against_product_oracle(self, x):
        # ||z^k||^2 = k!/(xi+2)_k with the rising factorial as a plain product
        w = monomial_norms_sq(WeightParam(x), 29)
        for k in range(30):
            assert w[k] == pytest.approx(math.factorial(k) / product_pochhammer(x, k), rel=1e-12)

    def test_norm_weights_stable_at_large_degree(self):
        # the log-space sum stays representable even where (xi+2)_k does not
        w = monomial_norms_sq(WeightParam(2.0), 10**4)
        assert np.all(np.isfinite(w)) and np.all(w > 0)

    def test_constant_is_probability_mass(self):
        for x in (-0.5, 0.0, 3.0):
            assert monomial_norms_sq(WeightParam(x), 0)[0] == pytest.approx(1.0)

    def test_low_degree_values(self):
        wp = WeightParam(0.0)
        assert monomial_norms_sq(wp, 2)[1:] == pytest.approx([0.5, 1.0 / 3.0], rel=1e-14)

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
        np.testing.assert_array_equal(_derivative(f.coeffs), [2, 6])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoeffVector([np.inf])

    def test_unhashable(self):
        # equal vectors can differ in their bytes (-0.0 and 0.0, trailing zeros)
        assert CoeffVector([-0.0, 1.0]) == CoeffVector([0.0, 1.0, 0.0])
        with pytest.raises(TypeError):
            hash(CoeffVector([1.0]))

    def test_repr_evaluates_to_an_equal_vector(self):
        f = CoeffVector([1.0, 0.5j, 0.1 + 2e-300j, 0.0])
        assert repr(f) == "CoeffVector([(1+0j), 0.5j, (0.1+2e-300j), 0j])"
        assert eval(repr(f), {"CoeffVector": CoeffVector}) == f


def horner_alloc(coeffs, z):
    """Test oracle: Horner's rule with a fresh array per step."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out if out.ndim else complex(out)


class TestCoeffVectorEval:
    @pytest.mark.parametrize("shape", [(), (37,), (5, 11)], ids=["scalar", "1d", "2d"])
    def test_bit_identical_to_allocating_horner(self, shape):
        # z is complex128 already, so Horner receives the caller's array itself
        rng = np.random.default_rng(2026)
        for degree in range(31):
            f = CoeffVector(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
            z = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
            z_before = np.copy(z)
            got = f(z)
            want = horner_alloc(f.coeffs, z)
            if shape:
                assert got.shape == shape
            else:
                assert type(got) is complex
            assert np.array_equal(got, want)
            assert np.array_equal(z, z_before)


class TestEvaluationRoute:
    def test_point_rounds_the_same_alone_and_in_arrays(self):
        # a scalar, a one-element array and an entry of a longer array all
        # take one rounding; numpy updates a one-element array in place
        # through an unfused loop, which the evaluation avoids
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            d = int(rng.integers(0, 30))
            f = CoeffVector(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            n = int(rng.integers(2, 40))
            zs = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
            i = int(rng.integers(0, n))
            w = complex(zs[i])
            alone = f(w)
            assert type(alone) is complex
            assert alone == f(np.array([w]))[0] == f(np.array([[w]]))[0, 0] == f(zs)[i]

    def test_one_element_shapes_kept(self):
        f = CoeffVector([1.0, 2.0, 3.0])
        assert f(np.array([0.5])).shape == (1,)
        assert f(np.array([[0.5]])).shape == (1, 1)
        assert f(np.zeros(0)).shape == (0,)


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
        f = np.array([1, 1j])
        g = np.array([2, 1])
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
                e[n] = basis_scales(wp, n)[n]
                assert bergman_norm_sq(CoeffVector(e), wp) == pytest.approx(1.0, rel=1e-12)

    def test_sobolev_constant(self):
        assert sobolev_norm_sq(CoeffVector([2 + 1j]), WeightParam(1.0), 3) == pytest.approx(5.0)

    def test_sobolev_values(self):
        wp = WeightParam(0.0)
        assert sobolev_norm_sq(CoeffVector([0, 1]), wp, 1) == pytest.approx(0.5)
        assert sobolev_norm_sq(CoeffVector([0, 0, 1]), wp, 2) == pytest.approx(16.0 / 3.0)

    def test_sobolev_rejects_order_zero(self):
        with pytest.raises(ValueError):
            sobolev_norm_sq(CoeffVector([1]), WeightParam(0.0), 0)


class TestBasisConversion:
    def test_e0_is_constant_one(self):
        assert basis_scales(WeightParam(1.7), 0)[0] == 1.0

    def test_e1_at_weight_zero(self):
        assert basis_scales(WeightParam(0.0), 1)[1] == pytest.approx(np.sqrt(2.0))

    def test_scales_finite_where_norms_underflow(self, log_norms_ref):
        # at xi = 100, ||z^k||^2 underflows to 0 from k ~ 6e4 (so a power of
        # the norms gives inf); s_k = sqrt((xi+2)_k / k!) is about e^397 at k = 1e5.
        # Against the 40-digit table the error is 8.3e-12; a log-Gamma route
        # (1.1e-10) fails the bound.  exp(-L/2) adds 4e-14 of rounding.
        x, n = 100.0, 10**5
        k, L = log_norms_ref[x]
        s = basis_scales(WeightParam(x), n)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[k], np.exp(-0.5 * L), rtol=2e-11, atol=0)


class TestLogNormsPrecision:
    """L_k = log ||z^k||^2 against the 40-digit table, k <= 10^5."""

    @pytest.mark.parametrize("x", [-0.999, -0.99, -0.5, 0.0, 1.0, 2.35, 2.5, 10.0, 40.0, 98.0, 100.0])
    def test_absolute_error(self, x, log_norms_ref):
        # measured: <= 3.2e-13 for xi <= 2.5, 8.7e-13 at 10, 7.7e-12 at 40 and
        # 1.7e-11 at 100; a log-Gamma route is off by 1.1e-10 to 3.5e-10
        k, L = log_norms_ref[x]
        got = _log_norms_sq(WeightParam(x), int(k[-1]))[k]
        assert np.max(np.abs(got - L)) <= (1e-12 if x <= 10.0 else 2.5e-11)

    def test_norms_are_exp_of_log(self, log_norms_ref):
        k, L = log_norms_ref[0.0]
        w = monomial_norms_sq(WeightParam(0.0), int(k[-1]))
        np.testing.assert_allclose(w[k], np.exp(L), rtol=1e-12, atol=0)
