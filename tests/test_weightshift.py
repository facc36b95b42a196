import numpy as np
import pytest
from scipy.special import gammaln

from bergman11 import (
    CoeffVector,
    FrameConstants,
    KernelPoint,
    ShiftOp,
    WeightParam,
    bergman_norm_sq,
    domain_identification_check,
    frame_constants,
    frame_ratio,
    kernel_coeffs,
    kernel_shift_residual,
    shift_apply,
    shift_invert,
)


class TestShiftOp:
    def test_rejects_singular_constants(self):
        for c in (0.0, -1.0, -3.0, -2.0 + 1e-13j):
            with pytest.raises(ValueError):
                ShiftOp(c)

    def test_allow_singular_escape_hatch(self):
        assert ShiftOp(0.0, allow_singular=True).c == 0.0

    def test_accepts_nearby_regular_constants(self):
        ShiftOp(1e-6)
        ShiftOp(-1.5)
        ShiftOp(2.0 + 1j)

    def test_apply_is_diagonal(self):
        f = CoeffVector([1.0, 1.0, 1.0])
        assert shift_apply(ShiftOp(1.0), f) == CoeffVector([1, 2, 3])

    def test_invert_roundtrip(self):
        rng = np.random.default_rng(40)
        op = ShiftOp(0.75 - 0.3j)
        f = CoeffVector(rng.normal(size=9) + 1j * rng.normal(size=9))
        back = shift_invert(op, shift_apply(op, f))
        assert np.max(np.abs(back.padded(8) - f.padded(8))) <= 1e-12

    def test_invert_refuses_killed_mode(self):
        op = ShiftOp(0.0, allow_singular=True)
        with pytest.raises(ZeroDivisionError):
            shift_invert(op, CoeffVector([1.0]))


class TestFrameBounds:
    def test_reference_constants(self):
        fc = frame_constants(ShiftOp(1.0), WeightParam(0.0), 64)
        assert fc.m == pytest.approx(1.0)
        assert fc.M == pytest.approx(6.0)

    def test_ratio_formula_at_origin_mode(self):
        r0 = frame_ratio(ShiftOp(1.0), WeightParam(0.0), 0)
        assert r0 == pytest.approx(1.0)  # 6 * 1 / (3 * 2)

    def test_ratio_certifies_norm_equivalence(self):
        # ||Lf||^2 in the shifted space must sit inside [m, M] * ||f||^2
        rng = np.random.default_rng(41)
        op = ShiftOp(1.0)
        wp = WeightParam(0.5)
        fc = frame_constants(op, wp, 256)
        shifted = WeightParam(wp.xi + 2.0)
        for _ in range(20):
            f = CoeffVector(rng.normal(size=11) + 1j * rng.normal(size=11))
            num = bergman_norm_sq(shift_apply(op, f), shifted)
            den = bergman_norm_sq(f, wp)
            assert fc.m - 1e-10 <= num / den <= fc.M + 1e-10

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            FrameConstants(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            FrameConstants(0.0, 1.0, 10)


class TestKernelShift:
    def test_coeffs_match_binomial_series(self):
        # (1 - z conj(w))^{-2} at xi = 0 has coefficients (k+1) conj(w)^k
        c = kernel_coeffs(WeightParam(0.0), KernelPoint(0.3 + 0.1j), 6)
        k = np.arange(7)
        np.testing.assert_allclose(c, (k + 1.0) * np.conj(0.3 + 0.1j) ** k, rtol=1e-13)

    def test_coeffs_finite_at_top_of_weight_range(self):
        # at xi = 100, (xi+2)_k / k! stays below the double maximum up to
        # k ~ 43000 (about e^700 at k = 4e4) and exceeds it beyond
        x, n, w = 100.0, 40_000, 0.999
        k = np.arange(n + 1)
        direct = np.exp(gammaln(k + x + 2.0) - gammaln(x + 2.0) - gammaln(k + 1.0)) * w**k
        got = kernel_coeffs(WeightParam(x), KernelPoint(w), n)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, direct, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.5])
    def test_derived_constant_annihilates_residual(self, x):
        w = KernelPoint(0.4)
        assert kernel_shift_residual(1.0 / (x + 2.0), w, WeightParam(x), 60) <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_printed_constant_fails(self, x):
        w = KernelPoint(0.4)
        assert kernel_shift_residual(2.0 / (x + 2.0), w, WeightParam(x), 60) >= 1e-3


class TestDomainIdentification:
    def test_requires_weight_above_one(self):
        with pytest.raises(ValueError):
            domain_identification_check(WeightParam(1.0), 100)

    def test_bounds_are_finite_and_ordered(self):
        lo, hi = domain_identification_check(WeightParam(2.0), 10**4)
        assert 0.0 < lo <= hi < np.inf
        # tail limit 1/(xi(xi+1)) = 1/6 is the infimum here
        assert lo == pytest.approx(1.0 / 6.0, rel=1e-3)
