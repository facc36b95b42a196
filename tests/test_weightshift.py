import math

import numpy as np
import pytest

from bergman11.weights import CoeffVector, WeightParam
from bergman11.quadrature import KernelPoint
from bergman11.weightshift import (
    FrameConstants,
    ShiftOp,
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

    @pytest.mark.parametrize("c", [complex("nan"), complex(1, math.inf), -math.inf])
    @pytest.mark.parametrize("allow_singular", [False, True])
    def test_rejects_non_finite_constants(self, c, allow_singular):
        with pytest.raises(ValueError, match="shift constant must be finite"):
            ShiftOp(c, allow_singular=allow_singular)

    def test_allow_singular_escape_hatch(self):
        assert ShiftOp(0.0, allow_singular=True).c == 0.0

    def test_accepts_nearby_regular_constants(self):
        ShiftOp(1e-6)
        ShiftOp(-1.5)
        ShiftOp(2.0 + 1j)

    def test_apply_is_diagonal(self):
        f = CoeffVector([1.0, 1.0, 1.0])
        assert shift_apply(ShiftOp(1.0), f) == CoeffVector([1, 2, 3])

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

    def test_coeffs_finite_at_top_of_weight_range(self, log_norms_ref):
        # at xi = 100, (xi+2)_k / k! stays below the double maximum up to
        # k ~ 43000 (about e^700 at k = 4e4) and exceeds it beyond.  Against
        # the 40-digit table the error is 4.0e-12; a log-Gamma route (9.8e-11)
        # fails the bound.
        x, n, w = 100.0, 40_000, 0.999
        got = kernel_coeffs(WeightParam(x), KernelPoint(w), n)
        assert np.all(np.isfinite(got))
        k, L = log_norms_ref[x]
        k, L = k[k <= n], L[k <= n]
        np.testing.assert_allclose(got[k], np.exp(k * math.log(w) - L), rtol=1e-11, atol=0)

    def test_coeffs_at_origin_are_e0(self):
        c = kernel_coeffs(WeightParam(3.0), KernelPoint(0.0), 5)
        assert np.array_equal(c, [1, 0, 0, 0, 0, 0])

    def test_coeffs_finite_where_scale_overflows(self, log_norms_ref):
        # s_k^2 alone overflows from k ~ 4.3e4 at xi = 98; times 0.4^k the
        # coefficients underflow to 0 instead of becoming NaN.  For k < 300 the
        # error against the 40-digit table is 1.5e-13; a log-Gamma route
        # (5.1e-13) fails the bound.
        x, n = 98.0, 50_000
        got = kernel_coeffs(WeightParam(x), KernelPoint(0.4j), n)
        assert np.all(np.isfinite(got))
        k, L = log_norms_ref[x]
        k, L = k[:300], L[:300]
        assert np.array_equal(k, np.arange(300))
        direct = np.exp(k * math.log(0.4) - L) * (-1j) ** (k % 4)
        np.testing.assert_allclose(got[:300], direct, rtol=3e-13, atol=0)
        assert np.all(got[5000:] == 0)

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.5])
    def test_derived_constant_annihilates_residual(self, x):
        w = KernelPoint(0.4)
        assert kernel_shift_residual(1.0 / (x + 2.0), w, WeightParam(x), 60) <= 1e-12

    def test_residual_is_relative_to_target(self):
        # at xi = 98 the target coefficients have norm 4.2e21; relative to it
        # the derived constant leaves rounding and the printed one about 0.4
        w, wp, n = KernelPoint(0.4), WeightParam(98.0), 50_000
        assert kernel_shift_residual(1.0 / 100.0, w, wp, n) <= 1e-12
        assert kernel_shift_residual(2.0 / 100.0, w, wp, n) == pytest.approx(0.4, rel=1e-6)
        target = kernel_coeffs(WeightParam(99.0), w, n)
        shifted = (1.0 + 0.02 * np.arange(n + 1)) * kernel_coeffs(wp, w, n)
        absolute = np.linalg.norm(shifted - target)
        assert kernel_shift_residual(0.02, w, wp, n) == pytest.approx(absolute / np.linalg.norm(target), rel=1e-15)
