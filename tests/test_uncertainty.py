import numpy as np
import pytest

from bergman11.weights import CoeffVector, WeightParam
from bergman11.su11 import W_GEN, X_GEN, Y_GEN, Z_GEN
from bergman11.uncertainty import lie_up, optimal_shifts, soltani_up


def rand_poly(rng, deg):
    return CoeffVector(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


class TestSoltani:
    def test_constant_function(self):
        report = soltani_up(CoeffVector([1.0]), 0.0, 0.0, WeightParam(0.0))
        assert report.lhs == pytest.approx(2.0)
        assert report.rhs == pytest.approx(2.0)
        assert report.slack == pytest.approx(0.0, abs=1e-14)

    def test_linear_function(self):
        report = soltani_up(CoeffVector([0, 1.0]), 0.0, 0.0, WeightParam(0.0))
        assert report.lhs == pytest.approx(2.0)
        assert report.rhs == pytest.approx(4.0)

    def test_inequality_holds_over_random_inputs(self):
        rng = np.random.default_rng(30)
        for x in (-0.5, 0.0, 1.0, 2.5):
            wp = WeightParam(x)
            for _ in range(20):
                f = rand_poly(rng, int(rng.integers(0, 10)))
                w, y = rng.uniform(-2, 2, size=2)
                assert soltani_up(f, float(w), float(y), wp).slack >= -1e-10

    def test_shift_dependence_only_in_rhs(self):
        f = CoeffVector([1, 1j, 0.5])
        wp = WeightParam(1.0)
        r1 = soltani_up(f, 0.0, 0.0, wp)
        r2 = soltani_up(f, 1.5, -0.7, wp)
        assert r1.lhs == pytest.approx(r2.lhs)
        assert r1.rhs != pytest.approx(r2.rhs)


class TestLie:
    def test_inequality_holds(self):
        rng = np.random.default_rng(31)
        wp = WeightParam(0.5)
        for _ in range(20):
            f = rand_poly(rng, int(rng.integers(0, 8)))
            x, y = rng.uniform(-2, 2, size=2)
            for u, v in ((X_GEN, Y_GEN), (W_GEN, Y_GEN), (Y_GEN, Z_GEN)):
                assert lie_up(u, v, f, float(x), float(y), wp).slack >= -1e-10

    def test_same_element_has_zero_lhs(self):
        report = lie_up(X_GEN, X_GEN, CoeffVector([1, 2]), 0.3, -0.1, WeightParam(0.0))
        assert report.lhs == pytest.approx(0.0, abs=1e-13)


class TestOptimalShifts:
    def test_match_dense_scan_of_rhs(self):
        # the closed-form minimizers of each rhs factor against a scan of rhs
        # with step 1e-3 over [-4, 4], the other shift held at its optimum
        rng = np.random.default_rng(33)
        scan = np.linspace(-4.0, 4.0, 8001)
        for x in (-0.5, 0.0, 1.0, 2.5):
            wp = WeightParam(x)
            for f in (CoeffVector([1.0, 0.5, 0.25j]), rand_poly(rng, 8)):
                w_star, y_star = optimal_shifts(f, wp)
                assert abs(w_star) < 3.5 and abs(y_star) < 3.5
                rhs_w = soltani_up(f, scan, y_star, wp).rhs
                rhs_y = soltani_up(f, w_star, scan, wp).rhs
                assert abs(scan[np.argmin(rhs_w)] - w_star) <= 1e-3
                assert abs(scan[np.argmin(rhs_y)] - y_star) <= 1e-3
                best = soltani_up(f, w_star, y_star, wp).rhs
                assert best <= min(rhs_w.min(), rhs_y.min()) * (1.0 + 1e-14)
