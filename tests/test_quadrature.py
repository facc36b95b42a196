import numpy as np
import pytest

from bergman11 import (
    CoeffVector,
    KernelPoint,
    QuadratureGrid,
    WeightParam,
    integrate,
    kernel_eval,
    monomial_norm_sq,
    reproduce,
)
from bergman11 import quadrature
from bergman11.quadrature import gauss_jacobi
from bergman11.weights import basis_scales


@pytest.fixture(scope="module")
def grid0():
    return QuadratureGrid(WeightParam(0.0))


class TestGridConstruction:
    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            QuadratureGrid(WeightParam(0.0), radial_points=4)
        with pytest.raises(ValueError):
            QuadratureGrid(WeightParam(0.0), angular_points=8)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 2.5])
    def test_probability_mass(self, x):
        grid = QuadratureGrid(WeightParam(x))
        assert abs(np.sum(grid.weights) - 1.0) <= 1e-12

    def test_arrays_are_read_only(self, grid0):
        # verify shares one grid between properties
        for name in ("radial_nodes", "radial_weights", "angles", "nodes", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid0, name)[0] = 0.0

    def test_nan_weight_fails_mass_check(self, monkeypatch):
        # every comparison with NaN is false, so the check must be written
        # as "not within", or a NaN mass passes it
        rule = gauss_jacobi

        def nan_rule(n, a):
            nodes, weights = rule(n, a)
            weights = weights.copy()
            weights[n // 2] = np.nan
            return nodes, weights

        monkeypatch.setattr(quadrature, "gauss_jacobi", nan_rule)
        with pytest.raises(RuntimeError, match="nan"):
            QuadratureGrid(WeightParam(0.0), 16, 16)


GJ_XIS = (-0.999, -0.5, 0.0, 2.35, 10.0, 40.0, 98.0)
GJ_SIZES = (8, 64, 96, 512, 1024)


class TestGaussJacobi:
    """The numpy rule against the eigenvalue-based rule of scipy (a test-only
    reference) and against exact radial moments j! Gamma(xi+2)/Gamma(j+xi+2)."""

    @pytest.mark.parametrize("x", GJ_XIS)
    def test_nodes_match_reference_rule(self, x):
        special = pytest.importorskip("scipy.special")
        for n in GJ_SIZES:
            s, w = gauss_jacobi(n, x)
            ref, _ = special.roots_jacobi(n, x, 0.0)
            assert np.max(np.abs((2.0 * s - 1.0) - ref)) <= 1e-14
            assert np.all(np.diff(s) > 0) and 0.0 < s[0] and s[-1] < 1.0
            # at xi = 98, n = 1024 the smallest weight is 1e-257
            assert np.all(np.isfinite(w)) and np.all(w > 0)

    @pytest.mark.parametrize("x", GJ_XIS)
    def test_radial_moments_exact(self, x):
        # the reference rule is rescaled to the exact mass, this one is not;
        # both must integrate s^j, j < 2n, to their rounding level
        special = pytest.importorskip("scipy.special")
        mpmath = pytest.importorskip("mpmath")
        for n in GJ_SIZES:
            s, w = gauss_jacobi(n, x)
            ref_x, ref_w = special.roots_jacobi(n, x, 0.0)
            ref_s, ref_w = (ref_x + 1.0) / 2.0, ref_w * (x + 1.0) * 2.0 ** (-(x + 1.0))
            js = sorted(set(range(0, 2 * n, max(1, n // 16))) | {2 * n - 1})
            with mpmath.workdps(30):
                xm = mpmath.mpf(x)
                log_exact = [mpmath.loggamma(j + 1) + mpmath.loggamma(xm + 2) - mpmath.loggamma(j + xm + 2) for j in js]
                exact = [float(mpmath.exp(v)) for v in log_exact]
            err = max(abs(np.sum(w * s**j) - e) for j, e in zip(js, exact))
            ref_err = max(abs(np.sum(ref_w * ref_s**j) - e) for j, e in zip(js, exact))
            assert err <= ref_err + 1e-13

    @pytest.mark.parametrize("x", GJ_XIS)
    def test_grids_pass_mass_check(self, x):
        for n in GJ_SIZES:
            grid = QuadratureGrid(WeightParam(x), radial_points=n, angular_points=16)
            assert abs(np.sum(grid.radial_weights) - 1.0) <= 1e-12

    def test_weights_follow_the_last_step(self, monkeypatch):
        # stopping after one pass leaves steps of ~2e-3 node spacings; the
        # weight formula is then carried to the moved nodes by a second-order
        # Taylor step (a first-order one is off by ~2e-5 here)
        special = pytest.importorskip("scipy.special")
        monkeypatch.setattr(quadrature, "STEP_TOL", 1e-2)
        n, x = 64, 2.35
        s, w = gauss_jacobi(n, x)
        t = 2.0 * s - 1.0
        dp = (n + x + 1.0) / 2.0 * special.eval_jacobi(n - 1, x + 1.0, 1.0, t)
        np.testing.assert_allclose(w, (x + 1.0) / ((1.0 - t) * (1.0 + t) * dp**2), rtol=1e-6)

    def test_iteration_cap_raises(self, monkeypatch):
        # two passes are needed here, so a cap of one must raise
        monkeypatch.setattr(quadrature, "MAX_PASSES", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            gauss_jacobi(64, 0.0)


class TestIntegrate:
    def test_constant(self, grid0):
        assert integrate(lambda z: np.ones_like(z), grid0) == pytest.approx(1.0, abs=1e-12)

    def test_abs_z_squared(self, grid0):
        assert integrate(lambda z: np.abs(z) ** 2, grid0) == pytest.approx(0.5, abs=1e-6)

    def test_plain_z_vanishes(self, grid0):
        assert abs(integrate(lambda z: z, grid0)) <= 1e-12

    def test_accepts_coeff_vector(self, grid0):
        assert abs(integrate(CoeffVector([0, 0, 1]), grid0)) <= 1e-12

    def test_non_finite_sample_names_node(self, grid0):
        # a NaN, +inf, -inf and a NaN only in the imaginary part, each alone
        # at its own node; the scan after the sum must name that node
        cases = [(np.nan, (0, 0)), (np.inf, (3, 17)), (-np.inf, (40, 200)), (complex(1.0, np.nan), (63, 255))]
        for value, node in cases:

            def bad(z):
                out = np.ones_like(z)
                out[node] = value
                return out

            with pytest.raises(ValueError, match="node") as err:
                integrate(bad, grid0)
            assert f"z={grid0.nodes[node]}" in str(err.value)

    def test_first_non_finite_node_named(self, grid0):
        # +inf and -inf cancel to NaN in the row sum; the scan names the first
        def bad(z):
            out = np.ones_like(z)
            out[5, 9] = np.inf
            out[5, 10] = -np.inf
            return out

        with pytest.raises(ValueError, match="node") as err:
            integrate(bad, grid0)
        assert f"z={grid0.nodes[5, 9]}" in str(err.value)

    def test_sum_order_rows_then_radial_weights(self, grid0):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=grid0.nodes.shape) + 1j * rng.normal(size=grid0.nodes.shape)
        got = integrate(lambda z: samples, grid0)
        # the old order multiplied the full grid by the weights and summed once;
        # either order is within a few ulps of the absolute sum per component
        bound = 2 * grid0.nodes.size * np.finfo(float).eps * np.sum(np.abs(samples) * grid0.weights)
        assert abs(got - np.sum(samples * grid0.weights)) <= bound

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_radial_exactness_against_beta_values(self, x):
        # the radial rule must hit k!/(xi+2)_k = (xi+1) B(k+1, xi+1) exactly
        wp = WeightParam(x)
        grid = QuadratureGrid(wp, radial_points=64)
        for k in range(0, 60, 3):
            approx = float(np.sum(grid.radial_weights * grid.radial_nodes**k))
            assert approx == pytest.approx(monomial_norm_sq(wp, k), abs=1e-9)

    def test_angular_exactness(self, grid0):
        for k in (1, 3, 100, 255):
            assert abs(np.mean(np.exp(1j * k * grid0.angles))) <= 1e-12


def one_pass(samples, grid):
    """The unblocked sum: full-grid samples, row sums, then the radial dot."""
    rows = np.sum(samples, axis=1)
    return complex(rows.real @ grid.radial_weights, rows.imag @ grid.radial_weights) / grid.angular_points


def grid_rows(grid, z):
    """The rows of ``grid.nodes`` that the block ``z`` is, checked to be whole rows."""
    start = (z.ctypes.data - grid.nodes.ctypes.data) // grid.nodes.strides[0]
    rows = slice(start, start + z.shape[0])
    assert z.shape[1] == grid.angular_points and z.size <= max(quadrature.BLOCK_POINTS, grid.angular_points)
    assert np.array_equal(z, grid.nodes[rows])
    return rows


# (R, M) with several blocks: 16 rows a block and R not a multiple of it;
# 5 rows a block with M not a power of two; one row a block, M > BLOCK_POINTS
BLOCKED_SIZES = [(100, 1000), (37, 3000), (30, 20000)]


class TestBlockedIntegrate:
    @pytest.mark.parametrize("size", BLOCKED_SIZES)
    def test_bit_identical_to_one_pass(self, size):
        rng = np.random.default_rng(21)
        grid = QuadratureGrid(WeightParam(1.3), *size)
        f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
        assert grid.radial_points * grid.angular_points > quadrature.BLOCK_POINTS
        assert integrate(lambda z: np.abs(f(z)) ** 2, grid) == one_pass(np.abs(f(grid.nodes)) ** 2, grid)
        samples = rng.normal(size=grid.nodes.shape) + 1j * rng.normal(size=grid.nodes.shape)
        assert integrate(lambda z: samples[grid_rows(grid, z)], grid) == one_pass(samples, grid)

    @pytest.mark.parametrize("size", BLOCKED_SIZES)
    def test_reproduce_matches_unblocked_integrand(self, size):
        rng = np.random.default_rng(22)
        wp = WeightParam(2.5)
        grid = QuadratureGrid(wp, *size)
        f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
        w = KernelPoint(0.5 - 0.4j)
        want = one_pass(np.conj(kernel_eval(grid.nodes, w, wp)) * f(grid.nodes), grid)
        assert reproduce(f, w, wp, grid) == want

    def test_first_non_finite_node_in_a_later_block(self):
        # rows 0-15 are the first block and clean; the NaN at row 50 comes
        # before the inf at row 70, which sits in a later block still
        grid = QuadratureGrid(WeightParam(0.0), 100, 1000)

        def bad(z):
            out = np.ones_like(z)
            rows = grid_rows(grid, z)
            for (i, j), value in (((50, 7), np.nan), ((70, 3), np.inf)):
                if rows.start <= i < rows.stop:
                    out[i - rows.start, j] = value
            return out

        with pytest.raises(ValueError, match="node") as err:
            integrate(bad, grid)
        assert f"z={grid.nodes[50, 7]}" in str(err.value)

    def test_integrand_sees_one_block_of_whole_rows(self):
        grid = QuadratureGrid(WeightParam(0.0), 100, 1000)
        seen = []

        def record(z):
            seen.append(grid_rows(grid, z))
            return np.ones_like(z)

        assert integrate(record, grid) == pytest.approx(1.0, abs=1e-12)
        step = quadrature.BLOCK_POINTS // grid.angular_points
        assert seen == [slice(i, min(i + step, 100)) for i in range(0, 100, step)]


class TestKernel:
    def test_kernel_point_validation(self):
        with pytest.raises(ValueError):
            KernelPoint(1.0)

    def test_w_zero(self, grid0):
        assert kernel_eval(0.37 + 0.2j, KernelPoint(0.0), WeightParam(1.5)) == pytest.approx(1.0)

    def test_half_half(self):
        val = kernel_eval(0.5, KernelPoint(0.5), WeightParam(0.0))
        assert val == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_hermitian(self):
        wp = WeightParam(0.7)
        z, w = 0.3 + 0.4j, 0.2 - 0.5j
        assert kernel_eval(z, KernelPoint(w), wp) == pytest.approx(
            np.conj(kernel_eval(w, KernelPoint(z), wp))
        )

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            kernel_eval(1.0, KernelPoint(0.5), WeightParam(0.0))

    def test_series_consistency(self):
        # partial sums of sum ((xi+2)_k/k!) (z conj(w))^k converge geometrically
        wp = WeightParam(1.0)
        z, w = 0.5, 0.4 + 0.2j
        target = kernel_eval(z, KernelPoint(w), wp)
        # terms ((xi+2)_k/k!)(z conj(w))^k built by recurrence
        c = np.empty(61, dtype=np.complex128)
        c[0] = 1.0
        zw = z * np.conj(w)
        for i in range(1, 61):
            c[i] = c[i - 1] * (wp.xi + 1.0 + i) / i * zw
        partials = np.cumsum(c)
        resid = np.abs(partials - target)
        rate = abs(zw)
        # compare before the residual hits the rounding floor
        assert resid[18] <= resid[8] * rate**8
        assert resid[50] < 1e-10


class TestKernelPrecision:
    """kernel_eval against 40-digit mpmath at the same double inputs."""

    XIS = (-0.9, 0.0, 2.5, 40.0, 98.0)
    WS = (0.5 + 0.3j, 0.95j, -0.99, 0.7 - 0.7j)

    @staticmethod
    def _sample_z(rng, w):
        # random points, plus points near the boundary facing w where
        # |1 - z conj(w)| is smallest and the power is most ill-conditioned
        n = 24
        r = 0.999 * np.sqrt(rng.random(n))
        z = r * np.exp(2j * np.pi * rng.random(n))
        toward = 0.999 * np.exp(1j * (np.angle(w) + rng.uniform(-0.05, 0.05, 8)))
        return np.concatenate([z, toward, [0.0, 0.999, -0.999, 0.999j]])

    @pytest.mark.parametrize("x", XIS)
    def test_relative_error_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(1000 * (x + 1)))
        wp = WeightParam(x)
        worst = 0.0
        with mpmath.workdps(40):
            for w in self.WS:
                z = self._sample_z(rng, w)
                got = kernel_eval(z, KernelPoint(w), wp)
                p = -(mpmath.mpf(x) + 2)
                wc = mpmath.conj(mpmath.mpc(w))
                for zi, gi in zip(z, got):
                    exact = mpmath.power(1 - mpmath.mpc(zi) * wc, p)
                    worst = max(worst, float(abs(mpmath.mpc(gi) - exact) / abs(exact)))
        assert worst <= 1e-12

    def test_scalar_in_complex_out(self):
        val = kernel_eval(0.3 + 0.2j, KernelPoint(0.5j), WeightParam(1.0))
        assert type(val) is complex
        assert type(kernel_eval(np.complex128(0.1), KernelPoint(0.5), WeightParam(0.0))) is complex

    @pytest.mark.parametrize("shape", [(9,), (4, 6)], ids=["1d", "2d"])
    def test_shape_kept_and_input_not_written(self, shape):
        rng = np.random.default_rng(3)
        z = 0.9 * (rng.uniform(-0.7, 0.7, shape) + 1j * rng.uniform(-0.7, 0.7, shape))
        z_before = z.copy()
        w, wp = KernelPoint(0.4 - 0.3j), WeightParam(2.5)
        out = kernel_eval(z, w, wp)
        assert out.shape == shape
        assert np.array_equal(z, z_before)
        pointwise = np.array([kernel_eval(complex(v), w, wp) for v in z.ravel()]).reshape(shape)
        assert np.array_equal(out, pointwise)


class TestReproduce:
    def test_constant(self, grid0):
        assert reproduce(CoeffVector([1.0]), KernelPoint(0.3 + 0.1j), WeightParam(0.0), grid0) == pytest.approx(1.0, abs=1e-6)

    def test_cubic(self, grid0):
        w = KernelPoint(0.3 + 0.2j)
        val = reproduce(CoeffVector([0, 0, 0, 1]), w, WeightParam(0.0), grid0)
        assert val == pytest.approx(w.w**3, abs=1e-6)

    def test_basis_vector_at_origin(self, grid0):
        e2 = CoeffVector([0, 0, basis_scales(WeightParam(0.0), 2)[2]])
        assert abs(reproduce(e2, KernelPoint(0.0), WeightParam(0.0), grid0)) <= 1e-10

    @pytest.mark.parametrize("size", [(64, 256), (128, 512)])
    def test_in_place_integrand_is_bit_identical(self, size):
        # conj(K) f formed in the kernel's buffer equals the former allocating
        # integrand on the default verify grid and the smallest benchmark grid
        rng = np.random.default_rng(17)
        for x in (-0.9, 0.0, 2.5, 40.0):
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, *size)
            f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
            w = KernelPoint(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            want = integrate(lambda z: f(z) * np.conj(kernel_eval(z, w, wp)), grid)
            assert reproduce(f, w, wp, grid) == want

    def test_rejects_coarse_grid(self):
        grid = QuadratureGrid(WeightParam(0.0), radial_points=8)
        with pytest.raises(ValueError):
            reproduce(CoeffVector(np.ones(10)), KernelPoint(0.1), WeightParam(0.0), grid)
