import tracemalloc

import numpy as np
import pytest

from bergman11.weights import CoeffVector, WeightParam, basis_scales, monomial_norms_sq
from bergman11.quadrature import KernelPoint, QuadratureGrid, gauss_jacobi, integrate, kernel_eval, reproduce
from bergman11 import quadrature


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
        for name in ("radial_nodes", "radial_weights", "angles", "radii", "circle", "nodes", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid0, name)[0] = 0.0

    def test_large_grid_stores_its_factors_only(self):
        # the grid holds O(R + M) bytes, and building it never allocates an
        # R x M array either: 128 (R + M) is 0.66 MB, a node array 67 MB
        r, m = 1024, 4096
        tracemalloc.start()
        try:
            grid = QuadratureGrid(WeightParam(0.5), r, m)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.weights.shape == (r, m)
        assert max(held, peak) <= 128 * (r + m)

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

    # at xi = -1 + 1e-12 a B = 0 phase guess once stepped onto theta = 0 for n >= 128
    @pytest.mark.parametrize("x", GJ_XIS + (-1.0 + 1e-12,))
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

    def test_overflowing_row_sum_names_the_radius(self, grid0):
        # every sample is finite, and 256 of them overflow their row sum
        with pytest.raises(ValueError, match="row of radius") as err:
            integrate(lambda z: np.full(z.shape, 1e307 + 0j), grid0)
        assert f"r={grid0.radii[0]}" in str(err.value)

    def test_overflowing_radial_total_raises(self):
        # 16 samples of max/16 sum to the largest double exactly; the radial
        # weights of this grid sum to 1 + 4.4e-16 in the dot, so it overflows
        grid = QuadratureGrid(WeightParam(0.5), 16, 16)
        big = np.finfo(float).max
        with pytest.raises(ValueError, match="radial weights"):
            integrate(lambda z: np.full(z.shape, big / 16), grid)
        assert np.isfinite(integrate(lambda z: np.full(z.shape, big / 32), grid))

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
        norms = monomial_norms_sq(wp, 60)
        for k in range(0, 60, 3):
            approx = float(np.sum(grid.radial_weights * grid.radial_nodes**k))
            assert approx == pytest.approx(norms[k], abs=1e-9)

    def test_angular_exactness(self, grid0):
        for k in (1, 3, 100, 255):
            assert abs(np.mean(np.exp(1j * k * grid0.angles))) <= 1e-12


def one_pass(samples, grid):
    """The unblocked sum: full-grid samples, row sums, then the radial dot."""
    rows = np.sum(samples, axis=1)
    return complex(rows.real @ grid.radial_weights, rows.imag @ grid.radial_weights) / grid.angular_points


def grid_rows(grid, z):
    """The rows of ``grid.nodes`` that the block ``z`` is, checked to be whole rows.

    The block is found by value: circle[0] == 1, so z[:, 0] is exactly the
    block's radii, and the radii are strictly increasing."""
    (start,) = np.flatnonzero(grid.radii == z[0, 0].real)
    rows = slice(start, start + z.shape[0])
    assert np.array_equal(z[:, 0], grid.radii[rows])
    assert z.shape[1] == grid.angular_points and z.size <= max(quadrature.BLOCK_POINTS, grid.angular_points)
    # grid.nodes[rows] without building all of grid.nodes per block
    assert np.array_equal(z, grid.radii[rows, None] * grid.circle)
    return rows


# (R, M) with several blocks: 16 rows a block and R not a multiple of it;
# 5 rows a block with M not a power of two; one row a block, M > BLOCK_POINTS
BLOCKED_SIZES = [(100, 1000), (37, 3000), (30, 20000)]
REPRODUCE_XIS = (-0.9, 0.0, 2.5, 40.0, 98.0)


def assert_reproduce_is_the_pointwise_sum(f, w, wp, grid):
    """reproduce against integrate of conj(K) f at the nodes, which sums the
    same terms W_i/M conj(K_ij) f(z_ij) in another order.

    Per row, Horner's rule, the product and the angular sum err by at most
    (2n + M + 2) u sum_j |K_ij| g_i, with g_i = sum_k |a_k| r_i^k, n = deg f + 1
    and u the unit roundoff; the transform (log2 M butterfly stages), the
    radial powers and the sum over the n bins by at most
    (4 log2 M + n + 4) u sum_j |K_ij| g_i.  The radial dot adds R u relative
    to the same absolute sum, and the factor sqrt 2 covers complex products.

    The routes also read different kernel values: the pointwise one forms
    b = 1 - (r omega) conj(w), reproduce b = 1 - r (omega conj(w)).  With
    rho = r |w| and beta = |b|, each rounds b within (1 + 2 sqrt 2) u rho + u beta
    of 1 - r omega conj(w) (the node or r u, a complex product, the
    subtraction), which moves b^-(xi+2) by (xi+2)(1 + 3.9 rho/beta) u relative.
    From its own b, each kernel then errs by at most
    (xi+2)(1 + 3 |log beta| + 3 |theta|) u + 12 u relative when every
    elementary function is within one ulp, and |theta| <= (pi/2) rho/beta,
    |log beta| <= 2 rho/beta.  The two kernels so differ by at most
    (xi+2)(4 + 30 rho/beta) u + 24 u relative, summed against g."""
    n, m = len(f.coeffs), grid.angular_points
    pointwise = integrate(lambda z: np.conj(kernel_eval(z, w, wp)) * f(z), grid)
    g = CoeffVector(np.abs(f.coeffs))
    absolute = integrate(lambda z: np.abs(kernel_eval(z, w, wp)) * g(np.abs(z)), grid).real
    # the same sum with each term weighted by rho/beta = |z w| / |1 - z conj(w)|
    spread = integrate(
        lambda z: np.abs(kernel_eval(z, w, wp)) * g(np.abs(z)) * np.abs(z * w.w) / np.abs(1.0 - z * np.conj(w.w)),
        grid,
    ).real
    u = np.finfo(float).eps / 2
    bound = np.sqrt(2.0) * (3 * n + m + 4 * np.log2(m) + grid.radial_points + 8) * u * absolute
    bound += ((wp.xi + 2.0) * (4.0 * absolute + 30.0 * spread) + 24.0 * absolute) * u
    assert abs(reproduce(f, w, wp, grid) - pointwise) <= bound


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
        # the same finite sum as integrating conj(K) f node by node, in another order
        rng = np.random.default_rng(22)
        w = KernelPoint(0.5 - 0.4j)
        for x in REPRODUCE_XIS:
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, *size)
            f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
            assert_reproduce_is_the_pointwise_sum(f, w, wp, grid)

    def test_reproduce_folds_degrees_above_the_angular_count(self):
        # omega^k = omega^(k mod M): degree 40 on 16 angles wraps twice
        rng = np.random.default_rng(23)
        wp = WeightParam(0.5)
        grid = QuadratureGrid(wp, 64, 16)
        f = CoeffVector(rng.normal(size=41) + 1j * rng.normal(size=41))
        assert_reproduce_is_the_pointwise_sum(f, KernelPoint(0.6 + 0.3j), wp, grid)

    @pytest.mark.parametrize("size", BLOCKED_SIZES + [(128, 512), (512, 2048)])
    def test_blocks_are_the_outer_product_bit_for_bit(self, size):
        # the nodes the grid stored before it kept only its factors
        grid = QuadratureGrid(WeightParam(0.7), *size)
        outer = np.sqrt(grid.radial_nodes)[:, None] * np.exp(1j * grid.angles)[None, :]
        seen = []

        def record(z):
            rows = grid_rows(grid, z)
            assert z.tobytes() == outer[rows].tobytes()
            seen.append(rows)
            return np.ones_like(z)

        integrate(record, grid)
        assert seen[0].start == 0 and seen[-1].stop == grid.radial_points
        assert grid.nodes.tobytes() == outer.tobytes()

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
        # the kernel is defined wherever |z conj(w)| < 1, so z = 1 is inside at
        # w = 0.5 (where K = 0.5^-2) and every z is inside at w = 0
        assert kernel_eval(1.0, KernelPoint(0.5), WeightParam(0.0)) == 4.0
        assert kernel_eval(7.0, KernelPoint(0.0), WeightParam(0.0)) == 1.0
        for z in (2.0, 2.5, [0.5, 2.5j]):
            with pytest.raises(ValueError):
                kernel_eval(z, KernelPoint(0.5), WeightParam(0.0))


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

    @pytest.mark.parametrize("x", (2.5, 40.0, 98.0))
    def test_relative_error_where_the_half_phase_tangent_has_a_pole(self, x):
        # cos and sin of p*theta come from t = tan(p*theta/2), which has a pole
        # at p*theta = +-pi, +-3pi; z is placed so that p*theta lies within
        # 1e-9 of those and of 0 (as far as |theta| < pi/2 reaches)
        mpmath = pytest.importorskip("mpmath")
        wp, w = WeightParam(x), KernelPoint(0.95 * np.exp(0.4j))
        p = -(x + 2.0)
        targets = [t for t in (0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi) if abs(t / p) < 1.2]
        assert len(targets) == (3 if x == 2.5 else 5)
        z = []
        for target in targets:
            for offset in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9):
                theta = (target + offset) / p
                for rho in (0.35, 0.7, 1.0):
                    # b = 1 - z conj(w) = |b| e^{i theta}, with |b| = rho cos(theta)
                    z.append((1.0 - rho * np.cos(theta) * np.exp(1j * theta)) / np.conj(w.w))
        z = np.array(z)
        assert np.all(np.abs(z) <= 0.999)
        got = kernel_eval(z, w, wp)
        worst = 0.0
        with mpmath.workdps(40):
            wc = mpmath.conj(mpmath.mpc(w.w))
            for zi, gi in zip(z, got):
                b = 1 - mpmath.mpc(zi) * wc
                assert min(abs(float(p * mpmath.arg(b)) - t) for t in targets) <= 1.1e-9
                exact = mpmath.power(b, -(mpmath.mpf(x) + 2))
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
    def test_blocking_changes_no_bit(self, size, monkeypatch):
        # each row is transformed and summed alone, so how many rows a block
        # holds changes no bit: one row a block, a ragged split, one block
        rng = np.random.default_rng(17)
        for x in (-0.9, 0.0, 2.5, 40.0):
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, *size)
            f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
            w = KernelPoint(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            want = reproduce(f, w, wp, grid)
            for points in (1, 7 * size[1], size[0] * size[1]):
                monkeypatch.setattr(quadrature, "BLOCK_POINTS", points)
                assert reproduce(f, w, wp, grid) == want
            monkeypatch.undo()

    def test_overflow_raises(self):
        # |K| reaches 2.3e90 here, so conj(K) f overflows: a ValueError, never inf or NaN
        wp = WeightParam(98.0)
        grid = QuadratureGrid(wp, 64, 256)
        with pytest.raises(ValueError, match="non-finite"):
            reproduce(CoeffVector([1e250, 1e250]), KernelPoint(0.99), wp, grid)
        # at 1e215 every step stays finite, and so does the result
        assert np.isfinite(reproduce(CoeffVector([1e215, 1e215]), KernelPoint(0.99), wp, grid))

    def test_domain_checked_on_the_factors(self):
        # as xi -> -1 the last radius is 1 - 2^-53; at |w| = 1 - 2^-53 and this
        # angle some omega_j conj(w) rounds to modulus 1 + 2^-52, so r |u|
        # rounds to 1: the ValueError of kernel_eval
        wp = WeightParam(-1.0 + 1e-12)
        grid = QuadratureGrid(wp, 64, 16)
        f = CoeffVector([1.0])
        w = KernelPoint(-0.896872741532688 + 0.44228869021900163j)
        assert grid.radii[-1] * np.max(np.abs(grid.circle * np.conj(w.w))) >= 1.0
        with pytest.raises(ValueError) as err:
            reproduce(f, w, wp, grid)
        with pytest.raises(ValueError) as want:
            kernel_eval(2.0, KernelPoint(0.5), wp)
        assert str(err.value) == str(want.value)
        # the node check is the looser by an ulp here: no node rounds past |z| = 1
        assert np.all(np.isfinite(kernel_eval(grid.nodes, w, wp)))
        # on the real axis the product stays below 1, and the value is finite
        w = KernelPoint(1.0 - 2.0**-53)
        assert grid.radii[-1] * np.max(np.abs(grid.circle * np.conj(w.w))) < 1.0
        assert np.all(np.isfinite(kernel_eval(grid.nodes, w, wp)))
        assert np.isfinite(reproduce(f, w, wp, grid))

    def test_memory_is_a_few_blocks_whatever_the_degree(self):
        # degree R - 4 > 500 bins: neither an R x M array (16 MiB) nor an
        # R x (deg f + 1) table of powers (4 MiB) may appear
        r, m = 512, 2048
        wp = WeightParam(0.5)
        grid = QuadratureGrid(wp, r, m)
        rng = np.random.default_rng(29)
        f = CoeffVector(rng.normal(size=r - 3) + 1j * rng.normal(size=r - 3))
        tracemalloc.start()
        try:
            reproduce(f, KernelPoint(0.3 - 0.2j), wp, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the real scratch (1.5 blocks), the kernel's transform buffer, the
        # folded terms and numpy's transform plan: 4.7 blocks of 16 Ki
        # complex values at the peak
        assert peak <= 6 * quadrature.BLOCK_POINTS * 16

    def test_rejects_coarse_grid(self):
        grid = QuadratureGrid(WeightParam(0.0), radial_points=8)
        with pytest.raises(ValueError):
            reproduce(CoeffVector(np.ones(10)), KernelPoint(0.1), WeightParam(0.0), grid)
