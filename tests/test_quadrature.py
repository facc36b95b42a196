import functools
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special

from bergman11 import su11, verification
from bergman11.weights import CoeffVector, WeightParam, basis_scales
from bergman11.quadrature import KernelPoint, QuadratureGrid, gauss_jacobi, integrate, kernel_eval, reproduce
from bergman11 import quadrature


@pytest.fixture(scope="module")
def grid0():
    return QuadratureGrid(WeightParam(0.0))


def mirrored_circle(m):
    """exp(2 pi i j/M) for j <= M/2, with -1 at M/2, mirrored onto
    conj(omega_j) = omega_(M-j) for j > M/2."""
    j = np.arange(m)
    circle = np.exp(1j * (2.0 * np.pi * np.minimum(j, m - j) / m))
    circle[j == m / 2] = -1.0
    return np.where(j > m / 2, np.conj(circle), circle)


class TestGridConstruction:
    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            QuadratureGrid(WeightParam(0.0), radial_points=4)
        with pytest.raises(ValueError):
            QuadratureGrid(WeightParam(0.0), angular_points=8)

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
        assert max(held, peak) <= 128 * (r + m)

    @pytest.mark.parametrize("m", [16, 17, 256, 1001, 4096])
    def test_circle_is_mirrored_exactly(self, m):
        # reproduce reads circle[M - j] as conj(circle[j]); exp(2 pi i j/M)
        # rounds up to 12 u away from that
        circle = QuadratureGrid(WeightParam(0.0), 8, m).circle
        assert np.array_equal(circle[:0:-1], np.conj(circle[1:])) and circle[0] == 1
        assert np.array_equal(circle, mirrored_circle(m))

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
        for n in GJ_SIZES:
            s, w = gauss_jacobi(n, x)
            ref, _ = special.roots_jacobi(n, x, 0.0)
            assert np.max(np.abs((2.0 * s - 1.0) - ref)) <= 1e-14
            assert np.all(np.diff(s) > 0) and 0.0 < s[0] and s[-1] < 1.0
            # at xi = 98, n = 1024 the smallest weight is 1e-257
            assert np.all(np.isfinite(w)) and np.all(w > 0)

    @pytest.mark.parametrize("x", GJ_XIS + (1.0, 2.0))
    def test_radial_moments_exact(self, x):
        # the reference rule is rescaled to the exact mass, this one is not;
        # both must integrate s^j, j < 2n, to their rounding level
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
            assert f"z={grid0.radii[node[0]] * grid0.circle[node[1]]}" in str(err.value)

    def test_first_non_finite_node_named(self, grid0):
        # +inf and -inf cancel to NaN in the row sum; the scan names the first
        def bad(z):
            out = np.ones_like(z)
            out[5, 9] = np.inf
            out[5, 10] = -np.inf
            return out

        with pytest.raises(ValueError, match="node") as err:
            integrate(bad, grid0)
        assert f"z={grid0.radii[5] * grid0.circle[9]}" in str(err.value)

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
        # on a grid of one block, bit for bit
        rng = np.random.default_rng(11)
        samples = rng.normal(size=(64, 256)) + 1j * rng.normal(size=(64, 256))
        assert integrate(lambda z: samples, grid0) == one_pass(samples, grid0)

    def test_angular_exactness(self, grid0):
        for k in (1, 3, 100, 255):
            assert abs(np.mean(np.exp(1j * k * grid0.angles))) <= 1e-12


def one_pass(samples, grid):
    """The unblocked sum: full-grid samples cast to complex as integrate casts
    them (numpy sums real and complex rows in different orders), row sums,
    then the radial dot."""
    rows = np.sum(np.asarray(samples, dtype=np.complex128), axis=1)
    return complex(rows.real @ grid.radial_weights, rows.imag @ grid.radial_weights) / grid.angular_points


def grid_rows(grid, z):
    """The rows of the grid that the block ``z`` is, checked to be whole rows.

    The block is found by value: circle[0] == 1, so z[:, 0] is exactly the
    block's radii, and the radii are strictly increasing."""
    (start,) = np.flatnonzero(grid.radii == z[0, 0].real)
    rows = slice(start, start + z.shape[0])
    assert z.shape[1] == grid.angular_points and z.size <= max(quadrature.BLOCK_POINTS, grid.angular_points)
    assert np.array_equal(z, grid.radii[rows, None] * grid.circle)
    return rows


# (R, M) with several blocks: 24 rows a block and R not a multiple of it;
# 8 rows a block with M not a power of two; one row a block, 2M > BLOCK_POINTS
BLOCKED_SIZES = [(100, 1000), (37, 3000), (30, 20000)]


def assert_reproduce_is_the_pointwise_sum(f, w, wp, grid):
    """reproduce against integrate of conj(K_rho) f_phi at the nodes, with
    rho = |w| and f_phi(z) = f(e^(i phi) z), phi = arg w: the rotated rule,
    whose terms W_i/M conj(K_ij) f_phi(z_ij) reproduce sums in another order.

    Per row, Horner's rule, the product and the angular sum err by at most
    (2n + M + 2) u sum_j |K_ij| g_i, with g_i = sum_k |a_k| r_i^k, n = deg f + 1
    and u the unit roundoff; the transform (log2 M butterfly stages), the
    radial powers and the sum over the n bins by at most
    (4 log2 M + n + 4) u sum_j |K_ij| g_i.  The radial dot adds R u relative
    to the same absolute sum, and the factor sqrt 2 covers complex products.

    The routes also read different kernel values: the pointwise one forms
    b = 1 - (r omega) rho, reproduce b = 1 - r (rho omega).  With x = r rho and
    beta = |b|, each rounds b within (1 + 2 sqrt 2) u x + u beta of
    1 - r omega rho (the node or rho omega, a product, the subtraction),
    which moves b^-(xi+2) by (xi+2)(1 + 3.9 x/beta) u relative.  From its own
    b, each kernel then errs by at most (xi+2)(1 + 3 |log beta| + 3 |theta|) u
    + 12 u relative when every elementary function is within one ulp, and
    |theta| <= (pi/2) x/beta, |log beta| <= 2 x/beta.  The two kernels so
    differ by at most (xi+2)(4 + 30 x/beta) u + 24 u relative, summed against
    g.

    Both routes rotate f as a_k exp(i fl(phi) k): fl(phi) is within one ulp,
    2 pi u, of arg w and its product with k within pi k u, so the phase is
    within 3 pi k u of k phi; cos and sin within an ulp each add 2 u and the
    complex product with a_k sqrt 5 u.  Each rotated coefficient is so within
    (3 pi k + 5) u |a_k| of a_k e^(ik phi), and the two routes' within twice
    that, summed against |K| r^k.

    The pointwise route raises r omega_j to the k-th power, and the stored
    omega_j is up to 4.4 u from e^(2 pi ij/M) (against mpmath at M = 1000 and
    1001), whose powers the transform's twiddles stand for.  So its a_k z^k
    is within 4.4 k u |a_k| r^k more of the exact term: a_k weighted by 5k,
    summed against |K| r^k."""
    n, m = len(f.coeffs), grid.angular_points
    k = np.arange(n)
    rho = KernelPoint(abs(w.w))
    f_phi = CoeffVector(f.coeffs * np.exp(1j * np.angle(w.w) * k))
    pointwise = integrate(lambda z: np.conj(kernel_eval(z, rho, wp)) * f_phi(z), grid)
    g = CoeffVector(np.abs(f.coeffs))
    absolute = integrate(lambda z: np.abs(kernel_eval(z, rho, wp)) * g(np.abs(z)), grid).real
    # the same sum with each term weighted by x/beta = |z| rho / |1 - z rho|
    spread = integrate(
        lambda z: np.abs(kernel_eval(z, rho, wp)) * g(np.abs(z)) * np.abs(z * rho.w) / np.abs(1.0 - z * rho.w),
        grid,
    ).real
    # the same sum with a_k weighted by 2 (3 pi k + 5)
    rotated = CoeffVector(2.0 * (3.0 * np.pi * k + 5.0) * np.abs(f.coeffs))
    rotation = integrate(lambda z: np.abs(kernel_eval(z, rho, wp)) * rotated(np.abs(z)), grid).real
    # the same sum with a_k weighted by 5k
    powered = CoeffVector(5.0 * k * np.abs(f.coeffs))
    circle = integrate(lambda z: np.abs(kernel_eval(z, rho, wp)) * powered(np.abs(z)), grid).real
    u = np.finfo(float).eps / 2
    bound = np.sqrt(2.0) * (3 * n + m + 4 * np.log2(m) + grid.radial_points + 8) * u * absolute
    bound += ((wp.xi + 2.0) * (4.0 * absolute + 30.0 * spread) + 24.0 * absolute) * u
    bound += (rotation + circle) * u
    assert abs(reproduce(f, w, wp, grid) - pointwise) <= bound


def alias_bound(f, w, wp, grid):
    """sum_k |a_k| |w|^k sum_{j >= 1} c_(k+jM) |w|^(jM) Q[r^(2k+jM)], with
    c_n = (xi+2)_n/n! and Q the radial rule: the most by which the M-point
    angular rule's aliasing moves ``reproduce`` off f(w), for deg f < M.

    Summed row by row as W_i sum_k |a_k| r_i^k sum_{j >= 1} c_(k+jM) x_i^(k+jM)
    with x_i = r_i |w|, over n < N: N doubles until c_n x^n on the outermost
    row, the largest x, has fallen below e^-100 of its peak, after which the
    terms fall at least geometrically."""
    a, m = np.abs(f.coeffs), grid.angular_points
    assert len(a) <= m
    x = grid.radii * abs(w.w)
    count = 2
    while True:
        log_c = np.concatenate([[0.0], np.cumsum(np.log1p((wp.xi + 1.0) / np.arange(1, count * m)))])
        outer = log_c + np.arange(count * m) * np.log(x[-1])
        if outer[-1] < outer.max() - 100.0:
            break
        count *= 2
    # row j of the (count, M) table holds n = jM + k
    log_c = log_c.reshape(count, m)[1:, : len(a)]
    n = np.arange(1, count)[:, None] * m + np.arange(len(a))
    powers = np.arange(len(a))
    total = 0.0
    for r, xr, weight in zip(grid.radii, x, grid.radial_weights):
        total += weight * np.sum(a * r**powers * np.exp(log_c + n * np.log(xr)).sum(axis=0))
    return total


class TestBlockedIntegrate:
    @pytest.mark.parametrize("size", BLOCKED_SIZES)
    def test_bit_identical_to_one_pass(self, size):
        rng = np.random.default_rng(21)
        grid = QuadratureGrid(WeightParam(1.3), *size)
        f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
        assert grid.radial_points * grid.angular_points > quadrature.BLOCK_POINTS
        nodes = grid.radii[:, None] * grid.circle
        assert integrate(lambda z: np.abs(f(z)) ** 2, grid) == one_pass(np.abs(f(nodes)) ** 2, grid)
        samples = rng.normal(size=nodes.shape) + 1j * rng.normal(size=nodes.shape)
        assert integrate(lambda z: samples[grid_rows(grid, z)], grid) == one_pass(samples, grid)

    @pytest.mark.parametrize("size", BLOCKED_SIZES[:2])
    def test_reproduce_matches_unblocked_integrand(self, size):
        # the same finite sum as integrating conj(K) f node by node, in another order
        rng = np.random.default_rng(22)
        w = KernelPoint(0.5 - 0.4j)
        for x in (-0.9, 0.0, 2.5, 40.0, 98.0):
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, *size)
            f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
            assert_reproduce_is_the_pointwise_sum(f, w, wp, grid)

    @pytest.mark.parametrize("size", BLOCKED_SIZES + [(128, 512), (512, 2048)])
    def test_blocks_are_the_outer_product_bit_for_bit(self, size, pin_workers):
        pin_workers(2)
        grid = QuadratureGrid(WeightParam(0.7), *size)
        r, m = size
        outer = np.sqrt(grid.radial_nodes)[:, None] * mirrored_circle(m)[None, :]
        seen = []

        def record(z):
            rows = grid_rows(grid, z)
            assert z.tobytes() == outer[rows].tobytes()
            seen.append(rows)
            return np.ones_like(z)

        assert integrate(record, grid) == pytest.approx(1.0, abs=1e-12)
        # in whatever order the two halves of the walk called it, the integrand saw
        # each row once, in blocks of whole rows: at most BLOCK_POINTS nodes,
        # or one row
        seen.sort(key=lambda rows: rows.start)
        assert [rows.start for rows in seen] == [0] + [rows.stop for rows in seen[:-1]] and seen[-1].stop == r
        assert max(rows.stop - rows.start for rows in seen) <= max(1, quadrature.BLOCK_POINTS // m)
        # the full arrays, kept for the benchmark's tracer
        assert grid.nodes.tobytes() == outer.tobytes()
        assert np.array_equal(grid.weights, np.outer(grid.radial_weights / m, np.ones(m)))

    @pytest.mark.parametrize(
        "result, shape",
        [(lambda z: 1.0, "()"), (lambda z: z[0], "(1000,)"), (lambda z: z[:, :1], "(24, 1)")],
        ids=["scalar", "row", "column"],
    )
    def test_integrand_must_be_elementwise(self, result, shape):
        # a scalar, one row or one column is neither broadcast nor summed as a
        # block; the error is the first block's (24 rows), the caller's part
        grid = QuadratureGrid(WeightParam(0.0), 100, 1000)
        with pytest.raises(ValueError) as err:
            integrate(result, grid)
        assert str(err.value) == f"integrand gave shape {shape} on a block of shape (24, 1000)"


class TestParallelWalk:
    """integrate and reproduce walk their rows in two halves on two CPUs when
    the grid has more than one block; the tests pin the CPUs ``parts.run``
    sees (``pin_workers``)."""

    # the ids are those the three grids had when the test ran seven
    @pytest.mark.parametrize(
        "r, m, xis", [(100, 1000, (0.7,)), (37, 3000, (0.7,)), (64, 256, (-0.9, 0.0, 2.5, 40.0))], ids=["size0", "size1", "size4"]
    )
    def test_same_bits_at_any_worker_count(self, r, m, xis, monkeypatch, pin_workers, switch_often):
        # two grids of several default blocks, so of two halves, at one xi,
        # and verify's default grid (one block) from xi near -1 to 40; each in
        # blocks of one row, of 7 rows (halves that split a block) and of the
        # default, at one worker and at two.  Each
        # row is transformed and summed alone, so reproduce has the same bits
        # at every xi, and so has verify's |pi(g) f|^2, which writes into the
        # group action's own buffer
        rng = np.random.default_rng(31)
        f = CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25))
        w = KernelPoint(0.5 - 0.4j)
        g = su11.exp_at(verification._random_element(rng), 0.4)
        unitarity = functools.partial(verification._modulus_sq, g, verification._random_poly(rng, 12), WeightParam(2.0))
        for x in xis:
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, r, m)
            got = set()
            for points in (m, 7 * m, quadrature.BLOCK_POINTS):
                monkeypatch.setattr(quadrature, "BLOCK_POINTS", points)
                for count in (1, 2):
                    pin_workers(count)
                    values = [integrate(lambda z: np.abs(f(z)) ** 2, grid), reproduce(f, w, wp, grid)]
                    got.add(np.array([*values, integrate(unitarity, grid)]).tobytes())
            assert len(got) == 1

    def test_earlier_rows_error_wins(self, pin_workers):
        # first layout: row 5 is in the caller's part (rows 0-49), row 95 in
        # the helper's (rows 50-99); with a helper the caller's part is held
        # back, so the helper fails first, and still the serial walk's error
        # is raised.
        # Second layout: rows 0-49 are clean, and the NaN at row 50, in the
        # first block of the helper's part, comes before the inf at row 80,
        # in its second
        grid = QuadratureGrid(WeightParam(0.0), 100, 1000)
        for first, second in (((5, 7), (95, 3)), ((50, 7), (80, 3))):

            def two_bad_rows(z):
                rows = grid_rows(grid, z)
                if rows.start == 0 and count > 1:
                    time.sleep(0.05)
                out = np.ones_like(z)
                for (i, j), value in ((first, np.nan), (second, np.inf)):
                    if rows.start <= i < rows.stop:
                        out[i - rows.start, j] = value
                return out

            messages = []
            for count in (1, 2):
                pin_workers(count)
                with pytest.raises(ValueError) as err:
                    integrate(two_bad_rows, grid)
                messages.append(str(err.value))
            assert messages == [f"non-finite sample at quadrature node z={grid.radii[first[0]] * grid.circle[first[1]]}"] * 2

    def test_earlier_rows_overflow_wins_in_reproduce(self, pin_workers):
        # conj(K) f overflows on the outer rows, from row 106 on: in the second
        # 95-row block (of 257-value half rows) of the caller's half, rows
        # 0-127, and from the first block of the helper's, rows 128-255
        wp = WeightParam(98.0)
        grid = QuadratureGrid(wp, 256, 512)
        f, w = CoeffVector([1e290, 1e290]), KernelPoint(0.99)
        messages = []
        for count in (1, 2):
            pin_workers(count)
            with pytest.raises(ValueError, match="row of radius") as err:
                reproduce(f, w, wp, grid)
            messages.append(str(err.value))
        first_bad = np.flatnonzero(grid.radii == float(messages[0].rsplit("=", 1)[1]))[0]
        assert 95 <= first_bad < 128
        assert messages[0] == messages[1]

    def test_one_block_grids_start_no_thread(self, pin_workers, thread_starts):
        # verify's default grids, 64 x 256 and 96 x 256, are one block each in
        # integrate and in reproduce, so one part at any worker count
        pin_workers(2)
        f, wp = CoeffVector([1.0, 2.0, 3.0]), WeightParam(0.5)
        for r in (64, 96):
            grid = QuadratureGrid(wp, r, 256)
            assert integrate(f, grid) == pytest.approx(1.0, abs=1e-12)
            assert reproduce(f, KernelPoint(0.5), wp, grid) == pytest.approx(2.75, rel=1e-12)
        assert thread_starts == []
        # the count reaches the runner: 100 x 1000 is five blocks
        integrate(f, QuadratureGrid(wp, 100, 1000))
        assert len(thread_starts) == 1


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

    def test_overflow_raises(self):
        # |K| reaches 2.3e90 here, so conj(K) f overflows: a ValueError, never inf or NaN
        wp = WeightParam(98.0)
        grid = QuadratureGrid(wp, 64, 256)
        with pytest.raises(ValueError, match="non-finite"):
            reproduce(CoeffVector([1e250, 1e250]), KernelPoint(0.99), wp, grid)
        # at 1e215 every step stays finite, and so does the result
        assert np.isfinite(reproduce(CoeffVector([1e215, 1e215]), KernelPoint(0.99), wp, grid))

    def test_boundary_corner_is_inside_the_rotated_domain(self):
        # as xi -> -1 the last radius is 1 - 2^-53; at |w| = 1 - 2^-53 and this
        # angle some u_j = omega_j conj(w) rounds to modulus 1 + 2^-52, and
        # r |u_j| to 1: a domain check on those factors would reject w.  The
        # rotated kernel has Re b = 1 - r (|w| cos theta) >= 1 - |w| > 0: no
        # error, and a finite value
        wp = WeightParam(-1.0 + 1e-12)
        grid = QuadratureGrid(wp, 64, 16)
        f = CoeffVector([1.0])
        w = KernelPoint(-0.896872741532688 + 0.44228869021900163j)
        assert abs(w.w) == 1.0 - 2.0**-53
        assert grid.radii[-1] * np.max(np.abs(grid.circle * np.conj(w.w))) >= 1.0
        assert np.isfinite(reproduce(f, w, wp, grid))
        # kernel_eval keeps its own check, and no node rounds past |z| = 1
        with pytest.raises(ValueError, match=r"requires \|z conj\(w\)\| < 1"):
            kernel_eval(2.0, KernelPoint(0.5), wp)
        nodes = grid.radii[:, None] * grid.circle
        assert np.all(np.isfinite(kernel_eval(nodes, w, wp)))
        # on the real axis too
        w = KernelPoint(1.0 - 2.0**-53)
        assert np.all(np.isfinite(kernel_eval(nodes, w, wp)))
        assert np.isfinite(reproduce(f, w, wp, grid))

    def test_memory_is_a_few_blocks_whatever_the_degree(self, pin_workers):
        # degree R - 4 > 500 bins: neither an R x M array (16 MiB) nor an
        # R x (deg f + 1) table of powers (4 MiB) may appear
        r, m = 512, 2048
        wp = WeightParam(0.5)
        grid = QuadratureGrid(wp, r, m)
        rng = np.random.default_rng(29)
        f = CoeffVector(rng.normal(size=r - 3) + 1j * rng.normal(size=r - 3))
        # each part of the walk holds the real scratch (1.5 blocks, which
        # also takes the real bins), the kernel's buffer and the folded terms,
        # and numpy's transform plan comes on top: 3.6 blocks of complex
        # values at the peak with one part, 7.0 with two
        for workers in (1, 2):
            pin_workers(workers)
            tracemalloc.start()
            try:
                reproduce(f, KernelPoint(0.3 - 0.2j), wp, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= workers * 6 * quadrature.BLOCK_POINTS * 16

    def test_alias_bound_exceeds_one_on_a_coarse_grid_near_the_boundary(self):
        # f = 1, xi = -1 + 1e-12, 64 x 16 and |w| = 1 - 2^-53: the last radius
        # is 1 - 2^-53 too and carries almost all the weight.  Every
        # c_n = prod_{m <= n} (1 + (xi+1)/m) lies in [1, 1 + 1e-10] for
        # n < 1e18, and the terms past 1e18 are below e^-200 of the first,
        # so the bound is sum_i W_i y_i/(1 - y_i), y_i = (r_i |w|)^M, within
        # 1e-10 relative.  1 - r_i |w| and 1 - y_i are formed without
        # cancellation.
        wp = WeightParam(-1.0 + 1e-12)
        grid = QuadratureGrid(wp, 64, 16)
        m, w = grid.angular_points, 1.0 - 2.0**-53
        gap = (1.0 - grid.radii) + (1.0 - w) - (1.0 - grid.radii) * (1.0 - w)
        y_gap = -np.expm1(m * np.log1p(-gap))
        bound = np.sum(grid.radial_weights * (1.0 - y_gap) / y_gap)
        assert bound >= 1.0
        # reproduce returns finite values this far from f(w) = 1, without an
        # error; f = 1 is its own rotation, so at every angle every aliased
        # term is positive and the error is the bound itself
        f = CoeffVector([1.0])
        for point in (w, w * 1j, -w):
            value = reproduce(f, KernelPoint(point), wp, grid)
            assert np.isfinite(value) and value - 1.0 == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("size", [(128, 512), (512, 2048)])
    def test_reproduce_meets_its_alias_bound(self, size):
        # on disc_oracle_scale's grids at |w| = 0.995, where the aliasing is
        # far above rounding: the error is within the bound, and equal to it
        # when w > 0 and every a_k >= 0.  The rounding allowance is that of
        # assert_reproduce_is_the_pointwise_sum, with each row's kernel at
        # its largest modulus (1 - r_i |w|)^-(xi+2)
        rng = np.random.default_rng(41)
        u = np.finfo(float).eps / 2
        r, m = size
        for x in (-0.5, 0.0, 2.5):
            wp = WeightParam(x)
            grid = QuadratureGrid(wp, r, m)
            for f, w in (
                (CoeffVector(np.abs(rng.normal(size=25))), KernelPoint(0.995)),
                (CoeffVector(rng.normal(size=25) + 1j * rng.normal(size=25)), KernelPoint(0.995 * np.exp(2j))),
            ):
                n = len(f.coeffs)
                near = grid.radii * abs(w.w)
                peak = (1.0 - near) ** -(x + 2.0)
                absolute = np.sum(grid.radial_weights * CoeffVector(np.abs(f.coeffs))(grid.radii).real * peak)
                spread = np.max(near / (1.0 - near))
                allowance = np.sqrt(2.0) * (3 * n + m + 4 * np.log2(m) + r + 8) * u * absolute
                allowance += ((x + 2.0) * (4.0 + 30.0 * spread) + 24.0) * u * absolute
                bound = alias_bound(f, w, wp, grid)
                assert bound > 1e3 * allowance
                error = reproduce(f, w, wp, grid) - f(w.w)
                assert abs(error) <= bound + allowance
                if w.w.imag == 0:
                    assert abs(error - bound) <= allowance

    def test_rejects_coarse_grid(self):
        # deg f <= R - 4 and deg f < M, the preconditions of the resolution
        # limit: degree M - 1 still matches the pointwise sum at an even and
        # an odd M, and degrees 16 and 40 on 16 angles raise
        rng = np.random.default_rng(23)
        wp, w = WeightParam(0.5), KernelPoint(0.6 + 0.3j)
        for m in (16, 17):
            f = CoeffVector(rng.normal(size=m) + 1j * rng.normal(size=m))
            assert_reproduce_is_the_pointwise_sum(f, w, wp, QuadratureGrid(wp, 64, m))
        for degree, size in ((9, (8, 256)), (16, (64, 16)), (40, (64, 16))):
            with pytest.raises(ValueError, match=f"{size[0]} x {size[1]} points too coarse for degree {degree}"):
                reproduce(CoeffVector(np.ones(degree + 1)), w, wp, QuadratureGrid(wp, *size))
