import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from bergman11 import reporting, verification
from bergman11.verification import REGISTRY, SUITES, RunConfig, run_suites

# every check of the default ``verify`` report, by suite, in report order
DEFAULT_CHECKS = {
    "disc_oracle": "probability_measure radial_exactness angular_exactness kernel_series_consistency "
    "reproducing_identity_spot",
    "discrete_series": "derivative_richardson_order derived_op_skew_symmetry xnorm_two_route norm_sandwich "
    "unitarity_integer_weight homomorphism_integer_weight",
    "first_order_ops": "classification_iff_hermitian tridiagonal_equals_gram rep_decomposition_roundtrip "
    "i_rep_plus_d_hermitian commutator_bracket_compat zhu_no_scalar_commutator",
    "shift_iso": "frame_sandwich shift_roundtrip monotone_tail kernel_shift_derived_constant "
    "kernel_shift_printed_constant_fails surjectivity_c_zero",
    "su11_algebra": "bracket_WY_is_minus_2X W_equals_Z_minus_X jacobi_and_coords_roundtrip exp_group_law "
    "exp_determinant",
    "uncertainty": "uncertainty_slack_nonnegative equality_at_constants two_route_consistency optimal_shift_slack",
    "weight_core": "norm_ratio_recurrence shift_limit_monotone oracle_equivalence_monomials sobolev_norm_equivalence",
}


def _bench_suite_names():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    prefix = "verification.suite."
    return {span[len(prefix) :] for _, _, span, _ in spans.SPAN_METRICS if span.startswith(prefix)}


class TestRegistry:
    def test_suites_are_the_benchmarked_plain_functions(self):
        assert set(SUITES) == _bench_suite_names() == set(DEFAULT_CHECKS)
        assert all(inspect.isfunction(fn) for fn in SUITES.values())

    def test_each_default_check_comes_from_one_property(self):
        expected = {s: names.split() for s, names in DEFAULT_CHECKS.items()}
        owners = [(name, p.suite) for p in REGISTRY for name in p.checks]
        assert sorted(owners) == sorted((n, s) for s, names in expected.items() for n in names)
        report = run_suites(RunConfig())
        assert {s: [c["name"] for c in cs] for s, cs in report["suites"].items()} == expected


@pytest.mark.parametrize("xi", [-0.99, -0.999])
def test_shift_iso_passes_near_minus_one(xi):
    report = run_suites(RunConfig(xi=xi), ["shift_iso"])
    assert report["passed"], report["suites"]["shift_iso"]


@pytest.mark.parametrize("xi", [-0.99, 0.0, 2.4, 5.5, 10.0, 98.0])
def test_sobolev_equivalence_bounds_include_the_constant_mode(xi):
    # over k >= 0 the mode ratios are 1 and k/(k+xi+1), so M = 1 and m = 1/(xi+2);
    # random samples sit strictly inside, so the largest relative excess is < 0
    prop = next(p for p in REGISTRY if p.fn.__name__ == "sobolev_norm_equivalence")
    cfg = RunConfig(xi=xi)
    (check,) = prop.fn(cfg, np.random.default_rng(cfg.seed), prop.recipe)
    assert check.tolerance == 1e-12 and check.passed
    assert -1.0 < check.margin < 0.0
    assert check.detail == f"m={1.0 / (xi + 2.0):.6g} M=1"


def test_dumps_converts_numpy_and_dataclasses_and_rejects_the_rest():
    @dataclasses.dataclass
    class Point:
        x: float
        ok: bool

    text = reporting.dumps({"p": Point(np.float64(0.5), np.bool_(True)), "n": np.int64(3)}, indent=None)
    assert text == '{"p": {"x": 0.5, "ok": true}, "n": 3}'
    with pytest.raises(TypeError):
        reporting.dumps({"f": object()})


@pytest.mark.parametrize("name", ["uncertainty_inequality", "norm_sandwich"])
def test_batched_properties_draw_in_per_sample_order(name):
    # each row is drawn (degree, then coefficients) as the one-at-a-time loop
    # drew it, so batching re-draws no sample
    prop = next(p for p in REGISTRY if p.fn.__name__ == name)
    for recipe in (prop.recipe, prop.criterion.recipe):
        cfg = RunConfig()
        rng_loop, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
        loop = [
            (x, verification._random_poly(rng_loop, verification._degree(rng_loop, recipe)))
            for x in verification._xi_draws(cfg, rng_loop, recipe)
        ]
        rows = [(x, row) for x, batch in verification._poly_batches(cfg, rng_batch, recipe) for row in batch]
        assert len(rows) == len(loop)
        for (x_row, row), (x_loop, f) in zip(rows, loop):
            assert x_row == x_loop and np.array_equal(row, f.padded(recipe.degree))
        assert rng_batch.bit_generator.state == rng_loop.bit_generator.state


def test_run_builds_each_distinct_grid_once_and_keeps_none(monkeypatch):
    # a default run asks for 12 grids over 8 distinct (xi, R, M)
    built = []
    init = verification.quad.QuadratureGrid.__init__

    def counting_init(self, xi, radial_points, angular_points):
        built.append((xi.xi, radial_points, angular_points))
        init(self, xi, radial_points, angular_points)

    monkeypatch.setattr(verification.quad.QuadratureGrid, "__init__", counting_init)
    verification._shared_grid.cache_clear()
    run_suites(RunConfig())
    assert len(built) == len(set(built)) == 8
    assert verification._shared_grid.cache_info().currsize == 0
