import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from bergman11 import reporting, verification
from bergman11.verification import REGISTRY, SUITES, Property, PropertyCheck, RunConfig, run_property, run_suites

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
    "weight_core": "norm_ratio_recurrence shift_limit_monotone shift_limit_bound oracle_equivalence_monomials "
    "sobolev_norm_equivalence",
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


def _domain_draws(count, rng):
    """Configurations drawn from every field's documented range."""
    for i in range(count):
        fields = dict(xi=float(rng.uniform(-1.0, 98.0)), trunc=int(rng.integers(1, 65)))
        fields.update(quad_r=int(rng.integers(8, 129)), quad_m=int(rng.integers(48, 513)), seed=int(rng.integers(0, 2**31)))
        yield pytest.param(fields, id=f"draw-{i}")


# each property that runs at cfg.xi alone (derived_op_skew_symmetry, commutator_bracket_compat,
# kernel_series_consistency, frame_sandwich, ...) is tested at every one of these xi
SWEEP_XIS = (-0.999, -0.99, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.35, 2.4, 4.5, 5.0, 10.0, 40.0, 98.0)


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({field: value}, id=f"{field}-{value}")
        for field, value in [("xi", x) for x in SWEEP_XIS]
        + [("quad_r", 8), ("trunc", 1)] + [("xi", x) for x in (-1.0 + 1e-12, -0.999997, -0.999999)]
    ]
    + [pytest.param({"xi": -1.0 + 1e-12, "quad_r": 128}, id=f"xi-{-1.0 + 1e-12}-quad_r-128")]
    + list(_domain_draws(8, np.random.default_rng(13))),
)
def test_verify_passes_over_its_domain_by_the_reported_margins(fields):
    # the documented domain is -1 < xi <= 98; a check passes iff margin <= tolerance.
    # xi = -0.99 ... -1 + 1e-12 run every suite, shift_iso included, near xi = -1,
    # where disc nodes round onto |z| = 1 and monotone_tail's steps are rounding noise
    report = run_suites(RunConfig(**fields))
    checks = [c for cs in report["suites"].values() for c in cs]
    assert all(c["passed"] == (c["margin"] <= c["tolerance"]) for c in checks)
    assert report["passed"], [c for c in checks if not c["passed"]]


@pytest.mark.parametrize("xi", [-0.99, 0.0, 2.4, 5.5, 10.0, 98.0])
def test_sobolev_equivalence_bounds_include_the_constant_mode(xi):
    # over k >= 0 the mode ratios are 1 and k/(k+xi+1), so M = 1 and m = 1/(xi+2);
    # random samples sit strictly inside, so the largest relative excess is < 0
    prop = next(p for p in REGISTRY if p.fn.__name__ == "sobolev_norm_equivalence")
    cfg = RunConfig(xi=xi)
    (check,) = run_property(prop, cfg, np.random.default_rng(cfg.seed))
    assert check.tolerance == 1e-12 and check.passed
    assert -1.0 < check.margin < 0.0
    assert check.detail == f"m={1.0 / (xi + 2.0):.6g} M=1"


def test_run_property_reduces_exactly_the_registered_checks():
    def prop(*yielded):
        return Property(lambda cfg, rng, recipe: iter(yielded), "weight_core", {"a": "tol_exact", "b": 2.5})

    checks = run_property(prop(("b", np.arange(4.0), "first"), ("a", -2.0), ("b", 2.0, "last")), RunConfig(), None)
    assert checks == [PropertyCheck("a", True, -2.0, 1e-10), PropertyCheck("b", False, 3.0, 2.5, "last")]
    for yielded in [("a", 0.0), ("b", 0.0), ("c", 0.0)], [("a", 0.0)]:  # an unregistered check; one never yielded
        with pytest.raises(KeyError):
            run_property(prop(*yielded), RunConfig(), None)


def test_a_nan_in_a_later_sample_fails_its_check(monkeypatch):
    # a running max(worst, nan) returns worst, so it dropped the third sample's NaN;
    # unitarity_integer_weight yields once per sample, one integral each
    integrate, calls = verification.quad.integrate, []

    def nan_in_third(F, grid):
        calls.append(grid)
        return complex(np.nan) if len(calls) == 3 else integrate(F, grid)

    monkeypatch.setattr(verification.quad, "integrate", nan_in_third)
    report = run_suites(RunConfig(), ["discrete_series"])
    (check,) = [c for c in report["suites"]["discrete_series"] if c["name"] == "unitarity_integer_weight"]
    assert np.isnan(check["margin"]) and check["passed"] is False
    assert report["passed"] is False


def test_dumps_converts_numpy_scalars_and_rejects_the_rest():
    text = reporting.dumps({"p": [np.float64(0.1), np.bool_(True), 0.1], "n": np.int64(3)})
    assert json.loads(text) == {"p": [0.1, True, 0.1], "n": 3}
    assert text.count("0.10000000000000001") == 2
    # non-finite floats as Python's json writes and reads them
    text = reporting.dumps([np.nan, np.inf, -np.inf])
    assert text == "[\n  NaN,\n  Infinity,\n  -Infinity\n]"
    assert np.array_equal(json.loads(text), [np.nan, np.inf, -np.inf], equal_nan=True)

    @dataclasses.dataclass
    class Point:
        x: float

    for value in (object(), Point(0.5), 1 + 2j, np.complex128(1j)):
        with pytest.raises(TypeError):
            reporting.dumps({"f": value})


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
