import json
import subprocess
import sys

import numpy as np
import pytest

from bergman11 import cli, verification
from bergman11.cli import ARGUMENTS, main
from bergman11.verification import FIELD_RULES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] is True for checks in report["suites"].values() for c in checks)
        assert sorted(report["suites"]) == [
            "disc_oracle",
            "discrete_series",
            "first_order_ops",
            "shift_iso",
            "su11_algebra",
            "uncertainty",
            "weight_core",
        ]

    def test_impossible_tolerance_fails_and_names_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "weight_core", "--tol-exact", "1e-30")
        assert code == 1
        report = json.loads(out)
        failed = [c["name"] for c in report["suites"]["weight_core"] if not c["passed"]]
        assert "norm_ratio_recurrence" in failed

    def test_large_group_product_passes(self, capsys):
        # exp_group_law builds elements with |alpha|^2 + |beta|^2 up to 3e8 at
        # this seed; the group law and determinant are judged relative to that
        # rounding scale, so the run neither crashes nor fails
        code, out, err = run(capsys, "verify", "--seed", "1744027778", "--suite", "su11_algebra")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["suites"]["su11_algebra"])

    def test_suite_filter(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "--suite", "su11_algebra")
        assert code == 0
        assert list(json.loads(out)["suites"]) == ["su11_algebra"]
        # a repeated flag selects its suite once and runs it once
        calls, suite = [], verification.SUITES["su11_algebra"]
        monkeypatch.setitem(verification.SUITES, "su11_algebra", lambda cfg: calls.append(cfg) or suite(cfg))
        assert run(capsys, "verify", "--suite", "su11_algebra", "--suite", "su11_algebra") == (0, out, "")
        assert len(calls) == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "uncertainty", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--suite", "uncertainty", "--seed", "7")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "su11_algebra", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,check,passed,margin,tolerance"
        assert all(line.startswith("su11_algebra,") for line in lines[1:])

    def test_out_file(self, capsys, tmp_path):
        # the file holds exactly what standard output would
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "su11_algebra", "--out", str(target))
        assert code == 0 and out == ""
        _, stdout, _ = run(capsys, "verify", "--suite", "su11_algebra")
        assert target.read_bytes() == stdout.encode()

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "verify", "--suite", "su11_algebra", "--out", str(target))
        assert code == 2 and err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_flag_beats_config_file_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nxi = 1.5\n")
        defaults = json.loads(run(capsys, "verify", "--suite", "su11_algebra")[1])["config"]
        for args in (["--seed", "5", "--config", str(cfg)], ["--config", str(cfg), "--seed", "5"]):
            code, out, _ = run(capsys, "verify", "--suite", "su11_algebra", *args)
            assert code == 0 and json.loads(out)["config"] == dict(defaults, seed=5, xi=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("xi", v) for v in ("-1", "-2.0", "99", "nan")]
        + [("trunc", "0"), ("quad_r", "4"), ("quad_r", "7"), ("quad_m", "47"), ("seed", "-1")]
        + [("trunc", "100001"), ("quad_r", "1101"), ("quad_m", "16385")]
        + [(f, v) for f in ("tol_exact", "tol_quad") for v in ("nan", "inf", "-1")],
    )
    def test_out_of_range_field_is_usage_error(self, capsys, tmp_path, field, value):
        # every RunConfig field, by flag and by --config, is checked by one rule that names the flag
        flag, cfg = "--" + field.replace("_", "-"), tmp_path / "run.cfg"
        cfg.write_text(f"{field} = {value}\n")
        for args in ([f"{flag}={value}"], ["--config", str(cfg)]):
            code, out, err = run(capsys, "verify", "--suite", "su11_algebra", *args)
            assert code == 2 and out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"error: {flag} must be {FIELD_RULES[field][2]}, got ")

    def test_unparsable_or_unreadable_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = abc\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith(f"error: {cfg}:2: ") and len(err.splitlines()) == 1
        code, out, err = run(capsys, "verify", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2 and out == "" and err.startswith("error: cannot read") and len(err.splitlines()) == 1

    def test_property_that_raises_fails_its_checks_in_a_parseable_report(self, capsys, monkeypatch):
        _, baseline, _ = run(capsys, "verify")

        def boom(*args):
            raise RuntimeError("scan failed")

        monkeypatch.setattr(verification.ops, "zhu_scan", boom)
        code, out, err = run(capsys, "verify")
        assert code == 1 and err == ""
        report, expected = json.loads(out), json.loads(baseline)
        (check,) = [c for c in report["suites"]["first_order_ops"] if c["name"] == "zhu_no_scalar_commutator"]
        assert np.isnan(check["margin"]) and check["passed"] is False
        assert check["detail"] == "RuntimeError: scan failed"
        for suite, checks in expected["suites"].items():
            unaffected = [c for c in checks if c["name"] != "zhu_no_scalar_commutator"]
            assert [c for c in report["suites"][suite] if c["name"] != "zhu_no_scalar_commutator"] == unaffected
        assert report["passed"] is False

    def test_config_file_rejects_unknown_key(self, capsys, tmp_path):
        # output format and path are flags, not part of the run's configuration
        cfg = tmp_path / "run.cfg"
        for line in ("bogus = 3", "fmt = csv", "out = report.json"):
            cfg.write_text(line + "\n")
            code, _, err = run(capsys, "verify", "--config", str(cfg))
            assert code == 2 and "unknown config key" in err


class TestUncertainty:
    def test_constant(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[[1.0, 0.0]]")
        code, out, _ = run(capsys, "uncertainty", str(f))
        result = json.loads(out)
        assert code == 0
        assert result["lhs"] == pytest.approx(2.0)
        assert result["rhs"] == pytest.approx(2.0)

    def test_linear(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[[0.0, 0.0], [1.0, 0.0]]")
        code, out, _ = run(capsys, "uncertainty", str(f))
        result = json.loads(out)
        assert result["lhs"] == pytest.approx(2.0)
        assert result["rhs"] == pytest.approx(4.0)

    def test_malformed_json_names_byte(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[[1.0, ")
        code, _, err = run(capsys, "uncertainty", str(f))
        assert code == 2 and "byte" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "uncertainty", str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read" in err

    def test_bare_numbers_and_pairs_parse(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text("[1, [0.0, 0.0], 0.5]")
        code, out, _ = run(capsys, "uncertainty", str(f))
        assert code == 0 and json.loads(out)["inputs"]["deg"] == 2
        f.write_text("[[0.0, 0.0], [1.0, 0.0]]")
        _, pairs, _ = run(capsys, "uncertainty", str(f))
        f.write_text("[0, 1]")
        _, bare, _ = run(capsys, "uncertainty", str(f))
        assert pairs == bare

    @pytest.mark.parametrize("text", ['{"a": 1}', "[[1.0, 0.0, 2.0]]", '["1.0"]'])
    def test_bad_coefficients_are_usage_errors(self, capsys, tmp_path, text):
        f = tmp_path / "f.json"
        f.write_text(text)
        code, out, err = run(capsys, "uncertainty", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestClassify:
    def test_non_real_a1(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"f": [[0, 0], [0, 1]], "g": [[0, 0]]}))
        code, out, _ = run(capsys, "classify", str(op))
        assert code == 0
        assert json.loads(out) == {"symmetric": False, "violation": "a1 not real"}

    def test_symmetric_form_extracted(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"f": [[1, 0], [0.5, 0], [1, 0]], "g": [[2, 0], [2, 0]]}))
        code, out, _ = run(capsys, "classify", str(op))
        result = json.loads(out)
        assert result["symmetric"] is True
        assert result["a0"] == [1.0, 0.0] and result["a1"] == 0.5 and result["b0"] == 2.0

    def test_missing_keys(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"f": [[1, 0]]}))
        code, _, err = run(capsys, "classify", str(op))
        assert code == 2


class TestRep:
    def test_example(self, capsys, tmp_path):
        abc = tmp_path / "abc.json"
        abc.write_text(json.dumps({"a": 2.0, "b": 2.0, "c": 0.0}))
        code, out, _ = run(capsys, "rep", str(abc))
        result = json.loads(out)
        assert code == 0
        assert result == {"sigma": 1.0, "tau": 0.0, "lambda": 0.0, "d": 0.0}

    def test_complex_c_as_pair(self, capsys, tmp_path):
        abc = tmp_path / "abc.json"
        abc.write_text(json.dumps({"a": 0.0, "b": 0.0, "c": [0.0, 1.0]}))
        code, out, _ = run(capsys, "rep", str(abc))
        assert json.loads(out)["tau"] == 1.0

    def test_non_real_a_is_usage_error(self, capsys, tmp_path):
        abc = tmp_path / "abc.json"
        abc.write_text(json.dumps({"a": [1, 2], "b": 0.0, "c": 0.0}))
        code, _, err = run(capsys, "rep", str(abc))
        assert code == 2 and "'a'" in err


class TestShift:
    def test_reference_constants(self, capsys):
        code, out, _ = run(capsys, "shift", "1.0", "0.0", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "xi,c_re,c_im,k_range,m,M"
        fields = lines[1].split(",")
        assert float(fields[4]) == pytest.approx(1.0)
        assert float(fields[5]) == pytest.approx(6.0)

    def test_singular_constant_is_usage_error(self, capsys):
        code, _, err = run(capsys, "shift", "0.0", "0.0", "64")
        assert code == 2


class TestKernel:
    def test_reports_both_constants(self, capsys):
        code, out, _ = run(capsys, "kernel", "--xi", "1.0")
        result = json.loads(out)
        assert code == 0
        assert result["derived_alpha"] == pytest.approx(1.0 / 3.0)
        assert result["derived_residual"] <= 1e-12
        assert result["printed_alpha"] == pytest.approx(2.0 / 3.0)
        assert result["printed_residual"] >= 1e-3

    def test_explicit_alpha(self, capsys):
        code, out, _ = run(capsys, "kernel", "--alpha", "0.5", "--xi", "0.0")
        result = json.loads(out)
        assert result["alpha"] == 0.5
        assert result["residual"] <= 1e-12

    def test_large_weight_residuals_are_relative(self, capsys):
        # relative to ||K_{xi+1}|| = 4.2e21 the derived constant leaves
        # rounding and the printed one 0.40
        code, out, _ = run(capsys, "kernel", "--xi", "98", "--trunc", "50000")
        assert code == 0
        result = json.loads(out)
        assert result["derived_residual"] <= 1e-12
        assert result["printed_residual"] == pytest.approx(0.4, rel=1e-6)

    def test_overflowing_coefficients_exit_2(self, capsys):
        # near |w| = 1 the coefficients themselves leave the double range
        code, out, err = run(capsys, "kernel", "--xi", "98", "--w", "0.999999999", "--trunc", "100000")
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "derived_residual" in lines[0] and "not finite" in lines[0]


# input files the invocations below name as {key}
FILES = {
    "f": "[[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]",
    "op": '{"f": [[1, 0], [0.5, 0], [1, 0]], "g": [[2, 0], [2, 0]]}',
    "abc": '{"a": 2.0, "b": 2.0, "c": 0.0}',
    "f_nan": "[1, NaN]",
    "op_inf": '{"f": [1, [0, -Infinity]], "g": [1]}',
    "abc_nan": '{"a": Infinity, "b": NaN, "c": 1}',
    "abc_c_nan": '{"a": 1, "b": 2, "c": [NaN, 0]}',
    "abc_big": '{"a": 1e308, "b": 1e308, "c": [1e308, 1e308]}',
}
# a valid invocation of each engine command, to which one bad argument is added
VALID = {
    "uncertainty": ["uncertainty", "{f}"],
    "classify": ["classify", "{op}"],
    "rep": ["rep", "{abc}"],
    "shift": ["shift", "1", "0", "5"],
    "kernel": ["kernel"],
}
# the out-of-range and non-finite values of each rule text in ARGUMENTS
BAD_VALUES = {
    "finite": ("nan", "inf", "-inf", "-nan"),
    "finite and >= 0": ("-1", "nan", "inf"),
    "in (-1, 100]": ("-1", "101", "nan"),
    "in (-1, 99]": ("-1", "99.5", "101", "nan"),
    "in (-1, 1)": ("1", "-1.5", "nan"),
    # 10^20 used to fail in numpy's arange with a message naming no argument
    "in [0, 1000000]": ("-5", "1000001", "100000000000000000000"),
    "in [1, 1000000]": ("0", "-1", "1000001", "100000000000000000000"),
}


def _rule_cases():
    for command, arguments in ARGUMENTS.items():
        positionals = [name for name, _, _ in arguments if not name.startswith("-")]
        for name, _, (_, _, rule) in arguments:
            for value in BAD_VALUES[rule]:
                argv = list(VALID[command])
                if name in positionals:
                    argv[1 + positionals.index(name)] = value
                else:
                    argv.append(f"{name}={value}")
                yield pytest.param(argv, f"{name} must be {rule}, got ", id=" ".join(argv))
    for argv, name in (
        (["uncertainty", "{f_nan}"], "[1]"),
        (["classify", "{op_inf}"], "'f'[1]"),
        (["rep", "{abc_nan}"], "'a'"),
        (["rep", "{abc_c_nan}"], "'c'"),
    ):
        yield pytest.param(argv, f"{name} must be ", id=" ".join(argv))


def run_files(capsys, tmp_path, argv):
    for key, text in FILES.items():
        (tmp_path / f"{key}.json").write_text(text)
    return run(capsys, *(arg.format(**{key: str(tmp_path / f"{key}.json") for key in FILES}) for arg in argv))


class TestInputBoundary:
    @pytest.mark.parametrize("argv, message", _rule_cases())
    def test_argument_outside_its_rule_exits_2(self, capsys, tmp_path, argv, message):
        # every command checks every argument by its rule before the engine runs
        code, out, err = run_files(capsys, tmp_path, argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert message in err and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, keys",
        [
            pytest.param(argv, keys, id=" ".join(argv))
            for argv, keys in (
                (["uncertainty", "{f}", "--w=1e308"], "rhs, slack"),
                (["shift", "1e200", "0", "5"], "M"),
                (["rep", "{abc_big}"], "d"),
            )
        ],
    )
    def test_result_outside_double_range_exits_2(self, capsys, tmp_path, argv, keys):
        # no overflow warning reaches stderr (pytest turns it into an error)
        code, out, err = run_files(capsys, tmp_path, argv)
        assert code == 2 and out == ""
        assert err == f"error: {keys} not finite: the result leaves the double range\n"

    def test_input_too_large_to_allocate_exits_2(self, capsys, monkeypatch):
        def too_large(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "frame_constants", too_large)
        code, out, err = run(capsys, "shift", "1", "0", "5")
        assert code == 2 and out == "" and err == "error: out of memory\n"

    @pytest.mark.parametrize("command", sorted(ARGUMENTS))
    def test_help_states_every_rule(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        for _, _, (what, _, rule) in ARGUMENTS[command]:
            assert f"{what}, {rule}" in " ".join(out.split())


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys) == (2, "", "error: the following arguments are required: command\n")
        assert run(capsys, "--help")[0] == 0

    def test_unknown_suite_rejected(self, capsys):
        # argparse's own errors print one line too: a bad choice or type, an
        # unknown flag, a missing positional
        for argv in (["verify", "--suite", "nope"], ["kernel", "--trunc", "nan"], ["verify", "--bogus"],
                     ["shift", "0", "5"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


class TestRuntimeDependencies:
    def test_import_and_verify_leave_scipy_unloaded(self):
        # numpy is the only runtime dependency; scipy is a test reference
        code = (
            "import sys, bergman11.cli as cli; "
            "assert 'scipy' not in sys.modules, 'import'; "
            "rc = cli.main(['verify']); "
            "assert 'scipy' not in sys.modules, 'verify'; sys.exit(rc)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "module, unloaded",
        [
            ("quadrature", ["operators", "representation", "uncertainty", "weightshift", "verification", "cli"]),
            ("operators", ["quadrature"]),
        ],
    )
    def test_a_module_loads_only_what_it_imports(self, module, unloaded):
        # the package binds no names, so importing one module runs only its own imports
        code = (
            f"import sys, bergman11.{module}; "
            f"print([m for m in {unloaded!r} if 'bergman11.' + m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
