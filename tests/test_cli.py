import json

import pytest

from bergman11.cli import main


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

    def test_suite_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "su11_algebra")
        assert code == 0
        assert list(json.loads(out)["suites"]) == ["su11_algebra"]

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

    def test_zero_trunc_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--trunc", "0")
        assert code == 2 and "--trunc" in err

    def test_xi_above_verify_range_names_the_range(self, capsys):
        code, _, err = run(capsys, "verify", "--xi", "99")
        assert code == 2 and "--xi" in err and "98" in err and "101" not in err

    def test_config_file_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ntol_exact = 1e-30\n")
        code, out, _ = run(
            capsys, "verify", "--suite", "weight_core", "--config", str(cfg)
        )
        assert code == 1

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

    def test_negative_k_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "shift", "1", "0", "-5")
        assert code == 2 and "k_range" in err


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

    def test_negative_trunc_is_usage_error(self, capsys):
        code, _, err = run(capsys, "kernel", "--trunc", "-1")
        assert code == 2 and "--trunc" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_suite_rejected(self, capsys):
        assert run(capsys, "verify", "--suite", "nope")[0] == 2

    def test_bad_xi(self, capsys):
        code, _, err = run(capsys, "verify", "--xi", "-2.0")
        assert code == 2
