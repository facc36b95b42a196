"""Tests of the benchmark itself: gates count tampered outputs as failed, and the
span recorder wraps and restores the package correctly.

    python -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK, WRONG  # noqa: E402


def _report(passed: bool) -> bytes:
    return (json.dumps({"suites": {}, "passed": passed}) + "\n").encode()


@pytest.mark.parametrize(
    "output, expected",
    [
        ((0, _report(True), b""), OK),
        ((1, _report(False), b""), FAILED),
        ((2, b"", b"error: bad\n"), FAILED),
        ((None, b"", b""), FAILED),
        # tampered: the exit code and the report disagree, or the report is garbage
        ((0, _report(False), b""), WRONG),
        ((0, b'{"passed": tru', b""), WRONG),
        ((1, _report(True), b""), WRONG),
    ],
)
def test_verify_gate(output, expected):
    assert workloads.VerifyCli.gate(1, output)[0] == expected


def test_verify_failures_are_named():
    checks = [{"name": "exp_determinant", "passed": "False"}, {"name": "exp_group_law", "passed": "True"}]
    report = {"suites": {"su11_algebra": checks}, "passed": False}
    detail = workloads.VerifyCli.gate(1, (1, json.dumps(report).encode(), b""))[1]
    assert detail == "exit 1: su11_algebra/exp_determinant"
    err = b"error: |alpha|^2 - |beta|^2 = 1.0000000596046448, not within 1e-8 of 1\n"
    detail = workloads.VerifyCli.gate(1, (2, b"", err))[1]
    assert detail == "exit 2: error: |alpha|^N - |beta|^N = N, not within N of N"


def test_verify_ops_are_the_default_command_and_the_survey_counts_every_seed(monkeypatch):
    wl = workloads.make_workload("verify_cli", run.ROOT)
    assert wl.make_input(5, 0) == wl.make_input(6, 9) == ("verify",)
    seen = []

    def fake_verify(argv):
        seen.append(argv)
        return (1, _report(False), b"") if len(seen) % 2 else (0, _report(True), b"")

    monkeypatch.setattr(wl, "run_inprocess", fake_verify)
    outcomes = wl.survey(5)
    assert seen == [wl.survey_input(5, j) for j in range(wl.survey_size)]
    assert len(set(seen)) == wl.survey_size
    assert seen != [wl.survey_input(6, j) for j in range(wl.survey_size)]
    assert run._counts(outcomes)[:2] == (wl.survey_size, wl.survey_size // 2)


def _small(wl, n_or_grid):
    inp = wl.make_input(3, 0)
    if isinstance(wl, workloads.OperatorScale):
        inp["n"] = n_or_grid
    else:
        inp["r"], inp["m"] = n_or_grid
    return inp


def test_operator_gate_passes_and_catches_tampering():
    wl = workloads.OperatorScale()
    inp = _small(wl, 24)
    comm, bracket, tri, gram = wl.run(inp)
    assert wl.gate(inp, (comm, bracket, tri, gram)) == (OK, "")
    for k in range(4):
        out = [m.copy() for m in (comm, bracket, tri, gram)]
        out[k][3, 5] += 1e-6 * (1 + abs(out[k][3, 5]))
        assert wl.gate(inp, tuple(out))[0] == WRONG
    assert wl.gate(inp, (comm[:-1], bracket, tri, gram))[0] == WRONG


def test_disc_gate_passes_and_catches_tampering():
    wl = workloads.DiscOracleScale()
    inp = _small(wl, (32, 64))
    norm_sq, value = wl.run(inp)
    assert wl.gate(inp, (norm_sq, value)) == (OK, "")
    assert wl.gate(inp, (norm_sq * (1 + 1e-5), value))[0] == WRONG
    assert wl.gate(inp, (norm_sq, value + 1e-5 * abs(value)))[0] == WRONG


def test_tampered_and_raising_ops_count_as_failed():
    wl = workloads.OperatorScale()
    inputs = [_small(wl, 16) for _ in range(3)]

    def tampered(inp):
        comm, bracket, tri, gram = wl.run(inp)
        return comm + 1e-3, bracket, tri, gram

    def raising(inp):
        raise RuntimeError("boom")

    for fn, outcome in ((wl.run, OK), (tampered, WRONG), (raising, FAILED)):
        got, times, outcomes, _ = run.run_ops(wl, 3, 0.0, run=fn, inputs=inputs)
        assert got == inputs and len(times) == 3
        assert [o for o, _ in outcomes] == [outcome] * 3
        attempted, failed, wrong = run._counts(outcomes)
        assert attempted == 3
        assert failed == (0 if outcome == OK else 3)
        assert len(wrong) == (3 if outcome == WRONG else 0)


def test_inputs_depend_only_on_seed_and_index():
    for wl in (workloads.OperatorScale(), workloads.DiscOracleScale()):
        a, b = wl.make_input(5, 7), wl.make_input(5, 7)
        assert repr(a) == repr(b)
        assert repr(a) != repr(wl.make_input(6, 7))
        assert all(workloads.XI_LO < wl.make_input(5, i)["xi"] <= workloads.XI_HI for i in range(50))


def test_instrument_wraps_every_binding_once_and_restores():
    from bergman11 import operators, verification, weights

    before = (weights.basis_scales, operators.apply, verification.SUITES["uncertainty"])
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert weights.basis_scales is operators.basis_scales
        assert weights.basis_scales.__wrapped__ is before[0]
        wl = workloads.OperatorScale()
        inp = _small(wl, 8)
        tracer.op_index = 0
        tracer.wrap("bench.op", wl.run)(inp)
    finally:
        restore()
    assert (weights.basis_scales, operators.apply, verification.SUITES["uncertainty"]) == before

    stats = tracer.per_name()
    assert stats["operators.commutator_matrix"][0] == 1
    assert stats["operators.gram_matrix"][0] == 2
    # 4 applications per commutator column, 1 per Gram column, 9 columns each
    assert stats["operators.apply"][0] == 9 * 4 + 2 * 9
    for calls, incl, self_t in stats.values():
        assert 0.0 <= self_t <= incl + 1e-12
    op_calls, op_incl, op_self = stats["bench.op"]
    assert op_self < op_incl
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["operators.apply_per_column"][0] == pytest.approx(54 / 36)
    assert metrics["operators.dense_bytes_computed"][0] == 9 * 9 * 16
    assert set(m for m, _ in spans.PER_LAYER) >= set(metrics)


def test_missing_sources_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", Path(__file__).resolve().parent / "no-such-checkout")
    with pytest.raises(SystemExit) as exc:
        run._load_program()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
