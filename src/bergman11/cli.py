"""Command-line front end.

Subcommands: ``verify`` (run property suites, exit 0 iff all pass),
``uncertainty``, ``classify``, ``rep``, ``shift``, ``kernel``.  Exit codes:
0 pass, 1 violated property, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import reporting
from .operators import FirstOrderOp, classify_symmetric, to_rep
from .quadrature import KernelPoint
from .uncertainty import soltani_up
from .verification import FIELD_RULES, RunConfig, SUITES, run_suites
from .weights import CoeffVector, WeightParam
from .weightshift import ShiftOp, frame_constants, kernel_shift_residual


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bergman11")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    # one flag per RunConfig field; a flag not given leaves its field to --config or the default
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=argparse.SUPPRESS,
                       help=f"{FIELD_RULES[f.name][0]}, {FIELD_RULES[f.name][2]} (default {f.default})")
    p.add_argument("--config", default=None, help="optional key=value file of fields; a given flag beats it")
    p.add_argument("--suite", action="append", choices=sorted(SUITES), default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("uncertainty", help="evaluate the uncertainty inequality")
    p.add_argument("f_file", help="JSON coefficient file ([re,im] pairs)")
    p.add_argument("--w", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=0.0)

    p = sub.add_parser("classify", help="classify a first-order operator")
    p.add_argument("op_file", help='JSON {"f": [...], "g": [...]}')
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("rep", help="decompose (c z^2 + a z + conj(c)) d/dz + ((xi+2) c z + b)")
    p.add_argument("abc_file", help='JSON {"a": real, "b": real, "c": [re, im] or real}')
    p.add_argument("--xi", type=float, default=0.0)

    p = sub.add_parser("shift", help="frame constants of z d/dz + c")
    p.add_argument("c_re", type=float)
    p.add_argument("xi", type=float)
    p.add_argument("k_range", type=int)
    p.add_argument("--c-im", type=float, default=0.0)

    p = sub.add_parser("kernel", help="step-one kernel shift residual")
    p.add_argument("--alpha", type=float, default=None, help="default: the derived 1/(xi+2)")
    p.add_argument("--w", type=float, default=0.4)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--trunc", type=int, default=60)
    return parser


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")


def _load_config_file(path: str) -> dict:
    values, casts = {}, {f.name: type(f.default) for f in fields(RunConfig)}
    for line_no, line in enumerate(_read_text(path).splitlines(), 1):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not key or key.startswith("#"):
            continue
        if not eq or key not in casts:
            problem = f"unknown config key {key!r}" if eq else f"expected key=value, got {line.strip()!r}"
            raise ValueError(f"{path}:{line_no}: {problem}")
        try:
            values[key] = casts[key](value)
        except ValueError as e:  # a value that does not parse
            raise ValueError(f"{path}:{line_no}: {e}") from None
    return values


def _read_json_file(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at byte {e.pos}: {e.msg}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coeff_vector(data) -> CoeffVector:
    """A JSON array of numbers or [re, im] pairs, index = degree."""
    if not isinstance(data, list):
        raise ValueError(f"coefficient data must be a JSON array, got {data!r}")
    return CoeffVector([_complex_field(entry) for entry in data])


def _real_field(data: dict, key: str) -> float:
    value = data[key]
    if not _is_real(value):
        raise ValueError(f"{key!r}: expected a real number, got {value!r}")
    return float(value)


def _complex_field(value) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(map(_is_real, parts)):
        raise ValueError(f"expected number or [re, im] pair, got {value!r}")
    return complex(*parts)


def cmd_verify(args) -> int:
    # a given flag beats the --config file, which beats the field default
    values = _load_config_file(args.config) if args.config else {}
    values.update((f.name, getattr(args, f.name)) for f in fields(RunConfig) if hasattr(args, f.name))
    cfg = RunConfig(**values)
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise ValueError(f"cannot write {args.out}: {e.strerror}")
    with out as fh:
        report = run_suites(cfg, args.suite)
        if args.format == "json":
            fh.write(reporting.dumps(report) + "\n")
        else:
            fh.write("suite,check,passed,margin,tolerance\n")
            for suite, checks in report["suites"].items():
                for c in checks:
                    row = [suite, c["name"], int(c["passed"]), c["margin"], c["tolerance"]]
                    fh.write(reporting.csv_row(row) + "\n")
    return 0 if report["passed"] else 1


def cmd_uncertainty(args) -> int:
    f = _coeff_vector(_read_json_file(args.f_file))
    r = soltani_up(f, args.w, args.y, WeightParam(args.xi))
    print(reporting.dumps({"lhs": r.lhs, "rhs": r.rhs, "slack": r.slack, "inputs": r.inputs}))
    return 0


def cmd_classify(args) -> int:
    data = _read_json_file(args.op_file)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise ValueError(f'{args.op_file}: expected {{"f": [...], "g": [...]}}')
    op = FirstOrderOp(_coeff_vector(data["f"]), _coeff_vector(data["g"]))
    verdict = classify_symmetric(op, WeightParam(args.xi), args.tol)
    if verdict.symmetric:
        a0 = complex(verdict.form.a0)
        result = {"symmetric": True, "a0": [a0.real, a0.imag], "a1": verdict.form.a1, "b0": verdict.form.b0}
    else:
        result = {"symmetric": False, "violation": verdict.violation}
    print(reporting.dumps(result))
    return 0


def cmd_rep(args) -> int:
    data = _read_json_file(args.abc_file)
    if not isinstance(data, dict) or not {"a", "b", "c"} <= set(data):
        raise ValueError(f'{args.abc_file}: expected {{"a": .., "b": .., "c": ..}}')
    dec = to_rep(_real_field(data, "a"), _real_field(data, "b"), _complex_field(data["c"]), WeightParam(args.xi))
    c = dec.coords
    print(reporting.dumps({"sigma": c.sigma, "tau": c.tau, "lambda": c.lam, "d": dec.d}))
    return 0


def cmd_shift(args) -> int:
    if args.k_range < 0:
        raise ValueError(f"k_range must be >= 0, got {args.k_range}")
    op = ShiftOp(complex(args.c_re, args.c_im))
    fc = frame_constants(op, WeightParam(args.xi), args.k_range)
    print("xi,c_re,c_im,k_range,m,M")
    print(reporting.csv_row([args.xi, args.c_re, args.c_im, fc.k_range, fc.m, fc.M]))
    return 0


def cmd_kernel(args) -> int:
    if args.trunc < 1:
        raise ValueError(f"--trunc must be >= 1, got {args.trunc}")
    wp = WeightParam(args.xi)
    w = KernelPoint(args.w)
    derived = 1.0 / (wp.xi + 2.0)
    printed = 2.0 / (wp.xi + 2.0)
    # an overflowing kernel coefficient shows as a non-finite residual below
    with np.errstate(over="ignore", invalid="ignore"):
        result = {
            "derived_alpha": derived,
            "derived_residual": kernel_shift_residual(derived, w, wp, args.trunc),
            "printed_alpha": printed,
            "printed_residual": kernel_shift_residual(printed, w, wp, args.trunc),
        }
        if args.alpha is not None:
            result["alpha"] = args.alpha
            result["residual"] = kernel_shift_residual(args.alpha, w, wp, args.trunc)
    bad = [key for key, value in result.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(
            f"{', '.join(bad)} not finite at --xi {args.xi} --w {args.w} --trunc {args.trunc}: "
            "the kernel coefficients or --alpha leave the double range"
        )
    print(reporting.dumps(result))
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "uncertainty": cmd_uncertainty,
    "classify": cmd_classify,
    "rep": cmd_rep,
    "shift": cmd_shift,
    "kernel": cmd_kernel,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return COMMANDS[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
