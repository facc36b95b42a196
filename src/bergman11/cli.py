"""Command-line front end.

Subcommands: ``verify`` (run property suites, exit 0 iff all pass),
``uncertainty``, ``classify``, ``rep``, ``shift``, ``kernel``.  Exit codes:
0 pass, 1 violated property, 2 rejected input, with one line on stderr.
Input is rejected by three rules: an argument outside its rule
(``verification.FIELD_RULES`` for ``verify``, ``ARGUMENTS`` for the others,
and the same for every number of a JSON input file), a printed result outside
the double range, and an input too large to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from dataclasses import fields

import numpy as np

from . import reporting
from .operators import FirstOrderOp, classify_symmetric, to_rep
from .quadrature import KernelPoint
from .uncertainty import soltani_up
from .verification import FIELD_RULES, TOLERANCE, RunConfig, SUITES, check_rule, run_suites
from .weights import XI_MAX, CoeffVector, WeightParam
from .weightshift import ShiftOp, frame_constants, kernel_shift_residual

_XI = ("weight parameter", lambda v: -1.0 < v <= XI_MAX, f"in (-1, {XI_MAX:g}]")
# kernel builds the weight xi + 1, which must stay within XI_MAX
_KERNEL_XI = ("weight parameter", lambda v: -1.0 < v <= XI_MAX - 1.0, f"in (-1, {XI_MAX - 1.0:g}]")
_REAL = (math.isfinite, "finite")
# the largest degree shift and kernel scan: a few arrays of this length stay
# within tens of MB, and a larger one used to fail in numpy with a message
# that named no argument
_DEGREE_MAX = 10**6
# a negative number, -inf and -nan included, is a value and never a flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

# The ruled arguments of the five engine commands, each beside its rule in
# FIELD_RULES' shape (what it is, a test of its value, the rule text its error
# and --help state); main checks every given value by its rule before the
# command runs.
ARGUMENTS = {
    "uncertainty": (
        ("--w", dict(type=float, default=0.0), ("shift w of the first operator", *_REAL)),
        ("--y", dict(type=float, default=0.0), ("shift y of the second operator", *_REAL)),
        ("--xi", dict(type=float, default=0.0), _XI),
    ),
    "classify": (
        ("--xi", dict(type=float, default=0.0), _XI),
        ("--tol", dict(type=float, default=1e-10), ("tolerance of the symmetry conditions", *TOLERANCE)),
    ),
    "rep": (("--xi", dict(type=float, default=0.0), _XI),),
    "shift": (
        ("c_re", dict(type=float), ("real part of the shift constant c", *_REAL)),
        ("xi", dict(type=float), _XI),
        ("k_range", dict(type=int),
         ("largest degree of the frame-ratio scan", lambda v: 0 <= v <= _DEGREE_MAX, f"in [0, {_DEGREE_MAX}]")),
        ("--c-im", dict(type=float, default=0.0), ("imaginary part of c", *_REAL)),
    ),
    "kernel": (
        ("--alpha", dict(type=float), ("constant tested besides 1/(xi+2) and 2/(xi+2)", *_REAL)),
        ("--w", dict(type=float, default=0.4), ("kernel point", lambda v: -1.0 < v < 1.0, "in (-1, 1)")),
        ("--xi", dict(type=float, default=0.0), _KERNEL_XI),
        ("--trunc", dict(type=int, default=60),
         ("kernel truncation degree", lambda v: 1 <= v <= _DEGREE_MAX, f"in [1, {_DEGREE_MAX}]")),
    ),
}


def _add_ruled(p: argparse.ArgumentParser, command: str) -> None:
    for name, kwargs, (what, _, rule) in ARGUMENTS[command]:
        default = kwargs.get("default")
        suffix = "" if default is None else f" (default {default})"
        p.add_argument(name, help=f"{what}, {rule}{suffix}", **kwargs)


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors as ValueError, which ``main`` prints as one
    line; subparsers are built from the same class.  Any negative number is
    an argument value, so that ``shift -inf 0 5`` reaches the rule of
    ``c_re`` (argparse's own pattern misses -inf, -nan and -1e5)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bergman11")
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
    _add_ruled(p, "uncertainty")

    p = sub.add_parser("classify", help="classify a first-order operator")
    p.add_argument("op_file", help='JSON {"f": [...], "g": [...]}')
    _add_ruled(p, "classify")

    p = sub.add_parser("rep", help="decompose (c z^2 + a z + conj(c)) d/dz + ((xi+2) c z + b)")
    p.add_argument("abc_file", help='JSON {"a": real, "b": real, "c": [re, im] or real}')
    _add_ruled(p, "rep")

    _add_ruled(sub.add_parser("shift", help="frame constants of z d/dz + c"), "shift")
    _add_ruled(sub.add_parser("kernel", help="step-one kernel shift residual"), "kernel")
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
    # json parses NaN, +-Infinity and integers of any size; only doubles pass
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


_JSON_REAL = ("JSON number", _is_real, "a finite real number")
_JSON_COMPLEX = ("JSON number", lambda v: all(map(_is_real, _parts(v))), "a finite number or [re, im] pair")


def _parts(value) -> list:
    return value if isinstance(value, list) and len(value) == 2 else [value, 0.0]


def _real_field(data: dict, key: str) -> float:
    check_rule(repr(key), data[key], _JSON_REAL)
    return float(data[key])


def _complex_field(name: str, value) -> complex:
    check_rule(name, value, _JSON_COMPLEX)
    return complex(*_parts(value))


def _coeff_vector(name: str, data) -> CoeffVector:
    """A JSON array of numbers or [re, im] pairs, index = degree."""
    if not isinstance(data, list):
        raise ValueError(f"{name} must be a JSON array, got {data!r}")
    return CoeffVector([_complex_field(f"{name}[{k}]", entry) for k, entry in enumerate(data)])


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


def cmd_uncertainty(args) -> dict:
    f = _coeff_vector(args.f_file, _read_json_file(args.f_file))
    r = soltani_up(f, args.w, args.y, WeightParam(args.xi))
    return {"lhs": r.lhs, "rhs": r.rhs, "slack": r.slack, "inputs": r.inputs}


def cmd_classify(args) -> dict:
    data = _read_json_file(args.op_file)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise ValueError(f'{args.op_file}: expected {{"f": [...], "g": [...]}}')
    op = FirstOrderOp(_coeff_vector("'f'", data["f"]), _coeff_vector("'g'", data["g"]))
    verdict = classify_symmetric(op, WeightParam(args.xi), args.tol)
    if verdict.symmetric:
        a0 = complex(verdict.form.a0)
        return {"symmetric": True, "a0": [a0.real, a0.imag], "a1": verdict.form.a1, "b0": verdict.form.b0}
    return {"symmetric": False, "violation": verdict.violation}


def cmd_rep(args) -> dict:
    data = _read_json_file(args.abc_file)
    if not isinstance(data, dict) or not {"a", "b", "c"} <= set(data):
        raise ValueError(f'{args.abc_file}: expected {{"a": .., "b": .., "c": ..}}')
    dec = to_rep(_real_field(data, "a"), _real_field(data, "b"), _complex_field("'c'", data["c"]),
                 WeightParam(args.xi))
    c = dec.coords
    return {"sigma": c.sigma, "tau": c.tau, "lambda": c.lam, "d": dec.d}


def cmd_shift(args) -> dict:
    op = ShiftOp(complex(args.c_re, args.c_im))
    fc = frame_constants(op, WeightParam(args.xi), args.k_range)
    return {"xi": args.xi, "c_re": args.c_re, "c_im": args.c_im, "k_range": fc.k_range, "m": fc.m, "M": fc.M}


def cmd_kernel(args) -> dict:
    wp = WeightParam(args.xi)
    w = KernelPoint(args.w)
    derived = 1.0 / (wp.xi + 2.0)
    printed = 2.0 / (wp.xi + 2.0)
    result = {
        "derived_alpha": derived,
        "derived_residual": kernel_shift_residual(derived, w, wp, args.trunc),
        "printed_alpha": printed,
        "printed_residual": kernel_shift_residual(printed, w, wp, args.trunc),
    }
    if args.alpha is not None:
        result["alpha"] = args.alpha
        result["residual"] = kernel_shift_residual(args.alpha, w, wp, args.trunc)
    return result


COMMANDS = {
    "uncertainty": cmd_uncertainty,
    "classify": cmd_classify,
    "rep": cmd_rep,
    "shift": cmd_shift,
    "kernel": cmd_kernel,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        for name, _, rule in ARGUMENTS[args.command]:
            value = getattr(args, name.lstrip("-").replace("-", "_"))
            if value is not None:  # an optional argument not given
                check_rule(name, value, rule)
        # each engine command returns its printed numbers by name; an overflow
        # or invalid operation shows as a non-finite number among them
        with np.errstate(all="ignore"):
            result = COMMANDS[args.command](args)
        # a nested dict echoes the inputs, which their rules have checked
        numbers = {key: value for key, value in result.items() if not isinstance(value, (str, dict))}
        bad = [key for key, value in numbers.items() if not np.all(np.isfinite(value))]
        if bad:
            raise ValueError(f"{', '.join(bad)} not finite: the result leaves the double range")
        if args.command == "shift":
            print(",".join(result) + "\n" + reporting.csv_row(result.values()))
        else:
            print(reporting.dumps(result))
        return 0
    except SystemExit:  # --help has printed; a usage error raises ValueError instead
        return 0
    except (ValueError, MemoryError) as e:  # a MemoryError is an input too large to allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
