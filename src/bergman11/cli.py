"""Command-line front end.

Subcommands: ``verify`` (run property suites, exit 0 iff all pass),
``uncertainty``, ``classify``, ``rep``, ``shift``, ``kernel``.  Exit codes:
0 pass, 1 violated property, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from . import reporting
from .operators import FirstOrderOp, classify_symmetric, to_rep
from .quadrature import KernelPoint
from .uncertainty import soltani_up
from .verification import VERIFY_XI_MAX, RunConfig, SUITES, run_suites
from .weights import CoeffVector, WeightParam
from .weightshift import ShiftOp, frame_constants, kernel_shift_residual


class UsageError(Exception):
    pass


_HELP = {
    "xi": f"weight parameter (-1 < xi <= {VERIFY_XI_MAX:g})",
    "trunc": "working truncation degree (>= 1)",
    "quad_r": "radial quadrature points",
    "quad_m": "angular quadrature points",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bergman11")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    # one flag per RunConfig field, with the field's default
    for f in fields(RunConfig):
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type=type(f.default),
            default=f.default,
            help=_HELP.get(f.name),
        )
    p.add_argument(
        "--config",
        default=None,
        help="optional key=value file overriding the flag defaults",
    )
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


def _load_config_file(path: str) -> dict:
    overrides = {}
    casts = {f.name: type(f.default) for f in fields(RunConfig)}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in casts:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            overrides[key] = casts[key](value.strip())
    return overrides


def _emit(text: str, out):
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise UsageError(f"cannot write {out}: {e.strerror}")


def _read_json_file(path: str):
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON at byte {e.pos}: {e.msg}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coeff_vector(data) -> CoeffVector:
    """A JSON array of numbers or [re, im] pairs, index = degree."""
    if not isinstance(data, list):
        raise UsageError(f"coefficient data must be a JSON array, got {data!r}")
    return CoeffVector([_complex_field(entry) for entry in data])


def _real_field(data: dict, key: str) -> float:
    value = data[key]
    if not _is_real(value):
        raise UsageError(f"{key!r}: expected a real number, got {value!r}")
    return float(value)


def _complex_field(value) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(map(_is_real, parts)):
        raise UsageError(f"expected number or [re, im] pair, got {value!r}")
    return complex(*parts)


def cmd_verify(args) -> int:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    if args.config:
        cfg = replace(cfg, **_load_config_file(args.config))
    if not -1.0 < cfg.xi <= VERIFY_XI_MAX:
        raise UsageError(
            f"--xi must satisfy -1 < xi <= {VERIFY_XI_MAX:g} for verify "
            f"(shift_iso uses the weight xi+2), got {cfg.xi:g}"
        )
    if cfg.trunc < 1:
        raise UsageError(f"--trunc must be >= 1, got {cfg.trunc}")
    try:
        report = run_suites(cfg, args.suite)
    except ValueError as e:
        raise UsageError(str(e))
    if args.format == "json":
        _emit(reporting.dumps(report), args.out)
    else:
        lines = ["suite,check,passed,margin,tolerance"]
        for suite_name, checks in report["suites"].items():
            for c in checks:
                lines.append(
                    reporting.csv_row(
                        [suite_name, c["name"], int(c["passed"]), c["margin"], c["tolerance"]]
                    )
                )
        _emit("\n".join(lines), args.out)
    return 0 if report["passed"] else 1


def cmd_uncertainty(args) -> int:
    f = _coeff_vector(_read_json_file(args.f_file))
    r = soltani_up(f, args.w, args.y, WeightParam(args.xi))
    print(reporting.dumps({"lhs": r.lhs, "rhs": r.rhs, "slack": r.slack, "inputs": r.inputs}))
    return 0


def cmd_classify(args) -> int:
    data = _read_json_file(args.op_file)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise UsageError(f'{args.op_file}: expected {{"f": [...], "g": [...]}}')
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
        raise UsageError(f'{args.abc_file}: expected {{"a": .., "b": .., "c": ..}}')
    dec = to_rep(_real_field(data, "a"), _real_field(data, "b"), _complex_field(data["c"]), WeightParam(args.xi))
    c = dec.coords
    print(reporting.dumps({"sigma": c.sigma, "tau": c.tau, "lambda": c.lam, "d": dec.d}))
    return 0


def cmd_shift(args) -> int:
    if args.k_range < 0:
        raise UsageError(f"k_range must be >= 0, got {args.k_range}")
    op = ShiftOp(complex(args.c_re, args.c_im))
    fc = frame_constants(op, WeightParam(args.xi), args.k_range)
    print("xi,c_re,c_im,k_range,m,M")
    print(reporting.csv_row([args.xi, args.c_re, args.c_im, fc.k_range, fc.m, fc.M]))
    return 0


def cmd_kernel(args) -> int:
    if args.trunc < 1:
        raise UsageError(f"--trunc must be >= 1, got {args.trunc}")
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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
