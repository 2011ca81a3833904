"""Command-line surface: solve, approx, cheby, reduce-ilp, oracle.

``solve`` renders the report of ``pipeline.solve_instance`` and maps its
solver status to an exit code.
Given a directory, ``solve`` prints one row per ``*.json`` file; a file that
fails becomes an error row and the batch goes on.

Each subcommand takes only the flags it reads.  Exit codes follow the error
classes: 0 success, 2 parse error (unreadable file or invalid instance
data), 3 a ``PreconditionViolated`` (precondition/certificate failure), 4
any other ``SocqpError`` (solver failure); a batch exits with the worst code
over its files.  Every report embeds the tolerance flags of its command, so a
run can be reproduced from the report alone; ``--report-format structured``
emits JSON.  ``--tol-rank`` becomes the ``tol_rank`` of the loaded instance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import chebyshev, fileio, linalg, model, oracle, pipeline, recover
from .conesolver import SolveOptions
from .errors import ParseError, PreconditionViolated, SocqpError, WrongShape
from .model import BallIntersection, UqInstance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4

# exception -> (exit code, message label) for `main` and for batch rows; the
# first matching entry wins, so the SocqpError base class comes last
_EXIT_TABLE = (
    ((ParseError, OSError), EXIT_PARSE, "parse error"),
    (PreconditionViolated, EXIT_PRECONDITION, "precondition/certificate failure"),
    (SocqpError, EXIT_SOLVER, "solver failure"),
)
_FAILURES = (SocqpError, OSError)


def _failure(exc: Exception) -> tuple[int, str]:
    return next((code, label) for types, code, label in _EXIT_TABLE if isinstance(exc, types))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(report: dict, fmt: str, out=None):
    out = out or sys.stdout
    if fmt == "structured":
        json.dump(_jsonable(report), out, indent=2)
        out.write("\n")
        return

    def walk(d, indent):
        for key, val in d.items():
            if isinstance(val, dict):
                out.write(" " * indent + f"{key}:\n")
                walk(val, indent + 2)
            else:
                val = _jsonable(val)
                if isinstance(val, float):
                    val = f"{val:.9g}"
                elif isinstance(val, list):
                    val = "[" + ", ".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in val) + "]"
                out.write(" " * indent + f"{key}: {val}\n")

    walk(report, 0)


_TOLERANCES = ("tol_rank", "tol_feas", "gap", "max_iter", "grid_h", "refine")


def _tolerances(args) -> dict:
    """The tolerance flags this command takes, as parsed."""
    return {k: v for k, v in vars(args).items() if k in _TOLERANCES}


def _options(args) -> SolveOptions:
    return SolveOptions(feastol=args.tol_feas, gaptol=args.gap, max_iter=args.max_iter)


def _exit_code(report: dict) -> int:
    """0 for an Optimal solve or an unbounded uq relaxation (the optimum is
    +inf), 3 for an unbounded qcqp relaxation, 4 for any other status."""
    status = report["solver"]["status"]
    if status == "Optimal" or (status == "Unbounded" and report["kind"] == "uq"):
        return EXIT_OK
    return EXIT_PRECONDITION if status == "Unbounded" else EXIT_SOLVER


def cmd_solve(args) -> int:
    path = Path(args.instance)
    if path.is_dir():
        return _cmd_batch(path, args)
    report = pipeline.solve_instance(fileio.load_instance(path, args.tol_rank), _options(args))
    _emit({**report, "tolerances": _tolerances(args)}, args.report_format)
    return _exit_code(report)


def _cmd_batch(path: Path, args) -> int:
    """One row per ``*.json`` file; a file that fails becomes an error row
    and the batch goes on.  A row's ``exact`` is its file's own report's
    verdict (false when that report makes no exactness claim).  Both formats
    end with the tolerances, and the exit code is the worst over the files."""
    rows = []
    worst = EXIT_OK
    for name in sorted(path.glob("*.json")):
        started = time.perf_counter()
        try:
            report = pipeline.solve_instance(
                fileio.load_instance(name, args.tol_rank), _options(args)
            )
        except _FAILURES as exc:
            code, _ = _failure(exc)
            rows.append({"file": name.name, "error": str(exc)})
        else:
            code = _exit_code(report)
            rows.append(
                {
                    "file": name.name,
                    "kind": report["kind"],
                    "status": report["solver"]["status"],
                    "value": report.get("relaxation_value", math.nan),
                    "certificate": report["certificate"]["holds"],
                    "exact": report.get("exact", False),
                    "seconds": time.perf_counter() - started,
                }
            )
        worst = max(worst, code)
    tolerances = {"tolerances": _tolerances(args)}
    if args.report_format == "structured":
        _emit({"batch": rows, **tolerances}, "structured")
        return worst
    for row in rows:
        if "error" in row:
            print(f"{row['file']:30s}  ERROR  {row['error']}")
        else:
            print(
                f"{row['file']:30s}  {row['kind']:5s}  {row['status']:10s}  "
                f"value={row['value']:.9g}  certificate={row['certificate']}  "
                f"exact={row['exact']}  {row['seconds']:.3f}s"
            )
    _emit(tolerances, "text")
    return worst


def cmd_approx(args) -> int:
    inst = fileio.load_instance(args.instance, args.tol_rank)
    if not isinstance(inst, UqInstance):
        raise WrongShape("approx expects a uq instance")
    x, trace, cert = recover.approx_uq(inst, opts=_options(args))
    report = {
        "kind": "approx",
        "n": inst.n,
        "p": inst.p,
        "centre": cert.centre,
        "gamma": cert.gamma,
        "guaranteed_ratio": cert.guaranteed_ratio,
        "tau": trace.tau_bar,
        "candidate": trace.j_bar,
        "relaxation_value": cert.upper,
        "achieved_value": cert.lower,
        "achieved_over_relaxation": cert.lower / cert.upper if cert.upper else 1.0,
        "x": x,
        "objective_original_coordinates": cert.lower + cert.offset,
        "worst_violation": inst.worst_violation(x),
        "tolerances": _tolerances(args),
    }
    _emit(report, args.report_format)
    return EXIT_OK


def cmd_cheby(args) -> int:
    obj = fileio.load_instance(args.instance)
    if not isinstance(obj, BallIntersection):
        raise WrongShape("cheby expects a balls instance")
    result = chebyshev.chebyshev_certified(obj, opts=_options(args))
    report = {
        "kind": "cheby",
        "n": obj.n,
        "p": obj.p,
        "center": result.center,
        "weights": result.weights,
        "v_dcc": result.v_dcc,
        "gamma": result.gamma,
        "gamma_upper": result.gamma_upper,
        "attained_lower": result.attained[0],
        "attained_upper": result.attained[1],
        "guaranteed_ratio": result.guaranteed_ratio,
        "far_point": result.far_point,
        "tolerances": _tolerances(args),
    }
    _emit(report, args.report_format)
    return EXIT_OK


def cmd_reduce_ilp(args) -> int:
    obj = fileio.load_instance(args.instance)
    if not (isinstance(obj, tuple) and obj[0] == "ilp"):
        raise WrongShape("reduce-ilp expects an ilp instance")
    _, c, rows, rhs = obj
    inst = model.ilp_to_uq(c, rows, rhs)
    text = fileio.dumps_instance(inst)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    obj = fileio.load_instance(args.instance)
    report: dict = {"kind": "oracle", "tolerances": _tolerances(args)}
    if isinstance(obj, UqInstance):
        g = oracle.grid_max_uq(obj, h=args.grid_h, refine=args.refine)
        report.update(
            {"value": g.value, "argmax": g.argmax, "error_bound": g.error_bound}
        )
    elif isinstance(obj, BallIntersection):
        g = oracle.grid_minmax_cc(obj, h=args.grid_h)
        report.update({"value": g.value, "error_bound": g.error_bound})
    elif isinstance(obj, tuple) and obj[0] == "ilp":
        _, c, rows, rhs = obj
        value, arg = oracle.binary_max_uq(model.ilp_to_uq(c, rows, rhs))
        report.update({"value": value, "argmax": arg, "error_bound": 0.0})
    else:
        raise WrongShape("oracle expects a uq, balls, or ilp instance")
    _emit(report, args.report_format)
    return EXIT_OK


def _checked(convert, test, rule: str):
    """An argparse ``type``: the value ``convert`` makes of the text, when it
    passes ``test``; any other text is a usage error (exit 2)."""

    def parse(text: str):
        with contextlib.suppress(ValueError):
            if test(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


def _build_parser() -> argparse.ArgumentParser:
    defaults = SolveOptions()
    fraction = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
    positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
    count = _checked(int, lambda v: v >= 0, "an integer >= 0")
    flags = {
        "--tol-rank": {"type": fraction, "default": linalg.DEFAULT_RANK_TOL},
        "--tol-feas": {"type": positive, "default": defaults.feastol},
        "--gap": {"type": positive, "default": defaults.gaptol},
        "--max-iter": {"type": count, "default": defaults.max_iter},
        "--grid-h": {"type": positive, "default": 1e-3},
        "--refine": {"type": count, "default": 2},
        "--report-format": {"choices": ["text", "structured"], "default": "text"},
    }
    solver = ("--tol-feas", "--gap", "--max-iter", "--report-format")
    parser = argparse.ArgumentParser(
        prog="socqp",
        description="Second-order cone relaxations of nonconvex QCQPs with "
        "exactness certificates and approximation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, names in (
        ("solve", cmd_solve, ("--tol-rank", *solver)),
        ("approx", cmd_approx, ("--tol-rank", *solver)),
        ("cheby", cmd_cheby, solver),
        ("reduce-ilp", cmd_reduce_ilp, ()),
        ("oracle", cmd_oracle, ("--grid-h", "--refine", "--report-format")),
    ):
        p = sub.add_parser(name)
        p.add_argument("instance")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        if func is cmd_reduce_ilp:
            p.add_argument("-o", "--output")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
