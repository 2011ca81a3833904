"""Command-line surface: solve, approx, cheby, reduce-ilp, oracle.

Exit codes: 0 success, 2 parse error, 3 precondition/certificate failure,
4 solver failure.  Every report embeds the tolerances used so a run can be
reproduced from the report alone; ``--report-format structured`` emits JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import chebyshev, conesolver, fileio, linalg, model, oracle, recover, reformulate
from .conesolver import SolveOptions
from .errors import (
    ConditionNotMet,
    EmptyFeasibleGrid,
    EmptyInterior,
    InvalidBounds,
    InvalidInstance,
    NotPositiveDefinite,
    NotPsd,
    ParseError,
    PreconditionViolated,
    SocqpError,
    TightenFailed,
    UnboundedBox,
    WrongShape,
)
from .model import BallIntersection, QcqpInstance, UqInstance

_PRECONDITION_ERRORS = (
    PreconditionViolated,
    ConditionNotMet,
    WrongShape,
    EmptyInterior,
    NotPsd,
    NotPositiveDefinite,
    InvalidBounds,
    InvalidInstance,
    EmptyFeasibleGrid,
    UnboundedBox,
    TightenFailed,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4


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


def _tolerances(args) -> dict:
    return {
        "tol_rank": args.tol_rank,
        "tol_feas": args.tol_feas,
        "gap": args.gap,
        "max_iter": args.max_iter,
        "grid_h": args.grid_h,
        "seed": args.seed,
    }


def _options(args) -> SolveOptions:
    return SolveOptions(feastol=args.tol_feas, gaptol=args.gap, max_iter=args.max_iter)


def _solver_block(res) -> dict:
    return {
        "status": res.status,
        "iterations": res.iterations,
        "primal_residual": res.pres,
        "dual_residual": res.dres,
        "complementarity_gap": res.gap,
    }


def _cert_block(cert: reformulate.CertificateReport) -> dict:
    out = {"holds": cert.holds, "reason": cert.reason}
    if cert.rank is not None:
        out["rank"] = cert.rank
    if cert.dims is not None:
        out["dims"] = {str(k): v for k, v in cert.dims.items()}
    return out


def _qcqp_violation(inst: QcqpInstance, x) -> float:
    worst = 0.0
    for i, bd in enumerate(inst.bounds):
        worst = max(worst, bd.violation(inst.eval_g(i + 1, x)))
    return worst


def _negate_qcqp(inst: QcqpInstance) -> QcqpInstance:
    a = inst.a.copy()
    a[0] *= -1.0
    b = inst.b.copy()
    b[0] *= -1.0
    c = inst.c.copy()
    c[0] *= -1.0
    return QcqpInstance(inst.n, inst.blocks, a, b, c, list(inst.bounds), sense="min")


def _solve_uq(inst: UqInstance, args) -> tuple[dict, int]:
    opts = _options(args)
    w, _ = linalg.sym_eig(inst.q)
    scale = max(1.0, float(np.abs(w).max()))
    report: dict = {"kind": "uq", "n": inst.n, "p": inst.p}
    code = EXIT_OK

    if w[-1] > args.tol_rank * scale:  # positive definite
        prog, meta = reformulate.build_socp_uq(inst)
        res = conesolver.solve(prog, opts)
        report["solver"] = _solver_block(res)
        if res.status == "Unbounded":
            report["relaxation_value"] = math.inf
            report["note"] = "relaxation unbounded; the instance optimum is +inf"
            return report, EXIT_OK
        if res.status != "Optimal":
            return report, EXIT_SOLVER
        report["relaxation_value"] = meta.original_value(res)
        cert = reformulate.check_as3(inst, args.tol_rank)
        report["certificate"] = _cert_block(cert)
        duality = conesolver.certify_strong_duality(inst, res)
        report["duality"] = {"gap": duality.gap, "holds": duality.holds}
        if cert.holds:
            x, _ = recover.tighten_uq(inst, res, tol_rank=args.tol_rank)
            report["exact"] = True
            report["recovered"] = {
                "x": x,
                "objective": model.eval_f(inst, 0, x),
                "worst_violation": model.worst_violation(inst, x),
            }
        else:
            report["exact"] = False
            report["note"] = "no exactness claim; relaxation value is an upper bound"
        return report, code

    if w[-1] >= -args.tol_rank * scale:  # positive semidefinite, singular
        qview = model.uq_as_qcqp(inst, negate=True)
        prog, meta = reformulate.build_cr2(qview)
        res = conesolver.solve(prog, opts)
        report["solver"] = _solver_block(res)
        report["shape"] = "psd_singular"
        if res.status == "Unbounded":
            report["relaxation_value"] = math.inf
            report["note"] = "relaxation unbounded; the instance optimum is +inf"
            return report, EXIT_OK
        if res.status != "Optimal":
            return report, EXIT_SOLVER
        report["relaxation_value"] = -res.objective
        cert = reformulate.check_condition_cc(
            qview, reformulate.lift_set_twosided(qview), args.tol_rank
        )
        report["certificate"] = _cert_block(cert)
        report["exact"] = cert.holds
        if cert.holds:
            x, _ = recover.tighten_qcqp(qview, res, meta, tol_rank=args.tol_rank)
            report["recovered"] = {
                "x": x,
                "objective": model.eval_f(inst, 0, x),
                "worst_violation": model.worst_violation(inst, x),
            }
        return report, code

    # indefinite Hessian: spectral-split relaxation
    prog, meta, cert = reformulate.build_socp_indefinite(inst, args.tol_rank)
    res = conesolver.solve(prog, opts)
    report["solver"] = _solver_block(res)
    report["shape"] = "indefinite"
    if res.status == "Unbounded":
        report["relaxation_value"] = math.inf
        report["note"] = "relaxation unbounded; the instance optimum is +inf"
        return report, EXIT_OK
    if res.status != "Optimal":
        return report, EXIT_SOLVER
    report["relaxation_value"] = meta.original_value(res)
    report["certificate"] = _cert_block(cert)
    report["exact"] = cert.holds
    if cert.holds:
        qview, _, _ = reformulate.split_indefinite(inst, args.tol_rank)
        x, _ = recover.tighten_qcqp(qview, res, meta, tol_rank=args.tol_rank)
        report["recovered"] = {
            "x": x,
            "objective": model.eval_f(inst, 0, x),
            "worst_violation": model.worst_violation(inst, x),
        }
    return report, code


def _solve_qcqp(inst: QcqpInstance, args) -> tuple[dict, int]:
    opts = _options(args)
    report: dict = {"kind": "qcqp", "n": inst.n, "p": inst.p, "sense": inst.sense}
    flip = inst.sense == "max"
    work = _negate_qcqp(inst) if flip else inst
    one_sided = not any(bd.has_lower for bd in work.bounds)
    if one_sided:
        prog, meta = reformulate.build_cr(work)
        lifted = reformulate.lift_set_onesided(work)
        cert = reformulate.check_condition_c(work, lifted, args.tol_rank)
    else:
        prog, meta = reformulate.build_cr2(work)
        lifted = reformulate.lift_set_twosided(work)
        cert = reformulate.check_condition_cc(work, lifted, args.tol_rank)
    report["lifted_blocks"] = list(lifted)
    report["certificate"] = _cert_block(cert)
    res = conesolver.solve(prog, opts)
    report["solver"] = _solver_block(res)
    if res.status == "Unbounded":
        report["note"] = (
            "relaxation is unbounded below; the exactness guarantee "
            "requires a bounded relaxation"
        )
        return report, EXIT_PRECONDITION
    if res.status != "Optimal":
        return report, EXIT_SOLVER
    value = res.objective
    report["relaxation_value"] = -value if flip else value
    report["exact"] = cert.holds
    if cert.holds:
        x, _ = recover.tighten_qcqp(work, res, meta, tol_rank=args.tol_rank)
        report["recovered"] = {
            "x": x,
            "objective": inst.eval_g(0, x),
            "worst_violation": _qcqp_violation(inst, x),
        }
    return report, EXIT_OK


def _load(args):
    obj = fileio.load_instance(args.instance)
    if args.force_kind:
        kinds = {
            UqInstance: "uq",
            QcqpInstance: "qcqp",
            BallIntersection: "balls",
            tuple: "ilp",
        }
        actual = kinds.get(type(obj), "?")
        if actual != args.force_kind:
            raise ParseError(
                f"--force-kind {args.force_kind} but file parses as {actual}"
            )
    return obj


def cmd_solve(args) -> int:
    path = Path(args.instance)
    if path.is_dir():
        return _cmd_batch(path, args)
    obj = _load(args)
    if isinstance(obj, UqInstance):
        report, code = _solve_uq(obj, args)
    elif isinstance(obj, QcqpInstance):
        report, code = _solve_qcqp(obj, args)
    else:
        raise WrongShape("solve expects a uq or qcqp instance (use cheby/reduce-ilp)")
    report["tolerances"] = _tolerances(args)
    _emit(report, args.report_format)
    return code


def _cmd_batch(path: Path, args) -> int:
    rows = []
    worst = EXIT_OK
    for name in sorted(path.glob("*.json")):
        sub = argparse.Namespace(**vars(args))
        sub.instance = str(name)
        started = time.perf_counter()
        try:
            obj = fileio.load_instance(name)
            if isinstance(obj, UqInstance):
                report, code = _solve_uq(obj, args)
            elif isinstance(obj, QcqpInstance):
                report, code = _solve_qcqp(obj, args)
            else:
                raise WrongShape("not a solvable instance kind")
            rows.append(
                {
                    "file": name.name,
                    "kind": report.get("kind"),
                    "status": report.get("solver", {}).get("status", "-"),
                    "value": report.get("relaxation_value", math.nan),
                    "certificate": report.get("certificate", {}).get("holds", "-"),
                    "seconds": time.perf_counter() - started,
                }
            )
            worst = max(worst, code)
        except ParseError as exc:
            rows.append({"file": name.name, "error": str(exc)})
            worst = max(worst, EXIT_PARSE)
        except _PRECONDITION_ERRORS as exc:
            rows.append({"file": name.name, "error": str(exc)})
            worst = max(worst, EXIT_PRECONDITION)
    report = {"batch": rows, "tolerances": _tolerances(args)}
    if args.report_format == "structured":
        _emit(report, "structured")
    else:
        for row in rows:
            if "error" in row:
                print(f"{row['file']:30s}  ERROR  {row['error']}")
            else:
                print(
                    f"{row['file']:30s}  {row['kind']:5s}  {row['status']:10s}  "
                    f"value={row['value']:.9g}  certificate={row['certificate']}  "
                    f"{row['seconds']:.3f}s"
                )
    return worst


def cmd_approx(args) -> int:
    obj = _load(args)
    if not isinstance(obj, UqInstance):
        raise WrongShape("approx expects a uq instance")
    inst = obj
    report: dict = {"kind": "approx", "n": inst.n, "p": inst.p}
    shift = np.zeros(inst.n)
    offset = 0.0
    needs_shift = abs(float(inst.d[0])) > 0.0 or any(
        inst.d[i + 1] >= bd.upper for i, bd in enumerate(inst.bounds) if bd.has_upper
    )
    if needs_shift:
        shift, margin = model.find_interior_point(inst)
        inst, offset = model.translate_origin(inst, shift)
        inst.d = inst.d.copy()
        inst.d[0] = 0.0
        report["translated"] = {"interior_point": shift, "margin": margin}
    x_sh, trace, cert = recover.approx_uq(inst, opts=_options(args), tol_rank=args.tol_rank)
    x = x_sh + shift
    report.update(
        {
            "gamma": cert.gamma,
            "guaranteed_ratio": cert.guaranteed_ratio,
            "tau": trace.tau_bar,
            "candidate": trace.j_bar,
            "relaxation_value": cert.upper,
            "achieved_value": cert.lower,
            "achieved_over_relaxation": cert.lower / cert.upper if cert.upper else 1.0,
            "x": x,
            "objective_original_coordinates": cert.lower + offset,
            "worst_violation": model.worst_violation(obj, x),
            "tolerances": _tolerances(args),
        }
    )
    _emit(report, args.report_format)
    return EXIT_OK


def cmd_cheby(args) -> int:
    obj = _load(args)
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
    obj = _load(args)
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
    obj = _load(args)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=linalg.DEFAULT_RANK_TOL)
    common.add_argument("--tol-feas", type=float, default=1e-8)
    common.add_argument("--gap", type=float, default=1e-8)
    common.add_argument("--max-iter", type=int, default=200)
    common.add_argument("--grid-h", type=float, default=1e-3)
    common.add_argument("--refine", type=int, default=2)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--force-kind", choices=["uq", "qcqp", "balls", "ilp"])
    common.add_argument(
        "--report-format", choices=["text", "structured"], default="text"
    )
    parser = argparse.ArgumentParser(
        prog="socqp",
        description="Second-order cone relaxations of nonconvex QCQPs with "
        "exactness certificates and approximation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, extra in (
        ("solve", cmd_solve, ()),
        ("approx", cmd_approx, ()),
        ("cheby", cmd_cheby, ()),
        ("reduce-ilp", cmd_reduce_ilp, ("output",)),
        ("oracle", cmd_oracle, ()),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("instance")
        if "output" in extra:
            p.add_argument("-o", "--output")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition/certificate failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SocqpError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
