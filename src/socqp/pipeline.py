"""The instance-to-report pipeline behind ``socqp solve``.

``solve_instance`` runs every uq and qcqp instance down one path: build the
relaxation of the structured instance it lifts (the view), certify, solve
once, report an unbounded or failed solve, and recover a point through
``recover.tighten_qcqp`` on the view when the certificate holds.  The shape
picks the view: for uniform Q PSD, positive definite or singular,
``model.uq_as_qcqp``, certified by ``check_as3`` with the closed-form dual of
``certify_strong_duality`` on top; for indefinite Q,
``reformulate.split_indefinite``, certified by ``check_indefinite``; for a
qcqp, the instance itself.  One build call serves every view: ``build_cr2``
when a row has a finite lower bound, else ``build_cr``, which on a one-sided
uniform view makes the same program.  A qcqp's certificate,
``check_condition_c``, follows the build, since it reads the lifted set that
the build picks.
"""

from __future__ import annotations

import math

from . import conesolver, linalg, model, recover, reformulate
from .conesolver import SolveOptions
from .errors import WrongShape
from .model import QcqpInstance, UqInstance


def solve_instance(inst: UqInstance | QcqpInstance, opts: SolveOptions | None = None) -> dict:
    """Solve the relaxation of a uq or qcqp instance and report on it.

    The report holds the instance's kind and size, the certificate, the
    solver summary, and for an Optimal solve the relaxation value, the
    ``exact`` verdict and, when the certificate holds, the recovered point
    with its worst violation.  ``exact`` needs a feasible recovered point:
    its rows hold to ``model.tolerance`` at ``opts.feastol``, the one test
    of those rows.  A note says why a report makes no exactness claim.
    """
    opts = opts or SolveOptions()
    if isinstance(inst, UqInstance):
        report = {"kind": "uq", "n": inst.n, "p": inst.p}
        pos, neg = linalg.inertia(inst.q, model.rank_cut(inst))
        if neg[-1]:
            report["shape"] = "indefinite"
            view, cert = reformulate.split_indefinite(inst), reformulate.check_indefinite(inst)
        else:
            if not pos[-1]:
                report["shape"] = "psd_singular"
            view, cert = model.uq_as_qcqp(inst), reformulate.check_as3(inst)
    elif isinstance(inst, QcqpInstance):
        report = {"kind": "qcqp", "n": inst.n, "p": inst.p, "sense": inst.sense}
        view = inst
    else:
        raise WrongShape("solve expects a uq or qcqp instance (use cheby/reduce-ilp)")
    two_sided = any(bd.has_lower for bd in view.bounds)
    prog, meta = (reformulate.build_cr2 if two_sided else reformulate.build_cr)(view)
    if isinstance(inst, QcqpInstance):
        report["lifted_blocks"] = list(meta.lifted)
        cert = reformulate.check_condition_c(inst, meta.lifted)
    report["certificate"] = {k: v for k, v in vars(cert).items() if v is not None}
    res = conesolver.solve(prog, opts)
    report["solver"] = {"status": res.status, "iterations": res.iterations,
                        "primal_residual": res.pres, "dual_residual": res.dres,
                        "complementarity_gap": res.gap}
    if res.status == "Unbounded":
        if isinstance(inst, UqInstance):
            report["relaxation_value"] = math.inf
            report["note"] = "relaxation unbounded; the instance optimum is +inf"
        else:
            side = "above" if meta.sense == "max" else "below"
            report["note"] = (f"relaxation is unbounded {side}; the exactness guarantee "
                              "requires a bounded relaxation")
        return report
    if res.status != "Optimal":
        return report
    report["relaxation_value"] = meta.original_value(res)
    exact = cert.holds
    if isinstance(inst, UqInstance) and report.get("shape") != "indefinite":
        # uniform with PSD Q: the dual has a closed form, and exact needs it
        duality = reformulate.certify_strong_duality(inst, res)
        report["duality"] = {"gap": duality.gap, "holds": duality.holds}
        exact = cert.holds and duality.holds
        if not cert.holds:
            report["note"] = "no exactness claim; relaxation value is an upper bound"
        elif not exact:
            report["note"] = "no exactness claim: the dual certificate fails"
    report["exact"] = exact
    if not exact:
        return report
    x, _ = recover.tighten_qcqp(view, res, meta)
    objective, violation = float(inst.values(x)[0]), inst.worst_violation(x)
    feasible = bool(violation <= model.tolerance(inst, 0.0, opts.feastol))
    report["recovered"] = {"x": x, "objective": objective, "worst_violation": violation,
                           "feasible": feasible}
    report["exact"] = feasible  # the certificate holds; exact also needs a feasible point
    if not feasible:
        report["note"] = (
            f"not exact: the recovered point violates a constraint by {violation:.3g}, "
            "beyond --tol-feas relative to the largest instance entry"
        )
    return report
