"""Output checks, computed apart from the timed path.

Each check returns a list of problems (empty when the output is right).  A
problem is either a wrong answer (a plain string) or a `Failed` operation:
an exception, a non-Optimal status or a CLI exit code other than 0, where
the program gave up instead of answering.  Both count as failed instances;
only wrong answers make a run incorrect.  The expected values are recomputed
here from the instance data with plain numpy; ``skew`` is added to one
expected value so the smoke check can plant a wrong expectation and see the
instance counted.
"""

from __future__ import annotations

import math

import numpy as np

FEAS_REL = 1e-6
OBJ_REL = 1e-5


class Failed(str):
    """A problem that is an operation failure, not a wrong answer."""


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# uniform instances
# ---------------------------------------------------------------------------


def uq_values(inst, x):
    """f_i(x) = x'Qx + 2 b_i'x + d_i for i = 0..p."""
    x = np.asarray(x, dtype=float)
    return float(x @ inst.q.dense() @ x) + 2.0 * (inst.b @ x) + inst.d


def _bound_scale(bounds, extra=()):
    finite = [abs(v) for bd in bounds for v in (bd.lower, bd.upper) if math.isfinite(v)]
    return 1.0 + max(finite + [abs(float(v)) for v in extra], default=0.0)


def _violation(bounds, values):
    worst = 0.0
    for bd, v in zip(bounds, values):
        worst = max(worst, bd.lower - v, v - bd.upper)
    return worst


def uq_point(inst, x, value):
    """Feasible within 1e-6*scale and f_0(x) within 1e-5 of ``value``."""
    problems = []
    f = uq_values(inst, x)
    scale = _bound_scale(inst.bounds, inst.d)
    viol = _violation(inst.bounds, f[1:])
    if viol > FEAS_REL * scale:
        problems.append(f"recovered point violates a row by {viol:.3e}")
    if not _rel_close(float(f[0]), value, OBJ_REL):
        problems.append(f"recovered objective {f[0]:.9g} != relaxation value {value:.9g}")
    return problems


def uq_dual(inst, lam_lin):
    """Closed-form Lagrangian dual at the multipliers of the linear rows.

    Rows follow the relaxation layout: per constraint the finite upper row,
    then the finite lower row.
    """
    lam = np.zeros(inst.p)
    kappa = float(inst.d[0])
    at = 0
    for i, bd in enumerate(inst.bounds):
        if math.isfinite(bd.upper):
            lam[i] += lam_lin[at]
            kappa += lam_lin[at] * (bd.upper - inst.d[i + 1])
            at += 1
        if math.isfinite(bd.lower):
            lam[i] -= lam_lin[at]
            kappa -= lam_lin[at] * (bd.lower - inst.d[i + 1])
            at += 1
    sigma = 1.0 - float(lam.sum())
    beta = inst.b[0] - lam @ inst.b[1:]
    if sigma >= 0.0:
        return math.inf
    return kappa - float(beta @ np.linalg.solve(inst.q.dense(), beta)) / sigma


def uq_medium(item, out, skew=0.0):
    inst, res = item["inst"], out["res"]
    if res.status != "Optimal":
        return [Failed(f"solver status {res.status}")]
    value = -res.objective
    problems = []
    dual = uq_dual(inst, res.lam_lin) + skew
    if not _rel_close(dual, value, OBJ_REL):
        problems.append(f"closed-form dual {dual:.9g} != relaxation value {value:.9g}")
    if not out["duality"].holds:
        problems.append("strong-duality certificate does not hold")
    if out["cert"].holds != item["exact"]:
        problems.append(f"exactness verdict {out['cert'].holds}, expected {item['exact']}")
    if item["exact"]:
        if out["x"] is None:
            problems.append("exact instance without a recovered point")
        else:
            problems += uq_point(inst, out["x"], value)
    return problems


# ---------------------------------------------------------------------------
# structured QCQPs
# ---------------------------------------------------------------------------


def qcqp_values(inst, x):
    x = np.asarray(x, dtype=float)
    quads = np.array([float(x @ blk.dense() @ x) for blk in inst.blocks])
    return inst.a @ quads + 2.0 * (inst.b @ x) + inst.c


def qcqp_blocks(item, out, skew=0.0):
    inst, res = item["inst"], out["res"]
    if res.status != "Optimal":
        return [Failed(f"solver status {res.status}")]
    if not out["cert"].holds:
        return ["exactness condition fails on an instance exact by construction"]
    x = out["x"]
    problems = []
    if not inst.is_feasible(x):
        problems.append("recovered point fails QcqpInstance.is_feasible")
    g0 = float(qcqp_values(inst, x)[0]) + skew
    if not _rel_close(g0, res.objective, OBJ_REL):
        problems.append(f"recovered objective {g0:.9g} != relaxation value {res.objective:.9g}")
    return problems


# ---------------------------------------------------------------------------
# Chebyshev centers
# ---------------------------------------------------------------------------


def cheby_result(balls, center, weights, v_dcc, gamma, ratio, lower, upper, far, skew=0.0):
    problems = []
    scale = 1.0 + float(balls.radii.max()) ** 2
    tol = 1e-6 * scale
    dist = np.linalg.norm(balls.centers - np.asarray(far)[None, :], axis=1)
    if np.any(dist > balls.radii + FEAS_REL * scale):
        problems.append("far point lies outside the intersection")
    w = np.asarray(weights)
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        problems.append("center weights leave the simplex")
    if np.abs(balls.centers.T @ w - np.asarray(center)).max() > 1e-9 * scale:
        problems.append("center is not the weighted sum of ball centers")
    v = float(w @ (balls.radii**2 - np.sum(balls.centers**2, axis=1))) + float(
        np.sum((balls.centers.T @ w) ** 2)
    ) + skew
    if abs(v - v_dcc) > tol:
        problems.append(f"center value {v_dcc:.9g}, recomputed {v:.9g}")
    far_val = float(np.sum((np.asarray(far) - np.asarray(center)) ** 2))
    if abs(far_val - lower) > tol:
        problems.append(f"attained lower end {lower:.9g} != ||far - center||^2 {far_val:.9g}")
    # the construction puts a common point at scaled distance 0.5/r_i
    if not 0.0 <= gamma <= 0.5 / float(balls.radii.min()) + 1e-6:
        problems.append(f"gamma {gamma:.9g} out of range")
    want = ((1.0 - gamma) / (math.sqrt(2.0) + gamma)) ** 2
    if abs(want - ratio) > 1e-12:
        problems.append("guaranteed ratio does not match gamma")
    if not (lower <= upper + tol and abs(upper - v_dcc) <= tol and lower >= ratio * v_dcc - tol):
        problems.append("certificate chain broken")
    return problems


def cheby_many_cones(item, out, skew=0.0):
    r = out["result"]
    return cheby_result(
        item["inst"], r.center, r.weights, r.v_dcc, r.gamma, r.guaranteed_ratio,
        r.attained[0], r.attained[1], r.far_point, skew,
    )


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------


def cli_report(item, code, report, skew=0.0):
    """Exit code 0 and a structured report whose claims hold."""
    if code != 0:
        return [Failed(f"exit code {code}")]
    if report is None:
        return ["no structured report"]
    inst, command = item["inst"], item["command"]
    if command == "cheby":
        return cheby_result(
            inst, report["center"], report["weights"], report["v_dcc"], report["gamma"],
            report["guaranteed_ratio"], report["attained_lower"], report["attained_upper"],
            report["far_point"], skew,
        )
    if command == "approx":
        x = np.asarray(report["x"])
        f = uq_values(inst, x)
        problems = []
        scale = _bound_scale(inst.bounds, inst.d)
        if _violation(inst.bounds, f[1:]) > FEAS_REL * scale:
            problems.append("approximate point is infeasible")
        got = float(report["objective_original_coordinates"])
        if not _rel_close(float(f[0]) + skew, got, OBJ_REL):
            problems.append(f"reported objective {got:.9g}, recomputed {f[0]:.9g}")
        ratio, lower, upper = (report["guaranteed_ratio"], report["achieved_value"],
                               report["relaxation_value"])
        if not ratio * upper - 1e-6 * (1.0 + abs(upper)) <= lower <= upper + 1e-6 * (1.0 + abs(upper)):
            problems.append("achieved value outside [ratio * relaxation, relaxation]")
        return problems
    status = report.get("solver", {}).get("status")
    if status != "Optimal":
        return [Failed(f"solver status {status}")]
    value = float(report["relaxation_value"])
    if not math.isfinite(value):
        return ["relaxation value is not finite"]
    problems = []
    if "exact" in item and report.get("exact") != item["exact"]:
        problems.append(f"exactness verdict {report.get('exact')}, expected {item['exact']}")
    if item["kind"] == "qcqp" and not report["certificate"]["holds"]:
        problems.append("exactness condition fails on an instance exact by construction")
    if "recovered" in report:
        x = np.asarray(report["recovered"]["x"])
        if item["kind"] == "qcqp":
            g = qcqp_values(inst, x)
            scale = _bound_scale(inst.bounds, inst.c)
            if _violation(inst.bounds, g[1:]) > FEAS_REL * scale:
                problems.append("recovered point is infeasible")
            if not _rel_close(float(g[0]) + skew, value, OBJ_REL):
                problems.append(f"recovered objective {g[0]:.9g} != relaxation value {value:.9g}")
        else:
            problems += uq_point(inst, x, value - skew)
    elif item.get("exact"):
        problems.append("exact instance without a recovered point")
    return problems


def cli_batch(code, report, names, values, skews):
    """Problems per solve file of one batch run: every file gets a row, each
    Optimal with the value of its own single-file run.  The exit code is the
    worst over the files, so it must be 0 exactly when every row is fine.
    Non-finite values arrive as strings ("inf"), which ``float`` parses."""
    if report is None:
        return {name: [Failed(f"batch exit code {code} without a report")] for name in names}
    rows = {row.get("file"): row for row in report.get("batch", [])}
    problems = {}
    for name in names:
        row = rows.get(name)
        if row is None:
            problems[name] = ["no batch row"]
            continue
        if row.get("status") != "Optimal":
            problems[name] = [Failed(f"batch status {row.get('status', row.get('error'))}")]
            continue
        want = values.get(name)
        got = float(row["value"]) + skews.get(name, 0.0)
        if want is not None and not _rel_close(got, want, 1e-9):
            problems[name] = [f"batch value {got:.12g} != single run {want:.12g}"]
        else:
            problems[name] = []
    if code != 0 and not any(problems.values()):
        return {name: [f"batch exit code {code} with every row Optimal"] for name in names}
    return problems
