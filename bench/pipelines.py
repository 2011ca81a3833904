"""The timed path of each workload.

Every call into the library goes through a module attribute
(``reformulate.build_socp_uq`` rather than a name imported once), so the
wrappers that the traced run installs on those attributes see each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

from socqp import chebyshev, conesolver, recover, reformulate

CLI_LAUNCH = "import sys; from socqp.cli import main; sys.exit(main())"


def uq_medium(item):
    """What ``socqp solve`` runs on a positive definite uniform instance."""
    inst = item["inst"]
    prog, meta = reformulate.build_socp_uq(inst)
    cert = reformulate.check_as3(inst)
    res = conesolver.solve(prog)
    out = {"res": res, "meta": meta, "cert": cert, "duality": None, "x": None}
    if res.status != "Optimal":
        return out
    out["duality"] = conesolver.certify_strong_duality(inst, res)
    if cert.holds:
        out["x"], _ = recover.tighten_uq(inst, res)
    return out


def cheby_many_cones(item):
    return {"result": chebyshev.chebyshev_certified(item["inst"])}


def qcqp_blocks(item):
    inst = item["inst"]
    if item["two_sided"]:
        prog, meta = reformulate.build_cr2(inst)
        cert = reformulate.check_condition_cc(inst, reformulate.lift_set_twosided(inst))
    else:
        prog, meta = reformulate.build_cr(inst)
        cert = reformulate.check_condition_c(inst, reformulate.lift_set_onesided(inst))
    res = conesolver.solve(prog)
    out = {"res": res, "meta": meta, "cert": cert, "x": None}
    if res.status == "Optimal" and cert.holds:
        out["x"], _ = recover.tighten_qcqp(inst, res, meta)
    return out


def cli_argv(command, path):
    return [command, str(path), "--report-format", "structured"]


def cli_process(command, path, env, cwd):
    """One ``socqp`` process, start to exit; the launcher is the console
    script's own body."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_LAUNCH, *cli_argv(command, path)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def cli_inprocess(cli_module, command, path):
    """``cli.main`` in this process, for the traced run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main(cli_argv(command, path))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_report(out):
    return json.loads(out["stdout"]) if out["stdout"].strip() else None


PIPELINES = {
    "uq_medium": uq_medium,
    "cheby_many_cones": cheby_many_cones,
    "qcqp_blocks": qcqp_blocks,
}
