import json
import math

import numpy as np
import pytest

from socqp import cli, fileio, solve_instance
from socqp.conesolver import SolveOptions
from socqp.errors import WrongShape
from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, QcqpInstance, UqInstance

_SIGNS = np.array([[1.0, -1.0], [0.0, 1.0]])
_BLOCKS = [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)]

SHAPES = {
    "uq_pd": UqInstance(
        2, SymMatrix.identity(2), np.array([[0.4, 0.0], [0.2, 0.1]]), np.zeros(2),
        [Bound(-math.inf, 1.0)],
    ),
    "uq_psd_singular": UqInstance(
        2, SymMatrix.from_dense(np.diag([1.0, 0.0])),
        np.array([[0.2, 0.0], [0.0, 0.3], [0.0, -0.3]]), np.zeros(3),
        [Bound(-1.0, 1.0), Bound(-1.0, 1.0)],
    ),
    "uq_indefinite": UqInstance(
        2, SymMatrix.from_dense(np.diag([1.0, -1.0])), np.zeros((2, 2)), np.zeros(2),
        [Bound(-1.0, 1.0)],
    ),
    "qcqp_one_sided": QcqpInstance(
        2, _BLOCKS, _SIGNS, np.array([[0.1, 0.0], [0.0, 0.0]]), np.zeros(2),
        [Bound(-math.inf, 1.0)],
    ),
    "qcqp_two_sided": QcqpInstance(
        2, _BLOCKS, _SIGNS, np.array([[0.1, 0.0], [0.0, 0.0]]), np.zeros(2),
        [Bound(0.25, 1.0)],
    ),
    "qcqp_max": QcqpInstance(
        2, _BLOCKS, _SIGNS * [[-1.0], [1.0]], np.array([[-0.1, 0.0], [0.0, 0.0]]),
        np.array([-0.2, 0.0]), [Bound(-math.inf, 1.0)], sense="max",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_library_report_is_the_cli_report(shape, tmp_path, capsys):
    # the CLI renders the library's report and adds only its tolerances
    inst = SHAPES[shape]
    path = tmp_path / f"{shape}.json"
    fileio.save_instance(inst, path)
    code = cli.main(["solve", str(path), "--report-format", "structured", "--tol-feas", "1e-7"])
    printed = json.loads(capsys.readouterr().out)
    assert code == 0
    assert printed.pop("tolerances")["tol_feas"] == 1e-7
    report = solve_instance(inst, SolveOptions(feastol=1e-7))
    assert json.loads(json.dumps(cli._jsonable(report))) == printed
    # every shape here is exact and recovers a point at the relaxation value
    assert report["exact"] is True
    assert report["recovered"]["objective"] == pytest.approx(report["relaxation_value"], abs=1e-5)
    assert ("duality" in report) == (shape in ("uq_pd", "uq_psd_singular"))


def test_default_options_and_wrong_shape():
    assert solve_instance(SHAPES["uq_pd"])["solver"]["status"] == "Optimal"
    balls = BallIntersection(2, np.zeros((1, 2)), np.ones(1))
    with pytest.raises(WrongShape, match="uq or qcqp"):
        solve_instance(balls)
