import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socqp import cli, errors, fileio, model, recover, reformulate
from socqp.errors import InvalidInstance, ParseError
from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, QcqpInstance, UqInstance


@pytest.fixture
def gap1d_file(tmp_path):
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    path = tmp_path / "gap1d.json"
    fileio.save_instance(inst, path)
    return path


@pytest.fixture
def exact_file(tmp_path):
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.4, 0.0], [0.2, 0.1]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "exact.json"
    fileio.save_instance(inst, path)
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


def test_round_trip_byte_identical(tmp_path):
    objs = [
        UqInstance(
            2,
            SymMatrix.from_dense(np.array([[2.0, 0.5], [0.5, 1.0]])),
            np.array([[0.1, -0.2], [0.3, 0.7]]),
            np.array([0.0, 0.25]),
            [Bound(-math.inf, 1.5)],
        ),
        QcqpInstance(
            2,
            [SymMatrix.identity(2)],
            np.array([[-1.0], [1.0]]),
            np.array([[0.0, 0.0], [0.1, 0.0]]),
            np.zeros(2),
            [Bound(-math.inf, 1.0)],
        ),
        BallIntersection(2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0])),
        ("ilp", np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])),
    ]
    for k, obj in enumerate(objs):
        text = fileio.dumps_instance(obj)
        assert fileio.dumps_instance(fileio.parse_instance(text)) == text, k


def test_parse_diagnostics():
    with pytest.raises(ParseError, match="bounds"):
        fileio.parse_instance(
            json.dumps(
                {
                    "kind": "uq",
                    "n": 1,
                    "q": [1.0],
                    "b": [[0.0], [0.0]],
                    "d": [0.0, 0.0],
                    "bounds": [{"low": 0, "hi": 1}],
                }
            )
        )
    with pytest.raises(ParseError, match="kind"):
        fileio.parse_instance("{}")


_UQ_DOC = {"kind": "uq", "n": 1, "q": [1.0], "b": [[0.0], [0.0]], "d": [0.0, 0.0],
           "bounds": [{"lo": "-inf", "hi": 1.0}]}
_QCQP_DOC = {"kind": "qcqp", "n": 1, "sense": "min", "blocks": [[1.0]], "signs": [[1.0], [1.0]],
             "b": [[0.0], [0.0]], "c": [0.0, 0.0], "bounds": [{"lo": "-inf", "hi": 1.0}]}
_BALLS_DOC = {"kind": "balls", "n": 1, "centers": [[0.0]], "radii": [1.0]}
_ILP_DOC = {"kind": "ilp", "n": 1, "c": [1.0], "rows": [{"a": [1.0], "rhs": 1.0}]}


@pytest.mark.parametrize(
    "doc, match",
    [
        ({**_UQ_DOC, "q": ["1"]}, r"q\[0\]: expected a number, got '1'"),
        ({**_UQ_DOC, "d": [0.0]}, r"d: expected a list of 2 numbers"),
        ({**_UQ_DOC, "b": [[0.0]]}, r"b: expected 2 rows"),
        ({k: v for k, v in _UQ_DOC.items() if k != "d"}, r"uq instance: missing fields \['d'\]"),
        ({**_BALLS_DOC, "colour": "red"}, r"balls instance: unknown fields \['colour'\]"),
        ({**_UQ_DOC, "kind": "lp"}, r"unknown kind 'lp'"),
        ({**_ILP_DOC, "rows": [{"a": [1.0]}]}, re.escape('rows[0] must be {"a": [...], "rhs": ...}')),
        ({**_UQ_DOC, "b": [[0.0]], "d": [0.0], "bounds": []},
         r"uq instance malformed: at least one constraint is required"),
        ({**_QCQP_DOC, "sense": "up"}, r"qcqp instance malformed: sense must be 'min' or 'max'"),
        ({**_QCQP_DOC, "signs": [[1.0], [2.0]]},
         r"qcqp instance malformed: sign coefficients must lie in \{-1, 0, 1\}"),
        ({**_BALLS_DOC, "radii": [0.0]}, r"balls instance malformed: radii must be positive"),
    ],
)
def test_parse_names_each_malformed_field(doc, match):
    # one document per rejection of fileio's own checks and of the instance
    # checks that a file can reach
    with pytest.raises(ParseError, match=match):
        fileio.parse_instance(json.dumps(doc))


ILP_NAN = '{"kind": "ilp", "n": 2, "c": [NaN, 1.0], "rows": [{"a": [1.0, 1.0], "rhs": 1.0}]}'


def _ilp_rhs(literal):
    return '{"kind": "ilp", "n": 1, "c": [1.0], "rows": [{"a": [1.0], "rhs": %s}]}' % literal


@pytest.mark.parametrize(
    "text, match",
    [
        (ILP_NAN, "finite number"),
        (_ilp_rhs("Infinity"), "finite number"),
        (_ilp_rhs("-1e999"), "finite number"),
        (_ilp_rhs("1" + "0" * 400), "finite number"),
        (_ilp_rhs("1" + "0" * 5000), "invalid JSON"),
        ('{"kind": "balls", "n": 1, "centers": [[0.0]], "radii": [-Infinity]}', "finite number"),
        ('{"kind": "ilp", "n": true, "c": [1.0], "rows": []}', "positive integer"),
    ],
)
def test_parse_rejects_non_finite_numbers_and_boolean_n(text, match):
    with pytest.raises(ParseError, match=match):
        fileio.parse_instance(text)


@pytest.mark.parametrize("command", ["reduce-ilp", "oracle"])
def test_non_finite_ilp_file_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "nan.json"
    path.write_text(ILP_NAN, encoding="utf-8")
    code, out = run(capsys, command, str(path))
    assert code == 2
    assert "parse error" in out.err and "finite" in out.err


def test_solve_gap_instance_reports_no_claim(capsys, gap1d_file):
    code, out = run(capsys, "solve", str(gap1d_file), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["relaxation_value"] == pytest.approx(3.0, abs=1e-6)
    assert rep["certificate"]["holds"] is False
    assert rep["exact"] is False
    assert rep["duality"]["holds"] is True
    assert "tolerances" in rep


def test_solve_exact_instance_recovers(capsys, exact_file):
    code, out = run(capsys, "solve", str(exact_file), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["exact"] is True
    assert rep["recovered"]["worst_violation"] <= 1e-6
    assert rep["recovered"]["objective"] == pytest.approx(
        rep["relaxation_value"], abs=1e-5
    )


def test_exact_needs_the_dual_certificate(capsys, exact_file, monkeypatch):
    # a rank certificate that holds next to a failing dual certificate is no
    # exactness claim, and the note names the certificate that failed
    certify = reformulate.certify_strong_duality
    monkeypatch.setattr(
        reformulate,
        "certify_strong_duality",
        lambda inst, res: dataclasses.replace(certify(inst, res), holds=False),
    )
    code, out = run(capsys, "solve", str(exact_file), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["certificate"]["holds"] is True and rep["duality"]["holds"] is False
    assert rep["exact"] is False and "recovered" not in rep
    assert "dual certificate fails" in rep["note"]


def test_solve_tol_rank_reaches_tightening(tmp_path, capsys):
    # rows (1,0), (1,1e-6), (1,0) have rank 1 at --tol-rank 1e-4, so the
    # instance is exact; tightening must judge it with the same tolerance
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.3, 0.2], [1.0, 0.0], [1.0, 1e-6], [1.0, 0.0]]),
        np.zeros(4),
        [Bound(-math.inf, 1.0)] * 3,
    )
    path = tmp_path / "near_rank.json"
    fileio.save_instance(inst, path)
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", "1e-4", "--report-format", "structured"
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["certificate"]["holds"] is True
    assert rep["exact"] is True
    assert rep["recovered"]["worst_violation"] <= 1e-6
    assert rep["recovered"]["objective"] == pytest.approx(
        rep["relaxation_value"], abs=1e-5
    )


def test_solve_tol_rank_closes_open_cone_in_rank_null_space(tmp_path, capsys):
    # with b_0 the mean of the same near-rank rows every row is active along
    # a segment of optima, so the cone is open; the step direction must be
    # the null space at --tol-rank 1e-4, not at the default tolerance
    rows = np.array([[1.0, 0.0], [1.0, 1e-6], [1.0, 0.0]])
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.vstack([rows.mean(axis=0), rows]),
        np.zeros(4),
        [Bound(-math.inf, 1.0)] * 3,
    )
    path = tmp_path / "near_rank_open.json"
    fileio.save_instance(inst, path)
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", "1e-4", "--report-format", "structured"
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    # the row of size 1e-6 moves by about 3e-7: beyond the default --tol-feas,
    # so the certificate holds but the point is not called exact
    assert rep["certificate"]["holds"] is True
    assert rep["exact"] is False and rep["recovered"]["feasible"] is False
    assert "not exact" in rep["note"] and "--tol-feas" in rep["note"]
    assert rep["recovered"]["worst_violation"] <= 1e-6
    assert rep["recovered"]["objective"] == pytest.approx(
        rep["relaxation_value"], abs=1e-5
    )


def test_solve_tol_rank_reaches_qcqp_tightening(tmp_path, capsys):
    # at --tol-rank 1e-4 the 1e-6 entry drops out of R(Q_1), so the union
    # N(Q_0) + R(Q_1) is span{e2} and the certificate holds; tightening must
    # take its subspaces at the same tolerance and close block 0 along e1
    inst = QcqpInstance(
        2,
        [
            SymMatrix.from_dense(np.diag([1.0, 0.0])),
            SymMatrix.from_dense(np.diag([1e-6, 1.0])),
        ],
        np.array([[-1.0, 1.0], [1.0, 1.0]]),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "near_rank_blocks.json"
    fileio.save_instance(inst, path)
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", "1e-4", "--report-format", "structured"
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["certificate"]["holds"] is True
    # block 0's row is violated by about 1e-6, beyond the default --tol-feas
    assert rep["exact"] is False and rep["recovered"]["feasible"] is False
    assert rep["recovered"]["objective"] == pytest.approx(rep["relaxation_value"], abs=1e-5)
    assert rep["recovered"]["worst_violation"] <= 1e-5


@pytest.mark.parametrize(
    "entry, tol_rank, tol_feas, feasible",
    [
        pytest.param(1e-6, "1e-4", "1e-8", False, id="1e-8-False"),
        pytest.param(1e-6, "1e-4", "1e-5", True, id="1e-5-True"),
        pytest.param(1e-5, "1e-3", "1e-8", False, id="entry-1e-5-1e-8-False"),
        pytest.param(1e-5, "1e-3", "1e-4", True, id="entry-1e-5-1e-4-True"),
    ],
)
def test_recovered_point_reports_feasibility_at_tol_feas(
    tmp_path, capsys, entry, tol_rank, tol_feas, feasible
):
    # the near-rank instance above, with block 1's small entry below
    # --tol-rank, recovers a point that violates block 0's row by about that
    # entry: the certificate holds, yet the point is not feasible to 1e-8, so
    # it is called exact only at the looser --tol-feas.  That is the one
    # verdict on the rows: tightening does not judge them, so the run exits 0
    inst = QcqpInstance(
        2,
        [
            SymMatrix.from_dense(np.diag([1.0, 0.0])),
            SymMatrix.from_dense(np.diag([entry, 1.0])),
        ],
        np.array([[-1.0, 1.0], [1.0, 1.0]]),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "near_rank_blocks.json"
    fileio.save_instance(inst, path)
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", tol_rank, "--tol-feas", tol_feas,
        "--report-format", "structured",
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["certificate"]["holds"] is True
    assert rep["exact"] is feasible
    assert rep["recovered"]["feasible"] is feasible
    assert rep["recovered"]["worst_violation"] == pytest.approx(entry, rel=1e-3)
    assert ("note" in rep) is not feasible
    if not feasible:
        assert "--tol-feas" in rep["note"]


@pytest.mark.parametrize("command", ["approx", "cheby"])
def test_iteration_cap_is_a_solver_failure(tmp_path, capsys, command):
    if command == "approx":
        obj = UqInstance(
            2,
            SymMatrix.identity(2),
            np.array([[0.3, 0.1], [0.2, -0.1]]),
            np.zeros(2),
            [Bound(-math.inf, 1.0)],
        )
    else:
        obj = BallIntersection(2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0]))
    path = tmp_path / f"{command}.json"
    fileio.save_instance(obj, path)
    code, out = run(capsys, command, str(path), "--max-iter", "1")
    assert code == 4, out.err
    assert "solver failure" in out.err and "MaxIter" in out.err


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "uq"', encoding="utf-8")
    code, out = run(capsys, "solve", str(bad))
    assert code == 2
    assert "parse error" in out.err


def test_solve_missing_file(capsys):
    code, out = run(capsys, "solve", "/nonexistent/path.json")
    assert code == 2


def test_solve_qcqp_file(tmp_path, capsys):
    inst = QcqpInstance(
        2,
        [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)],
        np.array([[1.0, -1.0], [0.0, 1.0]]),
        np.array([[0.1, 0.0], [0.0, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "q.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["kind"] == "qcqp"
    assert rep["certificate"]["holds"] is True
    assert rep["recovered"]["worst_violation"] <= 1e-6


def test_solve_psd_singular_uq(tmp_path, capsys):
    # Q = diag(1, 0) with opposed null-direction rows: bounded, condition holds
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, 0.0])),
        np.array([[0.2, 0.0], [0.0, 0.3], [0.0, -0.3]]),
        np.zeros(3),
        [Bound(-1.0, 1.0), Bound(-1.0, 1.0)],
    )
    path = tmp_path / "psd.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["shape"] == "psd_singular"
    assert rep["relaxation_value"] == pytest.approx(1.4, abs=1e-6)
    assert rep["certificate"]["holds"] is True
    assert rep["certificate"]["rank"] == 1 and "dims" not in rep["certificate"]
    assert rep["duality"]["holds"] is True
    assert rep["recovered"]["objective"] == pytest.approx(1.4, abs=1e-5)
    assert rep["recovered"]["worst_violation"] <= 1e-6


def test_solve_indefinite_uq(tmp_path, capsys):
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, -1.0])),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    path = tmp_path / "indef.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["shape"] == "indefinite"
    assert rep["relaxation_value"] == pytest.approx(1.0, abs=1e-6)
    assert rep["certificate"]["holds"] is True
    assert rep["recovered"]["worst_violation"] <= 1e-6
    assert rep["recovered"]["objective"] == pytest.approx(1.0, abs=1e-5)


def test_solve_unbounded_qcqp_exits_3(tmp_path, capsys):
    inst = QcqpInstance(
        2,
        [SymMatrix.identity(2)],
        np.array([[-1.0], [0.0]]),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, math.inf)],
    )
    path = tmp_path / "unb.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 3
    rep = json.loads(out.out)
    assert rep["solver"]["status"] == "Unbounded"


def test_solve_unbounded_max_qcqp_note_follows_the_sense(tmp_path, capsys):
    # max x'x subject to x_1 <= 1 grows without bound along x_2
    inst = QcqpInstance(
        2,
        [SymMatrix.identity(2)],
        np.array([[1.0], [0.0]]),
        np.array([[0.0, 0.0], [0.5, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
        sense="max",
    )
    path = tmp_path / "unb_max.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 3
    rep = json.loads(out.out)
    assert rep["solver"]["status"] == "Unbounded"
    assert "unbounded above" in rep["note"]


def test_solve_qcqp_with_no_constraints_reports_unbounded(tmp_path, capsys):
    # max x'x + 2 b_0'x with no rows: the lifted t has no row to stop it
    path = tmp_path / "p0.json"
    path.write_text(
        '{"kind": "qcqp", "n": 2, "sense": "max", "blocks": [[1.0, 0.0, 1.0]], '
        '"signs": [[1.0]], "b": [[0.1, 0.2]], "c": [0.0], "bounds": []}',
        encoding="utf-8",
    )
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 3, out.err
    rep = json.loads(out.out)
    assert rep["p"] == 0 and rep["certificate"]["dims"] == {"0": 0}
    assert rep["solver"]["status"] == "Unbounded"
    assert "unbounded above" in rep["note"]


def test_solve_and_gamma_read_definiteness_alike(tmp_path, capsys):
    # diag(1, 1e-10) is singular PSD at the default tol_rank: solve says so,
    # and gamma_uq (so approx) refuses it as not positive definite
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, 1e-10])),
        np.array([[0.0, 0.0], [0.0, 0.5]]),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    path = tmp_path / "tiny_eig.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0, out.err
    assert json.loads(out.out)["shape"] == "psd_singular"
    with pytest.raises(InvalidInstance):
        recover.gamma_uq(inst)


def test_approx_command(tmp_path, capsys):
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "ball.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "approx", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["gamma"] == 0.0
    assert rep["guaranteed_ratio"] == pytest.approx(0.5)
    assert rep["achieved_value"] >= 0.5 * rep["relaxation_value"] - 1e-9


def test_approx_translates_when_needed(tmp_path, capsys):
    # ||x - e1||^2 <= 0.5 written in uniform form: the origin is infeasible
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.0, 0.0], [-1.0, 0.0]]),
        np.array([0.0, 1.5]),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "shifted.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "approx", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    # the centre of least gamma is the ball's centre e1
    assert rep["centre"] == pytest.approx([1.0, 0.0], abs=1e-6)
    assert rep["gamma"] == pytest.approx(0.0, abs=1e-6)
    assert rep["worst_violation"] <= 1e-6


def test_approx_centres_even_at_an_interior_origin(tmp_path, capsys, monkeypatch):
    # d_0 = 0 and the origin strictly interior: approx still makes both cone
    # solves, the relaxation and the search for the point of least gamma,
    # each with the command's flags
    seen = []
    solve = recover.solve

    def recording(prog, opts=None):
        seen.append(opts)
        return solve(prog, opts)

    monkeypatch.setattr(recover, "solve", recording)
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.4, 0.0], [0.2, 0.1]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    assert inst.is_feasible(np.zeros(2), 0.0) and recover.gamma_uq(inst) < 0.5
    path = tmp_path / "interior.json"
    fileio.save_instance(inst, path)
    flags = ("--tol-feas", "1e-7", "--gap", "1e-7", "--max-iter", "77")
    code, out = run(capsys, "approx", str(path), *flags, "--report-format", "structured")
    assert code == 0, out.err
    assert len(seen) == 2
    for opts in seen:
        assert opts is not None and (opts.feastol, opts.gaptol, opts.max_iter) == (1e-7, 1e-7, 77)
    # one row: its ellipsoid's centre -Q^(-1) b_1 is the point of least gamma
    assert json.loads(out.out)["centre"] == pytest.approx([-0.2, -0.1], abs=1e-6)


def test_approx_passes_its_solver_flags_to_both_cone_solves(tmp_path, capsys, monkeypatch):
    # d_0 != 0 makes approx centre at the point of least gamma: that solve
    # and the relaxation solve both run with the command's flags
    seen = []
    solve = recover.solve

    def recording(prog, opts=None):
        seen.append(opts)
        return solve(prog, opts)

    monkeypatch.setattr(recover, "solve", recording)
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.4, 0.0], [0.2, 0.1]]),
        np.array([0.5, 0.0]),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "lifted.json"
    fileio.save_instance(inst, path)
    flags = ("--tol-feas", "1e-7", "--gap", "1e-7", "--max-iter", "77")
    code, out = run(capsys, "approx", str(path), *flags)
    assert code == 0, out.err
    assert len(seen) == 2
    for opts in seen:
        assert opts is not None and (opts.feastol, opts.gaptol, opts.max_iter) == (1e-7, 1e-7, 77)


def test_approx_at_tight_tolerances_centres_at_a_capped_solves_point(tmp_path, capsys):
    # at --tol-feas 1e-12 --gap 1e-12 the least-gamma solve of this n = 3
    # instance ends MaxIter while its relaxation reaches Optimal; gamma is read
    # at the returned point, which is interior, so approx still certifies
    from helpers import translated_uq_cases

    inst, _ = list(translated_uq_cases(4))[3]
    inst = dataclasses.replace(inst, d=np.r_[0.0, inst.d[1:]])
    path = tmp_path / "tight.json"
    fileio.save_instance(inst, path)
    flags = ("--tol-feas", "1e-12", "--gap", "1e-12", "--report-format", "structured")
    code, out = run(capsys, "approx", str(path), *flags)
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert 0.0 < rep["gamma"] < 1.0
    assert rep["worst_violation"] <= 1e-6


def test_cheby_command(tmp_path, capsys):
    balls = BallIntersection(
        2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0])
    )
    path = tmp_path / "balls.json"
    fileio.save_instance(balls, path)
    code, out = run(capsys, "cheby", str(path), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["v_dcc"] == pytest.approx(0.75, abs=1e-6)
    assert rep["attained_lower"] <= rep["attained_upper"] + 1e-9


def test_cheby_empty_interior_exits_3(tmp_path, capsys):
    balls = BallIntersection(
        2, np.array([[1.5, 0.0], [-1.5, 0.0]]), np.array([1.0, 1.0])
    )
    path = tmp_path / "empty.json"
    fileio.save_instance(balls, path)
    code, _ = run(capsys, "cheby", str(path))
    assert code == 3


def test_reduce_ilp_round_trip(tmp_path, capsys):
    ilp = ("ilp", np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    src = tmp_path / "ilp.json"
    out_path = tmp_path / "reduced.json"
    fileio.save_instance(ilp, src)
    code, _ = run(capsys, "reduce-ilp", str(src), "-o", str(out_path))
    assert code == 0
    reduced = fileio.load_instance(out_path)
    assert isinstance(reduced, UqInstance)
    from socqp import oracle

    value, arg = oracle.binary_max_uq(reduced)
    assert value == 2.0 and np.allclose(arg, [1.0, 0.0])


def test_oracle_command_uq(capsys, gap1d_file):
    code, out = run(
        capsys,
        "oracle",
        str(gap1d_file),
        "--grid-h",
        "1e-4",
        "--report-format",
        "structured",
    )
    assert code == 0
    rep = json.loads(out.out)
    assert rep["value"] == pytest.approx(1.0, abs=2e-4)


ILP_2X = ("ilp", np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))


def test_reduce_ilp_writes_to_stdout(tmp_path, capsys):
    src = tmp_path / "ilp.json"
    fileio.save_instance(ILP_2X, src)
    code, out = run(capsys, "reduce-ilp", str(src))
    assert code == 0
    assert out.out == fileio.dumps_instance(model.ilp_to_uq(*ILP_2X[1:]))


def test_oracle_command_ilp(tmp_path, capsys):
    # max 2 x1 + x2 over x1 + x2 <= 1, x binary: x = (1, 0), value 2, exact
    src = tmp_path / "ilp.json"
    fileio.save_instance(ILP_2X, src)
    code, out = run(capsys, "oracle", str(src), "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert rep["value"] == 2.0 and rep["argmax"] == [1.0, 0.0] and rep["error_bound"] == 0.0


def test_oracle_command_balls(tmp_path, capsys):
    # the lens of the unit balls at (+-0.5, 0) has its corners at (0, +-sqrt(0.75)):
    # the smallest enclosing ball is centred at 0 with squared radius 0.75
    path = tmp_path / "balls.json"
    fileio.save_instance(BallIntersection(2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.ones(2)), path)
    code, out = run(capsys, "oracle", str(path), "--grid-h", "0.01", "--report-format", "structured")
    assert code == 0
    rep = json.loads(out.out)
    assert abs(rep["value"] - 0.75) <= rep["error_bound"]


@pytest.mark.parametrize("command, kind", [
    ("approx", "ilp"), ("cheby", "uq"), ("reduce-ilp", "balls"), ("oracle", "qcqp"),
])
def test_command_given_the_wrong_kind_exits_3(tmp_path, capsys, command, kind):
    objs = {
        "ilp": ILP_2X,
        "uq": UqInstance(1, SymMatrix.identity(1), np.zeros((2, 1)), np.zeros(2),
                         [Bound(-math.inf, 1.0)]),
        "balls": BallIntersection(1, np.zeros((1, 1)), np.ones(1)),
        "qcqp": QcqpInstance(1, [SymMatrix.identity(1)], np.array([[1.0], [1.0]]),
                             np.zeros((2, 1)), np.zeros(2), [Bound(-math.inf, 1.0)]),
    }
    path = tmp_path / f"{kind}.json"
    fileio.save_instance(objs[kind], path)
    code, out = run(capsys, command, str(path))
    assert code == 3
    assert out.err.startswith("precondition/certificate failure: ")


def test_tol_rank_reaches_block_psd_check(tmp_path, capsys):
    # block 0 is packed [1, 0, -1e-6] = diag(1, -1e-6): PSD at 1e-4, not at 1e-8
    doc = {
        "kind": "qcqp", "n": 2, "sense": "min",
        "blocks": [[1.0, 0.0, -1e-6], [1.0, 0.0, 1.0]],
        "signs": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.1, 0.0], [0.0, 0.0]],
        "c": [0.0, 0.0], "bounds": [{"lo": "-inf", "hi": 1.0}],
    }
    path = tmp_path / "near_psd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "solve", str(path))
    assert code == 2
    assert "not PSD at tolerance 1e-08" in out.err
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", "1e-4", "--report-format", "structured"
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["solver"]["status"] == "Optimal"
    assert rep["relaxation_value"] == pytest.approx(-0.01, abs=1e-6)


def test_tol_rank_reaches_psd_singular_uq_view(tmp_path, capsys):
    # Q = diag(1, -1e-6) is singular PSD at --tol-rank 1e-4; its one-block
    # view must accept Q at that tolerance too
    doc = {
        "kind": "uq", "n": 2, "q": [1.0, 0.0, -1e-6], "b": [[0.1, 0.0], [0.0, 0.0]],
        "d": [0.0, 0.0], "bounds": [{"lo": "-inf", "hi": 1.0}],
    }
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(
        capsys, "solve", str(path), "--tol-rank", "1e-4", "--report-format", "structured"
    )
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["shape"] == "psd_singular" and rep["exact"] is True
    assert rep["certificate"]["rank"] == 1 and rep["duality"]["holds"] is True
    assert rep["relaxation_value"] == pytest.approx(1.2, abs=1e-6)
    assert rep["recovered"]["objective"] == pytest.approx(1.2, abs=1e-6)


def test_batch_mode(tmp_path, capsys, gap1d_file, exact_file):
    import shutil

    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(gap1d_file, batch / "a.json")
    shutil.copy(exact_file, batch / "b.json")
    code, out = run(capsys, "solve", str(batch), "--tol-rank", "1e-6", "--max-iter", "150")
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0].startswith("a.json")
    assert lines[1].startswith("b.json") and "exact=True" in lines[1]
    # the rows end with the tolerances block, so the run can be reproduced
    assert lines[2:] == [
        "tolerances:", "  tol_rank: 1e-06", "  tol_feas: 1e-08", "  gap: 1e-08", "  max_iter: 150",
    ]


def test_batch_goes_on_past_invalid_instance_data(tmp_path, capsys, gap1d_file, exact_file):
    import shutil

    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(gap1d_file, batch / "a.json")
    # the only block is packed [1, 0, -1] = diag(1, -1): not PSD
    bad = {
        "kind": "qcqp", "n": 2, "sense": "min", "blocks": [[1.0, 0.0, -1.0]],
        "signs": [[1.0], [1.0]], "b": [[0.0, 0.0], [0.0, 0.0]], "c": [0.0, 0.0],
        "bounds": [{"lo": "-inf", "hi": 1.0}],
    }
    (batch / "b.json").write_text(json.dumps(bad), encoding="utf-8")
    shutil.copy(exact_file, batch / "c.json")
    with pytest.raises(ParseError, match="qcqp instance"):
        fileio.load_instance(batch / "b.json")

    code, out = run(capsys, "solve", str(batch / "b.json"))
    assert code == 2
    assert "parse error" in out.err and "not PSD" in out.err

    code, out = run(capsys, "solve", str(batch), "--report-format", "structured")
    assert code == 2
    rows = json.loads(out.out)["batch"]
    assert [row["file"] for row in rows] == ["a.json", "b.json", "c.json"]
    assert rows[0]["status"] == "Optimal" and rows[2]["status"] == "Optimal"
    assert "not PSD" in rows[1]["error"]


def test_indefinite_solve_splits_q_once(tmp_path, capsys, monkeypatch):
    # one decomposition of Q, then one per spectral block of the split; the
    # recovery works on the blocks the builder already decomposed
    inst = UqInstance(
        4,
        SymMatrix.from_dense(np.diag([2.0, 1.0, -1.0, -1.5])),
        np.zeros((2, 4)),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    path = tmp_path / "indef4.json"
    fileio.save_instance(inst, path)
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["shape"] == "indefinite" and rep["exact"] is True
    assert rep["recovered"]["objective"] == pytest.approx(rep["relaxation_value"], abs=1e-5)
    assert len(calls) == 3


def test_solve_max_sense_qcqp_file(tmp_path, capsys):
    # max -g_0 over the same rows is the negated min problem: the report
    # carries the negated relaxation value and the same exactness verdict
    blocks = [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)]
    signs = np.array([[1.0, -1.0], [0.0, 1.0]])
    lin = np.array([[0.1, 0.0], [0.0, 0.0]])
    bounds = [Bound(-math.inf, 1.0)]
    twins = {
        "min": QcqpInstance(2, blocks, signs, lin, np.array([0.2, 0.0]), bounds),
        "max": QcqpInstance(
            2, blocks, signs * [[-1.0], [1.0]], lin * [[-1.0], [1.0]],
            np.array([-0.2, 0.0]), bounds, sense="max",
        ),
    }
    reps = {}
    for sense, inst in twins.items():
        path = tmp_path / f"{sense}.json"
        fileio.save_instance(inst, path)
        code, out = run(capsys, "solve", str(path), "--report-format", "structured")
        assert code == 0, out.err
        reps[sense] = json.loads(out.out)
    lo, hi = reps["min"], reps["max"]
    assert hi["sense"] == "max"
    assert hi["relaxation_value"] == pytest.approx(-lo["relaxation_value"], rel=1e-9, abs=1e-12)
    assert hi["exact"] is lo["exact"] is True
    assert hi["certificate"] == lo["certificate"]
    assert hi["recovered"]["objective"] == pytest.approx(hi["relaxation_value"], abs=1e-5)
    assert hi["recovered"]["objective"] == pytest.approx(-lo["recovered"]["objective"], abs=1e-12)
    assert hi["recovered"]["worst_violation"] <= 1e-6
    x = np.asarray(hi["recovered"]["x"])
    assert twins["max"].values(x)[0] == pytest.approx(hi["recovered"]["objective"], abs=1e-12)


def test_small_commands_run_without_scipy(tmp_path):
    # every command on tiny files, in a process where importing scipy fails:
    # small problems run on numpy alone
    files = {
        "pd.json": UqInstance(
            2, SymMatrix.identity(2), np.array([[0.4, 0.0], [0.2, 0.1]]), np.zeros(2),
            [Bound(-math.inf, 1.0)],
        ),
        "psd.json": UqInstance(
            2, SymMatrix.from_dense(np.diag([1.0, 0.0])),
            np.array([[0.2, 0.0], [0.0, 0.3], [0.0, -0.3]]), np.zeros(3),
            [Bound(-1.0, 1.0), Bound(-1.0, 1.0)],
        ),
        "indef.json": UqInstance(
            2, SymMatrix.from_dense(np.diag([1.0, -1.0])), np.zeros((2, 2)), np.zeros(2),
            [Bound(-1.0, 1.0)],
        ),
        "qcqp.json": QcqpInstance(
            2, [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)],
            np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([[0.1, 0.0], [0.0, 0.0]]),
            np.zeros(2), [Bound(-math.inf, 1.0)],
        ),
        "shifted.json": UqInstance(
            2, SymMatrix.identity(2), np.array([[0.0, 0.0], [-1.0, 0.0]]),
            np.array([0.0, 1.5]), [Bound(-math.inf, 1.0)],
        ),
        "balls.json": BallIntersection(
            2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0])
        ),
    }
    for name, obj in files.items():
        fileio.save_instance(obj, tmp_path / name)
    solved = ("pd.json", "psd.json", "indef.json", "qcqp.json")
    runs = [["solve", str(tmp_path / name)] for name in solved]
    runs += [
        ["approx", str(tmp_path / "pd.json")],
        ["approx", str(tmp_path / "shifted.json")],
        ["cheby", str(tmp_path / "balls.json")],
        ["oracle", str(tmp_path / "balls.json"), "--grid-h", "0.05"],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from socqp import cli\n"
        f"print(json.dumps([cli.main(argv) for argv in {runs!r}]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(runs), done.stderr


def test_text_report_nests_blocks(tmp_path, capsys):
    # the default report format: one "key: value" line per entry, each nested
    # block indented two spaces deeper than its key
    inst = QcqpInstance(
        2,
        [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)],
        np.array([[1.0, -1.0], [0.0, 1.0]]),
        np.array([[0.1, 0.0], [0.0, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "q.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path))
    assert code == 0, out.err
    lines = out.out.splitlines()
    assert lines[:5] == ["kind: qcqp", "n: 2", "p: 1", "sense: min", "lifted_blocks: [1]"]
    cert = lines.index("certificate:")
    assert lines[cert + 1] == "  holds: True"
    dims = lines.index("  dims:", cert)
    assert lines[dims + 1] == "    1: 1"
    assert lines[lines.index("solver:") + 1] == "  status: Optimal"
    assert "exact: True" in lines
    recovered = lines.index("recovered:")
    assert re.fullmatch(r"  x: \[\S+, \S+\]", lines[recovered + 1])
    tol = lines.index("tolerances:")
    assert lines[tol:] == [
        "tolerances:", "  tol_rank: 1e-08", "  tol_feas: 1e-08", "  gap: 1e-08", "  max_iter: 200",
    ]


def test_text_batch_rows(tmp_path, capsys, gap1d_file, exact_file):
    import shutil

    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(gap1d_file, batch / "a.json")
    (batch / "b.json").write_text('{"kind": "uq"', encoding="utf-8")
    shutil.copy(exact_file, batch / "c.json")
    code, out = run(capsys, "solve", str(batch))
    assert code == 2
    a, b, c = out.out.splitlines()[:3]
    name, kind, status, value, certificate, exact, seconds = a.split()
    assert (name, kind, status, certificate, exact) == (
        "a.json", "uq", "Optimal", "certificate=False", "exact=False"
    )
    assert float(value.removeprefix("value=")) == pytest.approx(3.0, abs=1e-6)
    assert re.fullmatch(r"\d+\.\d{3}s", seconds)
    assert b.split()[:2] == ["b.json", "ERROR"]
    assert c.split()[:3] == ["c.json", "uq", "Optimal"] and "certificate=True" in c


def test_batch_row_carries_the_files_exact_verdict(tmp_path, capsys):
    # the near-rank instance of test_solve_tol_rank_reaches_qcqp_tightening:
    # its certificate holds but its recovered point is infeasible, so its
    # batch row reads exact false, as its own report does
    inst = QcqpInstance(
        2,
        [
            SymMatrix.from_dense(np.diag([1.0, 0.0])),
            SymMatrix.from_dense(np.diag([1e-6, 1.0])),
        ],
        np.array([[-1.0, 1.0], [1.0, 1.0]]),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    batch = tmp_path / "batch"
    batch.mkdir()
    fileio.save_instance(inst, batch / "near_rank_blocks.json")
    flags = ("--tol-rank", "1e-4", "--report-format", "structured")
    code, out = run(capsys, "solve", str(batch / "near_rank_blocks.json"), *flags)
    assert code == 0 and json.loads(out.out)["exact"] is False
    code, out = run(capsys, "solve", str(batch), *flags)
    assert code == 0
    (row,) = json.loads(out.out)["batch"]
    assert row["certificate"] is True and row["exact"] is False
    code, out = run(capsys, "solve", str(batch), "--tol-rank", "1e-4")
    assert "certificate=True  exact=False" in out.out.splitlines()[0]


def test_unbounded_uq_relaxation_exits_0(tmp_path, capsys):
    # max x'x subject to x'x >= 0: the relaxation and the instance are unbounded
    inst = UqInstance(
        1, SymMatrix.identity(1), np.zeros((2, 1)), np.zeros(2), [Bound(0.0, math.inf)]
    )
    path = tmp_path / "unbounded.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--report-format", "structured")
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["solver"]["status"] == "Unbounded"
    assert rep["relaxation_value"] == "inf"
    assert rep["note"] == "relaxation unbounded; the instance optimum is +inf"
    assert "exact" not in rep and "recovered" not in rep


_SOLVER_FLAGS = {"--tol-feas", "--gap", "--max-iter", "--report-format"}
_FLAGS = {
    "solve": {"--tol-rank", *_SOLVER_FLAGS},
    "approx": {"--tol-rank", *_SOLVER_FLAGS},
    "cheby": _SOLVER_FLAGS,
    "reduce-ilp": {"--output"},
    "oracle": {"--grid-h", "--refine", "--report-format"},
}
_FLAG_VALUES = {"--max-iter": "5", "--refine": "1", "--report-format": "structured"}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"} == _FLAGS[command]
    parser = cli._build_parser()
    for flag in sorted(set().union(*_FLAGS.values(), {"--force-kind"})):
        argv = [command, "x.json", flag, _FLAG_VALUES.get(flag, "1e-6")]
        if flag in _FLAGS[command]:
            parser.parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_BAD_FLAG_VALUES = [
    ("solve", "--tol-rank", "nan"),
    ("solve", "--tol-rank", "inf"),
    ("solve", "--tol-rank", "-1"),
    ("solve", "--max-iter", "-1"),
    ("solve", "--tol-feas", "nan"),
    ("solve", "--tol-feas", "-1"),
    ("solve", "--gap", "nan"),
    ("oracle", "--grid-h", "0"),
    ("oracle", "--grid-h", "nan"),
    ("oracle", "--grid-h", "inf"),
    ("oracle", "--grid-h", "-1"),
    ("oracle", "--refine", "-1"),
]


@pytest.mark.parametrize("command, flag, value", _BAD_FLAG_VALUES)
def test_flag_values_out_of_range_are_usage_errors(tmp_path, capsys, command, flag, value):
    # on a positive definite file each of these would misread Q, crash, or
    # run a solve that cannot converge; argparse refuses them instead
    path = tmp_path / "pd.json"
    fileio.save_instance(
        UqInstance(
            2, SymMatrix.from_dense(np.array([[2.0, 0.3], [0.3, 1.0]])),
            np.array([[0.1, 0.0], [0.2, 0.1]]), np.zeros(2), [Bound(-math.inf, 1.0)],
        ),
        path,
    )
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: socqp {command}") and f"argument {flag}: must be" in err


def test_flag_values_at_their_limits_are_accepted():
    parser = cli._build_parser()
    args = parser.parse_args(
        ["solve", "x.json", "--tol-rank", "0.5", "--tol-feas", "1e-300", "--gap", "1e300",
         "--max-iter", "0"]
    )
    assert (args.tol_rank, args.tol_feas, args.gap, args.max_iter) == (0.5, 1e-300, 1e300, 0)
    assert parser.parse_args(["oracle", "x.json", "--grid-h", "2.5"]).grid_h == 2.5


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["solve", "exact.json"], ["tol_rank", "tol_feas", "gap", "max_iter"]),
        (["approx", "exact.json"], ["tol_rank", "tol_feas", "gap", "max_iter"]),
        (["cheby", "balls.json"], ["tol_feas", "gap", "max_iter"]),
        (["oracle", "exact.json", "--grid-h", "0.05", "--refine", "1"], ["grid_h", "refine"]),
    ],
)
def test_tolerances_echo_the_flags_the_command_read(tmp_path, capsys, exact_file, argv, keys):
    balls = BallIntersection(2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0]))
    fileio.save_instance(balls, tmp_path / "balls.json")
    command, name, *flags = argv
    code, out = run(capsys, command, str(tmp_path / name), *flags, "--report-format", "structured")
    assert code == 0, out.err
    tolerances = json.loads(out.out)["tolerances"]
    assert list(tolerances) == keys
    if command == "oracle":
        assert tolerances == {"grid_h": 0.05, "refine": 1}


# the exit code of every SocqpError class; a new class gets its code here on
# purpose, not by where it happens to sit in the hierarchy
_EXIT_CODES = {
    "SocqpError": 4,
    "ParseError": 2,
    "PreconditionViolated": 3,
    "ConditionNotMet": 3,
    "WrongShape": 3,
    "EmptyInterior": 3,
    "NotPsd": 3,
    "InvalidBounds": 3,
    "InvalidInstance": 3,
    "EmptyFeasibleGrid": 3,
    "UnboundedBox": 3,
    "TightenFailed": 3,
    "InvalidMatrix": 4,
    "InvalidInput": 4,
    "InvalidProgram": 4,
    "InvalidMultiplier": 4,
    "IdentityViolated": 4,
    "SelectionBoundViolated": 4,
    "SolverFailed": 4,
}


def test_exit_code_of_every_error_class():
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.SocqpError)
    }
    assert set(classes) == set(_EXIT_CODES)
    for name, cls in classes.items():
        assert cli._failure(cls("message"))[0] == _EXIT_CODES[name], name
    assert cli._failure(FileNotFoundError("missing.json"))[0] == 2


@pytest.mark.parametrize("small, tol_rank", [(1e-5, "1e-4"), (1e-9, "1e-8")])
def test_convex_block_keeps_its_small_eigenvalue(tmp_path, capsys, small, tol_rank):
    # min -x2 s.t. x1^2 + small*x2^2 <= 1, convex as written: the eigenvalue
    # below the rank tolerance still bounds x2, so the residual cone keeps it
    inst = QcqpInstance(
        2,
        [SymMatrix.from_dense(np.diag([1.0, small]))],
        np.array([[0.0], [1.0]]),
        np.array([[0.0, -0.5], [0.0, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    path = tmp_path / "weak.json"
    fileio.save_instance(inst, path)
    code, out = run(capsys, "solve", str(path), "--tol-rank", tol_rank, "--report-format", "structured")
    assert code == 0, out.err
    rep = json.loads(out.out)
    assert rep["solver"]["status"] == "Optimal" and rep["exact"] is True
    assert rep["relaxation_value"] == pytest.approx(-1.0 / math.sqrt(small), rel=1e-6)


def test_solve_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark
    with pytest.raises(ParseError, match="UTF-8"):
        fileio.load_instance(bad)
    code, out = run(capsys, "solve", str(bad))
    assert code == 2
    assert "parse error" in out.err


def test_batch_goes_on_past_unreadable_files(tmp_path, capsys, exact_file):
    import shutil

    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(exact_file, batch / "a.json")
    (batch / "b.json").write_bytes(b"\xff\xfe{\x00}\x00")
    (batch / "c.json").mkdir()
    code, out = run(capsys, "solve", str(batch))
    assert code == 2
    lines = out.out.splitlines()
    assert lines[0].startswith("a.json") and "exact=True" in lines[0]
    assert lines[1].startswith("b.json") and "ERROR" in lines[1]
    assert lines[2].startswith("c.json") and "ERROR" in lines[2]
    assert lines[3] == "tolerances:"


def test_tol_rank_of_the_file_reaches_every_derived_instance(tmp_path):
    # --tol-rank enters only through load_instance; the instances built from
    # the loaded one keep it
    tol = 1e-4
    for q in ([2.0, 0.3, 1.0], [2.0, 0.3, -1.0]):  # positive definite, indefinite
        doc = {
            "kind": "uq", "n": 2, "q": q, "b": [[0.1, 0.0], [0.2, 0.1]],
            "d": [0.0, 0.5], "bounds": [{"lo": "-inf", "hi": 1.0}],
        }
        path = tmp_path / "uq.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inst = fileio.load_instance(path, tol)
        assert inst.tol_rank == tol
        moved, _ = model.translate_origin(inst, np.array([0.1, -0.2]))
        assert moved.tol_rank == tol
        derived = model.uq_as_qcqp(moved) if q[2] > 0 else reformulate.split_indefinite(moved)
        assert derived.tol_rank == tol
    doc = {
        "kind": "qcqp", "n": 2, "sense": "max", "blocks": [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]],
        "signs": [[-1.0, 1.0], [0.0, 1.0]], "b": [[-0.1, 0.0], [0.0, 0.0]],
        "c": [0.0, 0.0], "bounds": [{"lo": "-inf", "hi": 1.0}],
    }
    path = tmp_path / "qcqp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst = fileio.load_instance(path, tol)
    assert inst.tol_rank == tol
    negated = model.as_min(inst)
    assert negated.sense == "min" and negated.tol_rank == tol
    # instance files do not store the tolerance
    assert "tol" not in fileio.dumps_instance(inst)
