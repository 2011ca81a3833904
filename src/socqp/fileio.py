"""Instance files: canonical JSON, one instance per file.

Formats (all UTF-8, decimal numbers at full precision):

* kind "uq":   {"kind", "n", "q", "b", "d", "bounds"} with "q" the row-major
  upper triangle of the shared Hessian and "b" the p+1 linear terms of the
  2b'x convention (row 0 = objective).
* kind "qcqp": {"kind", "n", "sense", "blocks", "signs", "b", "c", "bounds"}
  with "blocks" a list of upper triangles and "signs" the (p+1) x m matrix
  over {-1, 0, 1}.
* kind "balls": {"kind", "n", "centers", "radii"}.
* kind "ilp":  {"kind", "n", "c", "rows"} with rows [{"a": [...], "rhs": x}].

Bounds are {"lo": number | "-inf", "hi": number | "+inf"}.  ``dumps`` is
canonical (fixed key order, two-space indent, trailing newline), so
write(parse(file)) is byte-identical for canonical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError, SocqpError
from .linalg import DEFAULT_RANK_TOL, SymMatrix
from .model import BallIntersection, Bound, QcqpInstance, UqInstance


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):  # json also reads NaN, Infinity and -Infinity
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return out


def _bound_in(obj, where: str) -> Bound:
    if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
        raise ParseError(f'{where}: bounds must be {{"lo": ..., "hi": ...}}')
    lo, hi = obj["lo"], obj["hi"]
    lo = -math.inf if lo == "-inf" else _num(lo, where + ".lo")
    hi = math.inf if hi == "+inf" else _num(hi, where + ".hi")
    return Bound(lo, hi)


def _bound_out(bd: Bound):
    return {
        "lo": bd.lower if bd.has_lower else "-inf",
        "hi": bd.upper if bd.has_upper else "+inf",
    }


def _vector(obj, n: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"{where}: expected a list of {n} numbers")
    return np.array([_num(v, f"{where}[{k}]") for k, v in enumerate(obj)])


def _matrix(obj, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    return np.vstack([_vector(r, cols, f"{where}[{k}]") for k, r in enumerate(obj)])


def _sym_in(obj, n: int, where: str) -> SymMatrix:
    want = n * (n + 1) // 2
    vec = _vector(obj, want, where)
    return SymMatrix(n, vec)


def _require(data: dict, keys: set[str], kind: str):
    missing = keys - set(data)
    extra = set(data) - keys
    if missing:
        raise ParseError(f"{kind} instance: missing fields {sorted(missing)}")
    if extra:
        raise ParseError(f"{kind} instance: unknown fields {sorted(extra)}")


def parse_instance(text: str, tol_rank: float = DEFAULT_RANK_TOL):
    """Parse one instance document; returns a UqInstance, QcqpInstance,
    BallIntersection, or ('ilp', c, rows, rhs) tuple.  Malformed documents
    and data that fail the instance's own checks raise ``ParseError``.  A uq
    or qcqp instance gets ``tol_rank``, which files do not store."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError('top level must be an object with a "kind" field')
    kind = data["kind"]
    if kind not in ("uq", "qcqp", "balls", "ilp"):
        raise ParseError(f"unknown kind {kind!r}")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError('"n" must be a positive integer')
    try:
        if kind == "uq":
            _require(data, {"kind", "n", "q", "b", "d", "bounds"}, kind)
            bounds = [
                _bound_in(bd, f"bounds[{i}]") for i, bd in enumerate(data["bounds"])
            ]
            p = len(bounds)
            return UqInstance(
                n,
                _sym_in(data["q"], n, "q"),
                _matrix(data["b"], p + 1, n, "b"),
                _vector(data["d"], p + 1, "d"),
                bounds,
                tol_rank=tol_rank,
            )
        if kind == "qcqp":
            _require(
                data, {"kind", "n", "sense", "blocks", "signs", "b", "c", "bounds"}, kind
            )
            bounds = [
                _bound_in(bd, f"bounds[{i}]") for i, bd in enumerate(data["bounds"])
            ]
            p = len(bounds)
            blocks = [
                _sym_in(blk, n, f"blocks[{j}]") for j, blk in enumerate(data["blocks"])
            ]
            return QcqpInstance(
                n,
                blocks,
                _matrix(data["signs"], p + 1, len(blocks), "signs"),
                _matrix(data["b"], p + 1, n, "b"),
                _vector(data["c"], p + 1, "c"),
                bounds,
                sense=data["sense"],
                tol_rank=tol_rank,
            )
        if kind == "balls":
            _require(data, {"kind", "n", "centers", "radii"}, kind)
            radii = [
                _num(r, f"radii[{i}]") for i, r in enumerate(data["radii"])
            ]
            centers = _matrix(data["centers"], len(radii), n, "centers")
            return BallIntersection(n, centers, np.array(radii))
        _require(data, {"kind", "n", "c", "rows"}, kind)
        c = _vector(data["c"], n, "c")
        rows, rhs = [], []
        for k, row in enumerate(data["rows"]):
            if not isinstance(row, dict) or set(row) != {"a", "rhs"}:
                raise ParseError(f'rows[{k}] must be {{"a": [...], "rhs": ...}}')
            rows.append(_vector(row["a"], n, f"rows[{k}].a"))
            rhs.append(_num(row["rhs"], f"rows[{k}].rhs"))
        return ("ilp", c, np.array(rows).reshape(len(rhs), n), np.array(rhs))
    except ParseError:
        raise
    except (SocqpError, TypeError, KeyError, ValueError) as exc:
        # the instance's own validation (PSD blocks, bounds, shapes) included
        raise ParseError(f"{kind} instance malformed: {exc}") from exc


def load_instance(path, tol_rank: float = DEFAULT_RANK_TOL):
    """``parse_instance`` of a UTF-8 file; other bytes raise ``ParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    return parse_instance(text, tol_rank)


def dumps_instance(obj) -> str:
    """Canonical serialization; inverse of parse for canonical files."""
    if isinstance(obj, UqInstance):
        doc = {
            "kind": "uq",
            "n": obj.n,
            "q": obj.q.packed.tolist(),
            "b": obj.b.tolist(),
            "d": obj.d.tolist(),
            "bounds": [_bound_out(bd) for bd in obj.bounds],
        }
    elif isinstance(obj, QcqpInstance):
        doc = {
            "kind": "qcqp",
            "n": obj.n,
            "sense": obj.sense,
            "blocks": [blk.packed.tolist() for blk in obj.blocks],
            "signs": obj.a.tolist(),
            "b": obj.b.tolist(),
            "c": obj.c.tolist(),
            "bounds": [_bound_out(bd) for bd in obj.bounds],
        }
    elif isinstance(obj, BallIntersection):
        doc = {
            "kind": "balls",
            "n": obj.n,
            "centers": obj.centers.tolist(),
            "radii": obj.radii.tolist(),
        }
    elif isinstance(obj, tuple) and obj and obj[0] == "ilp":
        _, c, rows, rhs = obj
        doc = {
            "kind": "ilp",
            "n": int(np.asarray(c).size),
            "c": np.asarray(c).tolist(),
            "rows": [
                {"a": np.asarray(a).tolist(), "rhs": float(r)}
                for a, r in zip(np.asarray(rows), np.asarray(rhs))
            ],
        }
    else:
        raise SocqpError(f"cannot serialize object of type {type(obj).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def save_instance(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(obj))
