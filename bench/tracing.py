"""Spans around calls into the library's public functions.

``Tracer.install`` wraps every public function of each layer module and
rebinds it wherever a ``socqp`` module holds it at module level: a function
imported by name (``from .conesolver import solve`` in ``chebyshev`` and
``recover``) is caught as well as one called through its module.  Nothing in
the library is edited; the wrappers live in this process only.

A span is (id, parent, instance, name, start, end, attrs).  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from socqp.conesolver import ConeProgram

LAYERS = ("cli", "fileio", "model", "reformulate", "conesolver", "recover", "chebyshev", "linalg")
STATUSES = ("Optimal", "MaxIter", "Infeasible", "Unbounded")
CERTIFY = ("check_as3", "check_condition_c", "check_condition_cc", "split_indefinite")
# reported as they are; every other metric is a total, reported per pass
RATIOS = ("conesolver.ms_per_iter", "conesolver.max_pres", "conesolver.max_dres",
          "conesolver.max_relgap", "recover.approx_shortcut_frac")


def _program_shape(prog):
    dims = [blk.dim for blk in prog.soc]
    return {
        "nv": int(prog.nvar),
        "ne": int(prog.f.size),
        "linear_rows": int(prog.h.size),
        "soc_blocks": len(dims),
        "cone_rows": int(sum(dims)),
    }


def _attrs(layer, name, args, out):
    """Shape and outcome read from the objects seen at the boundary."""
    if layer == "conesolver" and name == "solve":
        res = out
        return {**_program_shape(args[0]), "status": res.status,
                "iterations": int(res.iterations), "pres": float(res.pres),
                "dres": float(res.dres), "relgap": float(res.relgap)}
    if layer == "reformulate" and name.startswith("build_"):
        prog = out[0] if isinstance(out, tuple) else out
        return _program_shape(prog) if isinstance(prog, ConeProgram) else {}
    if layer == "recover" and name == "approx_uq":
        return {"shortcut": bool(out[1].shortcut)}
    if layer == "fileio" and name == "load_instance":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._next = 0
        self._bindings = []

    def install(self):
        """Find every binding of a layer module's public functions; the
        wrappers take effect between `enable` and `disable`."""
        import socqp.cli  # noqa: F401  loads every layer module

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "socqp" or name.startswith("socqp."))]
        self._bindings = []
        for layer in LAYERS:
            module = sys.modules[f"socqp.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._bindings.append((mod, attr, fn, wrapper))

    def enable(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self):
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(f"{layer}.{name}", fn, args, kwargs, layer, name)

        return wrapper

    def span(self, full, fn, args=(), kwargs=None, layer="bench", name=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        except Exception as exc:
            self._close(sid, parent, full, start, {"error": type(exc).__name__})
            raise
        self._close(sid, parent, full, start, None, (layer, name, args, out))
        return out

    def _close(self, sid, parent, full, start, attrs, seen=None):
        end = time.perf_counter()
        self._stack.pop()
        if seen is not None:
            attrs = _attrs(*seen)
        self.spans.append((sid, parent, self.instance, full, start, end, attrs))

    def dump(self, path):
        keys = ("id", "parent", "instance", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_metrics(spans, passes):
    """Per-layer counts and times from the spans of `passes` identical
    passes; totals are divided by the pass count, so counts are exact."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, _, name, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def layer_of(span):
        return span[3].split(".", 1)[0] if span is not None else None

    def outermost(span):
        """True unless the caller is a span of the same layer."""
        return layer_of(by_id.get(span[1])) != layer_of(span)

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{layer}.calls": 0 for layer in LAYERS})
    m.update({
        "conesolver.solve_calls": 0, "conesolver.solve_s": 0.0, "conesolver.iterations": 0,
        "conesolver.duality_s": 0.0, "conesolver.max_pres": 0.0, "conesolver.max_dres": 0.0,
        "conesolver.max_relgap": 0.0,
        "reformulate.build_calls": 0, "reformulate.build_s": 0.0, "reformulate.certify_s": 0.0,
        "reformulate.cone_rows": 0, "reformulate.soc_blocks": 0,
        "linalg.eig_calls": 0,
        "recover.tighten_calls": 0, "recover.tighten_failed": 0, "recover.tighten_s": 0.0,
        "recover.approx_calls": 0, "recover.approx_s": 0.0, "recover.approx_shortcut_frac": 0.0,
        "fileio.parse_s": 0.0, "fileio.bytes": 0,
    })
    m.update({f"conesolver.status.{s}": 0 for s in STATUSES})
    shortcuts = 0
    for span in spans:
        sid, parent, _, full, start, end, attrs = span
        layer, _, name = full.partition(".")
        if layer not in LAYERS:
            continue
        dur = end - start
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur - child_time.get(sid, 0.0)
        if full == "conesolver.solve":
            m["conesolver.solve_calls"] += 1
            m["conesolver.solve_s"] += dur - child_time.get(sid, 0.0)
            if "status" in attrs:
                m["conesolver.iterations"] += attrs["iterations"]
                key = f"conesolver.status.{attrs['status']}"
                m[key] = m.get(key, 0) + 1
                if attrs["status"] == "Optimal":
                    for k in ("pres", "dres", "relgap"):
                        m[f"conesolver.max_{k}"] = max(m[f"conesolver.max_{k}"], attrs[k])
        elif full == "conesolver.certify_strong_duality":
            m["conesolver.duality_s"] += dur
        elif layer == "reformulate" and name.startswith("build_") and outermost(span):
            m["reformulate.build_calls"] += 1
            m["reformulate.build_s"] += dur
            m["reformulate.cone_rows"] += attrs.get("cone_rows", 0)
            m["reformulate.soc_blocks"] += attrs.get("soc_blocks", 0)
        elif layer == "reformulate" and name in CERTIFY and outermost(span):
            m["reformulate.certify_s"] += dur
        elif full == "linalg.sym_eig":
            m["linalg.eig_calls"] += 1
        elif name in ("tighten_uq", "tighten_qcqp"):
            m["recover.tighten_calls"] += 1
            m["recover.tighten_failed"] += "error" in attrs
            m["recover.tighten_s"] += dur
        elif full == "recover.approx_uq":
            m["recover.approx_calls"] += 1
            m["recover.approx_s"] += dur
            shortcuts += attrs.get("shortcut", False)
        elif layer == "fileio" and outermost(span):
            m["fileio.parse_s"] += dur
            m["fileio.bytes"] += attrs.get("bytes", 0)
    solve_ms = 1000.0 * m["conesolver.solve_s"]
    steps = m["conesolver.iterations"] + m["conesolver.solve_calls"]
    m["conesolver.ms_per_iter"] = solve_ms / steps if steps else 0.0
    if m["recover.approx_calls"]:
        m["recover.approx_shortcut_frac"] = shortcuts / m["recover.approx_calls"]
    return {k: v if k in RATIOS else v / passes for k, v in m.items()}
