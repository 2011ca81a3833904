"""The package's imports run one way.

The cone engine solves cone programs and knows no instances, the data model
builds no programs, and no module hides an import cycle inside a function.
The one exception is ``conesolver.certify_strong_duality``, which forwards to
``reformulate`` under the name the benchmark harness calls.  No module imports
scipy when it is loaded: only the factorization of a large KKT system does.
Above ``linalg`` and ``fileio`` no public function takes a rank tolerance: it
is a field of the instance.  Only ``linalg`` decomposes a matrix to read its
rank or spectrum, so a change to a rank or eigenvalue cut is made there.
"""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "socqp"
FORWARDER = ("conesolver", "certify_strong_duality")


def _targets(node) -> set[str]:
    """socqp modules pulled in by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            name = node.module or ""
            if name == "socqp":
                return {alias.name for alias in node.names}
            return {name.split(".")[1]} if name.startswith("socqp.") else set()
        if node.module:
            return {node.module.split(".")[0]}
        return {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("socqp.")}
    return set()


def _imports():
    """(module-level graph, {(module, top-level def): modules imported inside it})."""
    graph, nested = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = set().union(*(_targets(node) for node in tree.body))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = set().union(*(_targets(node) for node in ast.walk(top)))
                if inner:
                    nested[(path.stem, top.name)] = inner
    return graph, nested


def test_module_level_imports_form_a_dag():
    graph, _ = _imports()
    assert {"conesolver", "model", "reformulate", "recover"} <= set(graph)
    graphlib.TopologicalSorter(graph).static_order()  # raises CycleError on a cycle


def test_cone_engine_imports_only_errors():
    graph, _ = _imports()
    assert graph["conesolver"] == {"errors"}


def test_data_model_imports_only_linalg_and_errors():
    graph, nested = _imports()
    inside = [names for (module, _), names in nested.items() if module == "model"]
    assert graph["model"].union(*inside) == {"linalg", "errors"}


def test_only_the_bench_forwarder_imports_inside_a_function():
    _, nested = _imports()
    assert nested == {FORWARDER: {"reformulate"}}


def _runs_on_import(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_when_loaded():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _runs_on_import(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_no_public_function_above_linalg_takes_a_rank_tolerance():
    # the tolerance is the instance's tol_rank, set when the file is loaded
    banned = {"tol_rank", "tol_rel", "psd_tol"}
    found = []
    for module in ("reformulate", "recover", "model", "chebyshev", "cli"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                found += [f"{module}.{node.name}({name})" for name in sorted(names & banned)]
    assert found == []


SPECTRAL = {"svd", "eigh", "eig", "eigvals", "eigvalsh", "matrix_rank"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_only_linalg_decomposes_a_matrix():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name.split(".")[-1] in SPECTRAL and ".linalg." in f".{name}":
                    found.append(f"{path.stem}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.stem}:{node.lineno} {a.name}" for a in node.names
                          if a.name in SPECTRAL]
    assert found == []
