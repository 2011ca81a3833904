"""The package's imports run one way.

The cone engine solves cone programs and knows no instances, the data model
builds no programs, and no module hides an import cycle inside a function.
The one exception is ``conesolver.certify_strong_duality``, which forwards to
``reformulate`` under the name the benchmark harness calls.  No module imports
scipy when it is loaded: only the factorization of a large KKT system does.
Above ``linalg`` and ``fileio`` no public function takes a rank tolerance: it
is a field of the instance.  Only ``linalg`` decomposes a matrix to read its
rank or spectrum, so a change to a rank or eigenvalue cut is made there;
outside ``conesolver``, whose KKT factor needs one, no module takes a
Cholesky factor, so definiteness is read through ``linalg.inertia`` too.
Only ``model`` reads ``data_scale``: it forms the rank cut
tol_rank * ``data_scale`` and ``tolerance``, the slack of every acceptance
test after a solve, and no such test in ``recover``, ``reformulate``,
``chebyshev`` or ``pipeline`` floors its scale at 1.  Only ``recover``
moves an instance's origin.  ``cli`` renders the report of
``pipeline.solve_instance``: it builds, certifies, tightens and solves
nothing itself, though ``approx`` and ``cheby`` still call ``recover`` and
``chebyshev``.  Every relaxation has one shape: a public ``build_*`` in
``reformulate`` returns a structured instance or the program and meta of
``_assemble``, the one place that makes a ``ConeProgram`` there, and never a
certificate; ``pipeline.solve_instance`` makes one build call.
``socqp.__all__`` lists exactly the names the package imports.
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
    # a Cholesky factor is a definiteness test too; only the KKT factor of
    # the cone engine takes one
    found = []
    for path in sorted(SRC.glob("*.py")):
        banned = {"cholesky"} if path.stem != "conesolver" else set()
        if path.stem != "linalg":
            banned |= SPECTRAL
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name.split(".")[-1] in banned and ".linalg." in f".{name}":
                    found.append(f"{path.stem}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.stem}:{node.lineno} {a.name}" for a in node.names
                          if a.name in banned]
    assert found == []


def test_package_exports_what_it_imports():
    # __all__ names exactly the names __init__ imports, and each resolves
    import socqp

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(socqp.__all__) == imported
    assert len(socqp.__all__) == len(set(socqp.__all__))
    assert [name for name in socqp.__all__ if not hasattr(socqp, name)] == []


def test_recovery_takes_no_certificate():
    # tightening finds its direction in the null space of the certificate's
    # rows, so it never runs the certificate itself
    banned = {"check_as3", "check_condition_c", "check_condition_cc"}
    tree = ast.parse((SRC / "recover.py").read_text(encoding="utf-8"))
    found = [
        f"recover:{node.lineno} {_dotted(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] in banned
    ]
    assert found == []


def test_only_model_forms_the_rank_cut():
    # every rank and sign decision takes model.rank_cut, so only model
    # multiplies by tol_rank
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                names = {_dotted(side).split(".")[-1] for side in (node.left, node.right)}
                if "tol_rank" in names:
                    found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_only_model_reads_the_data_scale():
    # the rank cut and the acceptance slack are model.rank_cut and
    # model.tolerance, so no other module scales a check by hand
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "model"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] == "data_scale"
    ]
    assert found == []


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def test_no_acceptance_test_floors_at_one():
    # a floor of 1 makes a check absolute on small data and relative on
    # large: 1.0 + abs(...) and max(1.0, ...) give way to model.tolerance
    found = []
    for module in ("recover", "reformulate", "chebyshev", "pipeline"):
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                sides = (node.left, node.right)
                floored = any(map(_is_one, sides)) and any(
                    isinstance(side, ast.Call) and _dotted(side.func).split(".")[-1] == "abs"
                    for side in sides
                )
            else:
                floored = (isinstance(node, ast.Call) and _dotted(node.func) == "max"
                           and any(map(_is_one, node.args)))
            if floored:
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_only_the_approximation_translates():
    # round_uq centres itself at the point of least gamma
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "recover"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _dotted(node.func).endswith("translate_origin")
    ]
    assert found == []


def test_the_cli_builds_certifies_and_solves_nothing():
    # socqp solve renders the report of pipeline.solve_instance
    prefixes = ("build_", "check_", "certify_", "tighten_")
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [(node.lineno, _dotted(node.func)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = [f"cli:{line} {name}" for line, name in calls
             if name.split(".")[-1].startswith(prefixes) or name in ("conesolver.solve", "solve")]
    assert found == []


def _top_defs(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_builder_returns_an_instance_or_a_program_and_meta():
    # a certificate is its own call, never bundled with the program
    shapes = {"QcqpInstance", "tuple[ConeProgram, ReformulationMeta]"}
    builders = {name: node for name, node in _top_defs("reformulate").items()
                if name.startswith("build_")}
    assert {"build_wd", "build_socp_uq", "build_cr"} <= set(builders)
    found = [f"{name} -> {ast.unparse(node.returns) if node.returns else None}"
             for name, node in builders.items()
             if node.returns is None or ast.unparse(node.returns) not in shapes]
    found += [f"{name}:{sub.lineno} {sub.id}" for name, node in builders.items()
              for sub in ast.walk(node)
              if isinstance(sub, ast.Name) and sub.id == "CertificateReport"]
    assert found == []


def test_only_the_assembler_makes_a_cone_program_in_reformulate():
    tree = ast.parse((SRC / "reformulate.py").read_text(encoding="utf-8"))
    found = [
        f"reformulate:{node.lineno}"
        for top in tree.body
        if getattr(top, "name", None) != "_assemble"
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] == "ConeProgram"
    ]
    assert found == []


def test_the_pipeline_makes_one_build_call():
    # the shape picks the view; one call builds every view
    def names_a_builder(func):
        return any(_dotted(sub).split(".")[-1].startswith("build_")
                   for sub in ast.walk(func) if isinstance(sub, (ast.Name, ast.Attribute)))

    body = _top_defs("pipeline")["solve_instance"]
    calls = [node.lineno for node in ast.walk(body)
             if isinstance(node, ast.Call) and names_a_builder(node.func)]
    assert len(calls) == 1, calls
