"""The package's import graph: acyclic, and declared at the top of each module.

Function-local relative imports hide cycles, so only two kinds are allowed:
the CLI imports each subcommand's modules when it runs, and the sampler
compiles ``oqw.philox`` only when it first draws.
"""

import ast
from pathlib import Path

import oqw

PACKAGE = Path(oqw.__file__).parent
LOCAL_IMPORTS_ALLOWED = {"cli": None, "trajectory": {"philox"}}  # None: any module
# the certified solve behind DomainBlocks.solve, private to hitting
SOLVE_INTERNALS = {"_domain_solve", "_certify", "_trapped_split"}


def _relative_targets(node: ast.ImportFrom) -> list[str]:
    """Modules of the package named by a relative import."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _module_level_graph() -> dict[str, set[str]]:
    graph = {}
    for name, tree in _modules().items():
        graph[name] = {target for node in tree.body
                       if isinstance(node, ast.ImportFrom) and node.level == 1
                       for target in _relative_targets(node)}
    return graph


def test_module_level_imports_are_acyclic():
    graph = _module_level_graph()
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]) -> None:
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            assert state.get(dep) != "open", f"import cycle: {' -> '.join(path + [dep])}"
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])
    assert {"walk", "superop", "hitting", "structure"} <= set(graph)


def test_no_function_local_relative_imports():
    offending = []
    for name, tree in _modules().items():
        allowed = LOCAL_IMPORTS_ALLOWED.get(name, set())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level >= 1:
                    targets = set(_relative_targets(node))
                    if allowed is not None and not targets <= allowed:
                        offending.append(f"{name}.{fn.name} imports {sorted(targets)}")
    assert not offending, offending


def test_solve_internals_stay_in_hitting():
    # every other module solves through hitting.DomainBlocks.solve
    offending = []
    for name, tree in _modules().items():
        if name == "hitting":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                names = {alias.name for alias in node.names} & SOLVE_INTERNALS
            elif isinstance(node, ast.Attribute) and node.attr in SOLVE_INTERNALS:
                names = {node.attr}
            else:
                continue
            offending += [f"{name} uses {n}" for n in sorted(names)]
    assert not offending, offending


def _users(tree: ast.Module, name: str) -> set[str]:
    """Innermost functions (``<module>`` outside any) that refer to ``name``
    as a variable, an attribute or an imported name."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name == name):
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_dense_eigvals_only_behind_spectral_radius():
    users = {(module, fn) for module, tree in _modules().items()
             for fn in _users(tree, "eigvals")}
    assert users == {("linalg", "spectral_radius")}


def test_spectral_radius_only_in_acceptance():
    # criterion 10 states a radius condition; every other convergence
    # decision rests on a solve's certificate
    users = {module for module, tree in _modules().items() if _users(tree, "spectral_radius")}
    assert users == {"acceptance"}
