"""The package's import graph: acyclic, and declared at the top of each module.

Function-local relative imports hide cycles, so only two kinds are allowed:
the CLI imports each subcommand's modules when it runs, and the sampler
compiles ``oqw.philox`` only when it first draws.
"""

import ast
import re
from pathlib import Path

import numpy as np

import oqw

PACKAGE = Path(oqw.__file__).parent
LOCAL_IMPORTS_ALLOWED = {"cli": None, "trajectory": {"philox"}}  # None: any module
# the certified solve behind DomainBlocks.law, private to hitting
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
    # every other module solves through hitting.DomainBlocks.law
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


def _domain_blocks_calls() -> set[tuple[str, str, str]]:
    """(module, innermost function, source of the ``outer`` argument) of
    every call of ``_domain_blocks``."""
    found = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "_domain_blocks"
                    or getattr(child.func, "attr", None) == "_domain_blocks"):
                outer = child.args[2] if len(child.args) > 2 else next(
                    k.value for k in child.keywords if k.arg == "outer")
                found.add((module, where, ast.unparse(outer)))
            visit(child, module, inner)

    for module, tree in _modules().items():
        visit(tree, module, "<module>")
    return found


def test_only_the_exit_law_builds_a_bounded_domain_system():
    # a bounded domain's exit system comes from hitting's one kept exit law
    # (capture series build their own, onto the target, in capture_series,
    # which alone finds a series' interior and writes the kept series);
    # dirichlet builds no system at all: every Dirichlet answer, the
    # whole-space one included, reads a kept exit law; no system is built
    # without its exit block (in-domain visits read the exit law too)
    calls = _domain_blocks_calls()
    assert {(m, fn) for m, fn, outer in calls if outer != "()"} == \
        {("hitting", "capture_series"), ("hitting", "_exit_law")}
    assert not [call for call in calls if call[2] == "()"]
    assert not {fn for m, fn, outer in calls if m == "dirichlet"}
    assert {(module, fn) for module, tree in _modules().items()
            for fn in _users(tree, "_reaching")} == {("hitting", "capture_series")}
    assert not [module for module, tree in _modules().items()
                if _users(tree, "_capture_series")]


def test_only_the_domain_blocks_solve_a_law():
    # every dual solve (a law: exit laws and the per-target series law) is
    # DomainBlocks.law; alpha_operator's weighted law is a DomainBlocks too
    dual = {(module, fn) for module, tree in _modules().items()
            for fn in _calls_with(tree, "dual", True)}
    assert dual == {("hitting", "law")}


def test_every_certified_solve_is_kept():
    # every certified solve is built once, as the body of a lambda that a
    # system's _keep calls on first read: no query certifies a system per call
    def called(node: ast.AST) -> str | None:
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) or getattr(func, "attr", None)

    solves, kept = 0, 0
    for tree in _modules().values():
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if called(child) == "_domain_solve":
                    solves += 1
                if isinstance(child, ast.Lambda) and called(child.body) == "_domain_solve":
                    kept += called(node) == "_keep" and child in node.args
    assert solves and kept == solves, (kept, solves)


def _calls_with(tree: ast.Module, keyword: str, value) -> set[str]:
    """Innermost functions holding a call that passes ``keyword=value``."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and any(
                    k.arg == keyword and isinstance(k.value, ast.Constant)
                    and k.value.value is value for k in child.keywords):
                found.add(where)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
    return found


def test_only_resolve_reads_a_kept_factor():
    # DomainSolve.resolve holds every solve on a kept factor to the
    # certificate's residual gate; nothing else reads a solve's factor
    readers = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "factor":
                readers.add((module, where))
            visit(child, module, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    for module, tree in _modules().items():
        visit(tree, module, "<module>")
    assert readers == {("hitting", "resolve")}


def test_the_energy_form_is_built_per_transition():
    # dirichlet._form_blocks builds the form of a reference state from one block
    # per site and per transition: dirichlet assembles no block matrix of the
    # walk, and no module defines a whole-walk weight matrix or weighted form
    modules = _modules()
    assert not _users(modules["dirichlet"], "block_matrix")
    dense = re.compile(r"weight(ed)?_?(matrix|form)", re.IGNORECASE)
    defined = {f"{name}.{node.name}" for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and dense.search(node.name)}
    assert not defined, defined


def test_only_the_structure_record_builds_structure():
    # the invariant state, the decomposition and the irreducibility verdict
    # are computed once per walk, by one private builder per entry of the
    # walk's structure record; every other caller (cli included) reads it
    users = {name: {(module, fn) for module, tree in _modules().items()
                    for fn in _users(tree, name)}
             for name in ("_invariant_state", "_decompose", "irreducibility")}
    assert users == {"_invariant_state": {("superop", "invariant_state")},
                     "_decompose": {("structure", "decompose")},
                     "irreducibility": {("structure", "_irreducibility")}}


def test_one_function_takes_the_fixed_space_of_a_whole_walk():
    # superop.fixed_point_map reads every fixed space of a whole walk (the
    # invariant state's, and the dual one that splits enclosures) from the
    # first-return map onto its return set; structure asks it and neither
    # assembles a step matrix nor projects; hitting's one projection is the
    # trap search inside a system; superop reads no hitting threshold, since
    # the law it reads is certified there
    modules = _modules()

    def callers(name: str) -> set[tuple[str, str]]:
        return {(module, fn) for module, tree in modules.items()
                for fn in _users(tree, name) if fn != "<module>"}

    assert not _users(modules["structure"], "fixed_point_projection")
    assert not _users(modules["structure"], "block_matrix")
    assert callers("fixed_point_map") == {("superop", "_invariant_state"),
                                          ("structure", "_minimal_enclosures")}
    assert callers("fixed_point_projection") == {("superop", "fixed_point_map"),
                                                 ("hitting", "_trapped_split")}
    assert callers("_fixed_space") == {("linalg", "fixed_point_projection")}
    from_hitting = {alias.name for node in modules["superop"].body
                    if isinstance(node, ast.ImportFrom) and node.module == "hitting"
                    for alias in node.names}
    assert from_hitting and not {name for name in from_hitting if name.isupper()}


def test_the_walk_keeps_one_store():
    # WalkSpec's private fields are its table and one store; only walk.py
    # touches the store, through WalkSpec._memo
    modules = _modules()
    spec = next(node for node in modules["walk"].body
                if isinstance(node, ast.ClassDef) and node.name == "WalkSpec")
    private = [node.target.id for node in spec.body
               if isinstance(node, ast.AnnAssign) and node.target.id.startswith("_")]
    assert private == ["_out", "_index", "_graph", "_groups", "_store"]
    users = {name for name, tree in modules.items() if _users(tree, "_store")}
    assert users == {"walk"}


def test_each_kind_of_kept_entry_has_one_module():
    # every _memo key is a tuple display whose first item, a string, names the
    # kind of entry; the module that builds a kind is the only one that names it
    kinds, keys = {}, []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_memo":
                key = node.args[0]
                keys.append(ast.unparse(key))
                if isinstance(key, ast.Tuple) and isinstance(key.elts[0], ast.Constant):
                    kinds.setdefault(key.elts[0].value, set()).add(name)
    assert len(keys) == sum(map(len, kinds.values())) == 8, keys
    assert kinds == {"kraus": {"walk"}, "invariant": {"superop"},
                     "decomposition": {"structure"}, "irreducibility": {"structure"},
                     "domain": {"hitting"}, "sampler": {"trajectory"},
                     "restricted": {"trajectory"}, "series": {"hitting"}}


def test_block_offsets_are_laid_out_in_walk_only():
    # walk.BlockIndex is the one description of a stacked block vector: the
    # only cumulative sum in the package, and no module keeps a layout helper
    modules = _modules()
    summing = {name for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cumsum"}
    assert summing == {"walk"}
    helpers = [name for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_layout"]
    assert helpers == []


def test_dense_eigvals_only_behind_spectral_radius():
    users = {(module, fn) for module, tree in _modules().items()
             for fn in _users(tree, "eigvals")}
    assert users == {("linalg", "spectral_radius")}


def test_spectral_radius_only_in_acceptance():
    # criterion 10 states a radius condition; every other convergence
    # decision rests on a solve's certificate
    users = {module for module, tree in _modules().items() if _users(tree, "spectral_radius")}
    assert users == {"acceptance"}


def test_walk_digest_hashes_bytes_not_json():
    tree = _modules()["serialize"]
    assert "walk_digest" not in _users(tree, "walk_to_json")
    assert "walk_digest" not in _users(tree, "dumps")


class _ReadSpy(dict):
    """A dict that counts reads of its entries."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class _IterSpy(list):
    """A list of transition keys that counts passes over it."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_block_matrix_reads_no_transition_once_the_table_is_built():
    # a call assembles from the walk's integer table: no pass over the
    # transitions, their Kraus blocks or the keys of their groups
    from oqw import fixtures
    from oqw.walk import BlockIndex, block_matrix, identity_minus

    walk = fixtures.example_lattice_nonnormal(6, "absorbing")
    idx = BlockIndex.at(walk, range(1, len(walk.sites)))
    first = block_matrix(walk, idx, idx)
    stacked, by_key, coo = walk._store[("kraus",)]   # the walk's vec-Kraus entry
    spies = [_ReadSpy(walk.transitions), _ReadSpy(by_key)]
    object.__setattr__(walk, "transitions", spies[0])
    walk._store[("kraus",)] = (stacked, spies[1], coo)
    for groups in (stacked, walk._groups):
        groups[:] = [(_IterSpy(keys), stack) for keys, stack in groups]
        spies += [keys for keys, _ in groups]
    kraus_calls = []
    object.__setattr__(walk, "kraus", lambda *key: kraus_calls.append(key))
    again = block_matrix(walk, idx, idx)
    block_matrix(walk, idx, BlockIndex.at(walk, [walk._index["0"]]), sparse=True)
    identity_minus(walk, idx, sparse=True)
    assert [spy.reads for spy in spies] == [0] * len(spies)
    assert kraus_calls == []
    assert np.array_equal(again, first)


def test_oracles_stay_out_of_the_production_modules():
    # path enumeration, Shanks and per-length path sums check the solvers;
    # only acceptance imports them, and the package re-exports one
    modules = _modules()
    oracles = {node.name for node in modules["_oracles"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"brute_force_path_sum", "PathSumResult", "shanks_limit", "path_terms"} <= oracles
    assert {"walk", "superop", "hitting", "structure", "dirichlet", "trajectory", "cli",
            "serialize", "fixtures", "linalg"} <= set(modules)
    offending = []
    for name, tree in modules.items():
        if name == "_oracles":
            continue
        production = name not in {"acceptance", "__init__"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if production and node.name in oracles:
                    offending.append(f"{name} defines {node.name}")
            elif isinstance(node, ast.ImportFrom):
                if node.level >= 1:
                    targets = set(_relative_targets(node))
                else:
                    targets = {(node.module or "").removeprefix("oqw.")}
                if production and "_oracles" in targets:
                    offending.append(f"{name} imports _oracles")
                if production:
                    offending += [f"{name} imports {alias.name}"
                                  for alias in node.names if alias.name in oracles]
    assert not offending, offending


def test_sampler_step_touches_held_trajectories_only():
    # a lock-step iteration works on arrays aligned with the held set: reading
    # the n_traj-long `active` mask or `positions` would bring back a pass
    # over every trajectory, stopped ones included, on every step
    ensemble = next(node for node in _modules()["trajectory"].body
                    if isinstance(node, ast.ClassDef) and node.name == "_Ensemble")
    step = next(node for node in ensemble.body
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    read = {node.attr for node in ast.walk(step) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert {"cls", "next", "held"} <= read
    assert not read & {"active", "positions"}, sorted(read & {"active", "positions"})
