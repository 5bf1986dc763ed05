"""Import boundaries between the package's modules, read from their source."""

import ast
import importlib
import inspect
from functools import lru_cache
from pathlib import Path

import pytest

import wzw

SRC = Path(wzw.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@lru_cache(maxsize=None)
def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


@lru_cache(maxsize=None)
def package_imports(module: str) -> tuple[tuple[str, str], ...]:
    """(wzw module, imported name) for every package import in wzw/<module>.py."""
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module and node.module.split(".")[0] == "wzw":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                # `from . import checks` imports the module itself
                out.append((source or alias.name, alias.name))
        elif isinstance(node, ast.Import):
            out += [(a.name.partition(".")[2], a.name) for a in node.names
                    if a.name.split(".")[0] == "wzw"]
    return tuple(out)


def test_every_module_is_scanned():
    assert {"oracle", "linalg", "fock", "kz", "liealg", "cli"} <= set(MODULES)
    assert ("errors", "InputError") in package_imports("oracle")


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module(module):
    private = [(src, name) for src, name in package_imports(module)
               if name.startswith("_")]
    assert private == []


def test_oracle_shares_only_errors_and_the_kernel():
    # the oracle is the independent ground truth for the fast paths
    assert {src for src, _ in package_imports("oracle")} <= {"errors", "linalg"}


def test_fast_paths_take_only_the_problem_api_from_the_oracle():
    assert not [name for src, name in package_imports("fock") if src == "oracle"]
    assert not [name for src, name in package_imports("kz") if src == "oracle"]


# entry points that only the interpreter calls
ENTRY_POINTS = {("cli", "main")}


def _read_names(tree: ast.AST) -> tuple[set, set]:
    """Names read in tree, and (name, attribute) pairs of dotted reads."""
    names, dotted = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            dotted.add((node.value.id, node.attr))
    return names, dotted


def _public_members(node: ast.ClassDef) -> list[str]:
    """Public methods of a class and, for a dataclass, its public fields."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    is_dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
    names = []
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            names.append(item.name)
        elif (is_dataclass and isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)):
            names.append(item.target.id)
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_is_used_by_package_code():
    # a public function, class, method or dataclass field that only tests read
    # is test-only API; every module is parsed once.  A top-level name is
    # looked up one top-level statement at a time; a member counts as used
    # when package code reads an attribute of its name anywhere.
    statement_reads = {m: [_read_names(node) for node in _tree(m).body] for m in MODULES}
    reads = {m: (set().union(*(names for names, _ in stmts)),
                 set().union(*(dotted for _, dotted in stmts)))
             for m, stmts in statement_reads.items()}

    def is_used(module: str, k: int, name: str) -> bool:
        """Does package code outside the k-th top-level statement of module read name?"""
        if any(name in names for i, (names, _) in enumerate(statement_reads[module])
               if i != k):
            return True
        for other in MODULES:
            if other == module:
                continue
            imports = package_imports(other)
            names, dotted = reads[other]
            if (module, name) in imports and name in names:
                return True
            if (module, module) in imports and (module, name) in dotted:
                return True
        return False

    attributes = {node.attr for m in MODULES for node in ast.walk(_tree(m))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = []
    for module in MODULES:
        for k, node in enumerate(_tree(module).body):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")
                    or (module, node.name) in ENTRY_POINTS):
                continue
            if not is_used(module, k, node.name):
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module}.{node.name}.{member}"
                           for member in _public_members(node) if member not in attributes]
    assert unused == []


# names the per-layer benchmark (perfbench/tracer.py) wraps or reads: a
# renamed one silently zeroes a work count or crashes a traced run
TRACED_PARAMETERS = {
    ("surface", "_state_sum"): ["surface", "graph"],
    ("kz", "_transport_fixed"): ["system", "waypoints", "per_seg"],
    ("fock", "GradedOperator.compose"): ["self", "other"],
    ("linalg", "IntSpan.add"): ["self", "row"],
    ("oracle", "npoint_block_ranks"): ["problem"],
    ("oracle", "three_point_ranks"): ["level", "m1", "m2", "m3"],
}
TRACED_CACHES = [("fusion", "_truncated_product"), ("liealg", "_dominant_weights")]


@pytest.mark.parametrize("module,name", sorted(TRACED_PARAMETERS))
def test_traced_function_keeps_its_parameters(module, name):
    fn = importlib.import_module(f"wzw.{module}")
    for attr in name.split("."):
        fn = getattr(fn, attr)
    assert list(inspect.signature(fn).parameters) == TRACED_PARAMETERS[module, name]


@pytest.mark.parametrize("module,name", TRACED_CACHES)
def test_traced_cache_is_still_an_lru_cache(module, name):
    info = getattr(importlib.import_module(f"wzw.{module}"), name).cache_info()
    assert info.misses >= 0 and info.currsize >= 0


def test_traced_fock_fields_still_exist():
    # the tracer keeps every module fock.induced_module returns, counts its
    # _memo, and sums the block sizes of each composition
    fock = importlib.import_module("wzw.fock")
    module = fock.induced_module(1, 0, 3)
    op = module.action(-1, 0)
    blocks = op.compose(op).blocks
    assert isinstance(module._memo, dict) and module._memo
    assert all(isinstance(blk, dict) for blk in blocks.values())
    assert sum(len(blk) for blk in blocks.values()) > 0
