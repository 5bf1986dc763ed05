"""Import boundaries between the package's modules, read from their source."""

import ast
from pathlib import Path

import pytest

import wzw

SRC = Path(wzw.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def package_imports(module: str) -> list[tuple[str, str]]:
    """(wzw module, imported name) for every package import in wzw/<module>.py."""
    out = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
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
    return out


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
    assert sorted(name for src, name in package_imports("kz") if src == "oracle") == [
        "CoinvariantProblem", "npoint_block_ranks"]


# entry points that only the interpreter calls
ENTRY_POINTS = {("cli", "main")}


def _read_names(tree: ast.AST, skip: ast.AST | None = None) -> tuple[set, set]:
    """Names read in tree, and (name, attribute) pairs of dotted reads, outside skip."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names, dotted = set(), set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            dotted.add((node.value.id, node.attr))
    return names, dotted


def _is_used(module: str, definition: ast.AST, trees: dict) -> bool:
    """Does package code outside the definition refer to it?"""
    name = definition.name
    if name in _read_names(trees[module], skip=definition)[0]:
        return True
    for other in MODULES:
        if other == module:
            continue
        imports = package_imports(other)
        names, dotted = _read_names(trees[other])
        if (module, name) in imports and name in names:
            return True
        if (module, module) in imports and (module, name) in dotted:
            return True
    return False


def test_every_public_definition_is_used_by_package_code():
    # a public function or class that only tests read is test-only API
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}
    unused = []
    for module in MODULES:
        for node in trees[module].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and (module, node.name) not in ENTRY_POINTS
                    and not _is_used(module, node, trees)):
                unused.append(f"{module}.{node.name}")
    assert unused == []
