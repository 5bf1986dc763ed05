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
