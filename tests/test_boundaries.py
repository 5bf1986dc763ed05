"""Module boundaries: imports between the package's modules, read from their
source, what a command loads at start-up, and the surface of the public types."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import wzw
from wzw.fock import SL2, CurrentAlgebra, gluing_tensor, induced_module, integrable_quotient
from wzw.fusion import alphabet, fusion_table
from wzw.kz import TransportResult, kz_system
from wzw.liealg import root_system
from wzw.linalg import sl2_irrep_matrices
from wzw.oracle import CoinvariantProblem
from wzw.surface import MarkedSurface, TwistEigenvalue, canonical_graph

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


def _loaded_after(statement: str) -> tuple[list[str], str]:
    """(package modules loaded, stdout before them) after `statement` runs under -S."""
    code = ("import sys\n" + statement + "\nprint()\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'wzw'))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert out.returncode == 0, out.stderr
    head, _, last = out.stdout.rstrip("\n").rpartition("\n")
    return last.split(), head


def test_cli_start_up_imports_no_code_generation():
    # dataclasses (with the inspect, ast, dis and tokenize it loads) and typing
    # add tens of milliseconds to every command.  -S keeps a site .pth preload
    # from importing them first and hiding a regression.
    _, found = _loaded_after(
        "import wzw.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert found.split() == []


def test_building_the_parser_loads_no_layer():
    # --help and argument errors are answered before any handler runs; the
    # stdlib modules below are only loaded where a handler uses them
    loaded, stdlib = _loaded_after(
        "from wzw.cli import build_parser; build_parser()\n"
        "print(*sorted({'json', 'fractions', 'decimal', 'cmath', 'random'}"
        " & set(sys.modules)))")
    assert loaded == ["wzw", "wzw.cli", "wzw.errors"]
    assert stdlib.split() == []


START = ["wzw", "cli", "errors"]
FUSION = START + ["fusion", "liealg", "linalg"]
KZ = START + ["kz", "linalg"]
CHECKS = START + ["checks", "linalg"]
LOOP = {"points": [[[2, 0], [0, 0], [-2, 0]], [[2, 1], [0, 0], [-2, 0]],
                   [[3, 1], [0, 0], [-2, 0]], [[3, 0], [0, 0], [-2, 0]]], "closed": True}
# each command in process, and the package modules it may load: the layers it
# calls and what they import
COMMAND_LAYERS = [
    (("fusion-table", "--algebra", "A1", "--level", "2"), FUSION),
    (("dim", "--algebra", "A1", "--level", "2", "--genus", "1"), FUSION + ["surface"]),
    (("dehn", "--algebra", "A1", "--level", "2", "--label", "1"), FUSION + ["surface"]),
    (("oracle", "three-point", "--level", "1", "--labels", "1,1,0"),
     START + ["linalg", "oracle"]),
    (("oracle", "npoint", "--level", "1", "--labels", "1,1", "--points", "0,1"),
     START + ["linalg", "oracle"]),
    (("kz", "matrices", "--level", "2", "--labels", "1,1,2", "--format", "tsv"), KZ),
    (("kz", "transport", "--level", "2", "--labels", "1,1,2", "--steps", "200"), KZ),
    (("verify", "virasoro", "--kmax", "1", "--degree", "4"), CHECKS + ["fock"]),
    (("verify", "sugawara", "--level", "1", "--label", "0", "--degree", "2"), CHECKS + ["fock"]),
    (("verify", "gluing-recursion"), CHECKS + ["fock"]),
    # liealg only through kz.residue_check, for the Casimir eigenvalues
    (("verify", "kz-flatness"), CHECKS + ["kz", "liealg"]),
    (("verify", "fusion-axioms"), CHECKS + ["fusion", "liealg"]),
    (("verify", "block-dimensions"), CHECKS + ["fusion", "liealg", "surface"]),
    (("verify", "oracle-equivalence"), CHECKS + ["fusion", "liealg", "oracle"]),
    (("verify", "rank-z-independence"), CHECKS + ["oracle"]),
]


@pytest.mark.parametrize("argv,layers", COMMAND_LAYERS,
                         ids=[" ".join(argv[:2]) for argv, _ in COMMAND_LAYERS])
def test_each_command_loads_only_the_layers_it_calls(tmp_path, argv, layers):
    if argv[:2] == ("kz", "transport"):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP))
        argv += ("--path", str(path))
    loaded, _ = _loaded_after(f"from wzw.cli import main; assert main({list(argv)!r}) == 0")
    assert loaded == sorted(name if name == "wzw" else f"wzw.{name}" for name in layers)


A1 = root_system("A1")
# one instance of every read-only type, with one of its fields
READ_ONLY = {
    "RootSystem": (A1, "rank"),
    "RepMatrices": (sl2_irrep_matrices(1), "E"),
    "FusionAlphabet": (alphabet(A1, 1), "level"),
    "FusionRing": (fusion_table(alphabet(A1, 1)), "table"),
    "MarkedSurface": (MarkedSurface(A1, 1, 0, ()), "genus"),
    "TrivalentGraph": (canonical_graph(0, 3), "legs"),
    "TwistEigenvalue": (TwistEigenvalue(Fraction(1, 2)), "exponent"),
    "CoinvariantProblem": (CoinvariantProblem(1, (1, 1)), "points"),
    "CurrentAlgebra": (SL2, "dual_coxeter"),
    "GradedOperator": (induced_module(1, 0, 2).action(-1, 0), "hi"),
    "KZSystem": (kz_system(1, (1, 1)), "labels"),
    "IntegrableQuotient": (integrable_quotient(induced_module(1, 0, 2)), "kept"),
    "GluingTensorSeries": (gluing_tensor(1, 0, 2), "terms"),
    "TransportResult": (TransportResult([[1j]], 100, "1 waypoints, 0 segments", 0.0, True),
                        "matrix"),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_value_type_rejects_attribute_assignment(name):
    instance, field = READ_ONLY[name]
    assert type(instance).__name__ == name
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(instance, attr, None)
    with pytest.raises(AttributeError):
        delattr(instance, field)


def test_records_that_key_caches_are_equal_only_to_themselves():
    # alphabet() and induced_module() cache on these, so equal fields must not make
    # two instances equal, and hashing must not reach their dict fields
    for fresh, shared in ((alphabet.__wrapped__(A1, 1), alphabet(A1, 1)),
                          (CurrentAlgebra(*SL2), SL2)):
        assert fresh != shared and not fresh == shared and fresh == fresh
        assert isinstance(hash(fresh), int) and isinstance(hash(shared), int)
    # nor is a plain tuple of their fields equal to them, asked from either side
    for record in (alphabet(A1, 1), SL2):
        plain = tuple(getattr(record, name) for name in record._fields)
        assert record != plain and plain != record
        assert not record == plain and not plain == record


def test_no_class_defines_its_own_attribute_guards():
    # a read-only type is a namedtuple subclass with __slots__ = (), not a
    # class that hand-rolls __setattr__ and __delattr__
    guarded = [f"{module}.{node.name}.{item.name}" for module in MODULES
               for node in ast.walk(_tree(module)) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and item.name in ("__setattr__", "__delattr__")]
    assert guarded == []


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


def _field_names(node: ast.expr) -> list[str]:
    """The names of a namedtuple field spec or a `__slots__` value."""
    names = ast.literal_eval(node)
    return names.replace(",", " ").split() if isinstance(names, str) else list(names)


def _public_members(node: ast.ClassDef) -> list[str]:
    """Public methods of a class and its public fields.

    A field is a namedtuple field of a `namedtuple(...)` base, a `__slots__`
    entry, or a `self.<name>` assigned in `__init__`.
    """
    names = []
    for base in node.bases:
        if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                and base.func.id == "namedtuple"):
            names += _field_names(base.args[1])
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            names.append(item.name)
            if item.name == "__init__":
                targets = [t for stmt in ast.walk(item) if isinstance(stmt, ast.Assign)
                           for t in stmt.targets]
                targets += [stmt.target for stmt in ast.walk(item)
                            if isinstance(stmt, ast.AnnAssign)]
                names += [t.attr for t in targets if isinstance(t, ast.Attribute)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"]
        elif (isinstance(item, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)):
            names += _field_names(item.value)
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_is_used_by_package_code():
    # a public function, class, method or field that only tests read
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


def _defined_functions(module: str) -> list:
    """Every function and method wzw/<module>.py defines, unwrapped from lru_cache."""
    mod = importlib.import_module(f"wzw.{module}")
    out = []
    for value in vars(mod).values():
        if getattr(value, "__module__", None) != mod.__name__:
            continue
        for fn in vars(value).values() if isinstance(value, type) else [value]:
            fn = getattr(fn, "__wrapped__", fn)
            fn = fn.fget if isinstance(fn, property) else fn
            if inspect.isfunction(fn):
                out.append(fn)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_annotation_resolves(module):
    # annotations are strings under `from __future__ import annotations`, so a
    # name that is never imported only fails when something evaluates them
    unresolved = []
    for fn in _defined_functions(module):
        try:
            typing.get_type_hints(fn)
        except NameError as e:
            unresolved.append(f"{fn.__qualname__}: {e}")
    assert unresolved == []


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
