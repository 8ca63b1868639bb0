"""Every top-level function and class of the library, and every method of
its classes, is named by library code outside its own body, or is one of
the few roots listed here; a method that overrides a base-class method
counts as used too.

A definition that only tests call is dead code kept alive by its tests: it
is documented and maintained as if an audit used it. The scan reads the
source with ast, so it sees every call, attribute lookup and decorator, and
ignores names that appear only in strings and comments.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import xctin

SRC = Path(__file__).resolve().parents[1] / "src" / "xctin"

# Definitions no library code has to name, each with what calls it.
ROOTS = {
    # The console script of pyproject.toml.
    ("cli", "main"),
    # Acceptance criteria 3, 4 and 8 draw their grids through it, and the
    # benchmark tracer wraps it to count the sampler's trials.
    ("experiments", "sample_in_regime"),
    # The libm profiles of every ordering and pairing: the references of
    # the audits' screened extrema (sum_capacity_ub_min, tdma_tin_rate_max)
    # in tests/test_block_kernels.py, on non-finite rows too, and of the
    # 50-digit oracle in tests/test_oracle.py.
    ("kernels", "sum_capacity_ub_profiles"),
    ("kernels", "tdma_tin_rate_profiles"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(node):
    """Every identifier node names, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions():
    """(module, name, uses) of each top-level def or class of the package,
    and (module, "Class.method", uses) of each method of its classes; uses
    counts the identifiers that name it in library code outside its own
    body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = Counter(ident for tree in trees.values() for ident in _identifiers(tree))

    def uses(node):
        return named[node.name] - sum(ident == node.name for ident in _identifiers(node))

    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, _DEFS):
                found.append((module, top.name, uses(top)))
            if isinstance(top, ast.ClassDef):
                found += [(module, f"{top.name}.{node.name}", uses(node))
                          for node in top.body if isinstance(node, _DEFS)]
    return found


def _overrides(module: str, qualname: str) -> bool:
    """Whether the method overrides one that a class after its own defines
    in the MRO of its class or of a direct subclass (a mixin's methods
    override those of the classes it is mixed into)."""
    cls_name, name = qualname.split(".")
    cls = getattr(importlib.import_module(f"xctin.{module}"), cls_name)
    return any(hasattr(base, name)
               for sub in (cls, *cls.__subclasses__())
               for base in sub.__mro__[sub.__mro__.index(cls) + 1:])


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")  # __getattr__, __new__


def test_every_library_definition_has_a_library_caller():
    definitions = [d for d in _definitions() if "." not in d[1]]
    assert ROOTS <= {(module, name) for module, name, _ in definitions}  # roots still defined
    unnamed = [(module, name) for module, name, uses in definitions
               if not uses and name not in xctin.__all__ and not _dunder(name)
               and (module, name) not in ROOTS]
    assert unnamed == []


def test_every_library_method_has_a_library_caller_or_overrides():
    methods = [d for d in _definitions() if "." in d[1]]
    # The scan sees the methods, and the overrides no library code names.
    assert {("bounds", "TxPermutation.label"), ("channel", "AlphaMatrix.flat")} <= {
        (module, name) for module, name, _ in methods}
    assert _overrides("channel", "ValidatedRecord._make")
    assert _overrides("cli", "_CommandParser.parse_known_args")
    assert not _overrides("bounds", "TxPermutation.label")
    unused = [(module, name) for module, name, uses in methods
              if not uses and not _dunder(name.split(".")[1]) and not _overrides(module, name)]
    assert unused == []
