"""Every top-level function and class of the library is named by library
code outside its own body, or is one of the few roots listed here.

A definition that only tests call is dead code kept alive by its tests: it
is documented and maintained as if an audit used it. The scan reads the
source with ast, so it sees every call, attribute lookup and decorator, and
ignores names that appear only in strings and comments.
"""

import ast
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


def _definitions_and_names():
    """(module, name) of each top-level def or class of the package, and
    every identifier its code names, as a name or an attribute, outside the
    body of the definition of that name."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, own))
            for node in ast.walk(top):
                ident = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and ident != own:
                    named.add(ident)
    return defined, named


def test_every_library_definition_has_a_library_caller():
    defined, named = _definitions_and_names()
    assert ROOTS <= set(defined)  # every root is still defined
    unnamed = [(module, name) for module, name in defined
               if name not in named and name not in xctin.__all__
               and not (name.startswith("__") and name.endswith("__"))  # __getattr__
               and (module, name) not in ROOTS]
    assert unnamed == []
