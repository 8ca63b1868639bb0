"""The scalar path starts without numpy, scipy or dataclasses.

The point commands (eval, classify, bound, gdof) run in pure Python, so
importing the package or the CLI and running a point command in JSON or
csv, or rejecting an input, must leave numpy unloaded; a table command loads
it. numpy is imported at the top of the modules that work on arrays and
nowhere else but in the Coded column's array methods. The records are named
tuples, so nothing loads dataclasses, nor, on the scalar path, the inspect
module it imports. Each run case uses a fresh interpreter, since this test
process has numpy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ALPHA = "1,0.2,0.75,0.4,1,0.75"
ALPHA_SCENARIO = {"rho_db": 40, "alpha": [[1, 0.2, 0.75], [0.4, 1, 0.75]]}
GAINS_SCENARIO = {"rho_db": 20, "gains": [[[1, 0]] * 3, [[0, 1]] * 3]}
POINT_COMMANDS = ("eval", "classify", "bound", "gdof")

# Modules the scalar path must not add to a bare interpreter's: the audits'
# numpy and scipy, and dataclasses with the inspect module it imports.
HEAVY = ("numpy", "scipy", "dataclasses", "inspect")

# Imports the module sys.argv[1], then runs each argv list of sys.argv[2]
# through cli.main with its output captured; prints the HEAVY modules of
# sys.argv[3] added to the interpreter's start-up modules after the import
# and after each run.
_ADDED = """
import sys
bare = set(sys.modules)
import contextlib, importlib, io, json
heavy = json.loads(sys.argv[3])
added = lambda: sorted(m for m in heavy if m in sys.modules and m not in bare)
importlib.import_module(sys.argv[1])
states = [added()]
argvs = json.loads(sys.argv[2])
if argvs:
    from xctin.cli import main
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    states.append([code, added()])
print(json.dumps(states))
"""


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running code with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _added(module: str, *argvs, heavy=HEAVY) -> list:
    return json.loads(_python(_ADDED, module, json.dumps(argvs), json.dumps(heavy)))


def test_table_command_loads_numpy_and_serves_the_audit_exports():
    assert _added("xctin.cli", ["sweep", "--step", "0.25"], heavy=("numpy",)) == [
        [], [0, ["numpy"]]]
    code = ("from xctin import gap_audit; import xctin; "
            "print(gap_audit is xctin.experiments.gap_audit)")
    assert _python(code) == "True\n"


@pytest.mark.parametrize("module", ["xctin", "xctin.cli"])
def test_import_adds_no_heavy_module(module):
    assert _added(module) == [[]]


def test_point_commands_and_input_errors_add_no_heavy_module(tmp_path):
    argvs = [["eval", "--alpha", "1,1,1", "--rho-db", "40"], ["gdof", "--alpha", "1,0,0,0,1,-1"]]
    for name, payload in (("alpha", ALPHA_SCENARIO), ("gains", GAINS_SCENARIO)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        argvs += [[command, "--scenario", str(path)] for command in POINT_COMMANDS]
    for command in POINT_COMMANDS:
        rho = ["--rho-db", "40"] if command in ("eval", "bound") else []
        argvs.append([command, "--alpha", ALPHA, *rho, "--format", "json"])
    codes = [2, 2] + [0] * 12
    assert _added("xctin.cli", *argvs) == [[]] + [[code, []] for code in codes]


def test_point_csv_adds_no_heavy_module(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(ALPHA_SCENARIO))
    argvs = []
    for command in POINT_COMMANDS:
        rho = ["--rho-db", "40"] if command in ("eval", "bound") else []
        argvs += [[command, "--alpha", ALPHA, *rho, "--format", "csv"],
                  [command, "--scenario", str(path), "--format", "csv"]]
    assert _added("xctin.cli", *argvs) == [[]] + [[0, []]] * len(argvs)


def _numpy_imports(node, scope: str):
    """The scope of each numpy import under node: "" for a statement of the
    module body, the dotted names of the enclosing classes and functions,
    or "<block>" under any other statement of the body (such as `if
    TYPE_CHECKING:`)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""])
            if any(name.partition(".")[0] == "numpy" for name in names):
                yield scope
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope in ("", "<block>") else f"{scope}.{child.name}"
            yield from _numpy_imports(child, inner)
        else:
            yield from _numpy_imports(child, scope or "<block>")


def test_numpy_is_imported_only_where_the_arrays_are():
    found = {(path.stem, scope) for path in (SRC / "xctin").glob("*.py")
             for scope in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")), "")}
    assert {module for module, scope in found if scope == ""} == {
        "experiments", "kernels", "writer"}
    assert {(module, scope.partition(".")[0]) for module, scope in found if scope} <= {
        ("tables", "Coded")}


def test_experiments_import_adds_no_dataclasses():
    # numpy itself imports inspect, so only dataclasses is pinned here; the
    # numpy it adds shows that the check sees what the import loads.
    assert _added("xctin.experiments", heavy=("dataclasses",)) == [[]]
    assert _added("xctin.experiments", heavy=("numpy",)) == [["numpy"]]
