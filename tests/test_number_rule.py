"""No library function converts one of its own parameters by float(),
int(), complex() or operator.index() outside channel.number.

channel.number is the one rule by which an input is a number or an
integer: it refuses a bool, a string, bytes and a numpy boolean, and a
numpy complex where a real number is due. A bare conversion of a parameter
elsewhere would take what that rule refuses (int(True) is 1, float('2') is
2.0) or fail with TypeError instead of ValidationError.

The scan reads the source with ast. A conversion counts when its argument
names a parameter of the function it is in, other than self or cls, outside
any further call: float(format(x, ".12g")) converts the text that format
returns, and int(bad.argmax()) a result, not an input.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xctin"

# The one place that may convert its parameter.
RULE = ("channel", "number")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_conversion(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ("float", "int", "complex")
    return (isinstance(func, ast.Attribute) and func.attr == "index"
            and isinstance(func.value, ast.Name) and func.value.id == "operator")


def _names_outside_calls(node):
    """Every name node reads, except inside a call it contains."""
    if isinstance(node, ast.Name):
        yield node.id
    elif not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _names_outside_calls(child)


def _parameters(func) -> set[str]:
    args = func.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]
    return {a.arg for a in every} - {"self", "cls"}


def _functions(node, prefix=()):
    """(qualified name, node) of every function under node, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
            name = prefix + (child.name,)
            if isinstance(child, _FUNCTIONS):
                yield ".".join(name), child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _converting_functions(src: Path) -> set[tuple[str, str]]:
    """(module, function) of each library function that passes one of its
    parameters to a conversion."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for name, func in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            params = _parameters(func)
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and _is_conversion(call):
                    operands = call.args + [k.value for k in call.keywords]
                    if any(params & set(_names_outside_calls(x)) for x in operands):
                        found.add((path.stem, name))
    return found


def test_the_scan_sees_the_number_rule_convert_its_value():
    assert RULE in _converting_functions(SRC)


def test_no_library_function_converts_a_parameter_outside_the_number_rule():
    assert _converting_functions(SRC) - {RULE} == set()


def test_the_scan_flags_a_bare_conversion(tmp_path):
    (tmp_path / "m.py").write_text(
        "import operator\n"
        "def a(n):\n    return operator.index(None if isinstance(n, bool) else n)\n"
        "class C:\n    def __new__(cls, d):\n        return int(d)\n"
        "def b(x):\n    return float(format(x, '.12g'))\n"
        "def c(step, k):\n    return int(k / step)\n", encoding="utf-8")
    assert _converting_functions(tmp_path) == {("m", "a"), ("m", "C.__new__"), ("m", "c")}
