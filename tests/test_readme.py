"""README's examples run as documented: the CLI lines under "Examples:"
that write no file, and the Library snippet with the claims in its
comments."""

import json
import pathlib
import re

import pytest

from xctin.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# The fenced sh block under "Examples:" and the fenced python block under "## Library".
EXAMPLES_BLOCK = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.S | re.M).group(1)
LIBRARY_BLOCK = re.search(r"^## Library\n\n```python\n(.*?)^```", README, re.S | re.M).group(1)

# Each example's argv after "xctin", and the documented output on the
# comment line under it, if any.
EXAMPLES = []
for line in EXAMPLES_BLOCK.splitlines():
    if line.startswith("xctin "):
        EXAMPLES.append((line.split("#")[0].split()[1:], None))
    elif line.startswith("# ") and EXAMPLES:
        EXAMPLES[-1] = (EXAMPLES[-1][0], line[2:])
NO_FILE = [(argv, shown) for argv, shown in EXAMPLES if "--out" not in argv]


def test_readme_examples_are_found():
    assert [argv[0] for argv, _ in NO_FILE] == ["classify", "eval", "gap-audit", "converge"]


@pytest.mark.parametrize("argv, shown", NO_FILE, ids=[argv[0] for argv, _ in NO_FILE])
def test_readme_example_runs(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if shown is None:
        return
    # The shown document with its "..." dropped is part of the output.
    documented = json.loads(shown.replace(", ...}", "}"))
    assert {"extended", "gsj", "gdof"} <= documented.keys()
    doc = json.loads(out)
    assert {k: doc[k] for k in documented} == documented


def test_readme_library_snippet_keeps_its_claims():
    ns = {}
    exec(LIBRARY_BLOCK, ns)
    gdof = re.search(r"certified GDoF ([0-9.]+)", LIBRARY_BLOCK).group(1)
    gap_cap = re.search(r"# < ([0-9.]+) inside the regime", LIBRARY_BLOCK).group(1)
    assert ns["verdict"].in_extended
    assert format(ns["verdict"].gdof_value, ".12g") == gdof == "1.4"
    assert 0.0 < ns["gap_bits"] < float(gap_cap) == 7.0


def test_readme_largest_gap_is_what_its_command_prints(capsys):
    argv, gap = re.search(r"^\*\*Largest gap found:\*\*.*?```sh\nxctin (.*?)\n"
                          r"# \"gap_bits\": ([0-9.]+)\n", README, re.S | re.M).groups()
    assert main(argv.split()) == 0
    assert json.loads(capsys.readouterr().out)["gap_bits"] == float(gap)
    assert f"largest gap found so far is {float(gap):.5f} bits" in README
