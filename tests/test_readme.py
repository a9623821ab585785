"""README examples as goldens: every `$ polycm ...` line in a text block is
run through polycm.cli.main and its stdout must match the lines shown, and
the Python API block runs with the results its comments state."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from polycm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for each README example."""
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(), flags=re.S)
    examples = []
    for block in blocks:
        for chunk in re.split(r"\n(?=\$ )", block.strip("\n")):
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1]:
                shown.pop()
            examples.append((command, shown))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5
    assert all(command.startswith("$ polycm ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, shown, capsys):
    argv, _, pipe = command[len("$ polycm "):].partition("|")
    code = main(shlex.split(argv))
    out = capsys.readouterr().out.splitlines()
    if pipe:
        head = re.fullmatch(r"\s*head -(\d+)\s*", pipe)
        assert head, f"unsupported pipe in README example: {pipe!r}"
        out = out[: int(head.group(1))]
    assert code == 0
    assert out == shown


def _python_lines() -> list[tuple[str, str]]:
    """(statement, trailing comment) for each line of the README's Python block."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    lines = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            lines.append((code.strip(), comment.strip()))
    return lines


def test_readme_python_api():
    # a comment that starts with True states that the expression is True;
    # the EvalResult comment states the value exactly and the bar to the
    # digits shown
    namespace: dict = {}
    checked = 0
    for code, comment in _python_lines():
        if comment.startswith("True"):
            assert eval(code, namespace) is True, code
            checked += 1
            continue
        exec(code, namespace)
        stated = re.fullmatch(r"EvalResult\(value=(\S+), abs_error_estimate=(\S+)\)", comment)
        if stated:
            r = namespace[code.partition("=")[0].strip()]
            value, bar = stated.groups()
            assert r.value == float(value)
            assert f"{r.abs_error_estimate:.{len(bar.split('e')[0]) - 2}e}" == bar
            checked += 1
    assert checked == 3
    assert namespace["r"].value == 97.40909103400244
