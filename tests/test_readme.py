"""README examples as goldens: every `$ polycm ...` line in a text block is
run through polycm.cli.main and its stdout must match the lines shown."""

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
