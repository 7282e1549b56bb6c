"""The README's examples run as written: its Python block and every ``sectorlap ...`` command line."""

import pathlib
import re
import shlex

import pytest

from sectorlap.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
SHELL_LINES = [line for kind, body in BLOCKS if kind == "sh" for line in body.splitlines()]
COMMANDS = [line for line in SHELL_LINES if line.startswith("sectorlap ")]
PYTHON = [body for kind, body in BLOCKS if kind == "python"]


def test_the_readme_has_its_examples():
    assert len(COMMANDS) == 7 and len(PYTHON) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, capsys):
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("block", PYTHON)
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
