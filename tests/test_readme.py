"""The README's examples run as written: its Python block and every ``sectorlap ...`` command line.

Its table of each subcommand's flags matches the parser.
"""

import pathlib
import re
import shlex

import pytest

from sectorlap.cli import build_parser, main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
SHELL_LINES = [line for kind, body in BLOCKS if kind == "sh" for line in body.splitlines()]
COMMANDS = [line for line in SHELL_LINES if line.startswith("sectorlap ")]
PYTHON = [body for kind, body in BLOCKS if kind == "python"]
FLAG_TABLE = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", README.partition("The flags each subcommand")[2], re.M))


def test_the_readme_has_its_examples():
    assert len(COMMANDS) == 7 and len(PYTHON) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, capsys):
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("block", PYTHON)
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_the_readme_flag_table_lists_each_subcommands_flags():
    _, registry = build_parser()
    parsed = {name: " ".join(a.option_strings[0] for a in sp._actions if a.dest != "help")
              for name, sp in registry.items()}
    assert FLAG_TABLE == parsed


@pytest.mark.parametrize("command", sorted(build_parser()[1]))
def test_each_subcommand_describes_itself(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: sectorlap {command}")
