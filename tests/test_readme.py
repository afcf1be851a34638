"""README.md stays true: its library example runs, and every documented
command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from fairank.cli import _build_parser
from fairank.experiments import ccdf_csv

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, lang: str) -> str:
    section = README.split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _command_lines(block: str) -> list[str]:
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("fairank ")]


def test_library_example_runs(capsys):
    exec(compile(_block_after("## Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


COMMANDS = _command_lines(_block_after("## CLI usage", "sh"))


def test_cli_usage_block_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_usage_line_parses(line):
    _, command, *flags = shlex.split(line)
    _build_parser(command).parse_args(flags)  # a rejected flag exits 1


def test_ccdf_schema_matches_writer():
    assert f"`ccdf.csv` — `{ccdf_csv({}).strip()}`" in README
