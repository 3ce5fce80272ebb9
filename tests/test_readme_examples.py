"""The README's examples run as written: every `chtriangle ...` line of
the "Command line" sh block exits 0 through cli.main and writes output,
and the quick-start session gives the results it shows."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from chtriangle import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first fenced block of language lang after the heading line."""
    text = README.read_text()
    section = text[text.index("\n" + heading + "\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```$", section, re.S | re.M).group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in readme_block("## Command line", "sh").splitlines()
    if line.startswith("chtriangle ")
]


def test_readme_command_block_has_every_command():
    assert {argv[0] for argv in COMMANDS} == set(cli._HANDLERS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_line_runs(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_readme_quick_start_gives_its_results():
    # the quick start is the README's one >>> session: seven statements,
    # four of them with a result
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.ELLIPSIS)
    assert result.failed == 0
    assert result.attempted == 7
