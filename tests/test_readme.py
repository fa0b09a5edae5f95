"""Every `pcgkit` command in README's CLI quick start parses.

The commands are only parsed, never run, so a flag the README shows that
the parser no longer takes fails here, as a demo's deleted import does in
test_demos.py.
"""

import shlex
from pathlib import Path

import pytest

from pcgkit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def quick_start_commands():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("pcgkit ")]


COMMANDS = quick_start_commands()


def test_every_subcommand_is_shown():
    assert sorted(argv[1] for argv in COMMANDS) == [
        "eval", "extract", "grid", "synth", "train", "window-info"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[1])
def test_quick_start_command_parses(argv):
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {shlex.join(argv)}")
