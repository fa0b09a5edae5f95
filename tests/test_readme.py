"""README's quick starts: every `pcgkit` command of the CLI one parses,
and all but the grid run; the library one runs, at one epoch.

A flag the README shows that the parser no longer takes fails here, as a
demo's deleted import does in test_demos.py.  The grid, which runs the
protocol's axes, is only parsed.
"""

import collections
import shlex
from pathlib import Path

import pytest

from pcgkit.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def quick_start_block(title, language):
    """The first ```language block of README's section `title`."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"## {title}", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def quick_start_commands():
    block = quick_start_block("Quick start (CLI)", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("pcgkit ")]


def command_ids(commands):
    """Each command's subcommand; a repeat gets its ordinal ("extract-2")."""
    seen = collections.Counter()
    ids = []
    for argv in commands:
        seen[argv[1]] += 1
        ids.append(argv[1] if seen[argv[1]] == 1 else f"{argv[1]}-{seen[argv[1]]}")
    return ids


COMMANDS = quick_start_commands()


def test_every_subcommand_is_shown():
    assert sorted({argv[1] for argv in COMMANDS}) == [
        "eval", "extract", "grid", "synth", "train", "window-info"]


@pytest.mark.parametrize("argv", COMMANDS, ids=command_ids(COMMANDS))
def test_quick_start_command_parses(argv):
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        if argv[1] != "grid":
            assert main(argv[1:]) == 0, shlex.join(argv)
            err = capsys.readouterr().err
            if argv[1] == "synth" and err:
                # At the default murmur gain README's corpus clips in WAV,
                # and synth says so on one line.
                assert err.startswith("warning: ") and err.count("\n") == 1
                assert err.endswith(" were clipped\n")
            else:
                assert err == ""


def test_library_quick_start_runs(capsys):
    code = quick_start_block("Quick start (library)", "python")
    assert code.count("epochs=60") == 1
    exec(code.replace("epochs=60", "epochs=1"), {})
    assert capsys.readouterr().out.startswith("Metrics(sensitivity=")
