"""The CLI's options, pinned in tests/data/cli_parser.json.

For the top level and every subcommand the fixture records each argparse
action's option strings, dest, default, type name, choices, required flag,
metavar and help string, and each subcommand's own help.  That is the
structure behind `--help`, not its formatted text, which argparse lays out
differently across Python versions.  After a change that is meant to move
an option, rewrite the fixture with `python tests/test_cli_parser.py` and
name the moved options in CHANGES.md.
"""

import json
import pathlib

import pytest

from dickeprobe.cli import build_parser, main

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "cli_parser.json"
COMMANDS = ["curve", "quench", "adiabatic", "classical", "oracle"]


def _subparsers(parser):
    (action,) = (a for a in parser._actions if a.choices and isinstance(a.choices, dict))
    return action


def describe_actions(parser):
    rows = []
    for action in parser._actions:
        choices = action.choices
        rows.append(
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": None if action.type is None else action.type.__name__,
                "choices": None if choices is None else list(choices),
                "required": action.required,
                "metavar": action.metavar,
                "help": action.help,
            }
        )
    return rows


def describe(parser):
    """{"": top-level actions, command: {"help": ..., "actions": [...]}} as plain JSON data."""
    sub = _subparsers(parser)
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    table = {"": describe_actions(parser)}
    for name, subparser in sub.choices.items():
        table[name] = {"help": helps[name], "actions": describe_actions(subparser)}
    return table


def test_parser_matches_fixture():
    assert describe(build_parser()) == json.loads(FIXTURE.read_text())


def test_fixture_holds_every_subcommand():
    assert list(json.loads(FIXTURE.read_text())) == ["", *COMMANDS]


@pytest.mark.parametrize(
    "argv", [["--help"], *([name, "--help"] for name in COMMANDS)], ids=" ".join
)
def test_help_exits_zero(argv, capsys):
    # formatting every help string catches a stray '%' that argparse would reject
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dickeprobe")
    assert captured.err == ""


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(describe(build_parser()), indent=1) + "\n")
    print(f"wrote the parser of {len(COMMANDS)} subcommands to {FIXTURE}")
