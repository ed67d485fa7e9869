"""The README's CLI examples, per-subcommand flag table and config keys agree with the parser."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from rateless_dmt.cli import CONFIG_KEYS, build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_commands() -> list[list[str]]:
    """Every `rateless-dmt ...` line of the README's code blocks, continuations joined."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("rateless-dmt ")]


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {"dmt", "simulate", "codes", "verify"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_flag_table_lists_each_subcommand_flag():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README, flags=re.M)
    table = {name: set(re.findall(r"`(--[\w-]+)", flags)) for name, flags in rows}
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in _subcommands(build_parser()).items()
    }
    assert table == parsed


def test_readme_config_keys_are_the_parser_keys():
    (listed,) = re.findall(r"^Config files are flat .*? with keys (.*?);", README, flags=re.M | re.S)
    assert re.findall(r"`(\w+)`", listed) == list(CONFIG_KEYS)
