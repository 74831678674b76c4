"""The README's command-line section, checked against the code it describes."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from dressedcavity.cli import _COMMANDS, EXIT_OK, RunConfig, main

LINES = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()

# every example command line, not the "dressed-cavity <subcommand> ..." synopsis
EXAMPLES = [line.split(maxsplit=1)[1] for line in LINES
            if line.startswith("dressed-cavity ") and "<subcommand>" not in line]


def test_config_keys_are_the_run_config_fields():
    # the README's table of each subcommand's keys is the CLI's, and every key is in it
    common = re.search(r"keys besides `([^`]*)`", "\n".join(LINES)).group(1).split(", ")
    rows = [re.fullmatch(r"\| `([a-z-]+)` \| (?:none|`([^`]*)`) \|", line).groups()
            for line in LINES if line.startswith("| `")]
    table = {name: tuple(common + (keys.split(", ") if keys else [])) for name, keys in rows}
    assert table == {name: keys for name, (_, keys) in _COMMANDS.items()}
    assert set().union(*table.values()) == {f.name for f in fields(RunConfig)}


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(tmp_path, example):
    argv = shlex.split(example)
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
