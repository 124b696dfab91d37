"""The documentation stays in step with the CLI.

Every `$ cforbit ...` example in README.md must print exactly what the
README shows, and docs/cli.md must name every flag that the parameter
declarations give each subcommand.
"""
import re
import shlex
from pathlib import Path

import pytest

from cforbit.cli import _COMMON, _SUBCOMMANDS, _flag, main

ROOT = Path(__file__).resolve().parent.parent

# the subcommand's own flags, as `cforbit <sub> --help` listed them before
# the parameters were declared in one table, less the --dt of zaremba-height,
# whose heights are now exact; every subcommand also takes the common flags below
OWN_FLAGS = {
    "cfe": {"--p", "--q"},
    "sweep-len": {"--q", "--bins"},
    "sweep-digits": {"--q", "--bins"},
    "dispersion": {"--q", "--delta"},
    "orbit": {"--p", "--q", "--dt", "--t-max"},
    "cross-section": {"--p", "--q"},
    "kappa": set(),
    "mass-escape": {"--q", "--M", "--t"},
    "fd-hist": {"--q", "--dt", "--grid", "--sample-size"},
    "haar-selftest": {"--n", "--grid"},
    "zaremba-census": {"--q-max", "--K"},
    "zaremba-height": {"--q", "--K"},
    "symmetry-check": {"--q-max"},
}
COMMON_FLAGS = {"--config", "--seed", "--threads", "--output", "--format"}


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(.*?)^```$", text, re.S | re.M):
        command, _, output = block.partition("\n")
        if command.startswith("$ cforbit "):
            command = command[len("$ cforbit "):]
            yield pytest.param(command, output, id=command)


def _section(text: str, heading: str) -> str:
    start = text.index(heading + "\n")
    end = re.compile(r"^##", re.M).search(text, start + len(heading))
    return text[start : end.start() if end else len(text)]


def _named_flags(text: str) -> set[str]:
    return set(re.findall(r"`(--[A-Za-z][A-Za-z-]*)", text))


@pytest.mark.parametrize("command,expected", _readme_examples())
def test_readme_examples_print_what_they_show(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_readme_has_examples():
    assert len(list(_readme_examples())) >= 3


def test_declared_flags_are_documented_and_listed_by_help(capsys):
    assert set(OWN_FLAGS) == set(_SUBCOMMANDS)
    docs = (ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    assert {_flag(p) for p in _COMMON} | {"--config"} == COMMON_FLAGS
    assert _named_flags(_section(docs, "## Common flags")) >= COMMON_FLAGS
    for name, spec in _SUBCOMMANDS.items():
        own = {_flag(p) for p in spec.params}
        assert own == OWN_FLAGS[name]
        assert _named_flags(_section(docs, f"### {name}")) >= own, name
        assert main([name, "--help"]) == 0
        listed = set(re.findall(r"--[A-Za-z][A-Za-z-]*", capsys.readouterr().out))
        assert listed == own | COMMON_FLAGS | {"--help"}, name
