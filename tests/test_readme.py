"""README examples as a golden transcript.

Every ``$ denumerant ...`` line of the "Command line" block runs through
``cli.main`` and its stdout must match the lines shown under it; a shown
line ending in ``...}`` is compared as a prefix, a command shown
without output must exit 0, and every row command shown must run with
argparse's parse refused.  The "Library use" block is executed as is,
every name the package exports must appear somewhere in the README, every
budget constant must be stated with its current value, as must the
interpreter's limit on printing an int, and the list of available suites
must match ``SUITE_NAMES``.
"""

import argparse
import importlib
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import denumerant
from denumerant import SUITE_NAMES, cli

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = _README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _transcript() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) for each ``$`` line."""
    lines = _block("Command line", "text").replace("\\\n", " ").splitlines()
    examples: list[tuple[str, list[str]]] = []
    for line in lines:
        if line.startswith("$ "):
            command = re.sub(r"\s+#.*$", "", line[2:]).strip()
            examples.append((command, []))
        elif line.strip():
            examples[-1][1].append(line)
    return examples


_EXAMPLES = _transcript()


def test_transcript_covers_every_subcommand():
    shown = {shlex.split(command)[1] for command, _ in _EXAMPLES}
    assert shown == {"count", "bounds", "frobenius", "bf", "dhat", "verify"}


@pytest.mark.parametrize(
    "command, expected", _EXAMPLES, ids=[command for command, _ in _EXAMPLES]
)
def test_command_line_example(capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "denumerant"
    code = cli.main(argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    if not expected:
        return
    got = out.splitlines()
    assert len(got) == len(expected)
    for line, shown in zip(got, expected):
        if shown.endswith("...}"):
            assert line.startswith(shown[: -len("...}")])
        else:
            assert line == shown


@pytest.mark.parametrize(
    "command",
    [command for command, _ in _EXAMPLES if shlex.split(command)[1] != "verify"],
)
def test_row_command_examples_take_the_plain_form(monkeypatch, capsys, command):
    # main reads each shown row command without argparse.
    def refused(*args, **kwargs):
        raise AssertionError("argparse parsed a shown command")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refused)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_library_use_example():
    namespace: dict = {}
    exec(_block("Library use", "python"), namespace)
    exact, report = namespace["exact"], namespace["report"]
    assert exact == 1
    assert report.applicable_lower
    assert report.lower_a <= exact <= report.upper_a


def test_available_suites_are_listed_in_order():
    line = " ".join(_README.split("Available suites:", 1)[1].split(".\n", 1)[0].split())
    assert re.findall(r"`([a-z-]+)`", line) == list(SUITE_NAMES)


def test_every_exported_name_is_documented():
    missing = [
        name for name in denumerant.__all__ if not re.search(rf"\b{name}\b", _README)
    ]
    assert missing == []


def test_every_budget_is_documented_with_its_value():
    stated = []
    for module in sorted(info.name for info in pkgutil.iter_modules(denumerant.__path__)):
        namespace = vars(importlib.import_module(f"denumerant.{module}"))
        for name, value in namespace.items():
            if re.fullmatch(r"[A-Z0-9_]+_MAX_[A-Z0-9_]+", name):
                stated.append(f"`denumerant.{module}.{name}` ({value}")
    assert len(stated) == 7
    flowed = " ".join(_README.split())
    assert [line for line in stated if line not in flowed] == []


def test_the_interpreters_digit_limit_is_documented():
    limit = getattr(sys.int_info, "default_max_str_digits", None)
    if limit is None:
        pytest.skip("this Python converts an int of any length to text")
    assert f"more than {limit} digits" in " ".join(_README.split())
