"""README examples as a golden transcript.

Every ``$ denumerant ...`` line of the "Command line" block runs through
``cli.main`` and its stdout must match the lines shown under it; a shown
line ending in ``...}`` is compared as a prefix, and a command shown
without output must exit 0.  The "Library use" block is executed as is.
"""

import re
import shlex
from pathlib import Path

import pytest

from denumerant import cli

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


def test_library_use_example():
    namespace: dict = {}
    exec(_block("Library use", "python"), namespace)
    assert namespace["exact"] == 1
    assert namespace["report"].sandwich_ok
