"""The README's Python examples run against the current library, and its CLI examples parse."""

import re
import shlex
from pathlib import Path

import pytest

from usctransfer import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks, "README.md has no ```python block"
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out


def cli_examples() -> list[str]:
    """Every ``usctransfer ...`` line of the README's shell blocks, backslash continuations joined."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("usctransfer ")]


CLI_EXAMPLES = cli_examples()


def test_readme_has_cli_examples():
    assert CLI_EXAMPLES, "README.md has no usctransfer command line"


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_parses(line):
    # flags and values only: a renamed or removed flag exits with a usage error, nothing is computed
    argv = shlex.split(line, comments=True)[1:]
    assert cli._parse_args(argv).command == argv[0]
