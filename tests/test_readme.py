"""The README's python blocks run and its commands parse, so it names only live routes."""

import re
import shlex
from pathlib import Path

from altmat.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), {})


def test_readme_altmat_commands_parse():
    # parsed, not run: every subcommand and flag the README names must exist
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("altmat ")]
    assert lines, "README.md has no altmat command"
    parser = build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            raise AssertionError(f"README.md command does not parse: {line}") from None
        assert callable(args.func), line
