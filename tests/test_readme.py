"""The README's python blocks run and its commands parse, so it names only live routes."""

import pkgutil
import re
import shlex
from importlib import import_module
from pathlib import Path

import altmat
from altmat import BitMatrix, CodePair, Encoder, Fragmentation, WeightEnumerator
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


def test_readme_prose_names_live_code():
    # a backticked name with an underscore or a capital is a library name, and
    # must still be one: a module attribute or an attribute of a public class
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    names = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*)`", prose)
        if "_" in name or (name[0].isupper() and len(name) >= 2)
    }
    assert names, "README.md prose names no library identifier"
    modules = [altmat] + [
        import_module(f"altmat.{info.name}")
        for info in pkgutil.iter_modules(altmat.__path__)
        if info.name != "__main__"
    ]
    owners = modules + [BitMatrix, Encoder, Fragmentation, CodePair, WeightEnumerator]
    dead = sorted(name for name in names if not any(hasattr(o, name) for o in owners))
    assert not dead, f"README.md names code that does not exist: {dead}"
