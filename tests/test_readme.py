"""The README's python blocks run as they stand, so it names only live routes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), {})
