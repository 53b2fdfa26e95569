"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert scope["y"].shape == (16, 7, 32, 32)
