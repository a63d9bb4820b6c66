"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    assert len(BLOCKS) == 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "[('duality', True), ('pipeline', True)]" in out
