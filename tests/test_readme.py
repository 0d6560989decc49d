"""README's python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out
