"""Runs every ``python`` block of README.md, so the documented API keeps working."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_the_readme_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
