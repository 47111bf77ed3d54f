"""The README's Library block runs as written, on the 1920 table."""

import re
from pathlib import Path

from conftest import tabulation_csv


def test_library_block_runs(table_1920, tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    for name, text in zip(("tab.csv", "den.csv"), tabulation_csv([table_1920])):
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
