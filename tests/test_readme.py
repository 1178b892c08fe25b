"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    first, arrow, last = capsys.readouterr().out.split()
    assert arrow == "->" and float(last) < float(first)
