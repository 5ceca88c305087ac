"""The README's examples run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ``python`` code block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_library_use_block_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("Library use"), str(README), "exec"), {})
    rows = {kind: rest for kind, *rest in map(str.split, out.getvalue().splitlines())}
    assert sorted(rows) == ["fop", "pc"]
    assert float(rows["fop"][0]) == 100.0
    assert 0 < float(rows["pc"][0]) <= 100.0
