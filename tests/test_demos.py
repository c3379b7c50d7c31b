"""Every demo script runs to completion against the package in ``src/``, and
README's Python snippets show the values their comments state."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_snippets_show_the_values_in_their_comments():
    # each expression statement is checked against its trailing comment: a
    # print by its output, any other expression by its repr
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    shown, stated = [], []
    for block in blocks:
        lines, scope = block.splitlines(), {}
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
            shown.append(out.getvalue().strip() if value is None else repr(value))
            stated.append(lines[node.end_lineno - 1].rpartition("#")[2].strip())
    assert shown == stated == ["32 True", "pass", "Fraction(17, 8)"]
