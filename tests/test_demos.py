"""Every demo script runs to completion, and README's imports resolve."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import recmarket

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    src = str(Path(recmarket.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr


def test_readme_imports_resolve():
    # Each `from recmarket... import ...` of README's Python blocks, run as written
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imports = [
        node
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "recmarket"
    ]
    assert {node.module for node in imports} >= {"recmarket", "recmarket.portability"}
    for node in imports:
        exec(compile(ast.Module([node], []), "README.md", "exec"), {})
