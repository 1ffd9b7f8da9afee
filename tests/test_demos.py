import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (line number, code) of every fenced python block in the README
README_BLOCKS = [
    (README.count("\n", 0, m.start()) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", README, re.M | re.S)
]


def run_python(args, cwd):
    """Run a fresh interpreter under the suite's warning policy, which the
    pytest ``filterwarnings`` setting does not pass on to subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", *args]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python([str(demo)], ROOT)
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    line, code = block
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, f"README.md block at line {line}:\n{proc.stderr}"
