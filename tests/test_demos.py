"""Each demo script, and the README's Python quick start, runs to completion
against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = re.search(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M
).group(1)
SCRIPTS = [[str(demo)] for demo in DEMOS] + [["-c", QUICK_START]]


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[d.stem for d in DEMOS] + ["readme_quick_start"]
)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, *script], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
