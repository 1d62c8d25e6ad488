"""Each demo script, and the README's Python quick start, runs to completion
against the source tree.

Demos 02 and 04 print only rounded values, so their stdout is pinned in
tests/golden/demo_<name>.txt.  Demo 01 is pinned up to its `JSON export`
line, with each `orthonormal to <x>;` deviation masked, because the last
digits of those depend on the BLAS build; demo 03 prints timings.  For a
declared output change, rewrite a file with
`PYTHONPATH=src python demos/<name>.py > tests/golden/demo_<name>.txt`,
cutting demo 01 with `| sed '/^JSON export/,$d'`.
"""

import re

import pytest

from conftest import SRC, fresh_python

ROOT = SRC.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = {"01_orbit_geometry", "02_quantum_bounds", "04_nonlocal_game"}
QUICK_START = re.search(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M
).group(1)
SCRIPTS = [[str(demo)] for demo in DEMOS] + [["-c", QUICK_START]]
NAMES = [d.stem for d in DEMOS] + ["readme_quick_start"]


@pytest.mark.parametrize("name, script", zip(NAMES, SCRIPTS), ids=NAMES)
def test_demo_runs(name, script):
    result = fresh_python(script, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if name in PINNED:
        golden = ROOT / "tests" / "golden" / f"demo_{name}.txt"
        assert pinned(result.stdout) == pinned(golden.read_text())


def pinned(stdout):
    """The part of a demo's stdout held to its golden file."""
    head = stdout.partition("JSON export")[0]
    return re.sub(r"orthonormal to \S+;", "orthonormal to <x>;", head)
