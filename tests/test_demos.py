"""Each demo script, and the README's Python quick start, runs to completion
against the source tree, with warnings as errors and nothing on stderr.

The stdout of demos 01, 02 and 04 is held to tests/golden/demo_<name>.txt byte
for byte: demo 01 forms its Gram matrices by `np.einsum`, not BLAS, and what
the demos print from BLAS products is rounded far above the kernel's last bits;
demo 03 prints timings.  For a declared output change, rewrite a file with
`PYTHONPATH=src python demos/<name>.py > tests/golden/demo_<name>.txt`.
"""

import re

import pytest

from compare_cli import GOLDEN
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
    result = fresh_python(["-W", "error", *script], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    if name in PINNED:
        assert result.stdout == (GOLDEN / f"demo_{name}.txt").read_text()
