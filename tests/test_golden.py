"""CLI output pinned byte for byte against the files in tests/golden/.

Only commands whose output is rounded or integer are pinned: the last
bits of full-precision JSON, of the spectrum CSV and of `verify`'s
deviations can depend on the BLAS build.  For a declared output change,
rewrite the files with `PYTHONPATH=src python tests/test_golden.py`.
"""

from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "I": "x01:x14,x01:x07,x01:x15",
    "II": "x01:x23,x01:x16,x01:x01",
    "III": "x01:x25,x01:x14,x01:x18",
}
COMMANDS = {"orbits": ["orbits"]}
for _name, _spec in CASES.items():
    COMMANDS[f"analyze_{_name}"] = ["analyze", "--pairs", _spec]
    COMMANDS[f"analyze_{_name}_histogram"] = ["analyze", "--pairs", _spec, "--histogram"]
    COMMANDS[f"analyze_{_name}_histogram_csv"] = [
        "analyze", "--pairs", _spec, "--histogram", "--csv"
    ]
    COMMANDS[f"game_{_name}"] = ["game", "--pairs", _spec]
for _orbits, _phi in (("1", "x01"), ("2", "x01"), ("3", "x01"), ("3", "x12")):
    COMMANDS[f"scan_orbits{_orbits}_top50_{_phi}"] = [
        "scan", "--orbits", _orbits, "--top", "50", "--phi", _phi
    ]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    code, out = run_cli(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, out = run_cli(argv)
        assert code == 0, argv
        (GOLDEN / f"{name}.txt").write_text(out)
