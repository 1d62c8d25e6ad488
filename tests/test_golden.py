"""The CLI output contract: every command of `compare_cli.COMMANDS` against its expectation
in tests/golden/, byte for byte but for `verify`'s margins (`compare_cli.agrees`), and once
more in reverse order in a fresh process.

For a declared output change, rewrite every expectation with
`PYTHONPATH=src python tests/test_golden.py` and declare the diff of tests/golden/.
"""

import json

import pytest

import compare_cli
from compare_cli import COMMANDS, CONTRACT, GOLDEN, agrees, stem
from conftest import SRC


@pytest.fixture(scope="module")
def results():
    """Each command's (exit code, stdout, stderr), run in list order in this process."""
    return [compare_cli.run(argv) for argv in COMMANDS]


@pytest.mark.parametrize("k", range(len(COMMANDS)), ids=[stem(argv) for argv in COMMANDS])
def test_output_matches_golden(results, k):
    compare_cli.check(COMMANDS[k], results[k])


def test_output_does_not_depend_on_command_order(results):
    backward = compare_cli._digests(SRC, COMMANDS[::-1])[::-1]
    assert backward == [compare_cli.digest(result) for result in results]


VECTOR = json.dumps({"quantum": {"eigenvector": [0.6, -0.8], "spectrum": [2.0, 1.0]}})
DEGENERATE = VECTOR.replace("2.0", "1.0")


# Byte for byte: a last-bit float, a sign-flipped or other vector and a changed margin format
# all fail; only a margin's digits may move.
@pytest.mark.parametrize("expected, actual, same", [
    ("lambda_max 1.0, gap 0.0", "lambda_max 1.000000000000001, gap -1.1102230246251565e-15", False),
    ("gap 1.0", "gap 1.000000001", False),
    ("max deviation 8.9e-16", "max deviation 8.88e-16", False),
    ("x01:x14", "x1:x14", False),
    ("violation: yes", "violation: no", False),
    (VECTOR, VECTOR.replace("0.6, -0.8", "-0.6, 0.8"), False),
    (VECTOR, VECTOR.replace("0.6, -0.8", "0.6, 0.8"), False),
    (DEGENERATE, DEGENERATE.replace("0.6, -0.8", "0.8, 0.6"), False),
    (DEGENERATE, DEGENERATE.replace("0.6, -0.8", "0.6, -0.7"), False),
    ("ok   case I: agree (max deviation 2.9e-15)", "ok   case I: agree (max deviation 3.6e-15)",
     True),
    ("labels bijective (max coordinate deviation 1.1e-16)",
     "labels bijective (max coordinate deviation 2.2e-16)", True),
], ids=["noise", "off_by_1e-9", "format", "integer", "word", "sign", "not_up_to_sign",
        "degenerate", "not_unit", "margin", "coordinate_margin"])
def test_agrees(expected, actual, same):
    assert agrees(expected, actual) is same


if __name__ == "__main__":
    contract = {}
    for argv in COMMANDS:
        name, (code, out, err) = stem(argv), compare_cli.run(argv)
        contract[name] = {"exit": code, "stderr": err}
        if compare_cli.digested(argv):
            contract[name]["stdout_sha256"] = compare_cli.sha256(out)
        else:
            (GOLDEN / f"{name}.txt").write_text(out)
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in contract.items()]
    CONTRACT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
