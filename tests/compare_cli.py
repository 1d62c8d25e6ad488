"""The CLI output contract, and a bit-exact comparison of two source trees over it.

    python tests/compare_cli.py OLD_SRC NEW_SRC
    python tests/compare_cli.py src              # hashes of one tree only

`COMMANDS` is the one list of pinned CLI commands: all five subcommands, the
usage-error path and three specs that `analyze` rejects.  Each command's
expectation is in tests/golden/: exit code and stderr in `contract.json`, and
stdout in `<stem>.txt`, or as a sha256 in `contract.json` for the 72 `scan --top
2600` runs.  `check` holds a run to it by one rule, `agrees`.  tests/test_golden.py
checks every command and, run as a script, rewrites every expectation.

As a script, this runs each command through `s4bell.cli.main` in one child
process per tree (a directory holding the `s4bell` package, such as the `src/`
of a `git archive` checkout) and prints one sha256 of exit code, stdout and
stderr per tree, then "same" or "DIFFERS".  The last tree named also runs the
list in reverse order in one more child: a command whose hash then moves
depends on what an earlier command left in the process (the parser, or the
standard context and its tables) and is marked "ORDER".  It exits 1 on any
difference or mark, else 0.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CONTRACT = GOLDEN / "contract.json"
LABELS = [f"x{a}{s}" for s in range(1, 9) for a in range(3)]
SPECS = {
    "I": "x01:x14,x01:x07,x01:x15",
    "II": "x01:x23,x01:x16,x01:x01",
    "III": "x01:x25,x01:x14,x01:x18",
    "one_pair": "x01:x14",
    "alice_x01": ",".join(f"x01:{lab}" for lab in LABELS),
    "scan_rank1": "x01:x12,x01:x23,x01:x14",  # rank 1 of `scan --orbits 3`
    "mixed_alice": "x12:x01,x23:x14,x27:x05",  # classes summed with Alice off x01
    # 24 distinct Alice labels and 24 distinct pair classes, so every class row
    "distinct_alice": (
        "x01:x01,x11:x16,x21:x17,x02:x26,x12:x04,x22:x02,x03:x02,x13:x18,x23:x02,x04:x16,"
        "x14:x24,x24:x28,x05:x22,x15:x04,x25:x13,x06:x22,x16:x13,x26:x17,x07:x01,x17:x12,"
        "x27:x24,x08:x03,x18:x03,x28:x13"),
    # exit 2: a repeated term; two pairs of one class, so the same 24 terms; malformed
    "repeated_term": "x01:x01,x11:x11",
    "one_class_twice": "x01:x14,x15:x06",
    "malformed": "x01:x14,,x01:x07",
}
SPEC_NAMES = {spec: name for name, spec in SPECS.items()}
FORMATS = ([], ["--json"], ["--csv"])
CASES, HISTOGRAM_SPECS = ("I", "II", "III"), ("I", "II", "III", "one_pair", "alice_x01")

COMMANDS = [["scan", "--orbits", n, "--top", "2600", "--phi", phi] for n in "123" for phi in LABELS]
COMMANDS += [["scan", "--orbits", n, "--top", "50", "--phi", phi]
             for n, phi in (("1", "x01"), ("2", "x01"), ("3", "x01"), ("3", "x12"))]
COMMANDS += [["scan", "--orbits", "3", "--top", "10", "--phi", phi]
             for phi in ("x01", "x12", "x27", "x18")]
# at x01, --top 4 cuts a tie class (gaps within 1e-9) at both sizes, --top 1 and 8 at size 3
COMMANDS += [["scan", "--orbits", n, "--top", top] for n in "23" for top in "148"]
COMMANDS += [["scan", "--orbits", "3", "--top", "0"], ["scan", "--orbits", "1"]]
COMMANDS += [["analyze", "--pairs", SPECS[case], *fmt] for case in CASES for fmt in FORMATS]
COMMANDS += [["analyze", "--pairs", SPECS[name], "--histogram", *fmt]
             for name in HISTOGRAM_SPECS for fmt in FORMATS]
COMMANDS += [["analyze", "--pairs", SPECS["scan_rank1"], "--histogram", *f] for f in FORMATS[1:]]
COMMANDS += [["game", "--pairs", SPECS[case]] for case in CASES]
COMMANDS += [["analyze", "--pairs", SPECS["mixed_alice"], *fmt] for fmt in FORMATS]
COMMANDS += [["analyze", "--pairs", SPECS["mixed_alice"], "--histogram", *f] for f in FORMATS[1:]]
COMMANDS += [["game", "--pairs", SPECS["mixed_alice"]]]
COMMANDS += [["analyze", *fmt, "--pairs", SPECS["distinct_alice"]] for fmt in FORMATS[1:]]
COMMANDS += [["orbits"], ["orbits", "--json"], ["verify"]]
COMMANDS += [["analyze", "--pairs", SPECS[name]]
             for name in ("repeated_term", "one_class_twice", "malformed")]


def stem(argv):
    """File stem of a command's expectation: its words, each spec by its name in `SPECS`,
    `--orbits N` and `--top N` as `orbitsN` and `topN`, `--pairs` and `--phi` dropped."""
    words = re.sub(r"--(orbits|top) ", r"\1", " ".join(SPEC_NAMES.get(w, w) for w in argv))
    return re.sub(r"--(pairs |phi )?", "", words).replace(" ", "_")


def digested(argv):
    """Whether a command's stdout is kept as a sha256: full scans, 4.6 MB at size 3 alone."""
    return "2600" in argv


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


MARGIN = re.compile(r"(?<=deviation )[-+.\de]+")  # verify's "... deviation X" margins


def agrees(expected, actual):
    """Whether output text `actual` meets `expected`: byte for byte, but for the digits of
    `verify`'s three "... deviation X" margins, which measure LAPACK's rounding.  The ok or
    FAIL beside each states its bound; a margin's format (`.1e`) must still match."""
    def masked(text):
        return MARGIN.sub(lambda margin: re.sub(r"\d", "0", margin[0]), text)

    return masked(expected) == masked(actual)


def check(argv, result):
    """Assert that `result`, the (exit code, stdout, stderr) of `argv`, meets the contract."""
    name = stem(argv)
    code, out, err = result
    expected = json.loads(CONTRACT.read_text())[name]
    assert code == expected["exit"], name
    assert agrees(expected["stderr"], err), name
    if digested(argv):
        assert sha256(out) == expected["stdout_sha256"], name
    else:
        assert agrees((GOLDEN / f"{name}.txt").read_text(), out), name


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    from s4bell import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(result):
    """sha256 of one run's exit code, stdout and stderr."""
    return sha256(json.dumps(result))


def _child(src):
    """Print one digest per command read as a JSON list from stdin, importing
    s4bell from `src` only."""
    import s4bell

    origin = Path(s4bell.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        sys.exit(f"s4bell imported from {origin}, not from {src}")
    for argv in json.load(sys.stdin):
        print(digest(run(argv)), flush=True)


def _digests(src, commands):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    result = subprocess.run(
        [sys.executable, __file__, "--child", src], input=json.dumps(commands),
        env=env, capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:
        sys.exit(f"{src}: {result.stderr.strip()}")
    return result.stdout.split()


def main(trees):
    if not 1 <= len(trees) <= 2:
        sys.exit(__doc__)
    columns = [_digests(src, COMMANDS) for src in trees]
    reversed_run = _digests(trees[-1], COMMANDS[::-1])[::-1]
    differ = reordered = 0
    for argv, hashes, backward in zip(COMMANDS, zip(*columns), reversed_run):
        verdict = ""
        if len(hashes) == 2:
            verdict = "same" if hashes[0] == hashes[1] else "DIFFERS"
            differ += verdict == "DIFFERS"
        if backward != hashes[-1]:
            verdict = f"{verdict} ORDER".strip()
            reordered += 1
        print(*hashes, verdict, " ".join(argv))
    if len(trees) == 2:
        print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    print(f"{len(COMMANDS) - reordered} of {len(COMMANDS)} commands identical "
          f"in reverse order in {trees[-1]}")
    return 1 if differ or reordered else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
