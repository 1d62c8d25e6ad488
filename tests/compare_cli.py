"""Compare the CLI output of two source trees, command by command.

    python tests/compare_cli.py OLD_SRC NEW_SRC
    python tests/compare_cli.py src              # hashes of one tree only

Each SRC is a directory that holds the `s4bell` package, such as the
`src/` of a second checkout made with `git archive`.  Every command in
`COMMANDS` runs through `s4bell.cli.main` in one child process per tree,
with PYTHONPATH set to that tree.  For each command the script prints one
sha256 of stdout, stderr and the exit code per tree, then "same" or
"DIFFERS".  The last tree named (the new one) also runs `COMMANDS` in
reverse order in a further child, so that a result which depends on what
an earlier command left in the process (the parser, or the standard
context and its tables) shows up: a command whose hash then differs is
marked "ORDER".  It exits 1 when any command differs or is marked, else
0.

The 130 commands cover all five subcommands and the usage-error path:
`scan --orbits 1|2|3 --top 2600` for every `--phi` label, the `scan`
commands pinned in tests/golden/, the benchmark's `scan --orbits 3 --top
10` at `--phi` x01, x12, x27 and x18, `scan --orbits 2|3 --top 1|4|8` (at
x01, `--top 4` cuts a tie class, gaps within 1e-9, at both sizes, `--top
1` and `--top 8` at size 3), `scan --orbits 3 --top 0` (the header and no
row), `analyze` as text, `--json` and `--csv` on the built-in cases
I-III, the same three forms of `analyze --histogram` on cases I-III, the
one-pair spec `x01:x14` and the 24-pair spec
`x01:x01,x01:x11,...,x01:x28`, `analyze --histogram` as `--json` and
`--csv` on `x01:x12,x01:x23,x01:x14` (rank 1 of `scan --orbits 3`, whose
histogram no golden file pins), `game` on cases I-III, `analyze` as text,
`--json` and `--csv`, `analyze --histogram` as `--json` and `--csv` (a
histogram summed from classes with Alice off x01) and `game` on
`x12:x01,x23:x14,x27:x05`, `analyze --json` and `--csv` on the 24-pair
spec `x01:x01,x11:x16,...,x28:x13` (24 distinct Alice labels and 24
distinct pair classes, so every class row; every other spec has Alice at
x01), `orbits` and `orbits
--json`, `verify`, and `analyze` on the specs `x01:x01,x11:x11` (a
repeated term), `x01:x14,x15:x06` (two different pairs of one class, so
the same 24 terms) and `x01:x14,,x01:x07` (malformed), which exit 2.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

CASES = {
    "I": "x01:x14,x01:x07,x01:x15",
    "II": "x01:x23,x01:x16,x01:x01",
    "III": "x01:x25,x01:x14,x01:x18",
}
LABELS = [f"x{a}{s}" for s in range(1, 9) for a in range(3)]

COMMANDS = [
    ["scan", "--orbits", orbits, "--top", "2600", "--phi", phi]
    for orbits in ("1", "2", "3")
    for phi in LABELS
]
COMMANDS += [
    ["scan", "--orbits", orbits, "--top", "50", "--phi", phi]
    for orbits, phi in (("1", "x01"), ("2", "x01"), ("3", "x01"), ("3", "x12"))
]
COMMANDS += [
    ["scan", "--orbits", "3", "--top", "10", "--phi", phi]
    for phi in ("x01", "x12", "x27", "x18")
]
COMMANDS += [
    ["scan", "--orbits", orbits, "--top", top]
    for orbits in ("2", "3")
    for top in ("1", "4", "8")
]
COMMANDS += [["scan", "--orbits", "3", "--top", "0"]]
COMMANDS += [
    ["analyze", "--pairs", spec, *fmt]
    for spec in CASES.values()
    for fmt in ([], ["--json"], ["--csv"])
]
HISTOGRAM_SPECS = [*CASES.values(), "x01:x14", ",".join(f"x01:{lab}" for lab in LABELS)]
COMMANDS += [
    ["analyze", "--pairs", spec, "--histogram", *fmt]
    for spec in HISTOGRAM_SPECS
    for fmt in ([], ["--json"], ["--csv"])
]
COMMANDS += [
    ["analyze", "--pairs", "x01:x12,x01:x23,x01:x14", "--histogram", fmt]
    for fmt in ("--json", "--csv")
]
COMMANDS += [["game", "--pairs", spec] for spec in CASES.values()]
MIXED_ALICE = "x12:x01,x23:x14,x27:x05"
COMMANDS += [["analyze", "--pairs", MIXED_ALICE, *fmt] for fmt in ([], ["--json"], ["--csv"])]
COMMANDS += [["analyze", "--pairs", MIXED_ALICE, "--histogram", f] for f in ("--json", "--csv")]
COMMANDS += [["game", "--pairs", MIXED_ALICE]]
DISTINCT_ALICE = (
    "x01:x01,x11:x16,x21:x17,x02:x26,x12:x04,x22:x02,x03:x02,x13:x18,x23:x02,x04:x16,x14:x24,"
    "x24:x28,x05:x22,x15:x04,x25:x13,x06:x22,x16:x13,x26:x17,x07:x01,x17:x12,x27:x24,x08:x03,"
    "x18:x03,x28:x13")
COMMANDS += [["analyze", fmt, "--pairs", DISTINCT_ALICE] for fmt in ("--json", "--csv")]
COMMANDS += [["orbits"], ["orbits", "--json"], ["verify"]]
COMMANDS += [
    ["analyze", "--pairs", spec]
    for spec in ("x01:x01,x11:x11", "x01:x14,x15:x06", "x01:x14,,x01:x07")
]


def _digest(argv):
    """sha256 of stdout, stderr and exit code of one in-process CLI run."""
    from s4bell import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(record.encode()).hexdigest()


def _child(src):
    """Print one digest per command read as a JSON list from stdin, importing
    s4bell from `src` only."""
    import s4bell

    origin = Path(s4bell.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        sys.exit(f"s4bell imported from {origin}, not from {src}")
    for argv in json.load(sys.stdin):
        print(_digest(argv), flush=True)


def _digests(src, commands):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    run = subprocess.run(
        [sys.executable, __file__, "--child", src], input=json.dumps(commands),
        env=env, capture_output=True, text=True, check=False,
    )
    if run.returncode != 0:
        sys.exit(f"{src}: {run.stderr.strip()}")
    return run.stdout.split()


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
