"""Command-line front end.

Commands:

    verify              recompute everything and compare with the bundled
                        reference tables; exit 0 only if every check passes
    analyze --pairs S   bounds, winning table and game values for an
                        arbitrary comma-separated pair spec like
                        "x01:x14,x01:x07,x01:x15"
    scan --orbits N     rank all Bob label choices (N orbits, Alice fixed)
                        by their quantum-classical gap
    orbits              print the labeled reference orbit
    game --pairs S      winning table and game values only

Pair labels are written "x<outcome><basis>", so "x01" is outcome 0 of basis 1.
Human-readable output rounds eigenvalues to two decimals.  JSON output keeps full
precision and sorted keys, so re-serializing a parsed report is byte-identical:
`_json_text` writes `json.dumps(sort_keys=True, indent=2)` byte for byte, in less time
than json, which Python 3.11 indents only in pure Python.  `analyze`, `game` and `verify`
each compute one unformatted record (`_analysis`, `_game`, `_checks`) that pure renderers
turn into text, JSON or CSV.

`scan` ranks multisets of Bob labels, so a spec it prints may repeat a
label, as in "x01:x14,x01:x14,x01:x18"; a repeated orbit's terms count
once per copy.  `analyze` and `game` reject such a spec (duplicate term).

The parser is built once per process; `main` parses a named command with its
own subparser, and with the full parser only when argv names none or leaves
some over, so every message stays the same.  The S4 tables every command but
`orbits` reads are built once per context, on first use, never at import;
tests/test_cli.py::test_what_a_fresh_process_builds_after_each_command lists
what a process builds after each.  A later `main` prints what a first would.

Exit codes: 0 success, 1 verification failure, 2 usage error (a malformed
or term-repeating spec), 3 internal error (building the S4 context or
another library check failed), 141 stdout closed early by its reader (as
in `s4bell scan --orbits 3 --top 2600 | head -1`; the shell's status for a
SIGPIPE death), with no traceback.
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import tables
from .classical import (
    GAP_TOL,
    bell_terms,
    classical_histogram,
    classical_max,
    histogram_csv,
)
from .context import standard_context
from .game import game_values, winning_table
from .orbit import N_OUTCOMES, N_SETTINGS, OrbitPair, all_labels, orbit_to_json
from .permgroup import cycle_string
from .quantum import EIG_TOL, _SPREAD, eigenvalues_direct, max_eigenvalue_sum
from .representation import validate_block_basis
from .tables import TableMismatchError

__all__ = ["main", "parse_pair_spec", "PairSpecError", "run_verification"]


class PairSpecError(ValueError):
    """A pair spec failed to parse; carries the reason and the offending position."""

    def __init__(self, reason, position):
        super().__init__(f"position {position}: {reason}")
        self.reason = reason
        self.position = position


class _UsageError(Exception):
    """The user's input was rejected: exit 2."""


_LABEL_RE = re.compile(r"x([0-9])([0-9])")
_LABEL_TEXTS = [f"x{outcome}{basis}" for basis, outcome in all_labels()]  # `format_label`s


def _parse_label(token, position):
    stripped = token.strip()
    offset = position + token.index(stripped) if stripped else position
    match = _LABEL_RE.fullmatch(stripped)
    if not match:
        raise PairSpecError(f"expected a label like x01, got {token!r}", offset)
    alpha, basis = int(match.group(1)), int(match.group(2))
    if alpha >= N_OUTCOMES:
        raise PairSpecError(f"outcome {alpha} out of range 0..{N_OUTCOMES - 1}", offset)
    if not 1 <= basis <= N_SETTINGS:
        raise PairSpecError(f"basis {basis} out of range 1..{N_SETTINGS}", offset)
    return (basis, alpha)


def parse_pair_spec(text):
    """Parse "x01:x14,x01:x07,..." into OrbitPair labels."""
    pairs = []
    position = 0
    for chunk in text.split(","):
        if chunk.count(":") != 1:
            raise PairSpecError(
                f"expected 'label:label', got {chunk!r}", position
            )
        left, right = chunk.split(":")
        alice = _parse_label(left, position)
        bob = _parse_label(right, position + len(left) + 1)
        pairs.append(OrbitPair(alice, bob))
        position += len(chunk) + 1
    return tuple(pairs)


def _expression(text):
    """Parse a pair spec and expand its terms; either failure is bad input,
    as `bell_terms` rejects parsed (valid) labels only for a repeated term."""
    orbit = standard_context().orbit
    try:
        return bell_terms(parse_pair_spec(text), orbit)
    except ValueError as exc:
        raise _UsageError(exc) from exc


def format_label(label):
    basis, outcome = label
    return f"x{outcome}{basis}"


def format_pair(pair):
    return f"{format_label(pair.alice)}:{format_label(pair.bob)}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _checks():
    """`verify`'s record: one (name, passed, detail) per check, yielded as it finishes."""
    ctx = standard_context()

    # Orbit reproduction against the labeled table, in label order; np.max
    # keeps a NaN, which then fails the check.
    dev = float(np.max(np.abs(ctx.orbit.points - tables.ORBIT_POINTS)))
    yield ("orbit reproduces the reference table, labels bijective", dev < 1e-9,
           f"max coordinate deviation {dev:.1e}")

    # Change-of-basis validation, under one name whether it passes or fails.
    name = "block basis is orthogonal and block-diagonalizes the projectors"
    try:
        report = validate_block_basis(ctx.projectors)
    except TableMismatchError as exc:
        yield name, False, str(exc)
    else:
        yield name, True, f"worst deviation {max(report.values()):.1e}"

    case_exprs = {}
    for name in tables.CASE_NAMES:
        pairs = tuple(OrbitPair(*p) for p in tables.CASE_PAIRS[name])
        spectrum = max_eigenvalue_sum(pairs, ctx)

        scalars = spectrum.per_pair[:, tables.COMPONENT_ORDER.index("D0")].tolist()
        refs = tables.REF_SCALAR_EIGENVALUES[name]
        yield (
            f"case {name}: scalar eigenvalue per orbit",
            all(abs(s - r) <= 0.01 for s, r in zip(scalars, refs)),
            "computed " + ", ".join(f"{s:.4f}" for s in scalars)
            + " vs reference " + ", ".join(f"{r:.2f}" for r in refs),
        )

        ref_sum = tables.REF_SUM_EIGENVALUE[name]
        yield (
            f"case {name}: maximal eigenvalue of the summed operator",
            abs(spectrum.lambda_max - ref_sum) <= 0.01,
            f"computed {spectrum.lambda_max:.4f} vs reference {ref_sum:.2f}, tolerance 0.01",
        )

        # One LAPACK solve per pair; row k of `expected` is pair k's eigenvalues, each repeated
        # by its component's dimension, descending.
        direct = [eigenvalues_direct(ctx.pair_model.operator(p.alice, p.bob))[0] for p in pairs]
        expected = np.sort(spectrum.per_pair[:, _SPREAD])[:, ::-1]
        worst = float(np.max(np.abs(np.array(direct) - expected)))
        yield (f"case {name}: componentwise and direct eigenvalues agree", worst < EIG_TOL,
               f"max deviation {worst:.1e}")

        expr = case_exprs[name] = bell_terms(pairs, ctx.orbit)
        cmax, ref_cmax = classical_max(expr), tables.REF_CLASSICAL_BOUND[name]
        yield (f"case {name}: classical bound", cmax == ref_cmax,
               f"computed {cmax} vs reference {ref_cmax}")

    for name in tables.CASE_NAMES:
        expr = case_exprs[name]
        hist = classical_histogram(expr)
        ref = tables.REF_COEFFICIENT_COUNTS[name]
        rows_ok = all(hist.counts.get(c, 0) == ref[c - 1] for c in range(1, 21))
        mass_ok = hist.total() == 3 ** 16 and hist.weighted_total() == len(expr.index) * 3 ** 14
        yield (
            f"case {name}: coefficient histogram",
            rows_ok and mass_ok,
            f"rows 1..20 {'match' if rows_ok else 'DIFFER'}, "
            f"mass checks {'pass' if mass_ok else 'FAIL'}",
        )

    table, value = _game(case_exprs["I"], ctx)
    yield (
        "case I: winning table",
        table.entries == tables.REF_WINNING_TABLE_I,
        f"{len(table.entries)} settings pairs, "
        f"uniform triple structure: {table.has_uniform_triple_structure()}",
    )
    bound = Fraction(tables.REF_CLASSICAL_BOUND["I"], N_SETTINGS ** 2)
    yield (
        "case I: game values",
        value.classical == bound and abs(value.quantum - tables.REF_QUANTUM_WIN_I) <= 1e-4,
        f"classical {value.classical} = {float(value.classical):.4f}, "
        f"quantum {value.quantum:.5f} vs reference {tables.REF_QUANTUM_WIN_I:.4f} (tol 1e-4)",
    )


def run_verification(echo=print):
    """Recompute every bundled reference quantity; echo one line per check as it finishes.

    Returns True when every check passed.
    """
    record = []
    for name, passed, detail in _checks():
        record.append((name, passed, detail))
        echo(f"{'ok  ' if passed else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    passed = sum(ok for _, ok, _ in record)
    echo(f"{passed}/{len(record)} checks passed")
    return passed == len(record)


def _cmd_verify(args):
    return 0 if run_verification() else 1


# ---------------------------------------------------------------------------
# analyze / game
# ---------------------------------------------------------------------------

_Game = namedtuple("_Game", "table value")  # the game part of a record
_Analysis = namedtuple("_Analysis", "pairs spectrum game cmax histogram")  # analyze's record


def _game(expr, ctx):
    return _Game(winning_table(expr), game_values(expr, ctx))


def _analysis(expr, with_histogram):
    ctx = standard_context()
    spectrum = max_eigenvalue_sum(expr.pairs, ctx)
    game = _game(expr, ctx)
    hist = classical_histogram(expr) if with_histogram else None
    return _Analysis(expr.pairs, spectrum, game, int(game.value.classical * N_SETTINGS ** 2), hist)


def _zero_snap(x):
    return 0.0 if abs(x) < GAP_TOL else x


_ESCAPE = json.encoder.encode_basestring_ascii
_SPELLED = {True: "true", False: "false", None: "null", float("inf"): "Infinity",
            float("-inf"): "-Infinity"}  # and NaN, which equals no key, as "NaN"


def _json_text(value, indent="\n"):
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte, for str-keyed dicts, lists,
    tuples, str, int, float, bool and None; TypeError for any other type.  Python 3.11's json
    indents only in pure Python (its C encoder runs only when `indent` is None)."""
    kind = type(value)
    if kind is str:
        return _ESCAPE(value)
    if kind is float:  # finite when value - value is 0
        return float.__repr__(value) if value - value == 0.0 else _SPELLED.get(value, "NaN")
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _SPELLED[value]
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [_ESCAPE(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + indent + "]"


def _render_json(record):
    (table, value), cmax, denom = record.game, record.cmax, N_SETTINGS ** 2
    report = {
        "pairs": [format_pair(p) for p in record.pairs],
        "quantum": record.spectrum.as_dict(),
        "classical": {"max_coefficient": cmax},
        "game": {"classical": f"{cmax}/{denom}", "classical_value": cmax / denom,
                 "quantum_value": value.quantum},
        "winning_table": table.as_dict(),
        "violation": {"violated": value.violation, "gap": value.gap},
    }
    if record.histogram is not None:
        report["classical"]["histogram"] = record.histogram.as_dict()
    return _json_text(report) + "\n"


def _render_text(record):
    spectrum, (table, value), cmax = record.spectrum, record.game, record.cmax
    denom, rows = N_SETTINGS ** 2, spectrum.per_pair.tolist()

    def cells(row):
        return "  ".join([f"{_zero_snap(val):5.2f}" for val in row])

    lines = [
        "pairs: " + ", ".join([format_pair(p) for p in record.pairs]),
        "",
        "per-orbit eigenvalues (" + ", ".join(tables.COMPONENT_ORDER) + "):",
        *[f"  {format_pair(p)}   {cells(row)}" for p, row in zip(record.pairs, rows)],
        f"  component sums    {cells(spectrum.component_sums.tolist())}",
        f"quantum bound: lambda_max = {spectrum.lambda_max:.2f}",
        f"classical bound: max coefficient = {cmax}",
        "",
        f"game value, classical: {cmax}/{denom} = {cmax / denom:.4f}",
        f"game value, quantum:   lambda_max/{denom} = {value.quantum:.4f}",
        f"violation: yes (gap {value.gap:.2f})" if value.violation else "violation: no",
        "",
        table.render_text(),
    ]
    if record.histogram is not None:
        counts = record.histogram.counts
        lines.append("coefficient histogram (c: configurations):")
        lines += [f"  {c:3d}  {counts.get(c, 0):>10d}"
                  for c in range(max(20, record.histogram.c_max) + 1)]
    return "\n".join(lines) + "\n"


def _render_csv(record):
    if record.histogram is not None:
        return histogram_csv(record.histogram)
    lines, dims = ["pair,component,dim,eigenvalue"], tables.COMPONENT_DIMS
    # tolist(): Python floats, as numpy 2 writes the repr of its scalars as np.float64(...)
    for pair, row in zip(record.pairs, record.spectrum.per_pair.tolist()):
        name = format_pair(pair)
        lines += [f"{name},{label},{dims[label]},{value!r}"
                  for label, value in zip(tables.COMPONENT_ORDER, row)]
    return "\n".join(lines) + "\n"


def _render_game(game):
    table, value = game
    return (f"{table.render_text()}"
            f"classical value: {value.classical} = {float(value.classical):.4f}\n"
            f"quantum value:   {value.quantum:.4f}\n"
            f"violation: {'yes' if value.violation else 'no'}\n")


def _cmd_analyze(args):
    render = _render_json if args.json else _render_csv if args.csv else _render_text
    sys.stdout.write(render(_analysis(_expression(args.pairs), args.histogram)))
    return 0


def _cmd_game(args):
    sys.stdout.write(_render_game(_game(_expression(args.pairs), standard_context())))
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cmd_scan(args):
    # lambda_max, the classical maximum and the gap's tie class are S4-invariant: read per
    # class multiset.  class_of[alice] is a permutation, so Alice's label only relabels Bob's
    # side and an op reads just the whole tie classes that cover --top.  Specs rank by tie
    # class, each class in combination order (label order, as all_labels() is sorted).
    ctx = standard_context()
    multisets, cmaxes, lams, ties, violations = ctx.class_tables.multisets(args.orbits)
    head = np.searchsorted(ties, ties[min(args.top, len(ties)) - 1], "right") if args.top else 0
    bob_of = np.argsort(ctx.orbit.class_of[all_labels().index(args.phi)])
    bob = np.sort(bob_of[multisets[:head]], axis=1)
    order = np.lexsort((*bob.T[::-1], ties[:head]))[:args.top]

    alice, width = format_label(args.phi), 13 * args.orbits + 1
    first, sep = f"{alice}:", f",{alice}:"
    row = f"%4d  %-{width}s  %7.2f  %9d  %+.2f"  # one %-format per row: half the f-string time
    lines = [
        f"scan over {len(multisets)} unordered Bob-label multisets "
        f"(orbits per spec: {args.orbits}, Alice fixed at {alice})",
        f"specs with quantum > classical: {violations}",
        "rank  spec" + " " * (width - 4) + "quantum  classical  gap",
    ]
    rows = zip(bob[order].tolist(), lams[order].tolist(), cmaxes[order].tolist())
    for rank, (spec, lam, cmax) in enumerate(rows, start=1):
        spec = first + sep.join([_LABEL_TEXTS[k] for k in spec])
        lines.append(row % (rank, spec, lam, cmax, _zero_snap(lam - cmax)))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _cmd_orbits(args):
    ctx = standard_context()
    if args.json:
        print(orbit_to_json(ctx.orbit))
        return 0
    print("label   coordinates" + " " * 27 + "element")
    for label, point, element in zip(all_labels(), ctx.orbit.points, ctx.orbit.elements):
        coords = ", ".join(f"{x: .6f}" for x in point)
        print(f"{format_label(label)}     ({coords})   {cycle_string(ctx.group[element])}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _label_argument(text):
    try:
        return _parse_label(text, 0)
    except PairSpecError as exc:
        raise argparse.ArgumentTypeError(exc.reason) from exc


def _non_negative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="s4bell",
        description="Bell bounds and nonlocal games from the standard representation of S4",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check everything against the bundled tables")
    p_verify.set_defaults(func=_cmd_verify)

    p_analyze = sub.add_parser("analyze", help="bounds and game values for a pair spec")
    p_analyze.add_argument("--pairs", required=True, help='e.g. "x01:x14,x01:x07,x01:x15"')
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--csv", action="store_true", help="eigenvalue table (or histogram) as CSV")
    p_analyze.add_argument(
        "--histogram", action="store_true",
        help="run the full 3**16 configuration scan",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_scan = sub.add_parser("scan", help="rank Bob label choices by violation gap")
    p_scan.add_argument("--orbits", type=int, required=True, choices=(1, 2, 3))
    p_scan.add_argument("--top", type=_non_negative_int, default=10)
    p_scan.add_argument(
        "--phi", type=_label_argument, default="x01", help="Alice label, default x01"
    )
    p_scan.set_defaults(func=_cmd_scan)

    p_orbits = sub.add_parser("orbits", help="print the labeled reference orbit")
    p_orbits.add_argument("--json", action="store_true")
    p_orbits.set_defaults(func=_cmd_orbits)

    p_game = sub.add_parser("game", help="winning table and game values for a pair spec")
    p_game.add_argument("--pairs", required=True)
    p_game.set_defaults(func=_cmd_game)

    parser.commands = sub.choices  # each command's own parser, for `_parse`
    return parser


def _parse(argv):
    """`build_parser().parse_args(argv)` (argv defaults to sys.argv[1:]) from the named command's
    parser; from the full parser, for its messages, if argv names none or leaves arguments over."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = build_parser().commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the final flush of stdout goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
