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

Pair labels are written "x<outcome><basis>", so "x01" is outcome 0 of
basis 1.  Human-readable output rounds eigenvalues to two decimals; JSON
output keeps full precision and sorted keys so that re-serializing a
parsed report is byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an internal cross-check failed).
"""

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import tables
from .classical import (
    bell_terms,
    classical_histogram,
    classical_max,
    histogram_csv,
    multiset_maxima,
)
from .context import standard_context
from .game import game_values, winning_table
from .orbit import OrbitPair, all_labels, orbit_to_json
from .quantum import (
    build_x_operator,
    eigenvalues_direct,
    eigenvalues_isotypic,
    max_eigenvalue_sum,
)
from .representation import validate_block_basis
from .tables import TableMismatchError

__all__ = ["main", "parse_pair_spec", "PairSpecError", "run_verification"]


class PairSpecError(ValueError):
    """A pair spec failed to parse; carries the reason and the offending position."""

    def __init__(self, reason, position):
        super().__init__(f"position {position}: {reason}")
        self.reason = reason
        self.position = position


_LABEL_RE = re.compile(r"x([0-9])([0-9])")


def _parse_label(token, position):
    stripped = token.strip()
    offset = position + token.index(stripped) if stripped else position
    match = _LABEL_RE.fullmatch(stripped)
    if not match:
        raise PairSpecError(f"expected a label like x01, got {token!r}", offset)
    alpha, basis = int(match.group(1)), int(match.group(2))
    if alpha > 2:
        raise PairSpecError(f"outcome {alpha} out of range 0..2", offset)
    if not 1 <= basis <= 8:
        raise PairSpecError(f"basis {basis} out of range 1..8", offset)
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


def format_label(label):
    basis, outcome = label
    return f"x{outcome}{basis}"


def format_pair(pair):
    return f"{format_label(pair.alice)}:{format_label(pair.bob)}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verification(echo=print):
    """Recompute every bundled reference quantity; report one line per check.

    Returns True when every check passed.
    """
    ctx = standard_context()
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        mark = "ok  " if ok else "FAIL"
        echo(f"{mark} {name}" + (f" ({detail})" if detail else ""))

    # Orbit reproduction against the labeled table.
    dev = max(
        float(np.abs(ctx.orbit.coords(*lab) - tables.ORBIT_TABLE[lab]).max())
        for lab in tables.ORBIT_LABELS
    )
    check(
        "orbit reproduces the reference table, labels bijective",
        dev < 1e-9,
        f"max coordinate deviation {dev:.1e}",
    )

    # Change-of-basis validation.
    try:
        report = validate_block_basis(ctx.decomposition)
        check(
            "block basis is orthogonal and block-diagonalizes the projectors",
            True,
            f"worst deviation {max(report.values()):.1e}",
        )
    except TableMismatchError as exc:
        check("block basis validation", False, str(exc))

    case_exprs = {}
    for name in tables.CASE_NAMES:
        pairs = tuple(OrbitPair(*p) for p in tables.CASE_PAIRS[name])
        spectrum = max_eigenvalue_sum(pairs, ctx)

        scalars = [dict((lab, val) for lab, _, val in t)["D0"] for t in spectrum.per_pair]
        refs = tables.REF_SCALAR_EIGENVALUES[name]
        ok = all(abs(s - r) <= 0.01 for s, r in zip(scalars, refs))
        check(
            f"case {name}: scalar eigenvalue per orbit",
            ok,
            "computed " + ", ".join(f"{s:.4f}" for s in scalars)
            + " vs reference " + ", ".join(f"{r:.2f}" for r in refs),
        )

        ref_sum = tables.REF_SUM_EIGENVALUE[name]
        check(
            f"case {name}: maximal eigenvalue of the summed operator",
            abs(spectrum.lambda_max - ref_sum) <= 0.01,
            f"computed {spectrum.lambda_max:.4f} vs reference {ref_sum:.2f}, tolerance 0.01",
        )

        worst = 0.0
        for pair, table in zip(pairs, spectrum.per_pair):
            phi = ctx.orbit.coords(*pair.alice)
            psi = ctx.orbit.coords(*pair.bob)
            direct, _ = eigenvalues_direct(build_x_operator(phi, psi, ctx.product))
            expected = sorted(
                (value for _, dim, value in table for _ in range(dim)), reverse=True
            )
            worst = max(worst, float(np.abs(direct - np.array(expected)).max()))
        check(
            f"case {name}: componentwise and direct eigenvalues agree",
            worst < 1e-6,
            f"max deviation {worst:.1e}",
        )

        expr = bell_terms(pairs, ctx.orbit)
        case_exprs[name] = expr
        cmax = classical_max(expr)
        check(
            f"case {name}: classical bound",
            cmax == tables.REF_CLASSICAL_BOUND[name],
            f"computed {cmax} vs reference {tables.REF_CLASSICAL_BOUND[name]}",
        )

    for name in tables.CASE_NAMES:
        expr = case_exprs[name]
        hist = classical_histogram(expr)
        ref = tables.REF_COEFFICIENT_COUNTS[name]
        rows_ok = all(hist.counts.get(c, 0) == ref[c - 1] for c in range(1, 21))
        mass_ok = (
            hist.total() == 3 ** 16
            and hist.weighted_total() == len(expr.terms) * 3 ** 14
        )
        check(
            f"case {name}: coefficient histogram",
            rows_ok and mass_ok,
            f"rows 1..20 {'match' if rows_ok else 'DIFFER'}, "
            f"mass checks {'pass' if mass_ok else 'FAIL'}",
        )

    expr_i = case_exprs["I"]
    table = winning_table(expr_i)
    check(
        "case I: winning table",
        table.entries == tables.REF_WINNING_TABLE_I,
        f"{len(table.entries)} settings pairs, "
        f"uniform triple structure: {table.has_uniform_triple_structure()}",
    )
    value = game_values(expr_i, ctx)
    ok = value.classical == Fraction(16, 64) and abs(
        value.quantum - tables.REF_QUANTUM_WIN_I
    ) <= 1e-4
    check(
        "case I: game values",
        ok,
        f"classical {value.classical} = {float(value.classical):.4f}, "
        f"quantum {value.quantum:.5f} vs reference {tables.REF_QUANTUM_WIN_I:.4f} (tol 1e-4)",
    )

    passed = sum(results)
    echo(f"{passed}/{len(results)} checks passed")
    return passed == len(results)


def _cmd_verify(args):
    ok = run_verification()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# analyze / game
# ---------------------------------------------------------------------------

def _analysis(pairs, with_histogram):
    ctx = standard_context()
    spectrum = max_eigenvalue_sum(pairs, ctx)
    expr = bell_terms(pairs, ctx.orbit)
    cmax = classical_max(expr)
    table = winning_table(expr)
    value = game_values(expr, ctx)
    hist = classical_histogram(expr) if with_histogram else None
    return spectrum, expr, cmax, table, value, hist


def _analysis_report(pairs, spectrum, cmax, table, value, hist):
    denom = 64
    report = {
        "pairs": [format_pair(p) for p in pairs],
        "quantum": spectrum.as_dict(),
        "classical": {"max_coefficient": cmax},
        "game": {
            "classical": f"{cmax}/{denom}",
            "classical_value": cmax / denom,
            "quantum_value": value.quantum,
        },
        "winning_table": table.as_dict(),
        "violation": {
            "violated": bool(spectrum.lambda_max > cmax + 1e-9),
            "gap": spectrum.lambda_max - cmax,
        },
    }
    if hist is not None:
        report["classical"]["histogram"] = hist.as_dict()
    return report


def _zero_snap(x, tol=1e-9):
    return 0.0 if abs(x) < tol else x


def _render_analysis_text(pairs, spectrum, cmax, table, value, hist, echo=print):
    echo("pairs: " + ", ".join(format_pair(p) for p in pairs))
    echo("")
    labels = [lab for lab, _, _ in spectrum.per_pair[0]]
    echo("per-orbit eigenvalues (" + ", ".join(labels) + "):")
    for pair, tab in zip(pairs, spectrum.per_pair):
        row = "  ".join(f"{_zero_snap(val):5.2f}" for _, _, val in tab)
        echo(f"  {format_pair(pair)}   {row}")
    sums = "  ".join(f"{_zero_snap(spectrum.component_sums[lab]):5.2f}" for lab in labels)
    echo(f"  component sums    {sums}")
    echo(f"quantum bound: lambda_max = {spectrum.lambda_max:.2f}")
    echo(f"classical bound: max coefficient = {cmax}")
    echo("")
    echo(f"game value, classical: {cmax}/64 = {cmax / 64:.4f}")
    echo(f"game value, quantum:   lambda_max/64 = {value.quantum:.4f}")
    if spectrum.lambda_max > cmax + 1e-9:
        echo(f"violation: yes (gap {spectrum.lambda_max - cmax:.2f})")
    else:
        echo("violation: no")
    echo("")
    echo(table.render_text())
    if hist is not None:
        echo("coefficient histogram (c: configurations):")
        top = max(20, hist.c_max)
        for c in range(0, top + 1):
            echo(f"  {c:3d}  {hist.counts.get(c, 0):>10d}")


def _spectrum_csv(pairs, spectrum):
    lines = ["pair,component,dim,eigenvalue"]
    for pair, tab in zip(pairs, spectrum.per_pair):
        for label, dim, value in tab:
            lines.append(f"{format_pair(pair)},{label},{dim},{value!r}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args):
    pairs = parse_pair_spec(args.pairs)
    spectrum, _, cmax, table, value, hist = _analysis(pairs, args.histogram)
    if args.json:
        report = _analysis_report(pairs, spectrum, cmax, table, value, hist)
        print(json.dumps(report, sort_keys=True, indent=2))
    elif args.csv:
        if hist is not None:
            sys.stdout.write(histogram_csv(hist))
        else:
            sys.stdout.write(_spectrum_csv(pairs, spectrum))
    else:
        _render_analysis_text(pairs, spectrum, cmax, table, value, hist)
    return 0


def _cmd_game(args):
    pairs = parse_pair_spec(args.pairs)
    ctx = standard_context()
    expr = bell_terms(pairs, ctx.orbit)
    table = winning_table(expr)
    value = game_values(expr, ctx)
    print(table.render_text(), end="")
    print(f"classical value: {value.classical} = {float(value.classical):.4f}")
    print(f"quantum value:   {value.quantum:.4f}")
    print(f"violation: {'yes' if value.violation else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _cmd_scan(args):
    ctx = standard_context()
    alice = args.phi
    phi = ctx.orbit.coords(*alice)
    labels = all_labels()

    # Per Bob label: componentwise eigenvalues and the terms of its orbit
    # pair.  Both are additive over the orbits of a combination, which
    # makes the scan itself cheap.
    component_order = ctx.decomposition.labels
    eigs = []
    for lab in labels:
        values = dict(eigenvalues_isotypic(phi, ctx.orbit.coords(*lab), ctx.decomposition))
        eigs.append([values[c] for c in component_order])
    eigs = np.array(eigs)
    exprs = [bell_terms([OrbitPair(alice, lab)], ctx.orbit) for lab in labels]

    combos = list(itertools.combinations_with_replacement(range(len(labels)), args.orbits))
    sums = np.zeros((len(combos), len(component_order)))
    # Orbit by orbit, in spec order: float addition is not associative.
    for j in range(args.orbits):
        sums += eigs[[combo[j] for combo in combos]]
    lams = sums.max(axis=1).tolist()
    cmaxes = multiset_maxima(exprs, args.orbits)
    rows = [
        (lam - cmax, lam, cmax, tuple(labels[k] for k in combo))
        for lam, cmax, combo in zip(lams, cmaxes, combos)
    ]

    rows.sort(key=lambda r: (-r[0], r[3]))
    top = rows[: args.top]
    echo = print
    echo(
        f"scan over {len(rows)} unordered Bob-label multisets "
        f"(orbits per spec: {args.orbits}, Alice fixed at {format_label(alice)})"
    )
    violations = sum(1 for r in rows if r[0] > 1e-9)
    echo(f"specs with quantum > classical: {violations}")
    echo("rank  spec" + " " * (13 * args.orbits - 3) + "quantum  classical  gap")
    for rank, (gap, lam, cmax, combo) in enumerate(top, start=1):
        spec = ",".join(
            format_pair(OrbitPair(alice, lab)) for lab in combo
        )
        shown = 0.0 if abs(gap) < 1e-9 else gap
        echo(f"{rank:4d}  {spec:<{13 * args.orbits + 1}}  {lam:7.2f}  {cmax:9d}  {shown:+.2f}")
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
    for v in ctx.orbit.vectors:
        coords = ", ".join(f"{x: .6f}" for x in v.coords)
        name = format_label(v.label)
        print(f"{name}     ({coords})   {ctx.group[v.element].cycle_string()}")
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
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


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

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
