"""Independent reference values and output checks for the benchmark.

Reference values are recomputed from the bundled tables alone: the group is
the closure of the six reflection matrices, orbit images are labeled by
nearest table vector, component eigenvalues come from conjugating by the
bundled block basis, the maximal eigenvalue from numpy's `eigvalsh` and the
classical bound from a one-hot matrix product.  None of this goes through
the library's group, orbit, Jacobi or strategy-scan code, so a wrong output
cannot pass by agreeing with itself.

`check()` parses one op's captured stdout and raises CheckError on the
first disagreement.  Printed values are compared at the precision they are
printed with; full-precision JSON values to 1e-8.
"""

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from s4bell import tables

COMPONENTS = tables.COMPONENT_ORDER
N_SETTINGS = 8
N_OUTCOMES = 3
DENOMINATOR = N_SETTINGS ** 2
FULL_TOL = 1e-8
VERIFY_FAILURE = "case III: maximal eigenvalue of the summed operator"


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def label_text(label):
    basis, outcome = label
    return f"x{outcome}{basis}"


def spec_text(pairs):
    return ",".join(f"{label_text(a)}:{label_text(b)}" for a, b in pairs)


def _parse_label(text):
    match = re.fullmatch(r"x([0-2])([1-8])", text)
    if not match:
        raise CheckError(f"bad label {text!r}")
    return (int(match.group(2)), int(match.group(1)))


def parse_spec(text):
    """"x01:x14,..." -> ((alice label, bob label), ...) as (basis, outcome)."""
    return tuple(
        tuple(_parse_label(side) for side in chunk.split(":"))
        for chunk in text.split(",")
    )


class Reference(NamedTuple):
    """Reference values of one multiset of orbit pairs."""

    matrix: np.ndarray  # summed 9x9 operator
    spectrum: np.ndarray  # descending
    per_pair: tuple  # per pair: {component: eigenvalue}
    cmax: int
    table: dict  # (s, t) -> set of (a, b)
    duplicates: bool  # some term occurs more than once

    @property
    def lam(self):
        return float(self.spectrum[0])


def _group_closure(generators):
    elements = [np.eye(3)]
    frontier = list(elements)
    while frontier:
        fresh = []
        for m in frontier:
            for g in generators:
                p = g @ m
                if not any(np.abs(p - e).max() < 1e-9 for e in elements):
                    elements.append(p)
                    fresh.append(p)
        frontier = fresh
    return np.array(elements)


class Oracle:
    """Reference bounds for orbit-pair specs, from the bundled tables only."""

    def __init__(self):
        group = _group_closure(list(tables.TRANSPOSITION_MATRICES.values()))
        self.labels = tables.ORBIT_LABELS
        coords = np.array([tables.ORBIT_TABLE[lab] for lab in self.labels])
        images = np.einsum("gij,lj->gli", group, coords)
        dist = np.linalg.norm(images[:, :, None, :] - coords[None, None], axis=3)
        if len(group) != 24 or dist.min(axis=2).max() > 1e-7:
            raise RuntimeError("bundled reflections do not generate the labeled orbit")
        self._image = dist.argmin(axis=2)  # [g, label] -> label of g . x(label)
        self._coords = coords
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        profiles = np.array(list(itertools.product(range(N_OUTCOMES), repeat=N_SETTINGS)))
        onehot = np.zeros((len(profiles), N_SETTINGS * N_OUTCOMES), dtype=np.float32)
        for s in range(N_SETTINGS):
            onehot[np.arange(len(profiles)), N_OUTCOMES * s + profiles[:, s]] = 1.0
        self._alice_onehot = onehot
        self._pairs = {}

    def pair(self, alice, bob):
        """(terms, 9x9 operator, component eigenvalues) of one orbit pair."""
        key = (alice, bob)
        if key not in self._pairs:
            a_img = self._image[:, self._index[alice]]
            b_img = self._image[:, self._index[bob]]
            terms = tuple(
                (*self.labels[p], *self.labels[q]) for p, q in zip(a_img, b_img)
            )
            w = (self._coords[a_img][:, :, None] * self._coords[b_img][:, None, :])
            w = w.reshape(len(a_img), 9)
            matrix = w.T @ w
            block = np.diag(tables.BLOCK_BASIS @ matrix @ tables.BLOCK_BASIS.T)
            comps = {c: float(block[list(tables.BLOCK_ROWS[c])].mean()) for c in COMPONENTS}
            self._pairs[key] = (terms, matrix, comps)
        return self._pairs[key]

    def terms_repeat(self, pairs):
        counts = Counter(t for a, b in pairs for t in self.pair(a, b)[0])
        return max(counts.values()) > 1

    def spec(self, pairs):
        data = [self.pair(a, b) for a, b in pairs]
        matrix = sum(d[1] for d in data)
        spectrum = np.linalg.eigvalsh(matrix)[::-1]
        counts = Counter(t for d in data for t in d[0])
        f = np.zeros((N_SETTINGS * N_OUTCOMES,) * 2, dtype=np.float32)
        table = {}
        for (s, a, t, b), n in counts.items():
            f[N_OUTCOMES * (s - 1) + a, N_OUTCOMES * (t - 1) + b] += n
            table.setdefault((s, t), set()).add((a, b))
        per_alice = (self._alice_onehot @ f).reshape(-1, N_SETTINGS, N_OUTCOMES)
        cmax = int(per_alice.max(axis=2).sum(axis=1).max())
        return Reference(matrix, spectrum, tuple(d[2] for d in data), cmax, table,
                         max(counts.values()) > 1)

    def builtin_case(self, pairs):
        """Name of the built-in case with exactly these pairs, else None."""
        for name in tables.CASE_NAMES:
            if Counter(pairs) == Counter(tables.CASE_PAIRS[name]):
                return name
        return None


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def _close(what, got, want, tol):
    if not abs(float(got) - float(want)) <= tol:
        raise CheckError(f"{what}: got {got}, expected {want}")


def _printed(what, text, want, decimals):
    """`text` is `want` printed with `decimals` decimals (rounding either way)."""
    _close(what, text, want, 0.5 * 10 ** -decimals + 1e-9)


def _equal(what, got, want):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


class _Lines:
    """Cursor over output lines that matches each against a pattern."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def expect(self, pattern):
        if self.pos >= len(self.lines):
            raise CheckError(f"output ended, expected {pattern!r}")
        line = self.lines[self.pos]
        match = re.fullmatch(pattern, line)
        if not match:
            raise CheckError(f"line {self.pos + 1} {line!r} does not match {pattern!r}")
        self.pos += 1
        return match.groups()

    def winning_table(self):
        self.expect(r"s,t  winning a,b")
        table = {}
        while self.pos < len(self.lines) and re.fullmatch(r"\d\d   .*", self.lines[self.pos]):
            key, *cells = self.lines[self.pos].split()
            table[(int(key[0]), int(key[1]))] = {(int(c[0]), int(c[1])) for c in cells}
            self.pos += 1
        return table

    def end(self):
        if self.pos != len(self.lines):
            raise CheckError(f"unexpected line {self.lines[self.pos]!r}")


NUM = r"(-?\d+\.\d+)"


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_json(out, pairs, ref):
    report = json.loads(out)
    _equal("pairs", report["pairs"], [spec_text([p]) for p in pairs])
    q = report["quantum"]
    _close("lambda_max", q["lambda_max"], ref.lam, FULL_TOL)
    _equal("spectrum size", len(q["spectrum"]), 9)
    for got, want in zip(q["spectrum"], ref.spectrum):
        _close("spectrum", got, want, FULL_TOL)
    v = np.array(q["eigenvector"], dtype=float)
    _close("eigenvector norm", np.linalg.norm(v), 1.0, FULL_TOL)
    _close("eigenvector residual", np.abs(ref.matrix @ v - ref.lam * v).max(), 0.0, 1e-7)
    _equal("per-pair count", len(q["per_pair"]), len(pairs))
    for rows, comps in zip(q["per_pair"], ref.per_pair):
        _equal("components", [(r["label"], r["dim"]) for r in rows],
               [(c, tables.COMPONENT_DIMS[c]) for c in COMPONENTS])
        for r in rows:
            _close(f"eigenvalue {r['label']}", r["eigenvalue"], comps[r["label"]], FULL_TOL)
    _equal("component sum labels", sorted(q["component_sums"]), sorted(COMPONENTS))
    for c in COMPONENTS:
        _close(f"component sum {c}", q["component_sums"][c],
               sum(comps[c] for comps in ref.per_pair), FULL_TOL)
    _equal("classical", report["classical"], {"max_coefficient": ref.cmax})
    game = report["game"]
    _equal("game classical", game["classical"], f"{ref.cmax}/{DENOMINATOR}")
    _equal("game classical value", game["classical_value"], ref.cmax / DENOMINATOR)
    _close("game quantum value", game["quantum_value"], ref.lam / DENOMINATOR, 1e-10)
    _equal("winning table", report["winning_table"], {
        f"{s},{t}": sorted(f"{a}{b}" for a, b in cell) for (s, t), cell in ref.table.items()
    })
    violation = report["violation"]
    _equal("violated", violation["violated"], ref.lam > ref.cmax + 1e-9)
    _close("gap", violation["gap"], ref.lam - ref.cmax, FULL_TOL)


def _check_csv(out, pairs, ref):
    lines = out.splitlines()
    _equal("csv header", lines[0], "pair,component,dim,eigenvalue")
    want = [
        (spec_text([p]), c, str(tables.COMPONENT_DIMS[c]), comps[c])
        for p, comps in zip(pairs, ref.per_pair)
        for c in COMPONENTS
    ]
    _equal("csv rows", len(lines) - 1, len(want))
    for line, (pair, comp, dim, value) in zip(lines[1:], want):
        fields = line.split(",")
        _equal("csv row", fields[:3], [pair, comp, dim])
        _close(f"csv {pair} {comp}", fields[3], value, FULL_TOL)


def _check_text(out, pairs, ref):
    lines = _Lines(out)
    _equal("pairs line", lines.expect(r"pairs: (.*)")[0],
           ", ".join(spec_text([p]) for p in pairs))
    lines.expect("")
    lines.expect(re.escape(f"per-orbit eigenvalues ({', '.join(COMPONENTS)}):"))
    for pair, comps in zip(pairs, ref.per_pair):
        pair_text, *values = lines.expect(r"  (\S+)   " + "  ".join([r" *" + NUM] * 4))
        _equal("pair", pair_text, spec_text([pair]))
        for c, text in zip(COMPONENTS, values):
            _printed(f"{pair_text} {c}", text, comps[c], 2)
    sums = lines.expect(r"  component sums    " + "  ".join([r" *" + NUM] * 4))
    for c, text in zip(COMPONENTS, sums):
        _printed(f"component sum {c}", text, sum(comps[c] for comps in ref.per_pair), 2)
    _printed("lambda_max", lines.expect(r"quantum bound: lambda_max = " + NUM)[0], ref.lam, 2)
    _equal("classical bound",
           int(lines.expect(r"classical bound: max coefficient = (\d+)")[0]), ref.cmax)
    lines.expect("")
    c, value = lines.expect(rf"game value, classical: (\d+)/{DENOMINATOR} = " + NUM)
    _equal("game classical", int(c), ref.cmax)
    _printed("game classical value", value, ref.cmax / DENOMINATOR, 4)
    _printed("game quantum value",
             lines.expect(rf"game value, quantum:   lambda_max/{DENOMINATOR} = " + NUM)[0],
             ref.lam / DENOMINATOR, 4)
    if ref.lam > ref.cmax + 1e-9:
        _printed("gap", lines.expect(r"violation: yes \(gap " + NUM + r"\)")[0],
                 ref.lam - ref.cmax, 2)
    else:
        lines.expect(r"violation: no")
    lines.expect("")
    _equal("winning table", lines.winning_table(), ref.table)
    lines.expect("")
    lines.end()


def _check_game(out, ref):
    lines = _Lines(out)
    _equal("winning table", lines.winning_table(), ref.table)
    frac, value = lines.expect(r"classical value: (\d+(?:/\d+)?) = " + NUM)
    _equal("classical value", Fraction(frac), Fraction(ref.cmax, DENOMINATOR))
    _printed("classical value", value, ref.cmax / DENOMINATOR, 4)
    _printed("quantum value", lines.expect(r"quantum value:   " + NUM)[0],
             ref.lam / DENOMINATOR, 4)
    violated = ref.lam / DENOMINATOR > ref.cmax / DENOMINATOR + 1e-9
    lines.expect("violation: " + ("yes" if violated else "no"))
    lines.end()


def _verify_names():
    names = [
        "orbit reproduces the reference table, labels bijective",
        "block basis is orthogonal and block-diagonalizes the projectors",
    ]
    for case in tables.CASE_NAMES:
        names += [
            f"case {case}: scalar eigenvalue per orbit",
            f"case {case}: maximal eigenvalue of the summed operator",
            f"case {case}: componentwise and direct eigenvalues agree",
            f"case {case}: classical bound",
        ]
    names += [f"case {case}: coefficient histogram" for case in tables.CASE_NAMES]
    return names + ["case I: winning table", "case I: game values"]


def _check_verify(code, out, oracle):
    """Exit 1 with 18/19: only the known case III summed-eigenvalue check fails."""
    names = _verify_names()
    _equal("exit code", code, 1)
    lines = out.splitlines()
    _equal("summary", lines[-1] if lines else "", f"{len(names) - 1}/{len(names)} checks passed")
    parsed = []
    for line in lines[:-1]:
        match = re.fullmatch(r"(ok  |FAIL) (.+?)(?: \((.*)\))?", line)
        if not match:
            raise CheckError(f"unexpected verify line {line!r}")
        parsed.append(match.groups())
    _equal("checks", [name for _, name, _ in parsed], names)
    _equal("failing checks", [n for status, n, _ in parsed if status == "FAIL"], [VERIFY_FAILURE])

    refs = {case: oracle.spec(tables.CASE_PAIRS[case]) for case in tables.CASE_NAMES}
    for _, name, detail in parsed:
        detail = detail or ""
        case = name.split(":")[0].split()[-1]
        ref = refs.get(case)
        if name.endswith("scalar eigenvalue per orbit"):
            match = re.fullmatch(r"computed (.*) vs reference (.*)", detail)
            computed = match.group(1).split(", ") if match else []
            _equal(f"{name} count", len(computed), len(ref.per_pair))
            for text, comps in zip(computed, ref.per_pair):
                _printed(name, text, comps["D0"], 4)
        elif name.endswith("maximal eigenvalue of the summed operator"):
            match = re.fullmatch(
                NUM.join(["computed ", " vs reference ", ", tolerance 0.01"]), detail)
            if not match:
                raise CheckError(f"{name}: {detail!r}")
            _printed(name, match.group(1), ref.lam, 4)
            _equal(f"{name} reference", float(match.group(2)), tables.REF_SUM_EIGENVALUE[case])
        elif name.endswith("classical bound"):
            _equal(name, detail, f"computed {ref.cmax} vs reference {ref.cmax}")
            _equal(f"{name} reference", ref.cmax, tables.REF_CLASSICAL_BOUND[case])
        elif name.endswith("coefficient histogram"):
            _equal(name, detail, "rows 1..20 match, mass checks pass")
        elif name.endswith("winning table"):
            uniform = all(
                len(cell) == 3 and len({a for a, _ in cell}) == 3
                and len({b for _, b in cell}) == 3
                for cell in ref.table.values()
            )
            _equal(name, detail,
                   f"{len(ref.table)} settings pairs, uniform triple structure: {uniform}")
            _equal(f"{name} reference", ref.table,
                   {k: set(v) for k, v in tables.REF_WINNING_TABLE_I.items()})
        elif name.endswith("game values"):
            match = re.fullmatch(
                r"classical (\d+/\d+) = " + NUM + r", quantum " + NUM
                + r" vs reference 0\.2514 \(tol 1e-4\)", detail)
            if not match:
                raise CheckError(f"{name}: {detail!r}")
            _equal(f"{name} classical", Fraction(match.group(1)), Fraction(ref.cmax, DENOMINATOR))
            _printed(f"{name} quantum", match.group(3), ref.lam / DENOMINATOR, 5)


def _check_scan(argv, out, oracle, analyze):
    orbits = int(argv[argv.index("--orbits") + 1])
    top = int(argv[argv.index("--top") + 1])
    phi = argv[argv.index("--phi") + 1]
    lines = _Lines(out)
    count, shown_orbits, shown_phi = lines.expect(
        r"scan over (\d+) unordered Bob-label multisets "
        r"\(orbits per spec: (\d), Alice fixed at (x\d\d)\)")
    n_labels = len(oracle.labels)
    _equal("multisets", int(count), math.comb(n_labels + orbits - 1, orbits))
    _equal("header", (int(shown_orbits), shown_phi), (orbits, phi))
    violations = int(lines.expect(r"specs with quantum > classical: (\d+)")[0])
    lines.expect(r"rank  spec +quantum  classical  gap")
    previous = math.inf
    for rank in range(1, min(top, int(count)) + 1):
        shown_rank, spec, lam, cmax, gap = lines.expect(
            r" *(\d+)  (\S+) +" + NUM + r" +(\d+)  ([+-]\d+\.\d+)")
        _equal("rank", int(shown_rank), rank)
        pairs = parse_spec(spec)
        _equal("Alice labels", {label_text(a) for a, _ in pairs}, {phi})
        _equal("orbits", len(pairs), orbits)
        ref = oracle.spec(pairs)
        if not ref.duplicates:
            # The analyze command rejects repeated terms, so multisets that
            # repeat a label are re-derived by the reference alone.
            lib_lam, lib_cmax = analyze(spec)
            _close(f"{spec} analyze lambda_max", lib_lam, ref.lam, FULL_TOL)
            _equal(f"{spec} analyze classical", lib_cmax, ref.cmax)
        _printed(f"{spec} quantum", lam, ref.lam, 2)
        _equal(f"{spec} classical", int(cmax), ref.cmax)
        true_gap = ref.lam - ref.cmax
        _printed(f"{spec} gap", gap, true_gap, 2)
        if true_gap > previous + 1e-9:
            raise CheckError(f"rank {rank} gap {true_gap} exceeds the row above")
        _equal(f"rank {rank} counted as violation", rank <= violations, true_gap > 1e-9)
        previous = true_gap
    lines.end()


def check(argv, code, out, oracle, analyze):
    """Raise CheckError unless `out` (exit `code`) is right for `argv`.

    `analyze(spec)` must return (lambda_max, classical bound) from the
    library's analyze path; the scan check re-derives its rows with it.
    """
    try:
        command = argv[0]
        if command == "verify":
            return _check_verify(code, out, oracle)
        _equal("exit code", code, 0)
        if command == "scan":
            return _check_scan(argv, out, oracle, analyze)
        pairs = parse_spec(argv[argv.index("--pairs") + 1])
        ref = oracle.spec(pairs)
        case = oracle.builtin_case(pairs)
        if case is not None:
            _equal(f"case {case} classical bound", ref.cmax, tables.REF_CLASSICAL_BOUND[case])
        if command == "game":
            _check_game(out, ref)
        elif "--json" in argv:
            _check_json(out, pairs, ref)
        elif "--csv" in argv:
            _check_csv(out, pairs, ref)
        else:
            _check_text(out, pairs, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"unparseable output: {type(exc).__name__}: {exc}") from exc
