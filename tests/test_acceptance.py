"""Acceptance suite: one test per reported number's criterion, one printed
PASS/FAIL line each.  Criterion 7, the property suites, has its home in the
unit tests of each property: test_homomorphism_all_pairs, test_orthogonality,
test_projector_algebra, test_trace_identity_random_pairs,
test_scalar_component_closed_form and test_reduced_instance_oracle.

One published number is wrong, and two criteria assert what the program
does about it.  The bundled reference 17.38 for the case III summed
operator equals the sum of the truncated two-decimal per-orbit values
(3.35 + 7.40 + 6.63), while the exact maximal eigenvalue is
752/81 + (32 sqrt2 + 16 sqrt3)/9 = 17.39147, recorded in
tables.SUM_EIGENVALUE_ERRATA and derived in surd arithmetic by
tests/test_quantum.py::test_case_iii_sum_eigenvalue_exact.  Criterion 2
checks each errata case against the exact value at 1e-9, checks that the
published value is the sum of the per-orbit entries, and checks that it
misses the exact value by more than the 0.01 tolerance.  Criterion 8
checks that the verification command reports exactly that mismatch as its
only failing check and returns False.  See README for the derivation.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import spectrum_of_components
from reference_terms import CASE_TERMS
from s4bell import tables
from s4bell.classical import bell_terms, classical_histogram, classical_max
from s4bell.cli import run_verification
from s4bell.game import game_values, winning_table
from s4bell.orbit import generate_orbit, match_reference_labels
from s4bell.quantum import (
    build_x_operator,
    eigenvalues_direct,
    eigenvalues_isotypic,
    max_eigenvalue_sum,
)


def report(num, title, problems):
    status = "PASS" if not problems else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {title}"
    if problems:
        line += " :: " + "; ".join(problems)
    print(line)
    assert not problems, line


def test_criterion_1_orbit_reproduction(ctx):
    problems = []
    start = time.perf_counter()
    orbit = match_reference_labels(generate_orbit(ctx.rep, tables.CANONICAL_SEED))
    elapsed = time.perf_counter() - start
    deviation = max(
        float(np.abs(orbit.coords(*lab) - tables.ORBIT_TABLE[lab]).max())
        for lab in tables.ORBIT_LABELS
    )
    if deviation > 1e-9:
        problems.append(f"coordinate deviation {deviation:.2e} > 1e-9")
    if orbit.points.shape != (24, 3) or len(set(orbit.elements.tolist())) != 24:
        problems.append("labels not bijective")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s >= 1s")
    report(1, f"orbit matches the reference table ({elapsed * 1e3:.0f} ms)", problems)


def test_criterion_2_quantum_bounds(ctx, case_pairs):
    problems = []
    start = time.perf_counter()
    agreement = 0.0
    for name, pairs in case_pairs.items():
        spectrum = max_eigenvalue_sum(pairs, ctx)
        scalars = spectrum.per_pair[:, tables.COMPONENT_ORDER.index("D0")]
        for k, (got, ref) in enumerate(zip(scalars, tables.REF_SCALAR_EIGENVALUES[name])):
            if abs(got - ref) > 0.01:
                problems.append(
                    f"case {name} orbit {k + 1}: scalar eigenvalue {got:.4f} "
                    f"vs {ref:.2f} (tol 0.01)"
                )
        ref_sum = tables.REF_SUM_EIGENVALUE[name]
        exact = tables.SUM_EIGENVALUE_ERRATA.get(name)
        if exact is None:
            if abs(spectrum.lambda_max - ref_sum) > 0.01:
                problems.append(
                    f"case {name}: summed lambda_max {spectrum.lambda_max:.4f} "
                    f"vs {ref_sum:.2f} (tol 0.01)"
                )
        else:
            if abs(spectrum.lambda_max - exact) > 1e-9:
                problems.append(
                    f"case {name}: summed lambda_max {spectrum.lambda_max:.12f} "
                    f"vs proven {exact:.12f} (tol 1e-9)"
                )
            truncated_sum = sum(tables.REF_SCALAR_EIGENVALUES[name])
            if abs(ref_sum - truncated_sum) > 1e-9:
                problems.append(
                    f"case {name}: published {ref_sum:.2f} is not the sum "
                    f"{truncated_sum:.2f} of the per-orbit entries"
                )
            if abs(ref_sum - exact) <= 0.01:
                problems.append(
                    f"case {name}: published {ref_sum:.2f} is within 0.01 of "
                    f"the proven {exact:.4f}; the erratum no longer holds"
                )
        for pair in pairs:
            phi = ctx.orbit.coords(*pair.alice)
            psi = ctx.orbit.coords(*pair.bob)
            direct, _ = eigenvalues_direct(build_x_operator(phi, psi, ctx.product))
            expected = spectrum_of_components(eigenvalues_isotypic(phi, psi, ctx.projectors))
            agreement = max(agreement, float(np.abs(direct - expected).max()))
    elapsed = time.perf_counter() - start
    if agreement > 1e-6:
        problems.append(f"isotypic vs direct deviation {agreement:.2e} > 1e-6")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s >= 1s")
    report(
        2,
        f"quantum bounds reproduce the references or the proven errata "
        f"({elapsed * 1e3:.0f} ms)",
        problems,
    )


def test_criterion_3_classical_bounds(ctx, case_pairs):
    problems = []
    worst = 0.0
    for name, pairs in case_pairs.items():
        expr = bell_terms(pairs, ctx.orbit)
        start = time.perf_counter()
        bound = classical_max(expr)
        worst = max(worst, time.perf_counter() - start)
        if bound != tables.REF_CLASSICAL_BOUND[name]:
            problems.append(
                f"case {name}: classical max {bound} != {tables.REF_CLASSICAL_BOUND[name]}"
            )
    if worst >= 1.0:
        problems.append(f"fast path took {worst:.2f}s >= 1s")
    report(3, f"classical bounds are 16, 18, 16 (worst {worst * 1e3:.0f} ms)", problems)


def test_criterion_4_histograms(ctx, case_pairs):
    problems = []
    spot_rows = {"I": {1: 12960, 16: 15876}, "II": {18: 144, 8: 7822791},
                 "III": {16: 4761}}
    worst = 0.0
    for name, pairs in case_pairs.items():
        expr = bell_terms(pairs, ctx.orbit)
        start = time.perf_counter()
        hist = classical_histogram(expr)
        worst = max(worst, time.perf_counter() - start)
        for c in range(1, 21):
            if hist.counts.get(c, 0) != tables.REF_COEFFICIENT_COUNTS[name][c - 1]:
                problems.append(
                    f"case {name}: count at c={c} is {hist.counts.get(c, 0)}, "
                    f"reference {tables.REF_COEFFICIENT_COUNTS[name][c - 1]}"
                )
        for c, count in spot_rows[name].items():
            if hist.counts.get(c, 0) != count:
                problems.append(f"case {name}: spot row c={c} mismatch")
        if hist.c_max != tables.REF_CLASSICAL_BOUND[name]:
            problems.append(f"case {name}: largest coefficient {hist.c_max} != classical bound")
        if hist.total() != 3 ** 16:
            problems.append(f"case {name}: total {hist.total()} != 3^16")
        if hist.weighted_total() != 72 * 3 ** 14:
            problems.append(f"case {name}: weighted total != 72 * 3^14")
    if worst >= 1.0:
        problems.append(f"single-threaded histogram took {worst:.2f}s >= 1s")
    report(4, f"histograms match the reference exactly (worst {worst * 1e3:.0f} ms)", problems)


def test_criterion_5_term_lists(ctx, case_pairs):
    problems = []
    for name, pairs in case_pairs.items():
        expr = bell_terms(pairs, ctx.orbit)
        expected = {tuple(t) for t in CASE_TERMS[name]}
        got = {tuple(t) for t in expr.terms}
        if len(expr.terms) != 72:
            problems.append(f"case {name}: {len(expr.terms)} terms != 72")
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            problems.append(f"case {name}: missing {missing}, extra {extra}")
    report(5, "term lists match the reference expansions", problems)


def test_criterion_6_game(ctx, case_pairs):
    problems = []
    pairs = case_pairs["I"]
    expr = bell_terms(pairs, ctx.orbit)
    table = winning_table(expr)
    if table.entries != tables.REF_WINNING_TABLE_I:
        problems.append("winning table differs from the reference")
    if len(table.entries) != 24 or not all(len(v) == 3 for v in table.entries.values()):
        problems.append("winning table shape is not 24 rows of 3 pairs")
    value = game_values(expr, ctx)
    if value.classical != Fraction(16, 64):
        problems.append(f"classical value {value.classical} != 16/64")
    if abs(value.quantum - 0.2514) > 1e-4:
        problems.append(f"quantum value {value.quantum:.5f} vs 0.2514 (tol 1e-4)")
    report(6, "winning table and game values match", problems)


def test_criterion_8_verification_command():
    problems = []
    lines = []
    start = time.perf_counter()
    ok = run_verification(echo=lines.append)
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"verification took {elapsed:.0f}s >= 120s")
    checks = [line for line in lines if line.startswith(("ok  ", "FAIL"))]
    failures = [line for line in checks if line.startswith("FAIL")]
    expected = [
        f"FAIL case {name}: maximal eigenvalue of the summed operator "
        f"(computed {tables.SUM_EIGENVALUE_ERRATA[name]:.4f} "
        f"vs reference {tables.REF_SUM_EIGENVALUE[name]:.2f}, tolerance 0.01)"
        for name in tables.CASE_NAMES
        if name in tables.SUM_EIGENVALUE_ERRATA
    ]
    if failures != expected:
        problems.append(f"failing checks {failures}, expected exactly {expected}")
    summary = f"{len(checks) - len(expected)}/{len(checks)} checks passed"
    if lines[-1] != summary:
        problems.append(f"summary {lines[-1]!r} != {summary!r}")
    again = []
    run_verification(echo=again.append)
    if again != lines:
        problems.append("a second run reported other lines")
    expected_ok = not expected
    if ok is not expected_ok:
        problems.append(f"verification returned {ok!r}, expected {expected_ok}")
    report(
        8,
        f"end-to-end verification fails only on the errata ({elapsed:.1f} s)",
        problems,
    )
