#!/usr/bin/env python3
"""Classical bounds: term expansion, fast maxima, and the full 3**16 histogram.

Run:  python demos/03_classical_bounds.py
"""
import time

from s4bell import (
    OrbitPair,
    bell_terms,
    classical_histogram,
    classical_max,
    optimal_classical_strategy,
    tables,
)
from s4bell.classical import coefficient

print("Each orbit pair expands into 24 probability terms, one per group element.")
pairs = [OrbitPair(*p) for p in tables.CASE_PAIRS["I"]]
expr = bell_terms(pairs)
print(f"case I: {len(expr.terms)} terms; the first few:")
for term in expr.terms[:4]:
    print(f"  P(a_{term.s} = {term.a}, b_{term.t} = {term.b})")

print("\nClassical bounds via the separable fast path:")
for name in tables.CASE_NAMES:
    case_pairs = [OrbitPair(*p) for p in tables.CASE_PAIRS[name]]
    case_expr = bell_terms(case_pairs)
    start = time.perf_counter()
    bound = classical_max(case_expr)
    ms = (time.perf_counter() - start) * 1e3
    print(f"  case {name}: max coefficient {bound}  ({ms:.1f} ms)")

f_alice, f_bob = optimal_classical_strategy(expr)
print(f"\nAn optimal case I strategy: f_A = {f_alice}, f_B = {f_bob}")
print(f"  it satisfies {coefficient(expr, f_alice, f_bob)} of the 72 terms")

print("\nFull histogram over all 3**16 = 43 046 721 configurations (case I):")
start = time.perf_counter()
hist = classical_histogram(expr)
ms = (time.perf_counter() - start) * 1e3
print(f"  counted in {ms:.1f} ms: the expression is S4-invariant, so one Alice tuple")
print("  per S4 orbit (306 of 3^8 = 6561) is scanned, weighted by its orbit size,")
print("  and Bob's settings 1-4 and 5-8 are enumerated apart (3^4 tuples each)")
print("    c   configurations   reference")
for c in range(0, 17):
    if c == 0:
        print(f"  {c:3d}   {hist.counts[0]:>12,}   {'(none)':>10}")
        continue
    ref = tables.REF_COEFFICIENT_COUNTS["I"][c - 1]
    mark = "" if hist.counts.get(c, 0) == ref else "  <- MISMATCH"
    print(f"  {c:3d}   {hist.counts.get(c, 0):>12,}   {ref:>10,}{mark}")
print(f"  total {hist.total():,} = 3^16; weighted total "
      f"{hist.weighted_total():,} = 72 * 3^14")
