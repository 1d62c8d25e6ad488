#!/usr/bin/env python3
"""The nonlocal game: winning tables, deterministic strategies, quantum edge.

Run:  python demos/04_nonlocal_game.py
"""
from fractions import Fraction

import numpy as np

from s4bell import (
    OrbitPair,
    bell_terms,
    coefficient,
    game_values,
    optimal_classical_strategy,
    standard_context,
    tables,
    winning_table,
)

ctx = standard_context()
pairs = [OrbitPair(*p) for p in tables.CASE_PAIRS["I"]]
expr = bell_terms(pairs, ctx.orbit)
table = winning_table(expr)

print("The referee draws (s, t) uniformly from 64 pairs; the players win when")
print("their answers (a, b) appear in the row of the winning table.")
print()
print(table.render_text())

rng = np.random.default_rng(5)
print("A few random deterministic strategies:")
for _ in range(5):
    f_alice = tuple(int(x) for x in rng.integers(0, 3, 8))
    f_bob = tuple(int(x) for x in rng.integers(0, 3, 8))
    p = Fraction(coefficient(expr, f_alice, f_bob), 64)
    print(f"  f_A={f_alice} f_B={f_bob}  wins {p} = {float(p):.4f}")

f_alice, f_bob = optimal_classical_strategy(expr)
best = Fraction(coefficient(expr, f_alice, f_bob), 64)
print(f"\nThe optimal deterministic strategy wins {best} = {float(best):.4f},")
print("and no classical strategy can do better.")

value = game_values(expr, ctx)
print(f"\nSharing the top eigenstate of the summed operator instead wins")
print(f"  {value.quantum:.6f}  (vs classical {float(value.classical):.6f})")
gap = value.quantum - float(value.classical)
print(f"violation: {value.violation}, gap {gap:.6f}")
