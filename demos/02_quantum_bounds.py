#!/usr/bin/env python3
"""Quantum bounds from the isotypic split, cross-checked by direct diagonalization.

Run:  python demos/02_quantum_bounds.py
"""
import numpy as np

from s4bell import (
    OrbitPair,
    build_x_operator,
    eigenvalues_direct,
    eigenvalues_isotypic,
    max_eigenvalue_sum,
    standard_context,
    tables,
)

ctx = standard_context()

print("The tensor square splits into four components; projector traces:")
for comp in ctx.decomposition.components:
    print(f"  {comp.label:3s} dim {comp.dim}  trace {np.trace(comp.projector):.6f}")

phi = ctx.orbit.coords(1, 0)
psi = ctx.orbit.coords(4, 1)
print("\nOne orbit pair, x01:x14.  The summed projector operator has trace 24")
x = build_x_operator(phi, psi, ctx.product)
print(f"  trace: {np.trace(x):.6f}")

table = eigenvalues_isotypic(phi, psi, ctx.decomposition)
print("  componentwise eigenvalues (group order / dim * squared projection):")
for label, value in table:
    print(f"    {label:3s} {value:8.4f}")
direct, _ = eigenvalues_direct(x)
print(f"  direct Jacobi spectrum: {np.round(direct, 4)}")
print(f"  scalar closed form 8 (phi . psi)^2 = {8 * float(phi @ psi) ** 2:.4f}")

print("\nThe three built-in cases sum three such operators each:")
for name in tables.CASE_NAMES:
    pairs = [OrbitPair(*p) for p in tables.CASE_PAIRS[name]]
    spectrum = max_eigenvalue_sum(pairs, ctx)
    scalars = [dict((lab, v) for lab, _, v in t)["D0"] for t in spectrum.per_pair]
    print(f"  case {name}: scalar eigenvalues "
          + " + ".join(f"{s:.4f}" for s in scalars)
          + f" -> lambda_max = {spectrum.lambda_max:.4f}")
    u = np.zeros(9)
    u[[0, 4, 8]] = 1 / np.sqrt(3.0)
    overlap = abs(float(u @ spectrum.eigenvector))
    print(f"          top eigenvector overlap with the invariant direction: {overlap:.6f}")

print("\nNote the case III reference value 17.38 bundled in the tables is the")
print("sum of the truncated two-decimal entries (3.35 + 7.40 + 6.63); the exact")
print("maximal eigenvalue computed above is 17.3915.")
