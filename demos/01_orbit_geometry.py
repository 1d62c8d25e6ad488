#!/usr/bin/env python3
"""Walk through the geometry: reflections, the tetrahedron, the 24-vector orbit.

Run:  python demos/01_orbit_geometry.py
"""
import contextlib
import io

import numpy as np

from s4bell import (
    build_standard_rep,
    cli,
    conjugacy_classes,
    cycle_string,
    generate_orbit,
    match_reference_labels,
    symmetric_group,
    tetrahedron_orbit,
)
from s4bell.orbit import DegenerateOrbitError
from s4bell.tables import CANONICAL_SEED

np.set_printoptions(precision=4, suppress=True)

group = symmetric_group(4)  # one row of one-line images per element
classes = conjugacy_classes(group)
print(f"S4 has {len(group)} elements in {len(classes)} classes:")
for ct, members in classes.items():
    print(f"  cycle type {ct}: {len(members)} elements, e.g. "
          f"{cycle_string(group[members[0]])}")

rep = build_standard_rep(group)
swap = group.tolist().index([1, 0, 2, 3])
print("\nEach transposition acts as a reflection, for example D(1 2) =")
print(rep[swap])

print("\nThe orbit of (1, 0, 0) is degenerate: it has a stabilizer.")
try:
    generate_orbit(rep, np.array([1.0, 0.0, 0.0]))
except DegenerateOrbitError as err:
    print(f"  generate_orbit raised: {err}")

tet = tetrahedron_orbit(rep)
print("Those four images are the vertices of a regular tetrahedron:")
print(tet)
dots = sorted(round(float(tet[i] @ tet[j]), 6) for i in range(4) for j in range(i + 1, 4))
print(f"  pairwise dot products: {set(dots)}")

print("\nA generic seed has 24 distinct images that split into 8 orthonormal")
print("triples, one measurement basis per triple:")
orbit = match_reference_labels(generate_orbit(rep, CANONICAL_SEED))
# two partners each, orthogonal to each other, force every basis
partners = (np.abs(orbit.points @ orbit.points.T) < 1e-9).sum(axis=1)
print(f"  seed {orbit.seed}, orthogonal partners per vector {set(partners.tolist())} (unique)")
for i in range(1, 9):
    frame = np.array([orbit.coords(i, a) for a in range(3)])
    gram_err = np.abs(np.einsum("ij,kj->ik", frame, frame) - np.eye(3)).max()
    elements = ", ".join(
        cycle_string(group[orbit.element_of(i, a)]) for a in range(3)
    )
    print(f"  basis {i}: orthonormal to {gram_err:.1e}; elements {elements}")

print("\nJSON export (first lines):")
# `s4bell orbits --json` prints this same orbit, labeled from the same seed.
with contextlib.redirect_stdout(io.StringIO()) as out:
    cli.main(["orbits", "--json"])
print("\n".join(out.getvalue().splitlines()[:12]))
print("  ...")
