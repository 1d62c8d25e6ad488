"""Orbits of seed vectors under the standard representation.

A generic seed has 24 distinct images which split into eight orthonormal
triples; each triple is one measurement basis, so an orbit vector carries a
label (basis i in 1..8, outcome alpha in 0..2).  The triple partition is
found as an exact cover of the orthogonality graph.  Labels can either be
assigned canonically (by group-element order) or matched against the
bundled reference table.
"""

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tables
from .permgroup import GroupTable
from .representation import EPS, Representation

__all__ = [
    "MATCH_TOL",
    "N_SETTINGS",
    "N_OUTCOMES",
    "OrbitPair",
    "OrbitVector",
    "Orbit",
    "DegenerateOrbitError",
    "PartitionError",
    "generate_orbit",
    "partition_into_bases",
    "match_reference_labels",
    "tetrahedron_orbit",
    "canonical_orbit",
    "orbit_to_json",
    "all_labels",
]

# Two orbit vectors closer than this are considered equal.  Well above the
# rounding accumulated by a handful of 3x3 products, far below the minimum
# true separation in the orbits of interest (about 0.28).
MATCH_TOL = 1e-7

# The 24 orbit vectors make eight orthonormal bases of R^3: each party has
# eight measurement settings with three outcomes each.
N_SETTINGS = 8
N_OUTCOMES = 3


class DegenerateOrbitError(ValueError):
    """The seed has a nontrivial stabilizer; carries the actual orbit size."""

    def __init__(self, size):
        super().__init__(f"degenerate orbit of size {size}")
        self.size = size


class PartitionError(ValueError):
    """The orbit does not split into disjoint orthonormal triples."""


@dataclass(frozen=True)
class OrbitPair:
    """Labels of the two seeds of one orbit pair: Alice's and Bob's."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        for side in ("alice", "bob"):
            lab = getattr(self, side)
            try:
                i, alpha = map(operator.index, lab)
            except (TypeError, ValueError):
                raise ValueError(f"label must be two integers, got {lab!r}") from None
            if not (1 <= i <= N_SETTINGS and 0 <= alpha < N_OUTCOMES):
                raise ValueError(f"label out of range: basis {i}, outcome {alpha}")
            object.__setattr__(self, side, (i, alpha))


@dataclass(frozen=True)
class OrbitVector:
    coords: np.ndarray
    element: int  # index into the group's canonical element order
    basis: int  # 1..8
    outcome: int  # 0..2

    def __post_init__(self):
        arr = np.array(self.coords, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def label(self):
        return (self.basis, self.outcome)


@dataclass(frozen=True)
class Orbit:
    """A labeled orbit: vectors sorted by (basis, outcome), so position k
    holds label (k // 3 + 1, k % 3)."""

    seed: np.ndarray
    vectors: tuple
    group: GroupTable
    partition_count: int = 1

    def __post_init__(self):
        arr = np.array(self.seed, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "seed", arr)

    @cached_property
    def _by_label(self):
        return {v.label: v for v in self.vectors}

    @cached_property
    def label_action(self):
        """[g, k]: position in `vectors` of the image of vectors[k] under element g.

        Read off the group product on element indices, which is exact.
        Read-only.
        """
        elements = [v.element for v in self.vectors]
        position = np.empty(self.group.order, dtype=np.int64)
        position[elements] = np.arange(len(elements))
        action = position[self.group.product_table[:, elements]]
        action.setflags(write=False)
        return action

    def coords(self, basis, outcome):
        return self._by_label[(basis, outcome)].coords

    def element_of(self, basis, outcome):
        return self._by_label[(basis, outcome)].element

    def label_of_coords(self, coords):
        """Label of the orbit vector within MATCH_TOL of `coords`."""
        coords = np.asarray(coords, dtype=float)
        for v in self.vectors:
            if np.linalg.norm(v.coords - coords) < MATCH_TOL:
                return v.label
        raise LookupError(f"no orbit vector near {coords}")

    def as_dict(self):
        return {
            "seed": [float(x) for x in self.seed],
            "vectors": [
                {
                    "i": v.basis,
                    "alpha": v.outcome,
                    "element": self.group[v.element].cycle_string(),
                    "coords": [float(x) for x in v.coords],
                }
                for v in self.vectors
            ],
        }


def orbit_to_json(orbit: Orbit) -> str:
    return json.dumps(orbit.as_dict(), sort_keys=True, indent=2)


def partition_into_bases(vectors):
    """Split distinct unit vectors into mutually orthogonal triples.

    Builds the orthogonality graph (edges between vectors whose dot product
    vanishes to within EPS) and searches for exact covers by
    triangles, always branching on the lowest-index uncovered vector so the
    enumeration order is deterministic.  Returns the lexicographically
    first cover together with the total number of covers found.

    Raises PartitionError when no cover exists.
    """
    arr = np.array([np.asarray(v, dtype=float) for v in vectors])
    n = len(arr)
    if n == 0 or n % 3:
        raise PartitionError(f"cannot split {n} vectors into triples")
    norms = np.linalg.norm(arr, axis=1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError("vectors must be unit length")
    gram = arr @ arr.T
    for a in range(n):
        for b in range(a + 1, n):
            if np.linalg.norm(arr[a] - arr[b]) < MATCH_TOL:
                raise ValueError(f"vectors {a} and {b} coincide")

    orthogonal = [
        {b for b in range(n) if b != a and abs(gram[a, b]) < EPS}
        for a in range(n)
    ]
    triangles = [
        (a, b, c)
        for a in range(n)
        for b in sorted(orthogonal[a])
        if b > a
        for c in sorted(orthogonal[a] & orthogonal[b])
        if c > b
    ]

    covers = []
    chosen = []
    uncovered = set(range(n))

    def extend():
        if not uncovered:
            covers.append(tuple(chosen))
            return
        lowest = min(uncovered)
        for tri in triangles:
            if lowest in tri and uncovered.issuperset(tri):
                chosen.append(tri)
                uncovered.difference_update(tri)
                extend()
                uncovered.update(tri)
                chosen.pop()

    extend()
    if not covers:
        raise PartitionError("no partition into orthonormal triples exists")
    best = min(covers)
    return tuple(best), len(covers)


def _distinct_images(rep: Representation, seed):
    """(coords, element index) of each distinct image of `seed` (within
    MATCH_TOL), in group-element order; the first occurrence wins."""
    images = []
    for k in range(rep.group.order):
        w = rep[k] @ seed
        if not any(np.linalg.norm(w - u) < MATCH_TOL for u, _ in images):
            images.append((w, k))
    return images


def generate_orbit(rep: Representation, seed) -> Orbit:
    """Apply every group element to a unit seed and label the orbit.

    Distinct images (within MATCH_TOL) are collected in group-element
    order, so each orbit vector records the smallest element index mapping
    the seed onto it.  A full-size orbit is partitioned into orthonormal
    triples; triples are ordered by their smallest element index, and the
    outcome index within a triple follows element order as well.

    Raises DegenerateOrbitError when the seed has a stabilizer (fewer than
    |G| distinct images) and PartitionError when no triple partition
    exists.
    """
    seed = np.asarray(seed, dtype=float)
    if abs(np.linalg.norm(seed) - 1.0) > 1e-9:
        raise ValueError("seed must be a unit vector")
    reps = _distinct_images(rep, seed)
    if len(reps) < rep.group.order:
        raise DegenerateOrbitError(len(reps))

    triples, count = partition_into_bases([u for u, _ in reps])
    vectors = []
    for pos, tri in enumerate(triples):
        for alpha, idx in enumerate(tri):
            coords, element = reps[idx]
            vectors.append(OrbitVector(coords, element, pos + 1, alpha))
    return Orbit(seed, tuple(vectors), rep.group, count)


def match_reference_labels(orbit: Orbit) -> Orbit:
    """Relabel an orbit so its (basis, outcome) labels follow the bundled table.

    Every orbit vector must sit within MATCH_TOL of exactly one table
    entry and the assignment must be a bijection; otherwise
    TableMismatchError is raised.
    """
    assignment = {}
    for v in orbit.vectors:
        hits = [
            lab
            for lab, ref in tables.ORBIT_TABLE.items()
            if np.linalg.norm(ref - v.coords) < MATCH_TOL
        ]
        if len(hits) != 1:
            raise tables.TableMismatchError(
                f"orbit vector with element {v.element} matches {len(hits)} table entries"
            )
        assignment[v.label] = hits[0]
    if len(set(assignment.values())) != len(orbit.vectors):
        raise tables.TableMismatchError("table labels not assigned bijectively")

    relabeled = sorted(
        (
            OrbitVector(v.coords, v.element, *assignment[v.label])
            for v in orbit.vectors
        ),
        key=lambda v: v.label,
    )
    return Orbit(orbit.seed, tuple(relabeled), orbit.group, orbit.partition_count)


def tetrahedron_orbit(rep: Representation) -> np.ndarray:
    """The four distinct images of (1, 0, 0): vertices of a regular tetrahedron.

    Pairwise dot products are all -1/3.  Returned in group-element order of
    first occurrence.
    """
    seed = np.zeros(rep.dim)
    seed[0] = 1.0
    arr = np.array([w for w, _ in _distinct_images(rep, seed)])
    arr.setflags(write=False)
    return arr


def canonical_orbit(rep: Representation) -> Orbit:
    """The bundled-seed orbit, labeled to follow the reference table."""
    return match_reference_labels(generate_orbit(rep, tables.CANONICAL_SEED))


def all_labels():
    """All 24 (basis, outcome) labels in canonical order."""
    return tuple(itertools.product(range(1, N_SETTINGS + 1), range(N_OUTCOMES)))
