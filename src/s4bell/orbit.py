"""Orbits of seed vectors under the standard representation.

A generic seed has 24 distinct images which split into eight orthonormal
triples; each triple is one measurement basis, so an orbit vector carries a
label (basis i in 1..8, outcome alpha in 0..2) and is stored in the row of
that label in `all_labels()` order.  Each vector is orthogonal to exactly
two others, orthogonal to each other, so the triples are read off directly
and are unique.  Labels follow group-element order or are matched against
the bundled reference table.
"""

import itertools
import operator
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import tables
from .permgroup import product_table
from .representation import EPS, Representation

__all__ = [
    "MATCH_TOL",
    "N_SETTINGS",
    "N_OUTCOMES",
    "OrbitPair",
    "Orbit",
    "DegenerateOrbitError",
    "PartitionError",
    "generate_orbit",
    "partition_into_bases",
    "match_reference_labels",
    "tetrahedron_orbit",
    "canonical_orbit",
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


def _orbit_pairs(pairs):
    """`pairs` as a tuple of `OrbitPair`; ValueError unless each is two valid labels."""
    try:  # OrbitPair raises ValueError for a bad label, and TypeError unless given two
        return tuple(p if isinstance(p, OrbitPair) else OrbitPair(*p) for p in pairs)
    except TypeError:
        raise ValueError("each pair must be two labels") from None


@dataclass(frozen=True, eq=False)
class Orbit:
    """A labeled orbit as read-only arrays in label order.

    Row k of `points` (24, 3) and `elements` (24,) holds label `all_labels()[k]`
    = (k // 3 + 1, k % 3): the image of `seed` under group element `elements[k]`.
    """

    seed: np.ndarray
    points: np.ndarray
    elements: np.ndarray  # rows of `group`
    group: np.ndarray  # (24, 4) one-line images

    def __post_init__(self):
        for name in ("seed", "points", "elements"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def label_action(self):
        """[g, k]: row of the image of points[k] under element g.

        Read off the group product on element indices, which is exact.
        Read-only.  ValueError unless `elements` holds each group row once.
        """
        position = np.argsort(self.elements)  # position[e]: the row of element e
        if not np.array_equal(self.elements[position], np.arange(len(self.group))):
            raise ValueError("elements must hold each group row exactly once")
        action = position[product_table(self.group)[:, self.elements]]
        action.setflags(write=False)
        return action

    @cached_property
    def class_of(self):
        """Read-only [k, m]: the pair class of labels k and m, label g.m for the g taking k to
        x01.  Class c must be the S4 orbit of pair (x01, c), so its term set is S4-invariant."""
        action = self.label_action
        class_of = action[np.argmax(action == 0, axis=0)]
        if not (class_of[action[:, :1], action] == np.arange(len(action))).all():
            raise RuntimeError("a pair class's term set is not S4-invariant")
        class_of.setflags(write=False)
        return class_of

    def coords(self, basis, outcome):
        return self.points[_row(basis, outcome)]

    def element_of(self, basis, outcome):
        return int(self.elements[_row(basis, outcome)])


def partition_into_bases(vectors):
    """Split distinct real unit vectors into mutually orthogonal triples.

    A vector's triple is itself plus the vectors orthogonal to it (dot
    product below EPS in absolute value); it must have exactly three
    pairwise orthogonal members.  Then each partner has the same triple, so
    the triples are disjoint and no other split exists.  Returns the
    distinct triples, each ascending, sorted by smallest index.

    Raises PartitionError naming the first vector whose triple fails.
    """
    arr = np.array([np.asarray(v) for v in vectors])
    n = len(arr)
    if n == 0 or n % 3:
        raise PartitionError(f"cannot split {n} vectors into triples")
    if np.iscomplexobj(arr) or not np.abs(np.linalg.norm(arr, axis=1) - 1.0).max() <= 1e-6:
        raise ValueError("vectors must be real and of unit length")
    arr = arr.astype(float)
    coincide = np.argwhere(np.triu(_close(arr[:, None], arr), 1))
    if len(coincide):
        raise ValueError("vectors {} and {} coincide".format(*coincide[0]))

    orthogonal = np.abs(arr @ arr.T) < EPS
    np.fill_diagonal(orthogonal, True)
    triples = set()
    for a, row in enumerate(orthogonal):
        triple = np.flatnonzero(row)
        if len(triple) != 3 or not orthogonal[np.ix_(triple, triple)].all():
            raise PartitionError(f"vector {a} is not in exactly one orthonormal triple")
        triples.add(tuple(triple.tolist()))
    return tuple(sorted(triples))


def _close(points, x):
    """Mask of the rows of `points` within MATCH_TOL of `x`."""
    return np.linalg.norm(points - x, axis=-1) < MATCH_TOL


def _distinct_images(rep: Representation, seed):
    """(points, element indices) of the distinct images of `seed` (within
    MATCH_TOL), in group-element order; the first occurrence wins."""
    images = np.einsum("gij,j->gi", rep.matrices, seed)  # no BLAS: the same bits on any kernel
    first = np.flatnonzero(~np.tril(_close(images[:, None], images), -1).any(axis=1))
    return images[first], first


def generate_orbit(rep: Representation, seed) -> Orbit:
    """Apply every group element to a real unit seed and label the orbit.

    Distinct images (within MATCH_TOL) are collected in group-element
    order, so each orbit vector records the smallest element index mapping
    the seed onto it.  A full-size orbit is split into its orthonormal
    triples; triples are ordered by their smallest element index, and the
    outcome index within a triple follows element order as well.

    Raises DegenerateOrbitError when the seed has a stabilizer (fewer than
    |G| distinct images) and PartitionError from `partition_into_bases`.
    """
    if np.iscomplexobj(seed) or not abs(np.linalg.norm(seed) - 1.0) <= 1e-9:
        raise ValueError("seed must be a real unit vector")
    seed = np.asarray(seed, dtype=float)
    points, elements = _distinct_images(rep, seed)
    if len(points) < len(rep.group):
        raise DegenerateOrbitError(len(points))

    rows = list(itertools.chain.from_iterable(partition_into_bases(points)))
    return Orbit(seed, points[rows], elements[rows], rep.group)


def match_reference_labels(orbit: Orbit) -> Orbit:
    """Relabel an orbit so its (basis, outcome) labels follow the bundled table.

    Every orbit vector must sit within MATCH_TOL of exactly one table
    entry and the assignment must be a bijection; otherwise
    TableMismatchError is raised; the rows are then put in table-label order.
    """
    hits = _close(orbit.points[:, None], tables.ORBIT_POINTS)
    counts = hits.sum(axis=1)
    if (counts != 1).any():
        k = np.argmax(counts != 1)  # the first failing vector, in row order
        raise tables.TableMismatchError(f"orbit vector with element {orbit.elements[k]} "
                                        f"matches {counts[k]} table entries")
    if (hits.sum(axis=0) != 1).any():
        raise tables.TableMismatchError("table labels not assigned bijectively")

    order = np.argsort(hits.argmax(axis=1))
    return replace(orbit, points=orbit.points[order], elements=orbit.elements[order])


def tetrahedron_orbit(rep: Representation) -> np.ndarray:
    """The four distinct images of (1, 0, 0): vertices of a regular tetrahedron.

    Pairwise dot products are all -1/3.  Returned in group-element order of
    first occurrence.
    """
    seed = np.zeros(rep.dim)
    seed[0] = 1.0
    points, _ = _distinct_images(rep, seed)
    points.setflags(write=False)
    return points


def canonical_orbit(rep: Representation) -> Orbit:
    """The bundled-seed orbit, labeled to follow the reference table."""
    return match_reference_labels(generate_orbit(rep, tables.CANONICAL_SEED))


@cache
def all_labels():
    """All 24 (basis, outcome) labels in canonical order: an orbit's row order; one tuple."""
    return tuple(itertools.product(range(1, N_SETTINGS + 1), range(N_OUTCOMES)))


def _row(basis, outcome):
    """Row of label (basis, outcome) in an orbit; KeyError when out of range."""
    if not (1 <= basis <= N_SETTINGS and 0 <= outcome < N_OUTCOMES):
        raise KeyError((basis, outcome))
    return (basis - 1) * N_OUTCOMES + outcome
