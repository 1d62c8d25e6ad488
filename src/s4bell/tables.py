"""Bundled numeric tables for the S4 construction.

Everything in here is static reference data: the reflection matrices
generating the standard three-dimensional representation, the orthogonal
change of basis that block-diagonalizes its tensor square, the canonical
labeled 24-vector orbit, and the three built-in three-orbit cases together
with their published two-decimal reference values.

All entries are short closed-form expressions in sqrt(2), sqrt(3), sqrt(6),
evaluated to double precision at import time.  Library computations never
read these tables except through explicit validation and labeling helpers;
they exist so that derived quantities can be checked against fixed targets.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def _locked(rows):
    arr = np.array(rows, dtype=float)
    arr.setflags(write=False)
    return arr


class TableMismatchError(RuntimeError):
    """A computed object disagrees with a bundled reference table."""


# ---------------------------------------------------------------------------
# Reflection matrices of the six transpositions, keyed by the (1-based)
# swapped points.  Each is the reflection in the symmetry plane of the
# regular tetrahedron orthogonal to the edge joining the two vertices.
# ---------------------------------------------------------------------------

TRANSPOSITION_MATRICES = {
    (1, 2): _locked([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.0, 0.0, -1.0]]),
    (1, 3): _locked([[1.0, 0.0, 0.0],
                     [0.0, -0.5, -SQRT3 / 2],
                     [0.0, -SQRT3 / 2, 0.5]]),
    (1, 4): _locked([[-1 / 3, -SQRT2 / 3, -SQRT6 / 3],
                     [-SQRT2 / 3, 5 / 6, -SQRT3 / 6],
                     [-SQRT6 / 3, -SQRT3 / 6, 0.5]]),
    (2, 3): _locked([[1.0, 0.0, 0.0],
                     [0.0, -0.5, SQRT3 / 2],
                     [0.0, SQRT3 / 2, 0.5]]),
    (2, 4): _locked([[-1 / 3, -SQRT2 / 3, SQRT6 / 3],
                     [-SQRT2 / 3, 5 / 6, SQRT3 / 6],
                     [SQRT6 / 3, SQRT3 / 6, 0.5]]),
    (3, 4): _locked([[-1 / 3, 2 * SQRT2 / 3, 0.0],
                     [2 * SQRT2 / 3, 1 / 3, 0.0],
                     [0.0, 0.0, 1.0]]),
}

# Vertices of the regular tetrahedron, the (degenerate, size 4) orbit of
# the unit vector along the first axis.
TETRAHEDRON = _locked([
    [-1 / 3, -SQRT2 / 3, -SQRT6 / 3],
    [-1 / 3, -SQRT2 / 3, SQRT6 / 3],
    [-1 / 3, 2 * SQRT2 / 3, 0.0],
    [1.0, 0.0, 0.0],
])

# ---------------------------------------------------------------------------
# Orthogonal 9x9 matrix taking the product basis of the tensor square to
# coordinates in which the four isotypic blocks are explicit.  Rows are
# grouped 3 + 3 + 2 + 1 in the component order below.
# ---------------------------------------------------------------------------

_I2 = 1 / SQRT2
_I3 = 1 / SQRT3
_I6 = 1 / SQRT6

BLOCK_BASIS = _locked([
    [math.sqrt(2 / 3), 0, 0, 0, -_I6, 0, 0, 0, -_I6],
    [0, -_I6, 0, -_I6, _I3, 0, 0, 0, -_I3],
    [0, 0, -_I6, 0, 0, -_I3, -_I6, -_I3, 0],
    [0, _I2, 0, -_I2, 0, 0, 0, 0, 0],
    [0, 0, _I2, 0, 0, 0, -_I2, 0, 0],
    [0, 0, 0, 0, 0, _I2, 0, -_I2, 0],
    [0, _I3, 0, _I3, _I6, 0, 0, 0, -_I6],
    [0, 0, _I3, 0, 0, -_I6, _I3, -_I6, 0],
    [_I3, 0, 0, 0, _I3, 0, 0, 0, _I3],
])

# Component labels: the standard irrep, its sign twist, the two-dimensional
# irrep and the trivial (scalar) one, with the matching BLOCK_BASIS rows.
COMPONENT_ORDER = ("D", "Dt", "D2", "D0")
COMPONENT_DIMS = {"D": 3, "Dt": 3, "D2": 2, "D0": 1}
GROUP_ORDER = 24  # |S4|, the order every group average divides by
BLOCK_ROWS = {"D": (0, 1, 2), "Dt": (3, 4, 5), "D2": (6, 7), "D0": (8,)}

# ---------------------------------------------------------------------------
# The canonical labeled orbit: 24 unit vectors x(i, alpha) forming eight
# orthonormal triples (one measurement basis per i).  Keys are
# (basis i in 1..8, outcome alpha in 0..2).
# ---------------------------------------------------------------------------

_R2, _R3, _R6 = SQRT2, SQRT3, SQRT6

ORBIT_TABLE = {
    (1, 0): _locked([_R3 / 3, _R3 / 3, -_R3 / 3]),
    (1, 1): _locked([_R3 / 3, (1 - _R3 / 3) / 2, (1 + _R3 / 3) / 2]),
    (1, 2): _locked([_R3 / 3, -(1 + _R3 / 3) / 2, -(1 - _R3 / 3) / 2]),
    (2, 0): _locked([(-3 * _R2 - _R3 - _R6) / 9, (-3 + 5 * _R3 - 2 * _R6) / 18,
                     (-1 - 2 * _R2 + _R3) / 6]),
    (2, 1): _locked([(-_R3 + 2 * _R6) / 9, (9 - _R3 - 2 * _R6) / 18,
                     -(1 + 2 * _R2 + _R3) / 6]),
    (2, 2): _locked([(3 * _R2 - _R3 - _R6) / 9, -(3 + 2 * _R3 + _R6) / 9,
                     (1 - _R2) / 3]),
    (3, 0): _locked([(3 * _R2 - _R3 - _R6) / 9, (3 + 5 * _R3 - 2 * _R6) / 18,
                     (1 + 2 * _R2 + _R3) / 6]),
    (3, 1): _locked([(-_R3 + 2 * _R6) / 9, -(9 + _R3 + 2 * _R6) / 18,
                     (1 + 2 * _R2 - _R3) / 6]),
    (3, 2): _locked([-(3 * _R2 + _R3 + _R6) / 9, (3 - 2 * _R3 - _R6) / 9,
                     (-1 + _R2) / 3]),
    (4, 0): _locked([(3 * _R2 - _R3 - _R6) / 9, (3 - _R3 + 4 * _R6) / 18,
                     (3 + _R3) / 6]),
    (4, 1): _locked([(-_R3 + 2 * _R6) / 9, (_R3 + 2 * _R6) / 9, -_R3 / 3]),
    (4, 2): _locked([-(3 * _R2 + _R3 + _R6) / 9, (-3 - _R3 + 4 * _R6) / 18,
                     (-3 + _R3) / 6]),
    (5, 0): _locked([(-_R3 + 2 * _R6) / 9, (9 - _R3 - 2 * _R6) / 18,
                     (1 + 2 * _R2 + _R3) / 6]),
    (5, 1): _locked([-(3 * _R2 + _R3 + _R6) / 9, (-3 + 5 * _R3 - 2 * _R6) / 18,
                     (1 + 2 * _R2 - _R3) / 6]),
    (5, 2): _locked([(3 * _R2 - _R3 - _R6) / 9, -(3 + 2 * _R3 + _R6) / 9,
                     (-1 + _R2) / 3]),
    (6, 0): _locked([-(3 * _R2 + _R3 + _R6) / 9, (-3 - _R3 + 4 * _R6) / 18,
                     (3 - _R3) / 6]),
    (6, 1): _locked([(3 * _R2 - _R3 - _R6) / 9, (3 - _R3 + 4 * _R6) / 18,
                     -(3 + _R3) / 6]),
    (6, 2): _locked([(-_R3 + 2 * _R6) / 9, (_R3 + 2 * _R6) / 9, _R3 / 3]),
    (7, 0): _locked([(3 * _R2 - _R3 - _R6) / 9, (3 + 5 * _R3 - 2 * _R6) / 18,
                     -(1 + 2 * _R2 + _R3) / 6]),
    (7, 1): _locked([(-_R3 + 2 * _R6) / 9, -(9 + _R3 + 2 * _R6) / 18,
                     (-1 - 2 * _R2 + _R3) / 6]),
    (7, 2): _locked([-(3 * _R2 + _R3 + _R6) / 9, (3 - 2 * _R3 - _R6) / 9,
                     (1 - _R2) / 3]),
    (8, 0): _locked([_R3 / 3, -(1 + _R3 / 3) / 2, (1 - _R3 / 3) / 2]),
    (8, 1): _locked([_R3 / 3, (1 - _R3 / 3) / 2, -(1 + _R3 / 3) / 2]),
    (8, 2): _locked([_R3 / 3, _R3 / 3, _R3 / 3]),
}

ORBIT_LABELS = tuple(sorted(ORBIT_TABLE))

# The table's vectors as one read-only (24, 3) array, row k holding label ORBIT_LABELS[k]:
# the row order of a labeled orbit (orbit.all_labels()).
ORBIT_POINTS = _locked([ORBIT_TABLE[lab] for lab in ORBIT_LABELS])

# Seed whose orbit the table above labels.
CANONICAL_SEED = ORBIT_TABLE[(1, 0)]

# ---------------------------------------------------------------------------
# Built-in cases: three orbits each, Alice always seeded at x(1, 0).
# Pairs are ((alice basis, alice outcome), (bob basis, bob outcome)).
# ---------------------------------------------------------------------------

CASE_PAIRS = {
    "I": (((1, 0), (4, 1)), ((1, 0), (7, 0)), ((1, 0), (5, 1))),
    "II": (((1, 0), (3, 2)), ((1, 0), (6, 1)), ((1, 0), (1, 0))),
    "III": (((1, 0), (5, 2)), ((1, 0), (4, 1)), ((1, 0), (8, 1))),
}

CASE_NAMES = ("I", "II", "III")

# Two-decimal reference values for the scalar-component eigenvalue of each
# single-orbit operator (these are truncated, not rounded: the exact value
# for case III's first orbit is 3.35512).
REF_SCALAR_EIGENVALUES = {
    "I": (7.40, 4.57, 4.12),
    "II": (5.21, 5.30, 8.00),
    "III": (3.35, 7.40, 6.63),
}

# Published maximal eigenvalue of each summed three-orbit operator, kept as
# published.  The case III entry equals the sum of the truncated per-orbit
# values above (3.35 + 7.40 + 6.63 = 17.38), while the exact maximal
# eigenvalue is 17.39147 (SUM_EIGENVALUE_ERRATA below), so verification
# reports that single comparison as a mismatch.
REF_SUM_EIGENVALUE = {"I": 16.09, "II": 18.51, "III": 17.38}

# Exact maximal eigenvalue for each case whose published entry above is
# wrong.  For case III the summed operator's top eigenvalue is its
# scalar-component sum 752/81 + (32 sqrt2 + 16 sqrt3)/9 = 17.3914669...,
# which truncates and rounds to 17.39, not to the published 17.38; the
# surd derivation is test_case_iii_sum_eigenvalue_exact in
# tests/test_quantum.py.
SUM_EIGENVALUE_ERRATA = {"III": 752 / 81 + (32 * SQRT2 + 16 * SQRT3) / 9}

# Upper bounds on the probability sums under any joint distribution.
REF_CLASSICAL_BOUND = {"I": 16, "II": 18, "III": 16}

# Number of deterministic configurations per coefficient value c = 1..20
# (out of 3**16 = 43 046 721 total; the count at c = 0 is the remainder).
REF_COEFFICIENT_COUNTS = {
    "I": (12960, 159408, 645408, 1729188, 3479760, 5424408, 6896016,
          7261569, 6410016, 4866480, 3176496, 1758348, 808704, 311040,
          90720, 15876, 0, 0, 0, 0),
    "II": (9720, 126576, 510480, 1514862, 3182904, 5374584, 7139664,
           7822791, 6903648, 5058216, 3006000, 1506186, 613800, 208008,
           55584, 11673, 1656, 144, 0, 0),
    "III": (18360, 115596, 474696, 1445778, 3286224, 5510160, 7178976,
            7670547, 6795936, 5012208, 3087504, 1567458, 638280, 196812,
            41400, 4761, 0, 0, 0, 0),
}

# Winning configurations of the case I game, keyed by (s, t) with the set
# of winning (a, b) answers.
REF_WINNING_TABLE_I = {
    (1, 4): frozenset({(0, 1), (1, 0), (2, 2)}),
    (1, 5): frozenset({(0, 1), (1, 0), (2, 2)}),
    (1, 7): frozenset({(0, 0), (1, 2), (2, 1)}),
    (2, 4): frozenset({(0, 2), (1, 1), (2, 0)}),
    (2, 5): frozenset({(0, 1), (1, 0), (2, 2)}),
    (2, 8): frozenset({(0, 2), (1, 1), (2, 0)}),
    (3, 4): frozenset({(0, 0), (1, 1), (2, 2)}),
    (3, 7): frozenset({(0, 0), (1, 1), (2, 2)}),
    (3, 8): frozenset({(0, 2), (1, 0), (2, 1)}),
    (4, 1): frozenset({(0, 1), (1, 0), (2, 2)}),
    (4, 2): frozenset({(0, 2), (1, 1), (2, 0)}),
    (4, 3): frozenset({(0, 0), (1, 1), (2, 2)}),
    (5, 1): frozenset({(0, 1), (1, 0), (2, 2)}),
    (5, 2): frozenset({(0, 1), (1, 0), (2, 2)}),
    (5, 6): frozenset({(0, 2), (1, 0), (2, 1)}),
    (6, 5): frozenset({(0, 1), (1, 2), (2, 0)}),
    (6, 7): frozenset({(0, 2), (1, 0), (2, 1)}),
    (6, 8): frozenset({(0, 0), (1, 1), (2, 2)}),
    (7, 1): frozenset({(0, 0), (1, 2), (2, 1)}),
    (7, 3): frozenset({(0, 0), (1, 1), (2, 2)}),
    (7, 6): frozenset({(0, 1), (1, 2), (2, 0)}),
    (8, 2): frozenset({(0, 2), (1, 1), (2, 0)}),
    (8, 3): frozenset({(0, 1), (1, 2), (2, 0)}),
    (8, 6): frozenset({(0, 0), (1, 1), (2, 2)}),
}

# Reference winning probability of the quantum strategy in case I.
REF_QUANTUM_WIN_I = 0.2514
