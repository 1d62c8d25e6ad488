"""Orthogonal matrix representations of S4 and the isotypic split of D (x) D.

The standard three-dimensional representation D is assembled from the six
bundled reflection matrices: every group element is factored into adjacent
transpositions by bubble-sorting its one-line form, and the corresponding
reflections are multiplied in order.  Correctness does not rest on the
factorization itself; the homomorphism property is checked over all element
pairs by the test suite.

The tensor square splits into four inequivalent irreducible components
(dimensions 3, 3, 2, 1).  Projectors onto the components are built from
characters by group averaging, with the characters derived on the spot:
the standard character is read off the constructed matrices, its sign
twist likewise, the trivial character is 1, and the two-dimensional one is
whatever remains of the product character.  The bundled change-of-basis
matrix is used only to validate the result, never to produce it.
"""

from dataclasses import dataclass

import numpy as np

from . import tables
from .permgroup import GroupTable

__all__ = [
    "EPS",
    "Representation",
    "RepresentationError",
    "DecompositionError",
    "IsotypicComponent",
    "IsotypicDecomposition",
    "build_standard_rep",
    "alternating_twist",
    "tensor_product",
    "character",
    "isotypic_projectors",
    "validate_block_basis",
]

# Tolerance for matrix identities (orthogonality, homomorphism, projector
# algebra).  All entries are low-degree surd expressions carried in double
# precision, so accumulated error stays far below this.
EPS = 1e-9


class RepresentationError(RuntimeError):
    """A representation failed one of its defining identities."""


class DecompositionError(RuntimeError):
    """The isotypic projectors do not have the expected dimensions."""


@dataclass(frozen=True)
class Representation:
    """Matrices of a representation, aligned with the group's element order.

    `matrices` is stored as one read-only (order, d, d) array, so a sum over
    the group can be a single stacked product.
    """

    group: GroupTable
    matrices: np.ndarray

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=float)
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != self.group.order:
            raise ValueError("one matrix per group element required")
        if not np.array_equal(mats[0], np.eye(self.dim)):
            raise RepresentationError("identity element must map to the identity matrix")

    @property
    def dim(self):
        return self.matrices.shape[1]

    def __getitem__(self, k):
        return self.matrices[k]


def _adjacent_factorization(images):
    """Swap positions that bubble-sort the one-line form.

    Swapping entries j, j+1 multiplies on the right by the adjacent
    transposition (j, j+1), so if the recorded swaps are j1, ..., jm then
    p = s_jm o ... o s_j1 and the matrix of p is the product of the
    reflection matrices in that order.
    """
    arr = list(images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps.append(j)
                changed = True
    return swaps


def build_standard_rep(group: GroupTable) -> Representation:
    """The standard three-dimensional representation of S4."""
    if group.degree != 4 or group.order != 24:
        raise ValueError("expected the full symmetric group on 4 points")
    adjacent = {j: tables.TRANSPOSITION_MATRICES[(j + 1, j + 2)] for j in range(3)}
    mats = []
    for p in group:
        m = np.eye(3)
        for j in _adjacent_factorization(p.images):
            m = adjacent[j] @ m
        mats.append(m)
    return Representation(group, tuple(mats))


def alternating_twist(rep: Representation) -> Representation:
    """Multiply each matrix by the sign of its element."""
    mats = tuple(p.sign() * rep[k] for k, p in enumerate(rep.group))
    return Representation(rep.group, mats)


def tensor_product(rep_a: Representation, rep_b: Representation) -> Representation:
    """Pointwise Kronecker product of two representations of the same group."""
    if rep_a.group is not rep_b.group and rep_a.group != rep_b.group:
        raise ValueError("representations live on different groups")
    mats = tuple(np.kron(rep_a[k], rep_b[k]) for k in range(rep_a.group.order))
    return Representation(rep_a.group, mats)


def character(rep: Representation) -> dict:
    """Trace of the representation as a function of cycle type.

    Raises RepresentationError if the trace is not constant on a conjugacy
    class to within EPS, which would mean the matrices are corrupt.
    """
    out = {}
    for ct, indices in rep.group.conjugacy_classes.items():
        traces = [float(np.trace(rep[k])) for k in indices]
        if max(traces) - min(traces) > EPS:
            raise RepresentationError(f"character not constant on class {ct}: {traces}")
        out[ct] = traces[0]
    return out


@dataclass(frozen=True)
class IsotypicComponent:
    label: str
    dim: int
    projector: np.ndarray


@dataclass(frozen=True)
class IsotypicDecomposition:
    """Projectors onto the four isotypic components of the tensor square."""

    components: tuple
    group_order: int

    def component(self, label):
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(label)


def isotypic_projectors(product: Representation,
                        standard: Representation) -> IsotypicDecomposition:
    """Component projectors of the tensor square of the standard rep.

    Each projector is the group average (d_s / |G|) sum_g chi_s(g) M(g)
    over the product matrices M(g).  Projector traces must come out as the
    component dimensions 3, 3, 2, 1 (each component appears exactly once);
    anything else signals a wrong character table and raises.
    """
    group = product.group
    chi_std = character(standard)
    chi = {
        "D": chi_std,
        "Dt": character(alternating_twist(standard)),
        "D0": {ct: 1.0 for ct in chi_std},
    }
    chi["D2"] = {
        ct: chi_std[ct] ** 2 - chi["D"][ct] - chi["Dt"][ct] - chi["D0"][ct]
        for ct in chi_std
    }

    class_of = {}
    for ct, indices in group.conjugacy_classes.items():
        for k in indices:
            class_of[k] = ct

    components = []
    dim2 = product.dim
    for label in tables.COMPONENT_ORDER:
        d_s = tables.COMPONENT_DIMS[label]
        acc = np.zeros((dim2, dim2))
        for k in range(group.order):
            acc += chi[label][class_of[k]] * product[k]
        proj = (d_s / group.order) * acc
        trace = float(np.trace(proj))
        if abs(trace - d_s) > EPS:
            raise DecompositionError(
                f"projector trace for {label} is {trace:.6f}, expected {d_s}"
            )
        proj.setflags(write=False)
        components.append(IsotypicComponent(label, d_s, proj))
    return IsotypicDecomposition(tuple(components), group.order)


def validate_block_basis(decomposition: IsotypicDecomposition) -> dict:
    """Check the projectors against the bundled change-of-basis matrix.

    The bundled matrix must be orthogonal, and conjugating each projector
    by it must give the 0/1 indicator of that component's coordinate block
    (rows grouped 3 + 3 + 2 + 1).  Returns the observed deviations; raises
    TableMismatchError if any exceeds EPS.
    """
    basis = tables.BLOCK_BASIS
    report = {"orthogonality": float(np.abs(basis @ basis.T - np.eye(9)).max())}
    for comp in decomposition.components:
        indicator = np.zeros((9, 9))
        for r in tables.BLOCK_ROWS[comp.label]:
            indicator[r, r] = 1.0
        dev = float(np.abs(basis @ comp.projector @ basis.T - indicator).max())
        report[comp.label] = dev
    worst = max(report.values())
    if worst > EPS:
        raise tables.TableMismatchError(
            f"block basis validation failed, worst deviation {worst:.3e}: {report}"
        )
    return report
