"""Orthogonal matrix representations of S4 and the isotypic split of D (x) D.

The group is the (24, 4) array of one-line images from
`permgroup.symmetric_group(4)`, and matrix k belongs to row k.  The
standard three-dimensional representation D is assembled from the six
bundled reflection matrices: every group element is factored into adjacent
transpositions by bubble-sorting its one-line form, and the corresponding
reflections are multiplied in order.  Correctness does not rest on the
factorization itself; the homomorphism property is checked over all element
pairs by the test suite.

The tensor square splits into four inequivalent irreducible components
(dimensions 3, 3, 2, 1).  Projectors onto the components are built from
characters by group averaging, with the characters derived on the spot:
the standard character is read off the constructed matrices, the sign
twist's is sign(g) times it, the trivial one is 1, and the two-dimensional
one is whatever remains of the product character.  The projectors are one
(4, 9, 9) array in the order of tables.COMPONENT_ORDER; the labels and
dimensions stay in `tables`.  The bundled change-of-basis matrix is used
only to validate the result, never to produce it.
"""

from dataclasses import dataclass

import numpy as np

from . import tables
from .permgroup import conjugacy_classes, sign

__all__ = [
    "EPS",
    "Representation",
    "RepresentationError",
    "DecompositionError",
    "build_standard_rep",
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


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrices of a representation, aligned with the rows of the group array.

    `matrices` is stored as one read-only (order, d, d) array, so a sum over
    the group can be a single stacked product.  Complex or non-finite
    entries raise RepresentationError.
    """

    group: np.ndarray  # (order, degree) one-line images
    matrices: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.matrices):  # checked first: the cast would drop the imaginary part
            raise RepresentationError("matrix entries must be finite and real")
        mats = np.array(self.matrices, dtype=float)
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != len(self.group):
            raise ValueError("one matrix per group element required")
        if not np.isfinite(mats).all():
            raise RepresentationError("matrix entries must be finite")
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


def build_standard_rep(group: np.ndarray) -> Representation:
    """The standard three-dimensional representation of S4."""
    if np.shape(group) != (24, 4):
        raise ValueError("expected the full symmetric group on 4 points")
    adjacent = {j: tables.TRANSPOSITION_MATRICES[(j + 1, j + 2)] for j in range(3)}
    mats = []
    for p in group:
        m = np.eye(3)
        for j in _adjacent_factorization(p):
            m = np.einsum("ij,jk->ik", adjacent[j], m)  # no BLAS: the same bits on any kernel
        mats.append(m)
    return Representation(group, tuple(mats))


def tensor_product(rep_a: Representation, rep_b: Representation) -> Representation:
    """Pointwise Kronecker product of two representations of the same group."""
    if not np.array_equal(rep_a.group, rep_b.group):
        raise ValueError("representations live on different groups")
    a, b = rep_a.matrices, rep_b.matrices
    mats = np.einsum("gij,gkl->gikjl", a, b).reshape(len(a), a.shape[1] * b.shape[1], -1)
    return Representation(rep_a.group, mats)


def character(rep: Representation) -> dict:
    """Trace of the representation as a function of cycle type.

    Raises RepresentationError if the trace is not constant on a conjugacy
    class to within EPS, which would mean the matrices are corrupt.
    """
    out = {}
    for ct, indices in conjugacy_classes(rep.group).items():
        traces = [float(np.trace(rep[k])) for k in indices]
        if max(traces) - min(traces) > EPS:
            raise RepresentationError(f"character not constant on class {ct}: {traces}")
        out[ct] = traces[0]
    return out


def isotypic_projectors(product: Representation, standard: Representation) -> np.ndarray:
    """Component projectors of the tensor square of the standard rep.

    Returns one read-only (4, 9, 9) array whose row s projects onto
    component tables.COMPONENT_ORDER[s].  Each projector is the group
    average (d_s / |G|) sum_g chi_s(g) M(g) over the product matrices M(g),
    added in group order.  Projector traces must come out as the component
    dimensions 3, 3, 2, 1 (each component appears exactly once); anything
    else signals a wrong character table and raises.
    """
    group = product.group
    chi_std = character(standard)
    chars = np.empty((len(tables.COMPONENT_ORDER), len(group)))
    for ct, indices in conjugacy_classes(group).items():
        d, d0 = chi_std[ct], 1.0
        dt = sign(group[indices[0]]) * d  # the character of the sign twist
        chi = {"D": d, "Dt": dt, "D2": d ** 2 - d - dt - d0, "D0": d0}
        chars[:, list(indices)] = [[chi[label]] for label in tables.COMPONENT_ORDER]

    dims = np.array([tables.COMPONENT_DIMS[label] for label in tables.COMPONENT_ORDER])
    acc = np.add.reduce(chars[:, :, None, None] * product.matrices, axis=1)
    projectors = (dims / len(group))[:, None, None] * acc
    for label, d_s, proj in zip(tables.COMPONENT_ORDER, dims, projectors):
        trace = float(np.trace(proj))
        if not abs(trace - d_s) <= EPS:
            raise DecompositionError(
                f"projector trace for {label} is {trace:.6f}, expected {d_s}"
            )
    projectors.setflags(write=False)
    return projectors


# Per component, in the order of tables.COMPONENT_ORDER, the 0/1 indicator of its coordinate
# block under the bundled change of basis; and that constant basis's deviation from orthogonality.
_BLOCK_INDICATORS = np.array([np.diag([float(r in tables.BLOCK_ROWS[label]) for r in range(9)])
                              for label in tables.COMPONENT_ORDER])
_ORTHOGONALITY = float(np.abs(tables.BLOCK_BASIS @ tables.BLOCK_BASIS.T - np.eye(9)).max())


def validate_block_basis(projectors: np.ndarray) -> dict:
    """Check the (4, 9, 9) projectors against the bundled change of basis.

    The bundled matrix must be orthogonal, and conjugating each projector
    by it must give the 0/1 indicator of that component's coordinate block
    (rows grouped 3 + 3 + 2 + 1); the four conjugations are one stacked
    product.  Returns the observed deviations; raises TableMismatchError if
    any exceeds EPS or is NaN, and ValueError unless `projectors` is a real (4, 9, 9) array.
    """
    if np.shape(projectors) != (4, 9, 9) or np.iscomplexobj(projectors):
        raise ValueError("projectors must be a real (4, 9, 9) array")
    basis = tables.BLOCK_BASIS
    report = {"orthogonality": _ORTHOGONALITY}
    deviations = np.abs(basis @ projectors @ basis.T - _BLOCK_INDICATORS).max(axis=(1, 2))
    report.update(zip(tables.COMPONENT_ORDER, deviations.tolist()))
    worst = float(np.max(list(report.values())))  # NaN if any deviation is NaN
    if not worst <= EPS:
        raise tables.TableMismatchError(
            f"block basis validation failed, worst deviation {worst:.3e}: {report}"
        )
    return report
