"""Quantum bounds: group-averaged projector sums and their spectra.

For a pair of unit seeds (phi, psi) the operator of interest is the sum
over the group of rank-one projectors onto D(g)phi (x) D(g)psi.  Averaging
over the group makes the operator scalar on each isotypic component of the
tensor square, so its spectrum can be written down componentwise:

    lambda_s = (|G| / d_s) * ||P_s (phi (x) psi)||^2

with P_s the component projector and d_s the component dimension, kept
as arrays in the order of tables.COMPONENT_ORDER; component labels appear
only in rendered reports.  The same spectrum is computed a second,
independent way by cyclic Jacobi diagonalization of the assembled 9x9
matrix; the two routes cross-check each other.  The Jacobi rotations run
on Python floats, in the order and with the arithmetic of the former
numpy-slice version, so its eigenvalues and eigenvectors are unchanged to
the last bit.

Several orbit pairs are combined by summing their operators.  Every pair
operator is sum_s lambda_s P_s over the same four projectors, so the sum
has the componentwise sums as eigenvalues and `scan` ranks by the largest.
`max_eigenvalue_sum` (analyze, game, verify) diagonalizes the summed matrix
instead and checks that every componentwise sum appears in its spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .context import Context
from .orbit import OrbitPair
from .representation import EPS, Representation

__all__ = [
    "EIG_TOL",
    "build_x_operator",
    "jacobi_eigh",
    "eigenvalues_direct",
    "eigenvalues_isotypic",
    "max_eigenvalue_sum",
    "SumSpectrum",
]

# Tolerance for agreement between independently computed eigenvalues.
EIG_TOL = 1e-6
# Jacobi stops once the off-diagonal norm is below JACOBI_TOL times the
# matrix norm; MAX_SWEEPS is far more than the quadratic convergence ever
# needs at these sizes.
JACOBI_TOL = 1e-12
MAX_SWEEPS = 100
# |G| / d_s per component, in the order of tables.COMPONENT_ORDER.
_SCALE = np.array([tables.GROUP_ORDER / tables.COMPONENT_DIMS[c] for c in tables.COMPONENT_ORDER])


def _seed_product(phi, psi):
    """phi (x) psi, entry by entry as np.kron; ValueError unless both are finite 3-vectors."""
    try:
        phi, psi = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
        if phi.shape == psi.shape == (3,) and np.isfinite([phi, psi]).all():
            return np.multiply.outer(phi, psi).ravel()
    except (TypeError, ValueError):
        pass
    raise ValueError("phi and psi must be finite 3-vectors")


def build_x_operator(phi, psi, product: Representation) -> np.ndarray:
    """Sum of rank-one projectors onto the orbit of phi (x) psi, read-only.

    The outer products of the orbit images are added in group order.
    """
    w = product.matrices @ _seed_product(phi, psi)
    x = np.add.reduce(w[:, :, None] * w[:, None, :], axis=0)
    x.setflags(write=False)
    return x


def jacobi_eigh(matrix):
    """Eigen-decomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Rotations run over the strict upper triangle in row order until the
    off-diagonal Frobenius norm drops below JACOBI_TOL relative to the
    matrix norm, for at most MAX_SWEEPS sweeps.  Every matrix diagonalized
    in the package passes here, so this is where input is checked: a
    matrix that is not square, not finite or not symmetric to within EPS
    raises ValueError.

    The rotations run on Python floats, row lists of the matrix and of the
    accumulated eigenvectors, because a 9x9 rotation is too small for numpy
    slices to pay off.  Each element gets the same IEEE operations, in the
    same order, as a numpy version that rotates columns of the matrix, then
    its rows, then the columns of the eigenvectors, so the results are
    bit-identical to it.  Unlike numpy scalars, Python floats overflow to
    inf without a warning; the rotation angle then comes out as zero.

    Returns (eigenvalues descending, eigenvectors as matching columns).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if (np.abs(a - a.T) > EPS).any():
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    rows = a.tolist()
    vecs = np.eye(n).tolist()
    scale = max(1.0, float(np.linalg.norm(a)))

    def offnorm():
        return math.sqrt(2.0 * float(np.sum(np.triu(np.array(rows), 1) ** 2)))

    for _ in range(MAX_SWEEPS):
        if offnorm() <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if apq == 0.0:
                    continue
                # Symmetric Schur rotation annihilating a[p, q], taking the
                # smaller of the two candidate angles for stability.
                tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # Columns p, q of a, then its rows p, q, then columns p, q
                # of the accumulated eigenvectors.
                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                row_p, row_q = rows[p], rows[q]
                rows[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
                rows[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
                for row in vecs:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    if offnorm() > JACOBI_TOL * scale:
        raise RuntimeError("Jacobi iteration did not converge")
    # reshape keeps a 0x0 input two-dimensional for np.diag
    values = np.diag(np.array(rows).reshape(n, n))
    order = np.argsort(values)[::-1]
    return values[order], np.array(vecs).reshape(n, n)[:, order]


def eigenvalues_direct(matrix):
    """All eigenvalues of a symmetric matrix, sorted descending, together
    with the eigenvector of the largest one."""
    values, vectors = jacobi_eigh(matrix)
    return values, vectors[:, 0]


def eigenvalues_isotypic(phi, psi, projectors: np.ndarray) -> np.ndarray:
    """Componentwise eigenvalues (|G|/d_s) ||P_s (phi (x) psi)||^2.

    Returned as a (4,) array in the order of tables.COMPONENT_ORDER, the
    order of `projectors`.  The scalar component comes out as
    8 (phi . psi)^2 for unit inputs.
    """
    w = _seed_product(phi, psi)
    return _SCALE * np.array([float(np.dot(p @ w, w)) for p in projectors])


@dataclass(frozen=True, eq=False)
class SumSpectrum:
    """Spectral data of a sum of orbit-pair operators."""

    lambda_max: float
    eigenvector: np.ndarray
    spectrum: np.ndarray  # all eigenvalues, descending, with multiplicity
    per_pair: np.ndarray  # (pairs, 4) eigenvalues, columns in tables.COMPONENT_ORDER
    component_sums: np.ndarray  # (4,) column sums of per_pair

    def as_dict(self):
        labels = tables.COMPONENT_ORDER
        return {
            "lambda_max": self.lambda_max,
            "eigenvector": [float(x) for x in self.eigenvector],
            "spectrum": [float(x) for x in self.spectrum],
            "component_sums": {k: float(v) for k, v in zip(labels, self.component_sums)},
            "per_pair": [
                [{"label": lab, "dim": tables.COMPONENT_DIMS[lab], "eigenvalue": float(val)}
                 for lab, val in zip(labels, row)]
                for row in self.per_pair
            ],
        }


def max_eigenvalue_sum(pairs, ctx: Context) -> SumSpectrum:
    """Assemble the summed operator for labeled orbit pairs and diagonalize it.

    The componentwise sums of the per-pair eigenvalues must reappear in the
    directly computed spectrum (to within EIG_TOL); a violation means the
    two routes disagree and raises RuntimeError.
    """
    pairs = tuple(p if isinstance(p, OrbitPair) else OrbitPair(*p) for p in pairs)
    if not pairs:
        raise ValueError("need at least one orbit pair")
    total = np.zeros((ctx.product.dim, ctx.product.dim))
    per_pair = []
    for pair in pairs:
        phi = ctx.orbit.coords(*pair.alice)
        psi = ctx.orbit.coords(*pair.bob)
        total += build_x_operator(phi, psi, ctx.product)
        per_pair.append(eigenvalues_isotypic(phi, psi, ctx.projectors))
    per_pair = np.array(per_pair)
    # Python's sum adds the rows in pair order; numpy's pairwise summation
    # would regroup them and could change the last bit.
    sums = sum(per_pair)

    values, vectors = jacobi_eigh(total)
    for label, value in zip(tables.COMPONENT_ORDER, sums):
        if not np.abs(values - value).min() <= EIG_TOL:
            raise RuntimeError(
                f"componentwise sum for {label} ({value:.9f}) missing from spectrum"
            )
    return SumSpectrum(
        lambda_max=float(values[0]),
        eigenvector=vectors[:, 0].copy(),
        spectrum=values,
        per_pair=per_pair,
        component_sums=sums,
    )
