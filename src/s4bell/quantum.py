"""Quantum bounds: group-averaged projector sums and their spectra.

For a pair of unit seeds (phi, psi) the operator of interest is the sum
over the group of rank-one projectors onto D(g)phi (x) D(g)psi.  Averaging
over the group makes the operator scalar on each isotypic component of the
tensor square, so its spectrum can be written down componentwise:

    lambda_s = (|G| / d_s) * ||P_s (phi (x) psi)||^2

with P_s the component projector and d_s the component dimension, kept
as arrays in the order of tables.COMPONENT_ORDER; component labels appear
only in rendered reports.  The same spectrum is computed a second,
independent way by LAPACK's symmetric eigensolver (numpy.linalg.eigh) on
the assembled 9x9 matrix; the two routes cross-check each other.

Each context's `pair_model` (`PairModel`) holds the eigenvalues of the 24
S4 pair classes (the orbit's `class_of`), which each pair of a class
shares, and each pair's operator, made on first read.  A sum of pair
operators, each sum_s lambda_s P_s over the same four projectors, has the
componentwise sums as eigenvalues; `scan` ranks by the largest.
`max_eigenvalue_sum` (analyze, game, verify) prints those sums and, as
eigenvector, P_top's first column of largest norm (within EPS), normalized with
its largest entry positive, P_top summing the projectors attaining lambda_max.
"""

from dataclasses import dataclass

import numpy as np

from . import tables
from .context import Context
from .orbit import OrbitPair, _row
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
# Largest `PairModel.distance` of a pair from its class row: at most 7.1e-15 on the standard
# context, and about 5e-7 for a pair whose orbit point is moved by 1e-7.  Also the distance
# within which a component sum attains lambda_max: over all class multisets of 1-4 orbits,
# equal sums differ by at most 9.8e-15 and unequal ones by at least 0.0035.
CLASS_TOL = 1e-12
_DIMS = [tables.COMPONENT_DIMS[c] for c in tables.COMPONENT_ORDER]
# Per component s, in the order of tables.COMPONENT_ORDER: |G| / d_s, and s once per eigenvalue.
_SCALE, _SPREAD = tables.GROUP_ORDER / np.array(_DIMS), np.repeat(np.arange(4), _DIMS)


def _seed_product(phi, psi):
    """phi (x) psi, entry by entry as np.kron; ValueError unless both are finite real 3-vectors."""
    try:
        if not (np.iscomplexobj(phi) or np.iscomplexobj(psi)):
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
    """Eigen-decomposition of a real symmetric matrix by LAPACK (numpy.linalg.eigh).

    The name is historical: a hand-written cyclic Jacobi solver used to run
    here.  Every matrix diagonalized in the package passes here, so this is
    where input is checked: a matrix that is complex, not square, not finite or
    not symmetric to within EPS raises ValueError.

    Returns (eigenvalues descending, eigenvectors as matching columns).
    """
    if np.iscomplexobj(matrix):
        raise ValueError("matrix must be real")
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if (np.abs(a - a.T) > EPS).any():
        raise ValueError("matrix must be symmetric")
    values, vectors = np.linalg.eigh(a)
    return values[::-1], vectors[:, ::-1]


def eigenvalues_direct(matrix):
    """All eigenvalues of a symmetric matrix, sorted descending, together
    with the eigenvector of the largest one."""
    values, vectors = jacobi_eigh(matrix)
    return values, vectors[:, 0]


def _isotypic(w, projectors):
    """(|G|/d_s) w . P_s w for seed products w of shape (..., 9): shape (..., 4)."""
    return _SCALE * np.einsum("...i,sij,...j->...s", w, projectors, w)


def eigenvalues_isotypic(phi, psi, projectors: np.ndarray) -> np.ndarray:
    """Componentwise eigenvalues (|G|/d_s) ||P_s (phi (x) psi)||^2.

    Returned as a (4,) array in the order of tables.COMPONENT_ORDER, the
    order of `projectors`.  The scalar component comes out as
    8 (phi . psi)^2 for unit inputs.  ValueError unless `projectors` is a
    finite (4, 9, 9) array.
    """
    if np.shape(projectors) != (4, 9, 9) or not np.isfinite(projectors).all():
        raise ValueError("projectors must be a finite (4, 9, 9) array")
    return _isotypic(_seed_product(phi, psi), projectors)


@dataclass(frozen=True, eq=False)
class SumSpectrum:
    """Spectral data of a sum of orbit-pair operators, read off the component sums."""

    lambda_max: float  # the largest component sum
    eigenvector: np.ndarray  # PairModel.top_vectors' row of the components attaining it
    spectrum: np.ndarray  # component sums, each repeated by its dimension, descending
    per_pair: np.ndarray  # (pairs, 4) eigenvalues, columns in tables.COMPONENT_ORDER
    component_sums: np.ndarray  # (4,) column sums of per_pair

    def as_dict(self):
        labels, dims = tables.COMPONENT_ORDER, tables.COMPONENT_DIMS
        return {
            "lambda_max": self.lambda_max,
            "eigenvector": self.eigenvector.tolist(),
            "spectrum": self.spectrum.tolist(),
            "component_sums": dict(zip(labels, self.component_sums.tolist())),
            "per_pair": [[{"label": lab, "dim": dims[lab], "eigenvalue": val}
                          for lab, val in zip(labels, row)] for row in self.per_pair.tolist()],
        }


class PairModel:
    """The S4 pair classes' componentwise eigenvalues, and pair operators.

    `eigenvalues[c]`, read-only (24, 4), is `eigenvalues_isotypic` of x01 and label c, the
    eigenvalues of class c (the orbit's `class_of`); `distance[k, m]`, read-only (24, 24), is
    the largest distance of pair (k, m)'s own eigenvalues from its class's (NaN if one is NaN).
    `operator(alice, bob)` is `build_x_operator` of theirs, kept in `operators`.
    `top_vectors[mask - 1]`, read-only (15, 9), is the printed eigenvector when the
    components of bitmask `mask` (bit s: component s) attain lambda_max.
    """

    def __init__(self, ctx: Context):
        self._coords, self._product, self.operators = ctx.orbit.coords, ctx.product, {}
        seeds = np.einsum("ki,mj->kmij", ctx.orbit.points, ctx.orbit.points).reshape(24, 24, 9)
        pairs = _isotypic(seeds, ctx.projectors)
        self.eigenvalues = pairs[0].copy()
        self.distance = np.abs(pairs - self.eigenvalues[ctx.orbit.class_of]).max(axis=2)
        masks, rows = np.arange(1, 16)[:, None] >> np.arange(4) & 1, np.arange(15)
        tops = np.add.reduce(masks[:, :, None, None] * ctx.projectors, axis=1)  # P_top per mask
        norms = np.sqrt(np.add.reduce(tops * tops, axis=1))  # (15, 9) column norms
        first = np.argmax(norms >= norms.max(axis=1, keepdims=True) - EPS, axis=1)
        cols = tops[rows, :, first] / norms[rows, first, None]
        # the largest entry made positive; + 0.0 writes a flipped zero as 0.0, not -0.0
        self.top_vectors = cols * np.sign(cols[rows, np.abs(cols).argmax(axis=1), None]) + 0.0
        for arr in (self.eigenvalues, self.distance, self.top_vectors):
            arr.setflags(write=False)
        self._off_class = set(map(tuple, np.argwhere(~(self.distance <= CLASS_TOL)).tolist()))

    def operator(self, alice, bob):
        if (alice, bob) not in self.operators:
            phi, psi = self._coords(*alice), self._coords(*bob)
            self.operators[alice, bob] = build_x_operator(phi, psi, self._product)
        return self.operators[alice, bob]

    def check_classes(self, index=None):
        """RuntimeError unless all pairs, or `index`'s (rows alice, bob), are within CLASS_TOL."""
        if self._off_class and (index is None or not self._off_class.isdisjoint(zip(*index))):
            raise RuntimeError("a pair's eigenvalues are not its class's: not S4-invariant")


def max_eigenvalue_sum(pairs, ctx: Context) -> SumSpectrum:
    """The spectrum of the summed operators of labeled orbit pairs, from component sums.

    The componentwise sums must reappear in LAPACK's spectrum of the summed matrix (to within
    EIG_TOL); a violation, a NaN sum among them, means the two routes disagree and raises
    RuntimeError, as does a pair whose own eigenvalues are not within CLASS_TOL of its class's.
    """
    pairs = tuple(p if isinstance(p, OrbitPair) else OrbitPair(*p) for p in pairs)
    if not pairs:
        raise ValueError("need at least one orbit pair")
    model = ctx.pair_model
    # Python's sum adds in pair order; numpy's pairwise summation would
    # regroup the rows and could change the last bit.
    total = sum((model.operator(p.alice, p.bob) for p in pairs), np.zeros((ctx.product.dim,) * 2))
    alice, bob = zip(*[(_row(*p.alice), _row(*p.bob)) for p in pairs])
    per_pair = model.eigenvalues[ctx.orbit.class_of[alice, bob]]
    sums = sum(per_pair)

    # The cross-check and the lambda_max mask read one list of Python floats: four sums against
    # nine eigenvalues is less work than numpy's per-call overhead.
    values, sum_list = jacobi_eigh(total)[0].tolist(), sums.tolist()
    for label, value in zip(tables.COMPONENT_ORDER, sum_list):
        if not any(abs(v - value) <= EIG_TOL for v in values):
            raise RuntimeError(f"componentwise sum for {label} ({value:.9f}) missing from spectrum")
    model.check_classes((alice, bob))
    spectrum = np.sort(sums[_SPREAD])[::-1]
    top = float(spectrum[0])
    mask = sum(1 << s for s, value in enumerate(sum_list) if value >= top - CLASS_TOL)
    return SumSpectrum(
        lambda_max=top,
        eigenvector=model.top_vectors[mask - 1],
        spectrum=spectrum,
        per_pair=per_pair,
        component_sums=sums,
    )
