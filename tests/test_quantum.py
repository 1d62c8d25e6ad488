import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import random_unit
from s4bell import tables
from s4bell.orbit import OrbitPair, all_labels
from s4bell.quantum import (
    JACOBI_TOL,
    MAX_SWEEPS,
    build_x_operator,
    eigenvalues_direct,
    eigenvalues_isotypic,
    jacobi_eigh,
    max_eigenvalue_sum,
)

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)
R6 = math.sqrt(6.0)

# Seed overlaps of the built-in cases, worked out by hand from the table
# entries; the summed operator's top eigenvalue is 8 * sum of squares.
CASE_OVERLAPS = {
    "I": ((3 + 4 * R2) / 9, (3 + R3 - 2 * R2 + 2 * R6) / 9,
          (3 - R3 - 2 * R2 - 2 * R6) / 9),
    "II": ((2 * R3 - 2 * R2 - 2 * R6 - 3) / 9, (R6 + R2 + 2 * R3) / 9, 1.0),
    "III": (-(3 + 2 * R2) / 9, (3 + 4 * R2) / 9, (1 + R3) / 3),
}


def expected_lambda_max(name):
    return 8.0 * sum(d * d for d in CASE_OVERLAPS[name])


def test_case_overlaps_match_orbit(orbit, case_pairs):
    for name, pairs in case_pairs.items():
        for pair, overlap in zip(pairs, CASE_OVERLAPS[name]):
            dot = float(orbit.coords(*pair.alice) @ orbit.coords(*pair.bob))
            assert abs(dot - overlap) < 1e-12


def test_trace_is_group_order(orbit, product):
    phi = orbit.coords(1, 0)
    psi = orbit.coords(4, 1)
    x = build_x_operator(phi, psi, product)
    assert abs(np.trace(x) - 24.0) < 1e-9


def test_x_commutes_with_product_rep(product, rng):
    phi, psi = random_unit(rng), random_unit(rng)
    x = build_x_operator(phi, psi, product)
    for k in range(0, 24, 3):
        m = product[k]
        assert np.abs(x @ m - m @ x).max() < 1e-9


def test_equal_seeds_give_eight(orbit, product, decomposition):
    phi = orbit.coords(1, 0)
    x = build_x_operator(phi, phi, product)
    values, _ = eigenvalues_direct(x)
    assert abs(values[0] - 8.0) < 1e-6
    table = dict(eigenvalues_isotypic(phi, phi, decomposition))
    assert abs(table["D0"] - 8.0) < 1e-9


def test_orthogonal_seeds_kill_scalar(decomposition):
    table = dict(
        eigenvalues_isotypic([1.0, 0, 0], [0, 1.0, 0], decomposition)
    )
    assert abs(table["D0"]) < 1e-12


def test_scalar_component_closed_form(decomposition, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        table = dict(eigenvalues_isotypic(phi, psi, decomposition))
        assert abs(table["D0"] - 8.0 * float(phi @ psi) ** 2) < 1e-9


def test_trace_identity_random_pairs(decomposition, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        table = eigenvalues_isotypic(phi, psi, decomposition)
        total = sum(decomposition.component(lab).dim * val for lab, val in table)
        assert abs(total - 24.0) < 1e-9


def test_isotypic_matches_direct_random_pairs(product, decomposition, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        x = build_x_operator(phi, psi, product)
        direct, top = eigenvalues_direct(x)
        expected = sorted(
            (
                value
                for label, value in eigenvalues_isotypic(phi, psi, decomposition)
                for _ in range(decomposition.component(label).dim)
            ),
            reverse=True,
        )
        assert np.abs(direct - np.array(expected)).max() < 1e-6
        assert np.abs(x @ top - direct[0] * top).max() < 1e-6


def test_reference_scalar_values(orbit, decomposition, case_pairs):
    for name, pairs in case_pairs.items():
        for pair, ref in zip(pairs, tables.REF_SCALAR_EIGENVALUES[name]):
            phi = orbit.coords(*pair.alice)
            psi = orbit.coords(*pair.bob)
            table = dict(eigenvalues_isotypic(phi, psi, decomposition))
            assert abs(table["D0"] - ref) <= 0.01


def test_case1_second_orbit_max_is_not_scalar(orbit, decomposition, case_pairs):
    # For the (x01, x07) pair the standard component tops the spectrum at
    # about 4.76; the scalar entry 4.57 is what feeds the dominant sum.
    pair = case_pairs["I"][1]
    table = dict(
        eigenvalues_isotypic(
            orbit.coords(*pair.alice), orbit.coords(*pair.bob), decomposition
        )
    )
    top_label = max(table, key=table.get)
    assert top_label == "D"
    assert table["D"] > table["D0"]
    assert abs(table["D"] - 4.76) < 0.01


def test_summed_operators(ctx, case_pairs):
    for name, pairs in case_pairs.items():
        spectrum = max_eigenvalue_sum(pairs, ctx)
        assert abs(spectrum.lambda_max - expected_lambda_max(name)) < 1e-9
        assert abs(max(spectrum.component_sums.values()) - spectrum.lambda_max) < 1e-9
        assert abs(spectrum.spectrum.sum() - 72.0) < 1e-9
        # top eigenvector sits in the scalar component: proportional to the
        # normalized vectorized identity
        u = np.zeros(9)
        u[[0, 4, 8]] = 1 / R3
        v = spectrum.eigenvector
        assert np.linalg.norm(v - (u @ v) * u) < 1e-6


def test_summed_case_values(ctx, case_pairs):
    computed = {
        name: max_eigenvalue_sum(pairs, ctx).lambda_max
        for name, pairs in case_pairs.items()
    }
    assert abs(computed["I"] - 16.0930) < 5e-4
    assert abs(computed["II"] - 18.5138) < 5e-4
    assert abs(computed["III"] - 17.3915) < 5e-4


def test_jacobi_agrees_with_numpy(rng):
    for _ in range(20):
        a = rng.standard_normal((9, 9))
        a = (a + a.T) / 2
        values, vectors = jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)[::-1]
        assert np.abs(values - expected).max() < 1e-9
        for k in range(9):
            resid = a @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.abs(resid).max() < 1e-8
        assert np.abs(vectors.T @ vectors - np.eye(9)).max() < 1e-9


def test_jacobi_zero_matrix():
    values, _ = jacobi_eigh(np.zeros((9, 9)))
    assert np.array_equal(values, np.zeros(9))


def slice_jacobi(matrix):
    """Reference: cyclic Jacobi with each rotation applied as numpy column
    slices, to the columns of a, then its rows, then the eigenvectors.
    `jacobi_eigh` must reproduce it bit for bit."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(a)))

    def offnorm():
        return math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))

    for _ in range(MAX_SWEEPS):
        if offnorm() <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for m in (a, a.T, v):
                    col_p, col_q = m[:, p].copy(), m[:, q].copy()
                    m[:, p] = c * col_p - s * col_q
                    m[:, q] = s * col_p + c * col_q
    assert offnorm() <= JACOBI_TOL * scale
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def assert_same_as_slice_jacobi(matrix):
    values, vectors = jacobi_eigh(matrix)
    ref_values, ref_vectors = slice_jacobi(matrix)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


def pair_operator_sum(pairs, ctx):
    # the same accumulation as max_eigenvalue_sum
    total = np.zeros((9, 9))
    for pair in pairs:
        total += build_x_operator(
            ctx.orbit.coords(*pair.alice), ctx.orbit.coords(*pair.bob), ctx.product
        )
    return total


def test_jacobi_bit_identical_on_orbit_operators(ctx, case_pairs):
    labels = all_labels()
    for alice, bob in itertools.product(labels, labels):
        assert_same_as_slice_jacobi(pair_operator_sum([OrbitPair(alice, bob)], ctx))
    for pairs in case_pairs.values():
        assert_same_as_slice_jacobi(pair_operator_sum(pairs, ctx))


def test_jacobi_bit_identical_on_random_pair_sums(ctx, rng):
    labels = all_labels()
    for _ in range(60):
        picks = rng.integers(0, 24, (int(rng.integers(2, 4)), 2))
        pairs = [OrbitPair(labels[int(i)], labels[int(j)]) for i, j in picks]
        assert_same_as_slice_jacobi(pair_operator_sum(pairs, ctx))


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_bit_identical_on_random_symmetric(n, rng):
    for _ in range(5):
        a = rng.standard_normal((n, n))
        assert_same_as_slice_jacobi((a + a.T) / 2)


def test_jacobi_bit_identical_when_rotations_are_skipped():
    # diagonal: no sweep runs; one off-diagonal pair: every other rotation
    # meets a zero entry and is skipped
    diagonal = np.diag([3.0, -1.0, 2.0, 0.0, 5.0, -4.0, 1.0, 2.0, -2.0])
    assert_same_as_slice_jacobi(diagonal)
    coupled = diagonal.copy()
    coupled[2, 6] = coupled[6, 2] = 0.75
    assert_same_as_slice_jacobi(coupled)


def test_jacobi_tau_overflow_is_silent():
    # tau = 1 / 2e-320 overflows on the first rotation: the numpy-scalar
    # reference warns there, the Python-float solver gives inf silently
    a = np.array([[0.0, 1e-320, 1.0], [1e-320, 1.0, 0.0], [1.0, 0.0, 2.0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        slice_jacobi(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = jacobi_eigh(a)
    with np.errstate(over="ignore"):
        ref_values, ref_vectors = slice_jacobi(a)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


def test_x_operator_bit_identical_to_outer_product_loop(orbit, product):
    labels = all_labels()
    for alice, bob in itertools.product(labels, labels):
        phi, psi = orbit.coords(*alice), orbit.coords(*bob)
        w0 = np.kron(phi, psi)
        expected = np.zeros((9, 9))
        for k in range(24):
            w = product[k] @ w0
            expected += np.outer(w, w)
        x = build_x_operator(phi, psi, product)
        assert np.array_equal(x, expected)
        assert np.array_equal(np.signbit(x), np.signbit(expected))


def _bad_matrix(kind):
    bad = np.eye(9)
    if kind == "nonsymmetric":
        bad[0, 1] = 1e-3
    elif kind == "nan":
        bad[:] = np.nan
    else:
        bad[0, 0], bad[4, 4] = np.inf, -np.inf
    return bad


@pytest.mark.parametrize("kind", ["nonsymmetric", "nan", "inf"])
@pytest.mark.parametrize("solve", [jacobi_eigh, eigenvalues_direct],
                         ids=["jacobi_eigh", "eigenvalues_direct"])
def test_direct_rejects_nonsymmetric(solve, kind):
    with pytest.raises(ValueError):
        solve(_bad_matrix(kind))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_isotypic_rejects_non_finite_input(decomposition, bad):
    for phi, psi in (([bad, 0.0, 0.0], [1.0, 0.0, 0.0]), ([1.0, 0.0, 0.0], [0.0, bad, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_isotypic(phi, psi, decomposition)


def test_sum_requires_pairs(ctx):
    with pytest.raises(ValueError):
        max_eigenvalue_sum((), ctx)


def test_component_sums_equal_direct_maximum(ctx, rng):
    # every pair operator is scalar on the same four components, so the
    # summed spectrum is exactly the componentwise sums; repeated labels
    # are allowed here (only term expansion rejects duplicates)
    labels = all_labels()
    for _ in range(20):
        picks = rng.integers(0, 24, 3)
        pairs = [OrbitPair((1, 0), labels[int(k)]) for k in picks]
        spectrum = max_eigenvalue_sum(pairs, ctx)
        assert abs(max(spectrum.component_sums.values()) - spectrum.lambda_max) < 1e-9


def test_case_iii_sum_eigenvalue_exact():
    # Exact surd arithmetic for the case III summed operator: every pair
    # operator is sum_s lambda_s P_s with the same projectors, so the top
    # eigenvalue of the sum is the largest component sum, each
    # (|G| / d_s) ||B_s (phi (x) psi)||^2 over the BLOCK_BASIS rows B_s.
    sp = pytest.importorskip("sympy")
    r2, r3, r6 = sp.sqrt(2), sp.sqrt(3), sp.sqrt(6)
    coords = {
        (1, 0): (r3 / 3, r3 / 3, -r3 / 3),
        (5, 2): ((3 * r2 - r3 - r6) / 9, -(3 + 2 * r3 + r6) / 9, (r2 - 1) / 3),
        (4, 1): ((2 * r6 - r3) / 9, (r3 + 2 * r6) / 9, -r3 / 3),
        (8, 1): (r3 / 3, (1 - r3 / 3) / 2, -(1 + r3 / 3) / 2),
    }
    i2, i3, i6 = 1 / r2, 1 / r3, 1 / r6
    basis = sp.Matrix([
        [sp.sqrt(sp.Rational(2, 3)), 0, 0, 0, -i6, 0, 0, 0, -i6],
        [0, -i6, 0, -i6, i3, 0, 0, 0, -i3],
        [0, 0, -i6, 0, 0, -i3, -i6, -i3, 0],
        [0, i2, 0, -i2, 0, 0, 0, 0, 0],
        [0, 0, i2, 0, 0, 0, -i2, 0, 0],
        [0, 0, 0, 0, 0, i2, 0, -i2, 0],
        [0, i3, 0, i3, i6, 0, 0, 0, -i6],
        [0, 0, i3, 0, 0, -i6, i3, -i6, 0],
        [i3, 0, 0, 0, i3, 0, 0, 0, i3],
    ])
    for label, vec in coords.items():
        floats = np.array([float(c) for c in vec])
        assert np.abs(floats - tables.ORBIT_TABLE[label]).max() < 1e-12
    assert np.abs(np.array(basis, dtype=float) - tables.BLOCK_BASIS).max() < 1e-12

    pairs = tables.CASE_PAIRS["III"]
    assert {label for pair in pairs for label in pair} == set(coords)
    sums = dict.fromkeys(tables.COMPONENT_ORDER, sp.Integer(0))
    for alice, bob in pairs:
        w = basis * sp.Matrix([a * b for a in coords[alice] for b in coords[bob]])
        for label, rows in tables.BLOCK_ROWS.items():
            dim = tables.COMPONENT_DIMS[label]
            sums[label] += sp.Rational(24, dim) * sum(w[r] ** 2 for r in rows)

    exact = sp.Rational(752, 81) + (32 * r2 + 16 * r3) / 9
    assert sp.expand(sums["D0"] - exact) == 0
    for label in ("D", "Dt", "D2"):
        assert (exact - sums[label]).is_positive
    weighted = sum(tables.COMPONENT_DIMS[lab] * val for lab, val in sums.items())
    assert sp.expand(weighted) == 72

    # 17.39 < exact, and the published 17.38 = 3.35 + 7.40 + 6.63 misses it
    # by more than the 0.01 comparison tolerance
    published = sp.Rational(869, 50)
    assert (exact - sp.Rational(1739, 100)).is_positive
    assert (exact - published - sp.Rational(1, 100)).is_positive
    assert published == sp.Rational(335, 100) + sp.Rational(740, 100) + sp.Rational(663, 100)
    assert abs(float(exact) - tables.SUM_EIGENVALUE_ERRATA["III"]) < 1e-12


def test_case_iii_published_sum_is_truncated_entries(ctx, orbit, case_pairs):
    # With Alice at x01 the scalar eigenvalue 8 (phi . psi)^2 takes 17
    # distinct values over the 24 Bob labels, and each published case III
    # per-orbit entry is within 0.01 of exactly one of them.  Every Bob
    # choice matching those entries therefore has the same scalar sum, so
    # no choice of labels reproduces the published 17.38.
    phi = orbit.coords(1, 0)
    scalar = {lab: 8.0 * float(phi @ orbit.coords(*lab)) ** 2 for lab in all_labels()}
    distinct = sorted({round(v, 9) for v in scalar.values()})
    assert len(distinct) == 17
    matches = []
    for ref in tables.REF_SCALAR_EIGENVALUES["III"]:
        assert sum(abs(v - ref) <= 0.01 for v in distinct) == 1
        matches.append([lab for lab, v in scalar.items() if abs(v - ref) <= 0.01])
    published = tables.REF_SUM_EIGENVALUE["III"]
    for bobs in itertools.product(*matches):
        pairs = [OrbitPair((1, 0), bob) for bob in bobs]
        spectrum = max_eigenvalue_sum(pairs, ctx)
        assert spectrum.lambda_max - published > 0.01

    # Every other published two-decimal entry is the truncation of the
    # computed value (1e-9 absorbs the rounding of case II's exact 8).
    for name, pairs in case_pairs.items():
        spectrum = max_eigenvalue_sum(pairs, ctx)
        scalars = [dict((lab, v) for lab, _, v in t)["D0"] for t in spectrum.per_pair]
        for got, ref in zip(scalars, tables.REF_SCALAR_EIGENVALUES[name]):
            assert ref - 1e-9 <= got < ref + 0.01
        ref_sum = tables.REF_SUM_EIGENVALUE[name]
        if name in tables.SUM_EIGENVALUE_ERRATA:
            assert spectrum.lambda_max >= ref_sum + 0.01
        else:
            assert ref_sum - 1e-9 <= spectrum.lambda_max < ref_sum + 0.01
