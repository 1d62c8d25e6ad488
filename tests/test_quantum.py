import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import compare_cli
from conftest import DIMS, random_unit, spectrum_of_components
from s4bell import quantum, tables
from s4bell.cli import parse_pair_spec
from s4bell.orbit import OrbitPair, all_labels
from s4bell.quantum import (
    EIG_TOL,
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


def isotypic_table(phi, psi, projectors):
    """eigenvalues_isotypic keyed by component label."""
    return dict(zip(tables.COMPONENT_ORDER, eigenvalues_isotypic(phi, psi, projectors)))


def test_equal_seeds_give_eight(orbit, product, projectors):
    phi = orbit.coords(1, 0)
    x = build_x_operator(phi, phi, product)
    values, _ = eigenvalues_direct(x)
    assert abs(values[0] - 8.0) < 1e-6
    table = isotypic_table(phi, phi, projectors)
    assert abs(table["D0"] - 8.0) < 1e-9


def test_orthogonal_seeds_kill_scalar(projectors):
    table = isotypic_table([1.0, 0, 0], [0, 1.0, 0], projectors)
    assert abs(table["D0"]) < 1e-12


def test_scalar_component_closed_form(projectors, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        table = isotypic_table(phi, psi, projectors)
        assert abs(table["D0"] - 8.0 * float(phi @ psi) ** 2) < 1e-9


def test_trace_identity_random_pairs(projectors, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        values = eigenvalues_isotypic(phi, psi, projectors)
        assert values.shape == (4,)
        total = sum(dim * val for dim, val in zip(DIMS, values))
        assert abs(total - 24.0) < 1e-9


def test_isotypic_matches_direct_random_pairs(product, projectors, rng):
    for _ in range(100):
        phi, psi = random_unit(rng), random_unit(rng)
        x = build_x_operator(phi, psi, product)
        direct, top = eigenvalues_direct(x)
        expected = spectrum_of_components(eigenvalues_isotypic(phi, psi, projectors))
        assert np.abs(direct - expected).max() < 1e-6
        assert np.abs(x @ top - direct[0] * top).max() < 1e-6


def test_reference_scalar_values(orbit, projectors, case_pairs):
    for name, pairs in case_pairs.items():
        for pair, ref in zip(pairs, tables.REF_SCALAR_EIGENVALUES[name]):
            phi = orbit.coords(*pair.alice)
            psi = orbit.coords(*pair.bob)
            table = isotypic_table(phi, psi, projectors)
            assert abs(table["D0"] - ref) <= 0.01


def test_case1_second_orbit_max_is_not_scalar(orbit, projectors, case_pairs):
    # For the (x01, x07) pair the standard component tops the spectrum at
    # about 4.76; the scalar entry 4.57 is what feeds the dominant sum.
    pair = case_pairs["I"][1]
    table = isotypic_table(orbit.coords(*pair.alice), orbit.coords(*pair.bob), projectors)
    top_label = max(table, key=table.get)
    assert top_label == "D"
    assert table["D"] > table["D0"]
    assert abs(table["D"] - 4.76) < 0.01


def test_summed_operators(ctx, case_pairs):
    for name, pairs in case_pairs.items():
        spectrum = max_eigenvalue_sum(pairs, ctx)
        assert abs(spectrum.lambda_max - expected_lambda_max(name)) < 1e-9
        assert abs(spectrum.spectrum.sum() - 72.0) < 1e-9
        # top eigenvector sits in the scalar component: the normalized vectorized identity
        # (e1 + e5 + e9)/sqrt(3) to the last bit, with exact zeros and positive entries
        u = np.zeros(9)
        u[[0, 4, 8]] = 1 / R3
        assert np.abs(spectrum.eigenvector - u).max() <= 2 * np.finfo(float).eps
        assert np.array_equal(spectrum.eigenvector == 0, u == 0)
    # On a 24-pair spec the operator is lambda_max times the identity: every component attains
    # lambda_max within rounding, and the printed vector is one vector in any pair order.
    specs = [parse_pair_spec(compare_cli.SPECS[name]) for name in ("alice_x01", "distinct_alice")]
    seen = {max_eigenvalue_sum(p, ctx).eigenvector.tobytes() for s in specs for p in (s, s[::-1])}
    assert len(seen) == 1


def test_summed_case_values(ctx, case_pairs):
    computed = {
        name: max_eigenvalue_sum(pairs, ctx).lambda_max
        for name, pairs in case_pairs.items()
    }
    assert abs(computed["I"] - 16.0930) < 5e-4
    assert abs(computed["II"] - 18.5138) < 5e-4
    assert abs(computed["III"] - 17.3915) < 5e-4


def assert_eigh_residuals(a, values, vectors):
    """A V = V diag(values) and V^T V = I to 1e-12 max(1, ||A||), values descending, and
    both are numpy.linalg.eigh's reversed, bit for bit: the wrapper adds no arithmetic."""
    tol = 1e-12 * max(1.0, float(np.linalg.norm(a)))
    n = a.shape[0]
    assert values.shape == (n,) and vectors.shape == (n, n)
    assert np.abs(a @ vectors - vectors * values).max(initial=0.0) <= tol
    assert np.abs(vectors.T @ vectors - np.eye(n)).max(initial=0.0) <= tol
    assert (np.diff(values) <= 0).all()
    lapack_values, lapack_vectors = np.linalg.eigh(a)
    assert np.array_equal(values, lapack_values[::-1])
    assert np.array_equal(vectors, lapack_vectors[:, ::-1])


def assert_componentwise_spectrum(pairs, ctx):
    """The summed operator's spectrum is the componentwise sums repeated by
    dimension, to 1e-12, with residuals as in assert_eigh_residuals."""
    total = np.zeros((9, 9))
    sums = np.zeros(4)
    for pair in pairs:
        phi, psi = ctx.orbit.coords(*pair.alice), ctx.orbit.coords(*pair.bob)
        total += build_x_operator(phi, psi, ctx.product)
        sums += eigenvalues_isotypic(phi, psi, ctx.projectors)
    values, vectors = jacobi_eigh(total)
    assert np.abs(values - spectrum_of_components(sums)).max() <= 1e-12
    assert_eigh_residuals(total, values, vectors)


def test_jacobi_spectrum_on_orbit_operators(ctx, case_pairs):
    labels = all_labels()
    for alice, bob in itertools.product(labels, labels):
        assert_componentwise_spectrum([OrbitPair(alice, bob)], ctx)
    for pairs in case_pairs.values():
        assert_componentwise_spectrum(pairs, ctx)


def test_jacobi_spectrum_on_random_pair_sums(ctx, rng):
    labels = all_labels()
    for _ in range(60):
        picks = rng.integers(0, 24, (int(rng.integers(2, 4)), 2))
        assert_componentwise_spectrum(
            [OrbitPair(labels[int(i)], labels[int(j)]) for i, j in picks], ctx)


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_properties_on_random_symmetric(n, rng):
    for _ in range(5):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        values, vectors = jacobi_eigh(a)
        assert_eigh_residuals(a, values, vectors)
        norm2 = float(np.sum(a * a))
        assert abs(values.sum() - np.trace(a)) <= 1e-12 * max(1.0, norm2 ** 0.5)
        assert abs(float(values @ values) - norm2) <= 1e-12 * max(1.0, norm2)


def assert_same_as_lapack(matrix):
    """jacobi_eigh is numpy.linalg.eigh reversed to descending order, bit for
    bit: values and their eigenvector columns move together and the wrapper
    adds no arithmetic of its own."""
    values, vectors = jacobi_eigh(matrix)
    ref_values, ref_vectors = np.linalg.eigh(np.array(matrix, dtype=float))
    assert np.array_equal(values, ref_values[::-1])
    assert np.array_equal(vectors, ref_vectors[:, ::-1])


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
        assert_same_as_lapack(pair_operator_sum([OrbitPair(alice, bob)], ctx))
    for pairs in case_pairs.values():
        assert_same_as_lapack(pair_operator_sum(pairs, ctx))


def test_jacobi_bit_identical_on_random_pair_sums(ctx, rng):
    labels = all_labels()
    for _ in range(60):
        picks = rng.integers(0, 24, (int(rng.integers(2, 4)), 2))
        pairs = [OrbitPair(labels[int(i)], labels[int(j)]) for i, j in picks]
        assert_same_as_lapack(pair_operator_sum(pairs, ctx))


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_bit_identical_on_random_symmetric(n, rng):
    for _ in range(5):
        a = rng.standard_normal((n, n))
        assert_same_as_lapack((a + a.T) / 2)


def test_jacobi_subnormal_entry_is_silent():
    a = np.array([[0.0, 1e-320, 1.0], [1e-320, 1.0, 0.0], [1.0, 0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = jacobi_eigh(a)
    assert_eigh_residuals(a, values, vectors)


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


def test_isotypic_bit_identical_to_kron_formula(orbit, projectors):
    # build_x_operator's half of this check is the test above, whose
    # reference builds the seed vector with np.kron too.
    labels = all_labels()
    for alice, bob in itertools.product(labels, labels):
        w = np.kron(orbit.coords(*alice), orbit.coords(*bob))
        values = eigenvalues_isotypic(orbit.coords(*alice), orbit.coords(*bob), projectors)
        assert np.array_equal(values, quantum._isotypic(w, projectors))


def test_pair_model_equals_the_two_functions_on_every_pair(ctx):
    # Each pair's own eigenvalues are within 1e-12 (the bound the class tables check) of
    # its class row, and equal it bit for bit when Alice is x01; `distance` holds those
    # distances.  Operators are built from the pair's own seeds.
    labels, model, class_of = all_labels(), ctx.pair_model, ctx.orbit.class_of
    assert model.eigenvalues.shape == (24, 4) and class_of.shape == (24, 24)
    assert np.array_equal(class_of[0], np.arange(24))
    distances = []
    for (k, alice), (m, bob) in itertools.product(enumerate(labels), enumerate(labels)):
        operator, row = model.operator(alice, bob), model.eigenvalues[class_of[k, m]]
        phi, psi = ctx.orbit.coords(*alice), ctx.orbit.coords(*bob)
        assert np.array_equal(operator, build_x_operator(phi, psi, ctx.product))
        values = eigenvalues_isotypic(phi, psi, ctx.projectors)
        distances.append(np.abs(values - row).max())
        assert distances[-1] <= 1e-12
        if k == 0:
            assert np.array_equal(row, values)
        with pytest.raises(ValueError, match="read-only"):
            operator[0] = 0
    assert np.array_equal(model.distance, np.reshape(distances, (24, 24)))
    for table in (model.eigenvalues, class_of, model.distance):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    assert len(model.operators) == 576
    assert model.operator(labels[4], labels[7]) is model.operators[labels[4], labels[7]]


def test_pair_model_distance_is_nan_for_a_nan_orbit_point(ctx, case_pairs):
    k, points = all_labels().index((2, 0)), ctx.orbit.points.copy()
    points[k, 1] = np.nan
    broken = dataclasses.replace(ctx, orbit=dataclasses.replace(ctx.orbit, points=points))
    distance = broken.pair_model.distance
    assert np.isnan(distance[k]).all() and np.isnan(distance[:, k]).all()
    assert np.isnan(broken.pair_model.eigenvalues[k]).all()
    # Only the pairs on label k are off their class row: a check of one of them raises, a
    # spec away from k (case I) sums as on the standard context, and the class tables,
    # which need every pair, refuse to build.
    for index in (((k,), (5,)), ((0, 5), (7, k)), ((k,), (k,))):
        with pytest.raises(RuntimeError, match="eigenvalues are not its class's"):
            broken.pair_model.check_classes(index)
    broken.pair_model.check_classes(((0, 5, 23), (7, 9, 0)))
    spectrum = max_eigenvalue_sum(case_pairs["I"], broken)
    assert spectrum.lambda_max == max_eigenvalue_sum(case_pairs["I"], ctx).lambda_max
    with pytest.raises(RuntimeError, match="eigenvalues are not its class's"):
        broken.class_tables.class_m


def test_sum_rejects_a_pair_off_its_class_row(ctx, case_pairs):
    # Orbit point x12 moved by 1e-7: pair (x12, x22)'s own eigenvalues move about 5e-7
    # off its class row, which the sum reads, though within EIG_TOL of the spectrum.
    labels = all_labels()
    points = ctx.orbit.points.copy()
    points[labels.index((2, 1)), 0] += 1e-7
    moved = dataclasses.replace(ctx, orbit=dataclasses.replace(ctx.orbit, points=points))
    with pytest.raises(RuntimeError, match="eigenvalues are not its class's"):
        max_eigenvalue_sum([OrbitPair((2, 1), (2, 2))], moved)
    assert 1e-12 < moved.pair_model.distance[labels.index((2, 1)), labels.index((2, 2))] < 1e-6
    assert max_eigenvalue_sum(case_pairs["I"], moved).lambda_max > 16  # no pair at x12


def test_replaced_context_has_its_own_pair_model(ctx, case_pairs):
    key = (case_pairs["I"][0].alice, case_pairs["I"][0].bob)
    ctx.pair_model.operator(*key)
    replaced = dataclasses.replace(ctx, projectors=2 * ctx.projectors)
    assert replaced.pair_model is not ctx.pair_model
    assert replaced.pair_model.operators == {}
    assert np.array_equal(replaced.pair_model.eigenvalues, 2 * ctx.pair_model.eigenvalues)
    assert not replaced.pair_model.eigenvalues.flags.writeable


def _bad_matrix(kind):
    bad = np.eye(9)
    if kind == "nonsymmetric":
        bad[0, 1] = 1e-3
    elif kind == "nan":
        bad[:] = np.nan
    elif kind == "complex":  # its real part is the identity, which passes every other check
        bad = bad + 5j * np.eye(9)
    elif kind == "nonsquare":
        bad = bad[:8]
    elif kind == "empty":
        bad = bad[:0, :0]
    else:
        bad[0, 0], bad[4, 4] = np.inf, -np.inf
    return bad


@pytest.mark.parametrize("kind", ["nonsymmetric", "nan", "inf", "complex", "nonsquare", "empty"])
@pytest.mark.parametrize("solve", [jacobi_eigh, eigenvalues_direct],
                         ids=["jacobi_eigh", "eigenvalues_direct"])
def test_direct_rejects_nonsymmetric(solve, kind):
    message = {"nonsymmetric": "matrix must be symmetric", "complex": "matrix must be real",
               "nonsquare": "non-empty square matrix required",
               "empty": "non-empty square matrix required"}.get(kind, "matrix must be finite")
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(_bad_matrix(kind))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_isotypic_rejects_non_finite_input(projectors, bad):
    # A bad seed or projector entry, and projectors of the wrong shape.  Unchecked, a bad
    # projector entry came out as a NaN eigenvalue and a wrong shape as a broadcast error.
    x, y = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    broken = projectors.copy()
    broken[1, 4, 4] = bad
    for phi, psi, proj in (([bad, 0.0, 0.0], x, projectors), (x, [0.0, bad, 0.0], projectors),
                           (x, y, broken), (x, y, projectors[:3]), (x, y, projectors[:, :3, :3]),
                           (x, y, projectors * (1 + 1j))):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_isotypic(phi, psi, proj)


SEED_FUNCTIONS = {
    "build_x_operator": lambda phi, psi, ctx: build_x_operator(phi, psi, ctx.product),
    "eigenvalues_isotypic": lambda phi, psi, ctx: eigenvalues_isotypic(phi, psi, ctx.projectors),
}


@pytest.mark.parametrize("phi, psi", [
    ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0]),
    ([-np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0], [0.0, 1.0]),
    ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0]),
    ([1.0, [0.0, 1.0], 0.0], [1.0, 0.0, 0.0]),
    (np.array([1 + 1j, 0.0, 0.0]), [1.0, 0.0, 0.0]),  # a cast to float would drop the 1j
], ids=["nan", "inf", "minus_inf", "short_psi", "long_phi", "nested", "ragged", "complex"])
@pytest.mark.parametrize("name", SEED_FUNCTIONS)
def test_seeds_must_be_finite_3_vectors(ctx, name, phi, psi):
    with pytest.raises(ValueError, match="finite 3-vectors"):
        SEED_FUNCTIONS[name](phi, psi, ctx)


def test_sum_rejects_nan_projector(ctx, case_pairs):
    # A NaN projector entry turns a componentwise sum into NaN, whose
    # distance to the spectrum compares False against EIG_TOL.
    projectors = ctx.projectors.copy()
    projectors[0, 0, 0] = np.nan
    broken = dataclasses.replace(ctx, projectors=projectors)
    with pytest.raises(RuntimeError, match="missing from spectrum"):
        max_eigenvalue_sum(case_pairs["I"], broken)


@pytest.mark.parametrize("moved, label", [("D0", "D0"), ("all", "D")])
def test_sum_names_the_first_component_no_eigenvalue_matches(ctx, case_pairs, monkeypatch,
                                                             moved, label):
    # A finite miss: LAPACK's eigenvalue of the D0 sum, or every eigenvalue, moves by 1e-5,
    # ten times EIG_TOL.  The error names the first component left without a match.
    sums = max_eigenvalue_sum(case_pairs["I"], ctx).component_sums
    d0_sum = sums[tables.COMPONENT_ORDER.index("D0")]
    solve = quantum.jacobi_eigh

    def moved_off(matrix):
        values, vectors = solve(matrix)
        values = values.copy()
        values[slice(None) if moved == "all" else np.argmin(np.abs(values - d0_sum))] += 1e-5
        return values, vectors

    monkeypatch.setattr(quantum, "jacobi_eigh", moved_off)
    value = sums[tables.COMPONENT_ORDER.index(label)]
    message = rf"^componentwise sum for {label} \({value:.9f}\) missing from spectrum$"
    with pytest.raises(RuntimeError, match=message):
        max_eigenvalue_sum(case_pairs["I"], ctx)


def test_sum_requires_pairs(ctx):
    with pytest.raises(ValueError, match="^need at least one orbit pair$"):
        max_eigenvalue_sum((), ctx)
    for bad in ([600], [((1, 0),)]):  # each used to raise TypeError
        with pytest.raises(ValueError, match="^each pair must be two labels$"):
            max_eigenvalue_sum(bad, ctx)


def test_component_sums_equal_direct_maximum(ctx, rng):
    # The printed spectrum and eigenvector, read off the component sums and the pair model's
    # vector table, against the assembled operator: LAPACK's eigenvalues to EIG_TOL and a
    # residual at rounding level, on every spec that analyze accepts in the output contract
    # and on random triples with repeated labels (only term expansion rejects duplicates).
    labels = all_labels()
    specs = [parse_pair_spec(text) for name, text in compare_cli.SPECS.items()
             if name not in ("repeated_term", "one_class_twice", "malformed")]
    specs += [[OrbitPair((1, 0), labels[k]) for k in rng.integers(0, 24, 3)] for _ in range(20)]
    for pairs in specs:
        spectrum = max_eigenvalue_sum(pairs, ctx)
        total, v = sum(ctx.pair_model.operator(p.alice, p.bob) for p in pairs), spectrum.eigenvector
        assert np.abs(np.linalg.eigvalsh(total)[::-1] - spectrum.spectrum).max() <= EIG_TOL
        assert np.abs(total @ v - spectrum.lambda_max * v).max() <= 1e-12
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15 and v[np.abs(v).argmax()] > 0


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
        scalars = spectrum.per_pair[:, tables.COMPONENT_ORDER.index("D0")]
        for got, ref in zip(scalars, tables.REF_SCALAR_EIGENVALUES[name]):
            assert ref - 1e-9 <= got < ref + 0.01
        ref_sum = tables.REF_SUM_EIGENVALUE[name]
        if name in tables.SUM_EIGENVALUE_ERRATA:
            assert spectrum.lambda_max >= ref_sum + 0.01
        else:
            assert ref_sum - 1e-9 <= spectrum.lambda_max < ref_sum + 0.01
