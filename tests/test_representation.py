import dataclasses

import numpy as np
import pytest

from conftest import random_unit, row_of
from s4bell import standard_context, tables
from s4bell.classical import bell_terms, classical_histogram
from s4bell.game import winning_table
from s4bell.permgroup import conjugacy_classes, product_table, sign, symmetric_group
from s4bell.quantum import max_eigenvalue_sum
from s4bell.representation import (
    EPS,
    DecompositionError,
    Representation,
    RepresentationError,
    build_standard_rep,
    character,
    isotypic_projectors,
    tensor_product,
    validate_block_basis,
)
from s4bell.tables import TableMismatchError

CLASSES = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))


def test_identity_is_exact(rep):
    assert np.array_equal(rep[0], np.eye(3))


def test_transposition_matrices_match_table(group, rep):
    for (i, j), expected in tables.TRANSPOSITION_MATRICES.items():
        images = list(range(4))
        images[i - 1], images[j - 1] = j - 1, i - 1
        assert np.abs(rep[row_of(group, images)] - expected).max() < 1e-12


def test_specific_matrices(group, rep):
    d12 = rep[row_of(group, (1, 0, 2, 3))]
    assert np.allclose(d12, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    d34 = rep[row_of(group, (0, 1, 3, 2))]
    root8 = np.sqrt(8.0)
    expected = np.array([[-1 / 3, root8 / 3, 0], [root8 / 3, 1 / 3, 0], [0, 0, 1]])
    assert np.allclose(d34, expected, atol=1e-12)


def test_homomorphism_all_pairs():
    # Built here rather than read from the context, whose build rejects a representation
    # far enough off for its own checks, so that this bound can fail by itself.
    rep = build_standard_rep(symmetric_group(4))
    worst = 0.0
    table = product_table(rep.group)
    for i in range(24):
        for j in range(24):
            k = table[i, j]
            worst = max(worst, np.abs(rep[i] @ rep[j] - rep[k]).max())
    assert worst < EPS


def test_orthogonality():
    rep = build_standard_rep(symmetric_group(4))  # not the context's, as above
    for k in range(24):
        assert np.abs(rep[k].T @ rep[k] - np.eye(3)).max() < EPS


def test_build_rejects_wrong_group():
    with pytest.raises(ValueError):
        build_standard_rep(symmetric_group(3))


def test_character_of_standard_rep(rep):
    chi = character(rep)
    expected = dict(zip(CLASSES, (3.0, 1.0, -1.0, 0.0, -1.0)))
    for ct, value in expected.items():
        assert abs(chi[ct] - value) < EPS
    # character norm: sum over the group of chi^2 equals the group order
    sizes = {ct: len(idx) for ct, idx in conjugacy_classes(rep.group).items()}
    assert abs(sum(sizes[ct] * chi[ct] ** 2 for ct in CLASSES) - 24.0) < EPS


def test_character_of_trivial_rep(group):
    trivial = Representation(group, tuple(np.eye(1) for _ in group))
    chi = character(trivial)
    assert all(abs(v - 1.0) < EPS for v in chi.values())


def test_character_detects_corruption(group, rep):
    mats = list(rep.matrices)
    bad = row_of(group, (1, 0, 2, 3))
    mats[bad] = 2.0 * np.eye(3)
    corrupt = Representation(group, tuple(mats))
    with pytest.raises(RepresentationError):
        character(corrupt)
    with pytest.raises(ValueError, match="^one matrix per group element required$"):
        Representation(group, tuple(mats[1:]))
    with pytest.raises(RepresentationError, match="^identity element must map to the identity"):
        Representation(group, tuple(mats[::-1]))


def test_tensor_square_characters(group, rep, product):
    for k in range(len(group)):
        assert abs(np.trace(product[k]) - np.trace(rep[k]) ** 2) < EPS
    d12 = row_of(group, (1, 0, 2, 3))
    assert abs(np.trace(product[d12]) - 1.0) < EPS


def test_tensor_identity(product):
    assert np.array_equal(product[0], np.eye(9))


def test_tensor_rejects_group_mismatch(rep):
    # S3 has another shape and S4 with its rows reordered the same one; both
    # must reach the check, not numpy's broadcast or truth-value errors.
    for other in (symmetric_group(3), symmetric_group(4)[::-1]):
        with pytest.raises(ValueError, match="different groups"):
            tensor_product(rep, trivial_rep(other))


def test_tensor_accepts_equal_groups_from_separate_calls():
    a, b = symmetric_group(4), symmetric_group(4)
    assert a is not b
    product = tensor_product(build_standard_rep(a), trivial_rep(b))
    assert np.array_equal(product.matrices, build_standard_rep(a).matrices)


def trivial_rep(group):
    return Representation(group, tuple(np.eye(1) for _ in group))


def test_projector_algebra(projectors):
    assert projectors.shape == (4, 9, 9)
    assert not projectors.flags.writeable
    projs = dict(zip(tables.COMPONENT_ORDER, projectors))
    dims = tables.COMPONENT_DIMS
    assert dims == {"D": 3, "Dt": 3, "D2": 2, "D0": 1}
    total = np.zeros((9, 9))
    for label, p in projs.items():
        assert np.abs(p - p.T).max() < EPS
        assert np.abs(p @ p - p).max() < EPS
        assert abs(np.trace(p) - dims[label]) < EPS
        total += p
        for other, q in projs.items():
            if other != label:
                assert np.abs(p @ q).max() < EPS
    assert np.abs(total - np.eye(9)).max() < EPS


def test_projectors_match_per_element_loop(group, rep, product, projectors):
    # Reference: the group average as a loop over elements, accumulated in
    # group order from zero.  The stacked reduction does the same IEEE
    # operations in the same order, so the result is bit-identical.
    chi_std = character(rep)
    for s, label in enumerate(tables.COMPONENT_ORDER):
        acc = np.zeros((9, 9))
        classes = conjugacy_classes(group)
        for k in range(len(group)):
            ct = next(ct for ct, rows in classes.items() if k in rows)
            d = chi_std[ct]
            dt = sign(group[k]) * d  # the character of the sign twist
            chi = {"D": d, "Dt": dt, "D2": d ** 2 - d - dt - 1.0, "D0": 1.0}[label]
            acc += chi * product[k]
        expected = (tables.COMPONENT_DIMS[label] / len(group)) * acc
        assert projectors[s].tobytes() == expected.tobytes()


def test_component_character_orthogonality(group, product, projectors):
    # The character of each component is tr(P_s M(g)); distinct components
    # must have orthogonal characters over the group.
    chars = {
        label: np.array([np.trace(projector @ product[k])
                         for k in range(len(group))])
        for label, projector in zip(tables.COMPONENT_ORDER, projectors)
    }
    for s in chars:
        for r in chars:
            ip = float(chars[s] @ chars[r]) / len(group)
            assert abs(ip - (1.0 if s == r else 0.0)) < EPS


def test_scalar_projector_closed_form(projectors):
    # rank-one projector onto the normalized vectorized identity, built
    # here from the last row of the bundled change of basis
    u = tables.BLOCK_BASIS[8]
    expected = np.outer(u, u)
    assert np.abs(projectors[tables.COMPONENT_ORDER.index("D0")] - expected).max() < EPS


def test_projectors_reject_wrong_product(group, rep):
    with pytest.raises(DecompositionError):
        isotypic_projectors(rep, rep)


def test_validate_block_basis(projectors):
    report = validate_block_basis(projectors)
    assert set(report) == {"orthogonality", "D", "Dt", "D2", "D0"}
    assert max(report.values()) < EPS


def test_validate_block_basis_reports_each_projectors_deviation(projectors):
    # The printed margins mask their digits, so the report is held to the per-projector
    # conjugation bit for bit, in the order orthogonality, then tables.COMPONENT_ORDER.
    basis = tables.BLOCK_BASIS
    expected = {"orthogonality": float(np.abs(basis @ basis.T - np.eye(9)).max())}
    for label, projector in zip(tables.COMPONENT_ORDER, projectors):
        indicator = np.zeros((9, 9))
        for r in tables.BLOCK_ROWS[label]:
            indicator[r, r] = 1.0
        expected[label] = float(np.abs(basis @ projector @ basis.T - indicator).max())
    report = validate_block_basis(projectors)
    assert list(report.items()) == list(expected.items())


@pytest.mark.parametrize("shape, offset", [((1, 9, 9), 0), ((3, 9, 9), 0), ((4, 8, 8), 0),
                                           ((4, 9, 9), 1e-12j)],
                         ids=["shape0", "shape1", "shape2", "complex"])
def test_validate_block_basis_rejects_a_misshapen_stack(projectors, shape, offset):
    # A (1, 9, 9) stack would otherwise broadcast against all four block indicators, and a
    # complex one passed on its real part.
    with pytest.raises(ValueError, match=r"^projectors must be a real \(4, 9, 9\) array$"):
        validate_block_basis(np.resize(projectors, shape) + offset)


def test_validate_block_basis_detects_swap(projectors):
    # D and Dt trade projectors
    swapped = projectors[[1, 0, 2, 3]]
    with pytest.raises(TableMismatchError):
        validate_block_basis(swapped)


@pytest.mark.parametrize("label", ["D", "Dt", "D2", "D0"])
def test_validate_block_basis_rejects_nan_projector(projectors, label):
    # A NaN deviation compares False against EPS, and max() may drop it,
    # depending on where it sits in the report.
    broken = projectors.copy()
    broken[tables.COMPONENT_ORDER.index(label), 0, 0] = np.nan
    with pytest.raises(TableMismatchError, match="nan"):
        validate_block_basis(broken)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j], ids=["nan", "inf", "complex"])
def test_non_finite_matrix_entry_is_rejected(ctx, bad):
    # Without the check, a NaN in one product matrix passes the projector trace test and
    # isotypic_projectors returns four all-NaN projectors; a complex one lost its imaginary part.
    mats = ctx.product.matrices.astype(type(bad))
    mats[5, 0, 0] += bad
    with pytest.raises(RepresentationError, match="finite"):
        isotypic_projectors(Representation(ctx.group, mats), ctx.rep)


def test_projection_norm_is_basis_free(projectors, rng):
    basis = tables.BLOCK_BASIS
    for _ in range(100):
        v = random_unit(rng, 9)
        w = basis @ v
        for label, projector in zip(tables.COMPONENT_ORDER, projectors):
            block = sum(w[r] ** 2 for r in tables.BLOCK_ROWS[label])
            norm = float(np.dot(projector @ v, projector @ v))
            assert abs(norm - block) < EPS


def test_array_holders_hash_and_compare_by_identity(ctx, case_pairs):
    # Representation, Orbit, Context and SumSpectrum hold arrays, and
    # WinningTable caches a dict and StrategyHistogram holds one, so they
    # compare and hash by identity rather than field by field.
    assert hash(standard_context()) == hash(ctx)
    spectrum = max_eigenvalue_sum(case_pairs["I"], ctx)
    expr = bell_terms(case_pairs["I"])
    holders = (winning_table(expr), classical_histogram(expr))
    for obj in (ctx.rep, ctx.orbit, ctx, spectrum, *holders):
        hash(obj)
        assert obj == obj
        assert obj != dataclasses.replace(obj)
