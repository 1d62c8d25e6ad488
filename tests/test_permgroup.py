import numpy as np
import pytest

from s4bell.permgroup import Permutation, symmetric_group


def t(i, j, n=4):
    return Permutation.transposition(i, j, n)


E4 = Permutation((0, 1, 2, 3))


def test_compose_identity():
    assert E4 * t(0, 1) == t(0, 1)
    assert t(0, 1) * E4 == t(0, 1)


def test_transposition_is_involution():
    assert t(0, 1) * t(0, 1) == E4


def test_compose_three_cycle():
    # (12) after (23) maps 1 -> 2 -> 3 -> 1, one-line images (1, 2, 0, 3)
    assert (t(0, 1) * t(1, 2)).images == (1, 2, 0, 3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="incompatible"):
        t(0, 1, 4) * t(0, 1, 3)


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1, 2))


def test_elements_sorted_identity_first():
    group = symmetric_group(4)
    images = [p.images for p in group]
    assert images == sorted(images)
    assert group[0] == E4


def test_s4_class_sizes():
    group = symmetric_group(4)
    sizes = {ct: len(idx) for ct, idx in group.conjugacy_classes.items()}
    assert sizes == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 6,
        (2, 2): 3,
        (3, 1): 8,
        (4,): 6,
    }
    # 5 classes, not 6
    assert len(sizes) == 5


def test_sign_examples():
    assert E4.sign() == 1
    assert t(0, 1).sign() == -1
    assert (t(0, 1) * t(2, 3)).sign() == 1


def test_sign_multiplicative_exhaustive():
    group = symmetric_group(4)
    for p in group:
        for q in group:
            assert (p * q).sign() == p.sign() * q.sign()


def test_cycle_type_examples():
    assert E4.cycle_type() == (1, 1, 1, 1)
    assert t(0, 1).cycle_type() == (2, 1, 1)
    four_cycle = Permutation((1, 2, 3, 0))
    assert four_cycle.cycle_type() == (4,)


def test_conjugate_iff_same_cycle_type():
    group = symmetric_group(4)
    for p in group:
        conjugates = {q * p * Permutation(tuple(np.argsort(q.images))) for q in group}
        assert {c.cycle_type() for c in conjugates} == {p.cycle_type()}


def test_associativity_random_triples():
    rng = np.random.default_rng(7)
    group = symmetric_group(5)
    for _ in range(100):
        p, q, r = (group[int(k)] for k in rng.integers(0, group.order, 3))
        assert (p * q) * r == p * (q * r)


def test_product_table_consistent():
    group = symmetric_group(4)
    table = group.product_table
    for i in (0, 3, 11, 23):
        for j in (0, 5, 17):
            assert group[table[i, j]] == group[i] * group[j]


def test_cycle_string_names_each_element():
    # One element per conjugacy class, then no two elements share a name.
    examples = {
        (0, 1, 2, 3): "e",
        (1, 0, 2, 3): "(1 2)",
        (1, 0, 3, 2): "(1 2)(3 4)",
        (1, 2, 0, 3): "(1 2 3)",
        (1, 2, 3, 0): "(1 2 3 4)",
    }
    for images, text in examples.items():
        assert Permutation(images).cycle_string() == text
    names = {p.cycle_string() for p in symmetric_group(4)}
    assert len(names) == 24


def test_cycle_string_identity():
    assert E4.cycle_string() == "e"
    assert (t(0, 1) * t(2, 3)).cycle_string() == "(1 2)(3 4)"
