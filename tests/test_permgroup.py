import itertools

import numpy as np
import pytest

from conftest import row_of
from s4bell.permgroup import (
    conjugacy_classes,
    cycle_string,
    product_table,
    sign,
    symmetric_group,
)

S4 = symmetric_group(4)


def test_elements_sorted_identity_first():
    assert S4.shape == (24, 4)
    assert S4.tolist() == sorted(map(list, itertools.permutations(range(4))))
    assert S4[0].tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_product_table_composes_images(degree):
    # Every entry, against composing one-line images: (p q)(k) = p(q(k)).
    group = symmetric_group(degree)
    table = product_table(group)
    assert table.shape == (len(group), len(group))
    for i, p in enumerate(group):
        for j, q in enumerate(group):
            assert np.array_equal(group[table[i, j]], p[q])
    for array in (group, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_compose_identity():
    table = product_table(S4)
    assert table[0].tolist() == list(range(24))
    assert table[:, 0].tolist() == list(range(24))


def test_transposition_is_involution():
    swap = row_of(S4, (1, 0, 2, 3))
    assert product_table(S4)[swap, swap] == 0


def test_compose_three_cycle():
    # (12) after (23) maps 1 -> 2 -> 3 -> 1, one-line images (1, 2, 0, 3)
    k = product_table(S4)[row_of(S4, (1, 0, 2, 3)), row_of(S4, (0, 2, 1, 3))]
    assert S4[k].tolist() == [1, 2, 0, 3]


def test_s4_class_sizes():
    sizes = {ct: len(idx) for ct, idx in conjugacy_classes(S4).items()}
    assert sizes == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 6,
        (2, 2): 3,
        (3, 1): 8,
        (4,): 6,
    }
    # 5 classes, not 6
    assert len(sizes) == 5
    assert list(sizes) == sorted(sizes)


def test_sign_examples():
    assert sign(S4[0]) == 1
    assert sign((1, 0, 2, 3)) == -1
    assert sign((1, 0, 3, 2)) == 1


def test_sign_multiplicative_exhaustive():
    table = product_table(S4)
    for i, p in enumerate(S4):
        for j, q in enumerate(S4):
            assert sign(S4[table[i, j]]) == sign(p) * sign(q)


def test_cycle_type_examples():
    classes = conjugacy_classes(S4)
    assert 0 in classes[(1, 1, 1, 1)]
    assert row_of(S4, (1, 0, 2, 3)) in classes[(2, 1, 1)]
    assert row_of(S4, (1, 2, 3, 0)) in classes[(4,)]


def test_conjugate_iff_same_cycle_type():
    # q p q^-1 runs over exactly the class of p as q runs over the group.
    table = product_table(S4)
    inverse = np.argmax(table == 0, axis=1)
    for members in conjugacy_classes(S4).values():
        for p in members:
            assert set(table[table[:, p], inverse].tolist()) == set(members)


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
        assert cycle_string(images) == text
    names = {cycle_string(p) for p in S4}
    assert len(names) == 24


def test_cycle_string_identity():
    assert cycle_string(S4[0]) == "e"
    assert cycle_string(np.array([1, 0, 3, 2])) == "(1 2)(3 4)"
