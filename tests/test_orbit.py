import dataclasses
import json

import numpy as np
import pytest

from s4bell import tables
from s4bell.permgroup import cycle_string, product_table
from s4bell.orbit import (
    DegenerateOrbitError,
    PartitionError,
    all_labels,
    generate_orbit,
    match_reference_labels,
    orbit_to_json,
    partition_into_bases,
    tetrahedron_orbit,
)
from s4bell.tables import TableMismatchError


def test_orbit_pair_label_validation():
    from s4bell.orbit import OrbitPair

    with pytest.raises(ValueError):
        OrbitPair((9, 0), (1, 0))
    with pytest.raises(ValueError):
        OrbitPair((1, 0), (1, 3))


@pytest.mark.parametrize("bad", ["1", 1.5, 1.0])
def test_non_integer_labels_rejected(bad):
    from s4bell.orbit import OrbitPair

    for alice, bob in (((bad, 0), (1, 0)), ((1, 0), (1, bad))):
        with pytest.raises(ValueError, match="integers"):
            OrbitPair(alice, bob)


def test_orbit_reproduces_reference_table(orbit):
    for lab, expected in tables.ORBIT_TABLE.items():
        assert np.abs(orbit.coords(*lab) - expected).max() < 1e-9


def test_orbit_points_are_the_table_in_label_order():
    # verify and match_reference_labels read this array in place of the table.
    assert tables.ORBIT_POINTS.shape == (24, 3) and not tables.ORBIT_POINTS.flags.writeable
    for k, lab in enumerate(all_labels()):
        assert np.array_equal(tables.ORBIT_POINTS[k], tables.ORBIT_TABLE[lab])


def test_labels_bijective(orbit):
    assert orbit.points.shape == (24, 3)
    assert len(set(orbit.elements.tolist())) == 24


def test_all_unit_norm(orbit):
    for point in orbit.points:
        assert abs(np.linalg.norm(point) - 1.0) < 1e-12


def test_vectors_are_images_of_seed(orbit, rep):
    for point, element in zip(orbit.points, orbit.elements):
        assert np.abs(rep[element] @ orbit.seed - point).max() < 1e-12


def test_identity_maps_seed_to_itself(orbit):
    assert orbit.element_of(1, 0) == 0


def test_partition_is_unique(orbit):
    # every vector has exactly two orthogonal partners, orthogonal to each
    # other, so its basis is forced and the split is unique
    orthogonal = np.abs(orbit.points @ orbit.points.T) < 1e-9
    assert (orthogonal.sum(axis=1) == 2).all()
    assert partition_into_bases(orbit.points) == tuple(
        (k, k + 1, k + 2) for k in range(0, 24, 3)
    )


def test_triples_are_orthonormal_and_complete(orbit):
    for i in range(1, 9):
        frame = np.array([orbit.coords(i, a) for a in range(3)])
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-9
        resolution = sum(np.outer(row, row) for row in frame)
        assert np.abs(resolution - np.eye(3)).max() < 1e-9


def test_group_covariance(orbit, rep, group):
    table = product_table(group)
    labels = all_labels()
    for g in range(len(group)):
        for k, (point, element) in enumerate(zip(orbit.points, orbit.elements)):
            moved = rep[g] @ point
            lab = labels[int(np.argmin(np.linalg.norm(orbit.points - moved, axis=1)))]
            assert orbit.element_of(*lab) == table[g, element]
            # the label action (group product route) agrees with geometry
            assert orbit.label_action[g, k] == labels.index(lab)


def test_relabeling_preserves_geometry(orbit, rng):
    labels = sorted(tables.ORBIT_TABLE)
    for _ in range(50):
        a, b = rng.integers(0, 24, 2)
        la, lb = labels[int(a)], labels[int(b)]
        lhs = float(orbit.coords(*la) @ orbit.coords(*lb))
        rhs = float(tables.ORBIT_TABLE[la] @ tables.ORBIT_TABLE[lb])
        assert abs(lhs - rhs) < 1e-9


def test_degenerate_seed_raises(rep):
    with pytest.raises(DegenerateOrbitError) as err:
        generate_orbit(rep, np.array([1.0, 0.0, 0.0]))
    assert err.value.size == 4


def test_non_unit_seed_rejected(rep):
    for seed in ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="unit"):
            generate_orbit(rep, np.array(seed))


def test_mirrored_seed_partitions_but_cannot_match(rep):
    # the antipodal seed gives the mirrored orbit: it still splits into
    # orthonormal triples but shares no vector with the reference table
    orb = generate_orbit(rep, -tables.CANONICAL_SEED)
    assert orb.points.shape == (24, 3)
    for lo in range(0, 24, 3):
        frame = orb.points[lo:lo + 3]
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-9
    # The first failing vector in row order is the one reported.
    message = f"^orbit vector with element {orb.elements[0]} matches 0 table entries$"
    with pytest.raises(TableMismatchError, match=message):
        match_reference_labels(orb)


def test_two_vectors_on_one_table_entry_are_not_matched(orbit):
    # Each vector matches exactly one entry, but entry x01 is matched twice.
    points = orbit.points.copy()
    points[1] = points[0]
    with pytest.raises(TableMismatchError, match="not assigned bijectively"):
        match_reference_labels(dataclasses.replace(orbit, points=points))


def test_other_orbit_vector_as_seed_matches(rep):
    # seeding anywhere on the same orbit reproduces the same labeled set
    seed = tables.ORBIT_TABLE[(8, 2)]
    orb = match_reference_labels(generate_orbit(rep, seed))
    assert np.abs(orb.coords(8, 2) - seed).max() < 1e-12
    for lab, expected in tables.ORBIT_TABLE.items():
        assert np.abs(orb.coords(*lab) - expected).max() < 1e-9


def test_partition_single_triple():
    assert partition_into_bases(np.eye(3)) == ((0, 1, 2),)


def test_partition_rejects_non_unique_split():
    # +-e_i splits into orthonormal triples in four ways; e_1 has four
    # orthogonal partners, so no basis is forced
    with pytest.raises(PartitionError, match="vector 0 "):
        partition_into_bases(np.vstack([np.eye(3), -np.eye(3)]))


def test_partition_failure_on_perturbation(orbit):
    coords = orbit.points.copy()
    coords[0] = coords[0] + np.array([1e-3, 0.0, 0.0])
    coords[0] /= np.linalg.norm(coords[0])
    with pytest.raises(PartitionError):
        partition_into_bases(coords)


def test_partition_rejects_bad_input():
    with pytest.raises(PartitionError):
        partition_into_bases(np.eye(3)[:2])
    with pytest.raises(ValueError, match="vectors 0 and 1 coincide"):
        partition_into_bases([np.array([1.0, 0, 0]), np.array([1.0, 0, 0]),
                              np.array([0.0, 1, 0])])
    for bad in (2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="unit"):
            partition_into_bases([np.array([bad, 0, 0]), np.array([0.0, 1, 0]),
                                  np.array([0.0, 0, 1])])


def test_tetrahedron(rep):
    tet = tetrahedron_orbit(rep)
    assert tet.shape == (4, 3)
    for expected in tables.TETRAHEDRON:
        assert min(np.linalg.norm(tet - expected, axis=1)) < 1e-9
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(float(tet[i] @ tet[j]) + 1 / 3) < 1e-9


def test_orbit_json_export(orbit, group):
    data = json.loads(orbit_to_json(orbit))
    assert set(data) == {"seed", "vectors"}
    assert len(data["vectors"]) == 24
    entry = data["vectors"][0]
    assert set(entry) == {"i", "alpha", "element", "coords"}
    for entry in data["vectors"]:
        element = group[orbit.element_of(entry["i"], entry["alpha"])]
        assert entry["element"] == cycle_string(element)


def test_rows_follow_label_order(orbit, rep):
    seeded = generate_orbit(rep, tables.ORBIT_TABLE[(8, 2)])
    mirrored = generate_orbit(rep, -tables.CANONICAL_SEED)
    for orb in (orbit, seeded, mirrored):
        for arr in (orb.seed, orb.points, orb.elements):
            assert not arr.flags.writeable
        for k, lab in enumerate(all_labels()):
            assert (orb.coords(*lab) == orb.points[k]).all()
            assert orb.element_of(*lab) == orb.elements[k]
        for lab in ((0, 0), (9, 0), (1, 3), (1, -1)):
            with pytest.raises(KeyError):
                orb.coords(*lab)
            with pytest.raises(KeyError):
                orb.element_of(*lab)


def test_label_action_rejects_elements_that_repeat_a_group_row(orbit):
    # Row 1 given row 0's element: one group row is held twice and another not at all.
    elements = orbit.elements.copy()
    elements[1] = elements[0]
    with pytest.raises(ValueError, match="each group row exactly once"):
        dataclasses.replace(orbit, elements=elements).label_action


def test_each_row_of_class_of_is_a_permutation(orbit):
    # S4 acts regularly on the 24 labels, so with Alice's label fixed each pair class holds
    # exactly one of her pairs: Bob's labels and the classes correspond one to one.
    assert orbit.class_of.shape == (24, 24)
    for row in orbit.class_of:
        assert sorted(row.tolist()) == list(range(24))
