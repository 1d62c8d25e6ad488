import json

import numpy as np
import pytest

from s4bell import tables
from s4bell.orbit import (
    DegenerateOrbitError,
    PartitionError,
    generate_orbit,
    match_reference_labels,
    orbit_to_json,
    partition_into_bases,
    tetrahedron_orbit,
)
from s4bell.tables import TableMismatchError

R3 = np.sqrt(3.0)


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


def test_labels_bijective(orbit):
    assert len({v.label for v in orbit.vectors}) == 24
    assert len({v.element for v in orbit.vectors}) == 24


def test_specific_labels(orbit):
    assert orbit.label_of_coords([R3 / 3, R3 / 3, R3 / 3]) == (8, 2)
    assert orbit.label_of_coords([R3 / 3, R3 / 3, -R3 / 3]) == (1, 0)


def test_all_unit_norm(orbit):
    for v in orbit.vectors:
        assert abs(np.linalg.norm(v.coords) - 1.0) < 1e-12


def test_vectors_are_images_of_seed(orbit, rep):
    for v in orbit.vectors:
        assert np.abs(rep[v.element] @ orbit.seed - v.coords).max() < 1e-12


def test_identity_maps_seed_to_itself(orbit):
    assert orbit.element_of(1, 0) == 0


def test_partition_is_unique(orbit):
    assert orbit.partition_count == 1


def test_triples_are_orthonormal_and_complete(orbit):
    for i in range(1, 9):
        frame = np.array([orbit.coords(i, a) for a in range(3)])
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-9
        resolution = sum(np.outer(row, row) for row in frame)
        assert np.abs(resolution - np.eye(3)).max() < 1e-9


def test_group_covariance(orbit, rep, group):
    table = group.product_table
    labels = [v.label for v in orbit.vectors]
    for g in range(group.order):
        for k, v in enumerate(orbit.vectors):
            moved = rep[g] @ v.coords
            lab = orbit.label_of_coords(moved)
            assert orbit.element_of(*lab) == table[g, v.element]
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
    with pytest.raises(ValueError):
        generate_orbit(rep, np.array([1.0, 1.0, 0.0]))


def test_mirrored_seed_partitions_but_cannot_match(rep):
    # the antipodal seed gives the mirrored orbit: it still splits into
    # orthonormal triples but shares no vector with the reference table
    orb = generate_orbit(rep, -tables.CANONICAL_SEED)
    assert len(orb.vectors) == 24
    for lo in range(0, 24, 3):
        frame = np.array([v.coords for v in orb.vectors[lo:lo + 3]])
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-9
    with pytest.raises(TableMismatchError):
        match_reference_labels(orb)


def test_other_orbit_vector_as_seed_matches(rep):
    # seeding anywhere on the same orbit reproduces the same labeled set
    seed = tables.ORBIT_TABLE[(8, 2)]
    orb = match_reference_labels(generate_orbit(rep, seed))
    assert np.abs(orb.coords(8, 2) - seed).max() < 1e-12
    for lab, expected in tables.ORBIT_TABLE.items():
        assert np.abs(orb.coords(*lab) - expected).max() < 1e-9


def test_partition_single_triple():
    triples, count = partition_into_bases(np.eye(3))
    assert triples == ((0, 1, 2),)
    assert count == 1


def test_partition_failure_on_perturbation(orbit):
    coords = [v.coords.copy() for v in orbit.vectors]
    coords[0] = coords[0] + np.array([1e-3, 0.0, 0.0])
    coords[0] /= np.linalg.norm(coords[0])
    with pytest.raises(PartitionError):
        partition_into_bases(coords)


def test_partition_rejects_bad_input():
    with pytest.raises(PartitionError):
        partition_into_bases(np.eye(3)[:2])
    with pytest.raises(ValueError):
        partition_into_bases([np.array([1.0, 0, 0]), np.array([1.0, 0, 0]),
                              np.array([0.0, 1, 0])])
    with pytest.raises(ValueError):
        partition_into_bases([np.array([2.0, 0, 0]), np.array([0.0, 1, 0]),
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
        assert entry["element"] == element.cycle_string()
