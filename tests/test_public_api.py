"""The public names of the `s4bell` package, pinned so that adding or
removing one shows up as a deliberate change to this list."""

import types

import s4bell

PUBLIC_NAMES = [
    "BellExpression", "Context", "DecompositionError", "DegenerateOrbitError",
    "EIG_TOL", "EPS", "GameValue", "MATCH_TOL", "N_OUTCOMES", "N_SETTINGS", "Orbit",
    "OrbitPair", "PartitionError", "Representation", "RepresentationError",
    "StrategyHistogram", "SumSpectrum", "TableMismatchError", "Term",
    "WinningTable", "all_labels", "alternating_twist", "bell_terms",
    "build_standard_rep", "build_x_operator", "canonical_orbit", "character",
    "classical_histogram", "classical_max", "coefficient", "conjugacy_classes",
    "cycle_string", "eigenvalues_direct", "eigenvalues_isotypic", "game_values",
    "generate_orbit", "histogram_csv", "isotypic_projectors", "jacobi_eigh",
    "match_reference_labels", "max_eigenvalue_sum", "optimal_classical_strategy",
    "orbit_to_json", "partition_into_bases", "product_table", "sign",
    "standard_context", "symmetric_group", "tensor_product", "tetrahedron_orbit",
    "validate_block_basis", "winning_table",
]


def test_public_namespace_is_pinned():
    # Submodules are left out: importing one (say `s4bell.cli`) binds it
    # on the package whether or not it is meant as API.
    names = sorted(
        name for name, value in vars(s4bell).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
