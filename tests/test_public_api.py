"""The public names of the `s4bell` package, pinned so that adding or
removing one shows up as a deliberate change to this list."""

import importlib
import importlib.util
import types

from conftest import fresh_python

import s4bell

PUBLIC_NAMES = [
    "BellExpression", "Context", "DecompositionError", "DegenerateOrbitError",
    "EIG_TOL", "EPS", "GameValue", "MATCH_TOL", "N_OUTCOMES", "N_SETTINGS", "Orbit",
    "OrbitPair", "PartitionError", "Representation", "RepresentationError",
    "StrategyHistogram", "SumSpectrum", "TableMismatchError", "Term",
    "WinningTable", "all_labels", "bell_terms",
    "build_standard_rep", "build_x_operator", "canonical_orbit", "character",
    "classical_histogram", "classical_max", "coefficient", "conjugacy_classes",
    "cycle_string", "eigenvalues_direct", "eigenvalues_isotypic", "game_values",
    "generate_orbit", "histogram_csv", "isotypic_projectors", "jacobi_eigh",
    "match_reference_labels", "max_eigenvalue_sum", "optimal_classical_strategy",
    "orbit_to_json", "partition_into_bases", "product_table", "sign",
    "standard_context", "symmetric_group", "tensor_product", "tetrahedron_orbit",
    "validate_block_basis", "winning_table",
]
# The submodules whose `__all__` the package re-exports.
EXPORTING = ["classical", "context", "game", "orbit", "permgroup", "quantum", "representation"]


def _submodule(name):
    return importlib.import_module(f"s4bell.{name}")


def test_public_namespace_is_pinned():
    assert sorted(s4bell.__all__) == PUBLIC_NAMES
    # Submodules are left out: importing one (say `s4bell.cli`) binds it
    # on the package whether or not it is meant as API.
    names = sorted(
        name for name in dir(s4bell)
        if not name.startswith("_") and not isinstance(getattr(s4bell, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    # The lazy table maps each name to the submodule whose `__all__` holds it.
    lazy = {name: home for name, home in s4bell._LAZY.items() if name != home}
    homes = {name: module for module in EXPORTING for name in _submodule(module).__all__}
    assert lazy == {**homes, "TableMismatchError": "tables"}
    for name, home in lazy.items():
        assert getattr(s4bell, name) is getattr(_submodule(home), name), name


def test_package_names_follow_their_submodule(monkeypatch):
    # A tracer patches the name in the submodule that holds it, and a name read
    # through the package while patched must not stay patched there afterwards.
    original = _submodule("context").standard_context
    with monkeypatch.context() as patch:
        patch.setattr(_submodule("context"), "standard_context", lambda: None)
        assert s4bell.standard_context() is None
    assert s4bell.standard_context is original
    assert "standard_context" not in vars(s4bell)


LAZY_PROBE = """
import sys
import s4bell
s4bell.standard_context()
print(*sorted(set(sys.argv[1:]) & set(sys.modules)))
print(s4bell.classical.bell_terms.__module__)
"""
# numpy.ma (about 9 ms) is what `np.unique` would load.
UNUSED_BY_THE_CONTEXT = ["fractions", "json", "numpy.ma", "s4bell.classical", "s4bell.cli",
                         "s4bell.game", "s4bell.quantum"]


def test_building_the_context_loads_only_its_modules():
    result = fresh_python(["-c", LAZY_PROBE, *UNUSED_BY_THE_CONTEXT],
                          capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # None of these real modules was loaded, and a name read afterwards still resolves.
    assert all(importlib.util.find_spec(module) for module in UNUSED_BY_THE_CONTEXT)
    assert result.stdout == "\ns4bell.classical\n"
