"""Bell inequalities and nonlocal games from the standard representation of S4.

The package derives everything from six bundled reflection matrices: the
group and its three-dimensional representation, the labeled 24-vector
orbit, quantum bounds via the isotypic split of the tensor square,
classical bounds via exhaustive strategy enumeration, and the values of
the associated nonlocal games.  `standard_context()` builds the whole
stack once; the `s4bell` command exposes it on the command line.  Names
load on first read: each imports only the submodule that holds it.
"""

import importlib

__version__ = "0.1.0"

# [name]: its submodule.  Each line is a submodule, then public names it holds.
_LAZY = {name: line.split()[0] for line in """
classical BellExpression StrategyHistogram Term bell_terms classical_histogram classical_max
classical coefficient optimal_classical_strategy
context Context standard_context
game GameValue WinningTable game_values winning_table
orbit DegenerateOrbitError MATCH_TOL N_OUTCOMES N_SETTINGS Orbit OrbitPair PartitionError
orbit all_labels canonical_orbit generate_orbit match_reference_labels
orbit partition_into_bases tetrahedron_orbit
permgroup conjugacy_classes cycle_string product_table sign symmetric_group
quantum EIG_TOL SumSpectrum build_x_operator eigenvalues_direct eigenvalues_isotypic
quantum jacobi_eigh max_eigenvalue_sum
representation DecompositionError EPS Representation RepresentationError build_standard_rep
representation character isotypic_projectors tensor_product validate_block_basis
tables TableMismatchError
cli
""".strip().splitlines() for name in line.split()}
__all__ = sorted(name for name, home in _LAZY.items() if name != home)


def __getattr__(name):
    """`name` as its submodule binds it now, importing that submodule on first read.
    Not kept here, so a name patched in its submodule reads the same here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
