"""Bell inequalities and nonlocal games from the standard representation of S4.

The package derives everything from six bundled reflection matrices: the
group and its three-dimensional representation, the labeled 24-vector
orbit, quantum bounds via the isotypic split of the tensor square,
classical bounds via exhaustive strategy enumeration, and the values of
the associated nonlocal games.  `standard_context()` builds the whole
stack once; the `s4bell` command exposes it on the command line.
"""

from .classical import (
    BellExpression,
    StrategyHistogram,
    Term,
    bell_terms,
    classical_histogram,
    classical_max,
    coefficient,
    configuration_from_index,
    configuration_index,
    histogram_csv,
    optimal_classical_strategy,
)
from .context import Context, standard_context
from .game import GameValue, WinningTable, evaluate_strategy, game_values, winning_table
from .orbit import (
    MATCH_TOL,
    DegenerateOrbitError,
    Orbit,
    OrbitPair,
    OrbitVector,
    PartitionError,
    all_labels,
    canonical_orbit,
    generate_orbit,
    match_reference_labels,
    orbit_to_json,
    partition_into_bases,
    tetrahedron_orbit,
)
from .permgroup import (
    GroupTable,
    Permutation,
    generate_group,
    parse_cycles,
    symmetric_group,
)
from .quantum import (
    EIG_TOL,
    SumSpectrum,
    build_x_operator,
    eigenvalues_direct,
    eigenvalues_isotypic,
    jacobi_eigh,
    max_eigenvalue_sum,
)
from .representation import (
    EPS,
    DecompositionError,
    IsotypicComponent,
    IsotypicDecomposition,
    Representation,
    RepresentationError,
    alternating_twist,
    build_standard_rep,
    character,
    isotypic_projectors,
    tensor_product,
    validate_block_basis,
)
from .tables import TableMismatchError

__version__ = "0.1.0"
