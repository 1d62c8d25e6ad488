"""Bell inequalities and nonlocal games from the standard representation of S4.

The package derives everything from six bundled reflection matrices: the
group and its three-dimensional representation, the labeled 24-vector
orbit, quantum bounds via the isotypic split of the tensor square,
classical bounds via exhaustive strategy enumeration, and the values of
the associated nonlocal games.  `standard_context()` builds the whole
stack once; the `s4bell` command exposes it on the command line.
"""

from .classical import *
from .context import *
from .game import *
from .orbit import *
from .permgroup import *
from .quantum import *
from .representation import *
from .tables import TableMismatchError

__version__ = "0.1.0"
