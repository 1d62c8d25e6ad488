"""One-stop construction of the standard S4 machinery."""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .orbit import Orbit, canonical_orbit
from .permgroup import symmetric_group
from .representation import (
    Representation,
    build_standard_rep,
    isotypic_projectors,
    tensor_product,
)

__all__ = ["Context", "standard_context"]


@dataclass(frozen=True, eq=False)
class Context:
    """Group, standard representation, tensor square, projectors, orbit, and lazy tables."""

    group: np.ndarray  # (24, 4) one-line images, see permgroup
    rep: Representation
    product: Representation
    projectors: np.ndarray  # (4, 9, 9), in the order of tables.COMPONENT_ORDER
    orbit: Orbit

    @cached_property
    def pair_model(self):
        """This object's quantum.PairModel, made on first read; a replaced context has its own."""
        from .quantum import PairModel  # quantum imports this module
        return PairModel(self)

    @cached_property
    def class_tables(self):
        """This object's classical tables, made on first read; a replaced context has its own."""
        from .classical import _ClassTables  # classical imports this module
        return _ClassTables(self)


@lru_cache(maxsize=1)
def standard_context() -> Context:
    """Build (once) everything derived from the bundled S4 data."""
    group = symmetric_group(4)
    rep = build_standard_rep(group)
    product = tensor_product(rep, rep)
    projectors = isotypic_projectors(product, rep)
    orbit = canonical_orbit(rep)
    return Context(group, rep, product, projectors, orbit)
