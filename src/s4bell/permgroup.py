"""Finite permutation groups in one-line notation.

Degree is generic even though the rest of the package only ever feeds S4
into the representation layer.  Elements are immutable and hashable; the
symmetric group keeps its elements sorted lexicographically by their
one-line images, which pins down every index used downstream (orbit labels,
term order, JSON output).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Permutation",
    "GroupTable",
    "symmetric_group",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}; images[k] is where k maps."""

    images: tuple

    def __post_init__(self):
        images = tuple(int(k) for k in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        """Composition acting right to left: (p * q)(k) = p(q(k))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(
                f"incompatible permutations: degree {self.degree} vs {other.degree}"
            )
        return Permutation(tuple(self.images[j] for j in other.images))

    def cycles(self):
        """Disjoint cycles of length >= 2, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self):
        """Multiset of cycle lengths, sorted decreasing (fixed points included)."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def sign(self):
        return -1 if (self.degree - len(self.cycle_type())) % 2 else 1

    def cycle_string(self):
        """Cycle notation with 1-based points; the identity prints as "e"."""
        cycles = self.cycles()
        if not cycles:
            return "e"
        return "".join("(" + " ".join(str(k + 1) for k in c) + ")" for c in cycles)

    @classmethod
    def transposition(cls, i, j, degree):
        """Swap of the 0-based points i and j."""
        images = list(range(degree))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))


@dataclass(frozen=True)
class GroupTable:
    """All elements of a finite permutation group, in canonical order.

    The canonical order is lexicographic on one-line images, which places
    the identity at index 0.  Multiplication is precomputed as an index
    table.
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")

    @property
    def order(self):
        return len(self.elements)

    @property
    def degree(self):
        return self.elements[0].degree

    @cached_property
    def _index(self):
        return {p: k for k, p in enumerate(self.elements)}

    def index(self, p):
        return self._index[p]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    @cached_property
    def product_table(self):
        """product_table[i, j] is the index of elements[i] * elements[j]."""
        n = self.order
        table = np.empty((n, n), dtype=np.int64)
        for i, p in enumerate(self.elements):
            for j, q in enumerate(self.elements):
                table[i, j] = self._index[p * q]
        table.setflags(write=False)
        return table

    @cached_property
    def conjugacy_classes(self):
        """Element indices grouped by cycle type (conjugacy class in S_n)."""
        classes = {}
        for k, p in enumerate(self.elements):
            classes.setdefault(p.cycle_type(), []).append(k)
        return {ct: tuple(idx) for ct, idx in sorted(classes.items())}


def symmetric_group(degree):
    """The full symmetric group on `degree` points, in canonical order."""
    return GroupTable(tuple(map(Permutation, itertools.permutations(range(degree)))))
