"""The symmetric group as one read-only array of one-line images.

Row k of `symmetric_group(n)` is the k-th permutation of 0..n-1 in
lexicographic order, written as its images (p(0), ..., p(n-1)); the
identity is row 0.  That order pins down every element index used
downstream (orbit labels, term order, JSON output).  Degree is generic even
though the rest of the package only ever feeds S4 into the representation
layer.  Products, conjugacy classes, signs and cycle notation are plain
functions of the array or of one row.
"""

import itertools

import numpy as np

__all__ = [
    "symmetric_group",
    "product_table",
    "conjugacy_classes",
    "sign",
    "cycle_string",
]


def symmetric_group(degree):
    """The (degree!, degree) read-only int array of all one-line images, ascending."""
    group = np.array(list(itertools.permutations(range(degree))), dtype=np.int64)
    group.setflags(write=False)
    return group


def product_table(group):
    """[i, j]: row of group[i] after group[j], (p q)(k) = p(q(k)), whose images are
    group[i][group[j]].  Rows are told apart by their base-n codes.  Read-only."""
    degree = group.shape[1]
    place = degree ** np.arange(degree - 1, -1, -1)
    code = np.empty(degree**degree, dtype=np.int64)
    code[group @ place] = np.arange(len(group))
    table = code[group[:, group] @ place]
    table.setflags(write=False)
    return table


def _cycles(p):
    """Disjoint cycles of the row p, fixed points included, each from its smallest point."""
    cycles, seen = [], set()
    for start in range(len(p)):
        if start not in seen:
            cycle = [start]
            while (k := int(p[cycle[-1]])) != start:
                cycle.append(k)
            cycles.append(cycle)
            seen.update(cycle)
    return cycles


def conjugacy_classes(group):
    """Row indices grouped by cycle type (conjugacy class in S_n), sorted by the type:
    the multiset of cycle lengths, decreasing, fixed points included."""
    classes = {}
    for k, p in enumerate(group):
        cycle_type = tuple(sorted(map(len, _cycles(p)), reverse=True))
        classes.setdefault(cycle_type, []).append(k)
    return {ct: tuple(rows) for ct, rows in sorted(classes.items())}


def sign(p):
    """+1 or -1: the parity of the row p."""
    return -1 if (len(p) - len(_cycles(p))) % 2 else 1


def cycle_string(p):
    """Cycle notation of the row p with 1-based points; the identity prints as "e"."""
    cycles = [c for c in _cycles(p) if len(c) > 1]
    return "".join("(" + " ".join(str(k + 1) for k in c) + ")" for c in cycles) or "e"
