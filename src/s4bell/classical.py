"""Classical bounds by exhaustive enumeration of deterministic strategies.

A Bell expression here is a plain multiset-free list of probability terms
P(a_s = a, b_t = b).  Under any joint distribution its value is bounded by
the largest number of terms a single deterministic configuration
(a_1..a_8, b_1..b_8) can satisfy, so the bound is found by scanning all
3**16 configurations.

The scan is separable: settings on Bob's side decouple once Alice's tuple
is fixed.  For every Alice tuple the table M[t][b] counts the terms with
Bob setting t and outcome b that Alice already satisfies; the coefficient
of a full configuration is then a sum of eight lookups, the per-tuple
maximum is the sum of per-setting maxima, and the per-tuple histogram is
the product over Bob's settings of the polynomials sum_b x**M[t][b].

The scan is also symmetry-reduced.  Each element of S4 permutes the
orbit labels and maps measurement bases onto bases, so it permutes Alice
tuples; the 3**8 tuples fall into 306 orbits.  When the term set of an
8-setting expression maps onto itself under every element (true of every
`bell_terms` output), the per-tuple maximum and histogram are constant on
each orbit, and one representative per orbit, weighted by the orbit size,
stands for all of its tuples.  The orbit table is built
on first use.  Any other expression takes the full scan over every tuple,
which also serves the tests as the reference.  `optimal_classical_strategy`
always scans every tuple, because it breaks ties over all of them.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .context import standard_context
from .orbit import Orbit, OrbitPair

__all__ = [
    "Term",
    "BellExpression",
    "StrategyHistogram",
    "bell_terms",
    "classical_max",
    "classical_histogram",
    "multiset_maxima",
    "optimal_classical_strategy",
    "coefficient",
    "configuration_index",
    "configuration_from_index",
    "histogram_csv",
]

# Outcomes per setting: one per vector of an orthonormal basis of R^3.
N_OUTCOMES = 3


class Term(NamedTuple):
    """One probability term P(a_s = a, b_t = b)."""

    s: int
    a: int
    t: int
    b: int


@dataclass(frozen=True)
class BellExpression:
    """An ordered list of distinct probability terms plus its provenance."""

    terms: tuple
    pairs: tuple = ()
    n_settings: int = 8

    def __post_init__(self):
        terms = tuple(Term(*t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        for term in terms:
            if not (1 <= term.s <= self.n_settings and 1 <= term.t <= self.n_settings):
                raise ValueError(f"setting out of range in {term}")
            if not (0 <= term.a < N_OUTCOMES and 0 <= term.b < N_OUTCOMES):
                raise ValueError(f"outcome out of range in {term}")
        if len(set(terms)) != len(terms):
            seen = set()
            dup = next(t for t in terms if t in seen or seen.add(t))
            raise ValueError(f"duplicate term {dup}")

    def __len__(self):
        return len(self.terms)


def bell_terms(pairs, orbit: Orbit) -> BellExpression:
    """Expand labeled orbit pairs into their probability terms.

    For each pair and each group element g, the images of the two seeds are
    located in the labeled orbit, giving one term per (pair, element) in
    canonical order.  Locating images uses the group product on recorded
    element indices, which is exact.  Duplicate terms across pairs raise
    ValueError.
    """
    pairs = tuple(p if isinstance(p, OrbitPair) else OrbitPair(*p) for p in pairs)
    product = orbit.group.product_table
    terms = []
    for pair in pairs:
        h_alice = orbit.element_of(*pair.alice)
        h_bob = orbit.element_of(*pair.bob)
        for g in range(orbit.group.order):
            try:
                s, a = orbit.label_of_element(int(product[g, h_alice]))
                t, b = orbit.label_of_element(int(product[g, h_bob]))
            except KeyError as exc:  # cannot happen for a full labeled orbit
                raise RuntimeError(f"orbit lookup miss for element {exc}") from exc
            terms.append(Term(s, a, t, b))
    return BellExpression(tuple(terms), pairs, n_settings=len(orbit.triples))


@dataclass(frozen=True)
class StrategyHistogram:
    """Configuration counts per coefficient value, including the zero bin."""

    counts: dict  # c -> number of configurations, complete over 0..n_terms
    c_max: int
    n_terms: int

    def total(self):
        return sum(self.counts.values())

    def weighted_total(self):
        return sum(c * n for c, n in self.counts.items())

    def as_dict(self):
        return {
            "counts": {str(c): n for c, n in self.counts.items()},
            "c_max": self.c_max,
            "n_terms": self.n_terms,
            "total": self.total(),
        }


def histogram_csv(hist: StrategyHistogram) -> str:
    """CSV rows "c,count" for c = 1..20 (or further when c_max exceeds 20)."""
    top = max(20, hist.c_max)
    lines = ["c,count"]
    lines += [f"{c},{hist.counts.get(c, 0)}" for c in range(1, top + 1)]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _profiles(n_settings):
    """All outcome tuples of one party, in lexicographic order."""
    arr = np.array(
        list(itertools.product(range(N_OUTCOMES), repeat=n_settings)), dtype=np.int8
    )
    arr.setflags(write=False)
    return arr


class _AliceOrbits(NamedTuple):
    """The S4 action on orbit labels and its orbits on Alice tuples."""

    label_action: np.ndarray  # [g, k]: image under element g of label k = 3 (s - 1) + a
    representatives: np.ndarray  # smallest tuple index of each orbit, ascending
    sizes: np.ndarray  # number of tuples in each orbit


@lru_cache(maxsize=1)
def _alice_orbits():
    """Orbits of Alice's 3**8 tuples under S4 acting on the standard orbit labels.

    The label action comes from the group product on element indices, the
    exact route `bell_terms` takes.  An element g maps basis s onto basis
    g.s, so it carries a tuple f to the tuple with outcome g.(s, f(s)) on
    that basis.  Built on first use rather than with the context.
    """
    orbit = standard_context().orbit
    n_settings = len(orbit.triples)
    product = orbit.group.product_table
    action = np.empty((orbit.group.order, 3 * n_settings), dtype=np.int64)
    for v in orbit.vectors:
        for g in range(orbit.group.order):
            s, a = orbit.label_of_element(int(product[g, v.element]))
            action[g, 3 * (v.basis - 1) + v.outcome] = 3 * (s - 1) + a
    bases = action // 3
    if (bases != bases[:, ::3].repeat(3, axis=1)).any():
        raise RuntimeError("a group element does not map measurement bases onto bases")
    action.setflags(write=False)

    # A tuple's index in _profiles order is the sum over its labels (s, a)
    # of a * 3**(n_settings - s); the orbit's smallest index names it.
    k = np.arange(3 * n_settings)
    place_value = (k % 3) * 3 ** (n_settings - 1 - k // 3)
    prof = _profiles(n_settings)
    labels = 3 * np.arange(n_settings) + prof
    smallest = np.arange(len(prof))
    for g_action in action:
        np.minimum(smallest, place_value[g_action][labels].sum(axis=1), out=smallest)
    representatives = np.flatnonzero(smallest == np.arange(len(prof)))
    sizes = np.bincount(smallest)[representatives]
    return _AliceOrbits(action, representatives, sizes)


def _is_invariant(expr: BellExpression) -> bool:
    """True when every S4 element maps the term set onto itself.

    Only expressions over the eight orbit bases can pass.
    """
    action = _alice_orbits().label_action
    if 3 * expr.n_settings != action.shape[1]:
        return False
    f = _satisfaction_table(expr.terms, expr.n_settings).reshape(action.shape[1], -1)
    return bool((f[action[:, :, None], action[:, None, :]] == f).all())


def _alice_rows(expr: BellExpression):
    """Alice tuples to scan and the number of tuples each one stands for.

    One representative per S4 orbit for an invariant expression, otherwise
    every tuple with weight one.
    """
    if _is_invariant(expr):
        orbits = _alice_orbits()
        return orbits.representatives, orbits.sizes
    n = N_OUTCOMES ** expr.n_settings
    return np.arange(n), np.ones(n, dtype=np.int64)


def _satisfaction_table(terms, n_settings):
    """F[s-1, a, t-1, b] = multiplicity of the term (s, a, t, b)."""
    table = np.zeros((n_settings, N_OUTCOMES, n_settings, N_OUTCOMES), dtype=np.int16)
    for s, a, t, b in terms:
        table[s - 1, a, t - 1, b] += 1
    return table


def _per_alice_tables(terms, n_settings, rows=slice(None)):
    """M[i, t, b]: terms with Bob pair (t, b) satisfied by Alice tuple rows[i]."""
    table = _satisfaction_table(terms, n_settings)
    prof = _profiles(n_settings)[rows]
    m = np.zeros((len(prof), n_settings, N_OUTCOMES), dtype=np.int16)
    for s in range(n_settings):
        m += table[s][prof[:, s]]
    return m


def _bob_maxima(m):
    """Maximum over the last (outcome) axis of per-Alice tables.

    Taken as elementwise maxima of the outcome slices, which is many times
    faster than a reduction along an axis of length three.
    """
    return reduce(np.maximum, np.moveaxis(m, -1, 0))


def _max_coefficient(terms, n_settings, rows=slice(None)):
    m = _per_alice_tables(terms, n_settings, rows)
    return int(_bob_maxima(m).sum(axis=1).max())


def _histogram_counts(terms, n_settings, rows=slice(None), weights=None):
    """Configurations per coefficient, over the Alice tuples `rows`.

    Row i's counts are the coefficients of prod_t sum_b x**M[i, t, b]; the
    rows are summed with `weights` (default one each).
    """
    m = _per_alice_tables(terms, n_settings, rows)
    n_terms = len(terms)
    width = n_terms + 1
    # No coefficient exceeds n_terms, so shifting within `width` columns
    # never drops a count.
    poly = np.zeros((len(m), width), dtype=np.int64)
    poly[:, 0] = 1
    shifted = width + np.arange(width)
    for t in range(n_settings):
        padded = np.concatenate([np.zeros_like(poly), poly], axis=1)
        poly = sum(
            np.take_along_axis(padded, shifted - m[:, t, b, None], axis=1)
            for b in range(N_OUTCOMES)
        )
    counts = poly.sum(axis=0) if weights is None else weights @ poly

    fast_max = int(_bob_maxima(m).sum(axis=1).max()) if n_terms else 0
    hist_max = int(np.flatnonzero(counts)[-1]) if counts.any() else 0
    if fast_max != hist_max:
        raise RuntimeError(
            f"separable maximum {fast_max} disagrees with histogram {hist_max}"
        )
    return counts


def classical_max(expr: BellExpression) -> int:
    """Largest number of terms any deterministic configuration satisfies.

    Uses the separable fast path: per Alice tuple, Bob's settings decouple
    and contribute their per-setting maxima.  Only one Alice tuple per S4
    orbit is scanned when the expression is invariant.
    """
    if not expr.terms:
        return 0
    rows, _ = _alice_rows(expr)
    return _max_coefficient(expr.terms, expr.n_settings, rows)


def classical_histogram(expr: BellExpression) -> StrategyHistogram:
    """Coefficient histogram over all deterministic configurations.

    For an invariant expression each S4-orbit representative's counts are
    weighted by its orbit size; the counts are integer-exact either way.
    """
    rows, weights = _alice_rows(expr)
    counts = _histogram_counts(expr.terms, expr.n_settings, rows, weights)
    c_max = int(np.flatnonzero(counts)[-1]) if counts.any() else 0
    return StrategyHistogram(
        counts={c: int(counts[c]) for c in range(len(counts))},
        c_max=c_max,
        n_terms=len(expr.terms),
    )


def multiset_maxima(exprs, size):
    """Classical maxima of the unions of every `size`-multiset of `exprs`.

    Multisets come in `itertools.combinations_with_replacement` order over
    `exprs`, and a term counts once for each member that holds it.  The
    expressions must share their number of settings.
    Per-Alice tables add over members, so each table is built once, and
    every prefix of a multiset is completed by all its possible last
    members at once.
    """
    n_settings = exprs[0].n_settings
    if all(_is_invariant(expr) for expr in exprs):
        rows = _alice_orbits().representatives
    else:
        rows = slice(None)
    tables = np.stack(
        [_per_alice_tables(e.terms, n_settings, rows) for e in exprs]
    )
    maxima = []
    for prefix in itertools.combinations_with_replacement(range(len(exprs)), size - 1):
        base = tables[list(prefix)].sum(axis=0, dtype=tables.dtype)
        totals = base + tables[prefix[-1] if prefix else 0:]
        maxima += _bob_maxima(totals).sum(axis=2).max(axis=1).tolist()
    return maxima


def optimal_classical_strategy(expr: BellExpression):
    """A configuration attaining the classical maximum.

    Ties are broken toward the lexicographically smallest
    (a_1..a_S, b_1..b_S): Alice tuples are scanned in lexicographic order
    and the first maximizer wins, then each of Bob's settings takes its
    smallest maximizing outcome.
    """
    n = expr.n_settings
    if not expr.terms:
        return (0,) * n, (0,) * n
    m = _per_alice_tables(expr.terms, n)
    scores = m.max(axis=2).sum(axis=1)
    best = int(np.argmax(scores))
    f_alice = tuple(int(x) for x in _profiles(n)[best])
    f_bob = tuple(int(x) for x in np.argmax(m[best], axis=1))
    return f_alice, f_bob


def coefficient(expr: BellExpression, f_alice, f_bob) -> int:
    """Number of terms satisfied by the deterministic strategy pair."""
    return sum(
        1
        for s, a, t, b in expr.terms
        if f_alice[s - 1] == a and f_bob[t - 1] == b
    )


def configuration_index(f_alice, f_bob) -> int:
    """Base-3 encoding of a configuration: Alice digits first, little-endian
    in the setting index, Bob digits above them."""
    idx = 0
    for k, a in enumerate(f_alice):
        idx += int(a) * N_OUTCOMES ** k
    shift = len(f_alice)
    for k, b in enumerate(f_bob):
        idx += int(b) * N_OUTCOMES ** (shift + k)
    return idx


def configuration_from_index(index, n_settings):
    digits = []
    for _ in range(2 * n_settings):
        digits.append(index % N_OUTCOMES)
        index //= N_OUTCOMES
    return tuple(digits[:n_settings]), tuple(digits[n_settings:])
