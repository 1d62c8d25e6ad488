"""Classical bounds by exhaustive enumeration of deterministic strategies.

A Bell expression here is a list of probability terms P(a_s = a, b_t = b),
each stored as its label-pair index 24 k + m (k and m the `all_labels()`
rows of (s, a) and (t, b)); its `Term`s are built when first read.  Its
classical bound is the largest number of terms one deterministic
configuration (a_1..a_8, b_1..b_8) satisfies, found by scanning all 3**16
configurations.

The scan is separable: once Alice's tuple is fixed, Bob's settings
decouple.  For every Alice tuple the table M[t][b] counts the terms with
Bob setting t and outcome b that Alice already satisfies (for all tuples,
one product of their labels' one-hot incidence with the term table).  A
tuple's maximum is the sum of per-setting maxima, and the histogram meets
in the middle: Bob's 3**4 outcome tuples on settings 1-4 and on 5-8 are
scored apart by broadcast sums, and their score counts combine by one
exact float64 product.

The scan is also symmetry-reduced.  Each element of S4 permutes the
orbit labels and maps bases onto bases, so it permutes Alice tuples: the
3**8 tuples fall into 306 orbits.  The 576 label pairs fall into 24 S4
orbits of 24 pairs, the pair classes (the orbit's `class_of`); each pair
has its class's eigenvalues.  A term set maps onto itself under every
element exactly when it is a union of classes (true of every
`bell_terms` output); then one representative per orbit, weighted by the
orbit size, stands for all of its tuples, and its tables M are its
classes' tables summed.  Any other expression scans every tuple.  Bob's
side reduces too: 72 relabelings of settings, outcomes and parties
permute the classes and keep every maximum, so one class multiset per
orbit is summed; lambda_max (S4-invariant, not relabeling-invariant) is
summed per class multiset.  Expressions read these tables from the
standard context's `class_tables`, each built on first use.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .context import standard_context
from .orbit import N_OUTCOMES, N_SETTINGS, Orbit, OrbitPair, _row, all_labels

__all__ = [
    "Term",
    "BellExpression",
    "StrategyHistogram",
    "bell_terms",
    "classical_max",
    "classical_histogram",
    "optimal_classical_strategy",
    "coefficient",
    "histogram_csv",
]

# The one violation rule: a gap lambda_max - classical maximum above GAP_TOL is a violation, and
# sorted gaps start a new tie class where they step down by more.  Over all class multisets of
# 1-3 orbits, a zero gap carries at most 7.1e-15 of rounding noise (a step between equal gaps
# 5.3e-15); the smallest positive gap is 0.0084 and the smallest real step 1.3e-5.
GAP_TOL = 1e-9
_ONES = np.ones(N_SETTINGS, dtype=np.int64)  # sums a row's per-setting maxima in `_row_maxima`


class Term(NamedTuple):
    """One probability term P(a_s = a, b_t = b)."""

    s: int
    a: int
    t: int
    b: int


@dataclass(frozen=True, init=False)
class BellExpression:
    """An ordered list of distinct probability terms plus its provenance, the orbit pairs.
    Term (s, a, t, b) is stored in `index` as 24 k + m, for the `all_labels()` rows k of
    (s, a) and m of (t, b)."""

    index: tuple
    pairs: tuple

    def __init__(self, terms, pairs=()):
        self._set(tuple(map(_term_index, terms)), pairs)

    def _set(self, index, pairs):
        """Store `index` and `pairs` as a tuple of `OrbitPair`; ValueError for a repeated term."""
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "pairs", tuple(
            p if isinstance(p, OrbitPair) else OrbitPair(*p) for p in pairs))
        if len(set(index)) != len(index):
            seen = set()
            dup = next(t for t in self.terms if t in seen or seen.add(t))
            raise ValueError(f"duplicate term {dup}")

    @cached_property
    def terms(self):
        """The terms as `Term`s of Python ints, in term order, built on first read."""
        labels = all_labels()
        return tuple(Term(*labels[i // 24], *labels[i % 24]) for i in self.index)

    @cached_property
    def table(self):
        """Read-only F[s-1, a, t-1, b] = 1 for each term (s, a, t, b), else 0."""
        table = np.zeros((N_SETTINGS, N_OUTCOMES) * 2, dtype=np.int16)
        table.put(self.index, 1)
        table.setflags(write=False)
        return table

    @cached_property
    def _scan(self):
        """Read-only scan state, built on first use: the Alice tuples to scan, the number of
        tuples each stands for, their tables M and their row maxima.  The term set is
        S4-invariant exactly when each pair class holds none or all 24 of its terms: then
        one tuple per S4 orbit, ascending, is scanned, and M is its classes' tables summed.
        Any other term set scans every tuple."""
        ctx = standard_context()
        classes = set(map(ctx.class_tables.flat_class_of.__getitem__, self.index))
        if len(self.index) == 24 * len(classes):  # distinct terms: at most 24 per class
            rows, weights = ctx.class_tables.alice_orbits
            m, maxima = ctx.class_tables.class_scan(list(classes))
        else:
            rows = np.arange(N_OUTCOMES ** N_SETTINGS)
            weights = np.ones(len(rows), dtype=np.int64)
            m = _per_alice_tables(self.table, rows)
            maxima = _row_maxima(m)
        scan = rows, weights, m, maxima
        for arr in scan:
            arr.setflags(write=False)
        return scan


def _term_index(entries):
    """The label-pair index of the term `entries`, four integers (s, a, t, b) in range."""
    try:
        s, a, t, b = key = tuple(map(operator.index, entries))
    except (TypeError, ValueError):
        raise ValueError(f"term must be four integers, got {entries!r}") from None
    settings = 1 <= s <= N_SETTINGS and 1 <= t <= N_SETTINGS
    if not (settings and 0 <= a < N_OUTCOMES and 0 <= b < N_OUTCOMES):
        raise ValueError(f"{'outcome' if settings else 'setting'} out of range in {Term(*key)}")
    return 24 * _row(s, a) + _row(t, b)


def _expansion(pairs, orbit):
    """Per `OrbitPair` of labels k and m and per element g in order, the index 24 g.k + g.m."""
    images, index = orbit.label_action.T, []  # images[k]: label k's images
    for p in pairs:
        index += (24 * images[_row(*p.alice)] + images[_row(*p.bob)]).tolist()
    return tuple(index)


def bell_terms(pairs, orbit: Orbit) -> BellExpression:
    """Expand labeled orbit pairs into their probability terms.

    For each pair and each group element g, the images of the two seeds
    are read from the orbit's label action, giving one term per
    (pair, element) in canonical order.  Duplicate terms across pairs
    raise ValueError.  Each pair's 24 terms are its S4 pair class, so the
    expression's scan state is summed from its classes' tables.
    """
    expr = BellExpression((), pairs)  # no terms yet: checks the pairs
    expr._set(_expansion(expr.pairs, orbit), expr.pairs)
    return expr


@dataclass(frozen=True, eq=False)
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


@lru_cache(maxsize=1)
def _profiles():
    """All outcome tuples of one party, in lexicographic order."""
    arr = np.indices((N_OUTCOMES,) * N_SETTINGS, dtype=np.int8).reshape(N_SETTINGS, -1).T
    arr.setflags(write=False)
    return arr


def _per_alice_tables(table, rows):
    """M[..., i, t, b]: terms with Bob pair (t, b) satisfied by Alice tuple rows[i].

    One float32 product M = A F per table (exact for these small integer
    sums) into the int16 result: A is the one-hot incidence of the rows'
    eight Alice labels (rows x 24), F the table or each of a stack as (24, 24).
    """
    labels = N_OUTCOMES * np.arange(N_SETTINGS) + _profiles()[rows]
    incidence = np.zeros((len(labels), N_SETTINGS * N_OUTCOMES), dtype=np.float32)
    np.put_along_axis(incidence, labels, 1, axis=1)
    f = table.reshape(-1, N_SETTINGS * N_OUTCOMES, N_SETTINGS * N_OUTCOMES)
    m = np.empty((len(f), *incidence.shape), dtype=np.int16)
    for out, one in zip(m, f):  # no float32 copy of a whole stack
        out[...] = incidence @ one
    return m.reshape(*table.shape[:-4], len(labels), N_SETTINGS, N_OUTCOMES)


def _row_maxima(m):
    """Per Alice row, the best coefficient over Bob's strategies, as int64.

    The maximum of the three outcome slices, summed over the settings by one product with
    int64 ones: on C-order and outcome-major tables alike, faster than short-axis reductions.
    """
    return np.maximum(np.maximum(m[..., 0], m[..., 1]), m[..., 2]) @ _ONES


def _histogram_counts(n_terms, rows, weights, m, maxima):
    """Configurations per coefficient over the Alice tuples `rows`, and the top coefficient.

    `m` and `maxima` are the rows' tables and row maxima of an expression of
    `n_terms` terms.  Meets in the middle: P[u, i] and Q[v, i] count Bob's
    outcome tuples on settings 1-4 and 5-8 that score u and v for row i, each
    filled by one bincount on score * rows + row: the broadcast sums of an
    (8, 3, rows) int32 copy of M times rows, with row i added on settings 1
    and 5.  That fits int32: for a 0/1 table a half score is at most 4 * 8,
    and rows <= 6561.  G = (P weights) Q^T counts (u, v); c sums G[u, c - u]
    by a weighted bincount.  Both run in float64 and are exact: every partial
    sum is an integer no larger than 81 * 24 * 81 * 6561 < 2**53.
    """
    n = len(m)
    by_setting = np.ascontiguousarray(m.transpose(1, 2, 0), dtype=np.int32) * n
    by_setting[::4] += np.arange(n, dtype=np.int32)
    halves = []
    for a, b, c, d in np.split(by_setting, 2):
        flat = (a[:, None, None, None] + b[:, None, None] + c[:, None] + d).ravel()
        top = int(flat.max()) // n + 1
        halves.append(np.bincount(flat, minlength=top * n).reshape(top, n))
    p, q = halves
    g = np.multiply(p, weights, dtype=float) @ q.T.astype(float)
    # The two half maxima add up to at most the number of terms, so every
    # anti-diagonal index fits in the counts.
    diagonals = np.add.outer(np.arange(len(g)), np.arange(g.shape[1])).ravel()
    counts = np.bincount(diagonals, g.ravel(), n_terms + 1).astype(np.int64)

    fast_max = int(maxima.max())
    hist_max = int(np.flatnonzero(counts)[-1])
    if fast_max != hist_max:
        raise RuntimeError(
            f"separable maximum {fast_max} disagrees with histogram {hist_max}"
        )
    return counts, hist_max


def classical_max(expr: BellExpression) -> int:
    """Largest number of terms any deterministic configuration satisfies.

    Uses the separable fast path: per Alice tuple, Bob's settings decouple
    and contribute their per-setting maxima.  Only one Alice tuple per S4
    orbit is scanned when the expression is invariant.
    """
    return int(expr._scan[3].max())


def classical_histogram(expr: BellExpression) -> StrategyHistogram:
    """Coefficient histogram over all deterministic configurations.

    For an invariant expression each S4-orbit representative's counts are
    weighted by its orbit size; the counts are integer-exact either way.
    """
    counts, c_max = _histogram_counts(len(expr.index), *expr._scan)
    return StrategyHistogram(dict(enumerate(counts.tolist())), c_max, len(expr.index))


def _codes(multisets):
    """Base-24 codes of the sorted rows, ascending in combinations order."""
    columns = np.sort(multisets, axis=1, kind="stable").T
    return np.ravel_multi_index(columns, (N_SETTINGS * N_OUTCOMES,) * len(columns))


class _ClassTables:
    """A context's classical S4 tables, `ctx.class_tables`, each built and checked on first use."""

    def __init__(self, ctx):
        self._ctx, self._multisets = ctx, {}

    @cached_property
    def flat_class_of(self):  # class_of[k, m] at term index 24 k + m, as Python ints
        return self._ctx.orbit.class_of.ravel().tolist()

    @cached_property
    def alice_orbits(self):
        """(representatives, sizes): per orbit of S4 on Alice's 3**8 tuples, its smallest
        tuple index, ascending, and its number of tuples.  An element g maps basis s onto basis
        g.s, so it carries a tuple f to the tuple with outcome g.(s, f(s)) on that basis."""
        action = self._ctx.orbit.label_action
        bases = action // N_OUTCOMES
        if (bases != bases[:, ::N_OUTCOMES].repeat(N_OUTCOMES, axis=1)).any():
            raise RuntimeError("a group element does not map measurement bases onto bases")

        # A tuple's index in _profiles order is the sum over its labels (s, a)
        # of a * 3**(8 - s); the orbit's smallest index names it.  It meets in the
        # middle: a running minimum over the elements of their (81, 81) sums of
        # the images' place values on settings 1-4 and on 5-8.
        k = np.arange(N_OUTCOMES * N_SETTINGS)
        place_value = (k % N_OUTCOMES) * N_OUTCOMES ** (N_SETTINGS - 1 - k // N_OUTCOMES)
        half = np.indices((N_OUTCOMES,) * (N_SETTINGS // 2)).reshape(N_SETTINGS // 2, -1).T
        labels = N_OUTCOMES * np.arange(N_SETTINGS).reshape(2, 1, -1) + half
        left, right = place_value[action][:, labels].sum(axis=-1).transpose(1, 0, 2)
        smallest = np.arange(len(half) ** 2)
        for lo, hi in zip(left, right):
            np.minimum(smallest, (lo[:, None] + hi).ravel(), out=smallest)
        representatives = np.flatnonzero(smallest == np.arange(len(smallest)))
        sizes = np.bincount(smallest)[representatives]
        for arr in (representatives, sizes):
            arr.setflags(write=False)
        return representatives, sizes

    @cached_property
    def class_m(self):
        """Per class c: tables M (306, 8, 3) of its one-hot table, outcome-major, on the
        `alice_orbits` rows.  Each pair's eigenvalues must be its class's (`check_classes`)."""
        self._ctx.pair_model.check_classes()
        one_hot = np.arange(24)[:, None, None] == self._ctx.orbit.class_of
        one_hot = one_hot.reshape(24, *(N_SETTINGS, N_OUTCOMES) * 2)
        m = _per_alice_tables(one_hot, self.alice_orbits[0])
        m = np.moveaxis(np.moveaxis(m, -1, 1).copy(), 1, -1)  # contiguous outcome slices
        m.setflags(write=False)
        return m

    def class_scan(self, ids):
        """The summed tables M of pair classes `ids` on the `alice_orbits` rows, and row maxima."""
        m = sum(self.class_m[c] for c in ids) if len(ids) else np.zeros_like(self.class_m[0])
        return m, _row_maxima(m)

    @cached_property
    def relabelings(self):
        """(72, 24) maps of pair classes, each keeping every classical maximum.  Class m is
        the S4 orbit of the label pair (0, m).  Six of the label maps g.0 -> g.x, which commute
        with S4, map bases into bases.  Alice's A and Bob's B send (0, m) to (A[0], B[m]), or
        swapping parties to (B[m], A[0])."""
        action = self._ctx.orbit.label_action
        right = action.T[:, np.argsort(action[:, 0])]  # right[x]: g.0 -> g.x
        bases = right.reshape(-1, N_SETTINGS, N_OUTCOMES) // N_OUTCOMES
        keep = right[(bases == bases[..., :1]).all(axis=(1, 2))]
        if len(keep) != 6:
            raise RuntimeError(f"expected 6 basis-preserving label maps, found {len(keep)}")
        classes = self._ctx.orbit.class_of
        maps = np.array([classes[a[0], b] for a in keep for b in keep]
                        + [classes[b, a[0]] for a in keep for b in keep])
        maps.setflags(write=False)
        return maps

    def multisets(self, size):
        """(multisets, maxima, lambdas, ties, violations), built once per size: read-only arrays
        of every class multiset of `size` in rank order, its classical maximum, its lambda_max
        (the largest column-order sum of its classes' pair model eigenvalue rows) and its tie
        class, then the number of gaps lambda_max - maximum above GAP_TOL.  Each relabeling
        orbit's smallest index spreads along two generating relabelings until it settles; that
        multiset's `class_scan` maximum is the orbit's.  Rank order sorts the gaps descending,
        stably from combinations order; they fall into tie classes 1, 2, ..., a new one wherever
        a step down exceeds GAP_TOL, so the tie classes are non-decreasing."""
        if size in self._multisets:
            return self._multisets[size]
        combos = itertools.combinations_with_replacement(range(N_SETTINGS * N_OUTCOMES), size)
        multisets = np.fromiter(itertools.chain.from_iterable(combos), np.intp).reshape(-1, size)
        codes = _codes(multisets)
        relabeled = [_codes(r[multisets]) for r in self.relabelings[[3, 37]]]  # generate all 72
        images, smallest, previous = np.searchsorted(codes, relabeled), np.arange(len(codes)), None
        while not np.array_equal(smallest, previous):
            previous, smallest = smallest, np.minimum(smallest, smallest[images].min(axis=0))
        first = np.flatnonzero(smallest == np.arange(len(codes)))
        maxima = np.array([self.class_scan(ids)[1].max() for ids in multisets[first]])
        maxima = maxima[np.searchsorted(first, smallest)]
        lambdas = sum(self._ctx.pair_model.eigenvalues[multisets.T]).max(axis=1)
        gaps = lambdas - maxima
        desc = np.argsort(-gaps, kind="stable")
        ties = np.cumsum(np.diff(gaps[desc], prepend=np.inf) < -GAP_TOL)
        arrays = (multisets[desc], maxima[desc], lambdas[desc], ties)
        for arr in arrays:
            arr.setflags(write=False)
        violations = int(np.count_nonzero(gaps > GAP_TOL))
        return self._multisets.setdefault(size, (*arrays, violations))


def optimal_classical_strategy(expr: BellExpression):
    """A configuration attaining the classical maximum.

    Ties are broken toward the lexicographically smallest
    (a_1..a_S, b_1..b_S): Alice tuples are scanned in lexicographic order
    and the first maximizer wins, then each of Bob's settings takes its
    smallest maximizing outcome.  The first maximizer of an invariant
    expression is the smallest tuple of its orbit, so its scan state's rows hold it.
    """
    rows, _, m, maxima = expr._scan
    best = int(np.argmax(maxima))
    f_alice = tuple(int(x) for x in _profiles()[rows[best]])
    f_bob = tuple(int(x) for x in np.argmax(m[best], axis=1))
    return f_alice, f_bob


def coefficient(expr: BellExpression, f_alice, f_bob) -> int:
    """Number of terms satisfied by the deterministic strategy pair.

    Each strategy is a tuple of N_SETTINGS outcomes in 0..N_OUTCOMES-1;
    anything else raises ValueError.
    """
    for name, f in (("f_alice", f_alice), ("f_bob", f_bob)):
        try:
            valid = len(f) == N_SETTINGS and {*map(operator.index, f)} <= {*range(N_OUTCOMES)}
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(
                f"{name} must hold {N_SETTINGS} outcomes in 0..{N_OUTCOMES - 1}, got {f!r}"
            )
    alice, bob = ({N_OUTCOMES * s + operator.index(x) for s, x in enumerate(f)}
                  for f in (f_alice, f_bob))  # the label rows each strategy answers
    return sum(i // 24 in alice and i % 24 in bob for i in expr.index)
