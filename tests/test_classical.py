import collections
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import row_of
from s4bell import classical, cli, standard_context, tables
from s4bell.classical import (
    BellExpression,
    Term,
    _codes,
    _histogram_counts,
    _per_alice_tables,
    _profiles,
    _row_maxima,
    bell_terms,
    classical_histogram,
    classical_max,
    coefficient,
    histogram_csv,
    optimal_classical_strategy,
)
from s4bell.orbit import OrbitPair, all_labels
from s4bell.quantum import EIG_TOL, eigenvalues_isotypic, max_eigenvalue_sum


@pytest.fixture(scope="module")
def case_exprs(orbit, case_pairs):
    return {name: bell_terms(pairs, orbit) for name, pairs in case_pairs.items()}


def literal_histogram(terms):
    """Independent oracle for terms on settings 1..3: score every choice of
    those settings by direct term scan; each stands for the 3**10 choices
    of the free settings 4..8."""
    counts = {}
    for config in itertools.product(range(3), repeat=6):
        f_alice, f_bob = config[:3], config[3:]
        c = sum(
            1
            for s, a, t, b in terms
            if f_alice[s - 1] == a and f_bob[t - 1] == b
        )
        counts[c] = counts.get(c, 0) + 3 ** 10
    return counts


def test_term_order_canonical(case_exprs):
    expr = case_exprs["I"]
    # identity element comes first within each orbit block
    assert expr.terms[0] == Term(1, 0, 4, 1)
    assert expr.terms[24] == Term(1, 0, 7, 0)
    assert expr.terms[48] == Term(1, 0, 5, 1)


def test_diagonal_pair_terms(orbit):
    expr = bell_terms([OrbitPair((1, 0), (1, 0))], orbit)
    assert set(expr.terms) == {Term(i, a, i, a) for i in range(1, 9) for a in range(3)}


def test_repeated_pair_raises(orbit):
    pair = OrbitPair((1, 0), (4, 1))
    with pytest.raises(ValueError, match="duplicate"):
        bell_terms([pair, pair], orbit)


def term_sources():
    """Valid terms to build on: hand-built ones and a `bell_terms` expansion's."""
    expanded = bell_terms(tables.CASE_PAIRS["II"], standard_context().orbit)
    return ((2, 1, 3, 2), (1, 0, 1, 0)), expanded.terms


@pytest.mark.parametrize("bad", ["1", 1.5, 1.0])
def test_non_integer_terms_rejected(bad):
    for terms in term_sources():
        for term in ((bad, 0, 1, 0), (1, bad, 1, 0), (1, 0, 1, np.float64(bad))):
            with pytest.raises(ValueError, match=r"^term must be four integers, got "):
                BellExpression(terms + (term,))


def test_expression_validation():
    for terms in term_sources():
        for bad, message in (((9, 0, 1, 0), "setting out of range in Term(s=9, a=0, t=1, b=0)"),
                             ((1, 0, 0, 0), "setting out of range in Term(s=1, a=0, t=0, b=0)"),
                             ((1, 3, 1, 0), "outcome out of range in Term(s=1, a=3, t=1, b=0)"),
                             ((1, 0, 1, -1), "outcome out of range in Term(s=1, a=0, t=1, b=-1)"),
                             ((1, 0, 1), "term must be four integers, got (1, 0, 1)"),
                             ((1, 0, 1, 0, 0), "term must be four integers, got (1, 0, 1, 0, 0)"),
                             (7, "term must be four integers, got 7"),
                             (terms[1], f"duplicate term {Term(*terms[1])}")):
            with pytest.raises(ValueError) as excinfo:
                BellExpression(terms + (bad,))
            assert str(excinfo.value) == message


def test_every_kind_of_entry_is_read_as_four_integers():
    expanded = bell_terms(tables.CASE_PAIRS["II"], standard_context().orbit)
    others = tuple(t for t in expanded.terms if t != (1, 0, 1, 0))
    for entry in ([1, 0, 1, 0], np.array([1, 0, 1, 0]), (np.int64(1), 0, 1, 0),
                  (True, False, True, False), Term(np.int64(1), 0, 1, 0)):
        for terms in ((entry,), (*others, entry)):
            stored = BellExpression(terms).terms[-1]
            assert type(stored) is Term and stored == (1, 0, 1, 0)
            assert [type(x) for x in stored] == [int] * 4
    for terms in term_sources():
        mixed = [(np.int64(s), a == 1, np.int8(t), np.uint16(b)) for s, a, t, b in terms
                 if a < 2]
        stored = BellExpression(tuple(mixed)).terms
        assert stored == tuple(Term(s, a, t, b) for s, a, t, b in terms if a < 2)
        assert {type(x) for term in stored for x in term} == {int}
        assert all(type(term) is Term for term in stored)
    for bad, message in (((1.0, 0, 1, 0), "term must be four integers, got (1.0, 0, 1, 0)"),
                         (Term(1.0, 0, 1, 0),
                          "term must be four integers, got Term(s=1.0, a=0, t=1, b=0)"),
                         ([1, 0, 1], "term must be four integers, got [1, 0, 1]"),
                         ((1, 0, 1, 0, 0), "term must be four integers, got (1, 0, 1, 0, 0)"),
                         ((0, 0, 1, 0), "setting out of range in Term(s=0, a=0, t=1, b=0)"),
                         (np.array([1, 0, 9, 0]),
                          "setting out of range in Term(s=1, a=0, t=9, b=0)"),
                         ((1, 3, 1, 0), "outcome out of range in Term(s=1, a=3, t=1, b=0)")):
        for terms in ((bad,), (*expanded.terms, bad)):
            with pytest.raises(ValueError) as excinfo:
                BellExpression(terms)
            assert str(excinfo.value) == message


def test_pairs_are_stored_as_orbit_pairs():
    raw, built = (BellExpression([(1, 0, 1, 0)], pairs)
                  for pairs in ([((1, 0), (1, 0))], (OrbitPair((1, 0), (1, 0)),)))
    assert raw.pairs == built.pairs and raw == built and hash(raw) == hash(built)


ALL_ROWS = np.arange(3 ** 8)


def _max_coefficient(table, rows):
    """Reference: the classical maximum over the Alice tuples `rows`, from fresh tables."""
    return int(_row_maxima(_per_alice_tables(table, rows)).max())


def histogram_counts(table, rows, weights):
    """`_histogram_counts` of a table over the Alice tuples `rows`, from fresh tables M."""
    m = _per_alice_tables(table, rows)
    return _histogram_counts(int(table.sum()), rows, weights, m, _row_maxima(m))[0]


def full_counts(expr):
    """Histogram from the full scan over every Alice tuple, as a list."""
    return histogram_counts(expr.table, ALL_ROWS, np.ones(3 ** 8, dtype=np.int64)).tolist()


def test_histogram_reduced_matches_full(case_exprs):
    for expr in case_exprs.values():
        hist = classical_histogram(expr)
        assert [hist.counts[c] for c in range(len(hist.counts))] == full_counts(expr)


def shift_polynomial_counts(table, rows, weights):
    """Reference: the former polynomial kernel.  Row i's counts are the
    coefficients of prod_t sum_b x**M[i, t, b], summed with `weights`."""
    m = gathered_per_alice_tables(table, rows).astype(np.int64)
    width = int(table.sum()) + 1
    poly = np.zeros((len(m), width), dtype=np.int64)
    poly[:, 0] = 1
    shifted = width + np.arange(width)
    for t in range(8):
        padded = np.concatenate([np.zeros_like(poly), poly], axis=1)
        poly = sum(
            np.take_along_axis(padded, shifted - m[:, t, b, None], axis=1)
            for b in range(3)
        )
    return weights @ poly


def assert_counts_match_reference(expr, rows=None, weights=None):
    if rows is None:
        rows, weights = expr._scan[:2]
    counts = histogram_counts(expr.table, rows, weights)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, shift_polynomial_counts(expr.table, rows, weights))


def test_histogram_kernel_matches_reference_on_cases(case_exprs):
    for expr in case_exprs.values():
        assert len(expr._scan[0]) == 306
        assert_counts_match_reference(expr)


@pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_kernel_matches_reference_on_random_unions(orbit, n_pairs, seed):
    rng = np.random.default_rng(seed)
    labels = all_labels()
    while True:
        picks = rng.choice(len(labels), size=(n_pairs, 2))
        try:
            expr = bell_terms([OrbitPair(labels[a], labels[b]) for a, b in picks], orbit)
        except ValueError:  # two of the pairs expand into the same terms
            continue
        break
    assert_counts_match_reference(expr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_kernel_matches_reference_on_non_invariant_subsets(case_exprs, seed):
    rng = np.random.default_rng(seed)
    terms = case_exprs[tables.CASE_NAMES[seed]].terms
    keep = rng.choice(len(terms), size=rng.integers(1, len(terms)), replace=False)
    expr = BellExpression(tuple(terms[k] for k in sorted(keep)))
    assert len(expr._scan[0]) == 3 ** 8
    assert_counts_match_reference(expr, ALL_ROWS, np.ones(3 ** 8, dtype=np.int64))


def test_histogram_kernel_matches_reference_on_small_tables():
    # The empty table is invariant (306 rows), a single term is not (6561 rows).
    for expr in (BellExpression(()), BellExpression(((3, 2, 6, 1),))):
        assert_counts_match_reference(expr)


def test_histogram_kernel_matches_reference_on_all_pairs_of_one_alice_label(orbit):
    expr = bell_terms([OrbitPair((1, 0), lab) for lab in all_labels()], orbit)
    assert len(expr.terms) == 576
    assert_counts_match_reference(expr)


def test_histogram_kernel_at_its_size_bound(orbit):
    # Every term but one: M holds 8 almost everywhere, so a half scores up to
    # 4 * 8 = 32, and the expression is not invariant, so all 6561 rows are
    # scanned; the int32 bin index reaches its largest, 32 * 6561 + 6560.
    every = bell_terms([OrbitPair((1, 0), lab) for lab in all_labels()], orbit)
    expr = BellExpression(every.terms[1:])
    rows, weights = expr._scan[:2]
    assert len(rows) == 3 ** 8
    reference = shift_polynomial_counts(expr.table, rows, weights).tolist()
    assert histogram_counts(expr.table, rows, weights).tolist() == reference
    hist = classical_histogram(expr)
    assert [hist.counts[c] for c in range(len(hist.counts))] == reference
    assert hist.c_max == 64


def test_histogram_rejects_a_maximum_it_does_not_reach(case_exprs):
    rows, weights, m, maxima = case_exprs["I"]._scan
    with pytest.raises(RuntimeError, match="separable maximum 17 disagrees with histogram 16"):
        _histogram_counts(72, rows, weights, m, maxima + 1)


def test_alice_orbit_table(ctx):
    orbit, (representatives, sizes) = ctx.orbit, ctx.class_tables.alice_orbits
    assert len(representatives) == 306
    assert all(24 % size == 0 for size in sizes.tolist())
    assert sizes.sum() == 3 ** 8
    tuples = list(itertools.product(range(3), repeat=8))
    profiles = classical._profiles()
    assert profiles.dtype == np.int8 and np.array_equal(profiles, tuples)
    with pytest.raises(ValueError, match="read-only"):
        profiles[0, 0] = 1
    # Brute force: element g sends label k = 3 s + a (setting s counted from
    # 0, outcome a) to label g[k], outcome g[k] % 3 of setting g[k] // 3.
    index = {f: i for i, f in enumerate(tuples)}
    smallest, action = [], orbit.label_action.tolist()
    for f in tuples:
        images = []
        for g in action:
            image = [0] * 8
            for s, a in enumerate(f):
                image[g[3 * s + a] // 3] = g[3 * s + a] % 3
            images.append(index[tuple(image)])
        smallest.append(min(images))
    counts = collections.Counter(smallest)
    assert representatives.tolist() == sorted(counts)
    assert sizes.tolist() == [counts[r] for r in sorted(counts)]


def test_non_invariant_expression_scans_every_alice_tuple():
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    rows, weights = friendly._scan[:2]
    assert rows.tolist() == list(range(3 ** 8))
    assert set(weights.tolist()) == {1}


def product_scan(expr):
    """Reference: the tables M and row maxima of `expr`'s scan rows, from the product of its
    own table F.  No class table is read."""
    m = _per_alice_tables(expr.table, expr._scan[0])
    return m, _row_maxima(m)


def assert_scan_equals_the_product(expr, n_rows):
    rows, weights, m, maxima = expr._scan
    assert len(rows) == n_rows and weights.sum() == 3 ** 8
    for got, want in zip((m, maxima), product_scan(expr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_several_invariant_expressions_keep_the_reduced_scan(orbit, case_exprs):
    # An invariance rule that always failed would still give a hand-built
    # expression the right numbers, only from the 6561-row scan, so the row
    # count is pinned; the tables summed from the classes must equal the product.
    for expr in case_exprs.values():
        assert_scan_equals_the_product(BellExpression(expr.terms), 306)
    # The 24 single-pair expressions of Alice label x12, one per class, and their union.
    pool = [bell_terms([OrbitPair((2, 1), lab)], orbit) for lab in all_labels()]
    for expr in (*pool, BellExpression(sum((e.terms for e in pool), ()))):
        assert_scan_equals_the_product(expr, 306)
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    assert_scan_equals_the_product(friendly, 3 ** 8)


def test_the_scan_is_reduced_exactly_on_unions_of_pair_classes(orbit, case_exprs):
    # A term set is S4-invariant exactly when each pair class holds none or all 24 of its
    # terms: then the 306 orbit rows are scanned, else all 6561 tuples.
    rng = np.random.default_rng(32)
    terms = case_exprs["II"].terms
    labels = all_labels()
    # Whole classes with Alice at several labels: x01:x14, x12:x26, x23:x21, x28:x22.
    spread = bell_terms([OrbitPair(labels[k], labels[m]) for k, m in
                         ((0, 10), (4, 17), (8, 2), (23, 5))], orbit).terms
    one_class = bell_terms([OrbitPair((2, 1), (5, 0))], orbit).terms
    firsts = [bell_terms([OrbitPair((1, 0), lab)], orbit).terms[0] for lab in labels]
    cases = [(terms[::-1], 306), (tuple(terms[k] for k in rng.permutation(72)), 306),
             ((), 306), (spread, 306), (spread + one_class, 306),
             (spread + (terms[0],), 3 ** 8),  # one term more than whole classes
             (tuple(firsts), 3 ** 8),  # 24 terms, one of each class
             (one_class[:12] + spread[:12], 3 ** 8)]  # 24 terms, half of two classes
    cases += [(one_class[:k] + one_class[k + 1:], 3 ** 8) for k in (0, 11, 23)]
    for case, n_rows in cases:
        assert_scan_equals_the_product(BellExpression(case), n_rows)


def gathered_per_alice_tables(table, rows):
    """Reference: the former kernel, one gather per Alice setting."""
    alice = np.array(list(itertools.product(range(3), repeat=8)))[rows]
    m = np.zeros((len(alice), 8, 3), dtype=np.int16)
    for s in range(8):
        m += table[s][alice[:, s]]
    return m


def test_per_alice_tables_match_the_gather_reference(orbit, case_exprs):
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    exprs = [*case_exprs.values(), friendly, bell_terms([OrbitPair((2, 1), (5, 0))], orbit)]
    stacked = np.stack([e.table for e in exprs])
    for rows in (standard_context().class_tables.alice_orbits[0], ALL_ROWS):
        for expr in exprs:
            m = _per_alice_tables(expr.table, rows)
            assert m.dtype == np.int16
            assert np.array_equal(m, gathered_per_alice_tables(expr.table, rows))
        m = _per_alice_tables(stacked, rows)
        assert m.shape == (len(exprs), len(rows), 8, 3)
        reference = [gathered_per_alice_tables(table, rows) for table in stacked]
        assert np.array_equal(m, np.stack(reference))
    # A union table holds entries above one; the product stays exact.
    union = stacked.sum(axis=0)
    assert np.array_equal(
        _per_alice_tables(union, ALL_ROWS), gathered_per_alice_tables(union, ALL_ROWS)
    )


def brute_row_maxima(m):
    """Reference: per row of tables M, the most any of Bob's 3**8 outcome tuples scores."""
    return [int(row[np.arange(8), _profiles()].sum(axis=1).max()) for row in m]


def test_row_maxima_is_bobs_best_tuple_on_both_layouts(ctx):
    # A C-order (6561, 8, 3) table, as a non-invariant scan builds, and outcome-major sums
    # of `class_m`, as `class_scan` builds; each row maximum is an int64.
    table = np.zeros((8, 3, 8, 3), dtype=np.int16)
    table.put(np.random.default_rng(46).choice(576, 200, replace=False), 1)
    full = _per_alice_tables(table, ALL_ROWS)
    assert full.shape == (3 ** 8, 8, 3) and full.flags.c_contiguous
    sums = [ctx.class_tables.class_m[ids].sum(axis=0, dtype=np.int16)
            for ids in ([4], [0, 9, 17], [2, 2, 2], [23, 1])]
    assert not any(m.flags.c_contiguous for m in sums)
    for m, rows in [(full, slice(None, None, 97)), *((m, slice(None)) for m in sums)]:
        maxima = _row_maxima(m)
        assert maxima.dtype == np.int64 and maxima.shape == m.shape[:1]
        assert maxima[rows].tolist() == brute_row_maxima(m[rows])
        assert np.array_equal(maxima, m.max(axis=2).sum(axis=1))


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_invariance_needs_every_generator(ctx, pair):
    # The orbit of one term under two of the adjacent transpositions (1 2),
    # (2 3), (3 4) is closed under both, but not under the third.
    swaps = ([1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2])
    actions = [ctx.orbit.label_action[row_of(ctx.group, swaps[i])] for i in pair]
    labels = all_labels()
    positions = {(labels.index((1, 0)), labels.index((4, 1)))}
    while True:
        grown = positions | {(a[k], a[m]) for a in actions for k, m in positions}
        if grown == positions:
            break
        positions = grown
    assert len(positions) in (4, 6)
    terms = tuple(Term(*labels[k], *labels[m]) for k, m in sorted(positions))
    assert_scan_equals_the_product(BellExpression(terms), 3 ** 8)


_LABELS = st.tuples(st.integers(1, 8), st.integers(0, 2))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.builds(OrbitPair, _LABELS, _LABELS), min_size=1, max_size=3, unique=True))
def test_reduced_scan_matches_full_on_orbit_pair_unions(pairs):
    try:
        expr = bell_terms(pairs, standard_context().orbit)
    except ValueError:  # two of the pairs expand into the same terms
        assume(False)
    assert len(expr._scan[0]) == 306
    assert classical_max(expr) == _max_coefficient(expr.table, ALL_ROWS)
    hist = classical_histogram(expr)
    assert [hist.counts[c] for c in range(len(hist.counts))] == full_counts(expr)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_non_invariant_subset_fails_guard(case_exprs, data):
    terms = case_exprs[data.draw(st.sampled_from(tables.CASE_NAMES))].terms
    # Every term orbit has 24 terms, so a subset whose size is not a
    # multiple of 24 cannot map onto itself.
    keep = data.draw(
        st.sets(st.integers(0, len(terms) - 1), min_size=1).filter(lambda k: len(k) % 24)
    )
    subset = tuple(terms[k] for k in sorted(keep))
    assert len(BellExpression(subset)._scan[0]) == 3 ** 8
    small = tuple(t for t in subset if t.s <= 3 and t.t <= 3)
    reduced = BellExpression(small)
    # S4 moves every basis, so no nonempty term set on bases 1..3 is invariant.
    assert len(reduced._scan[0]) == (3 ** 8 if small else 306)
    hist = classical_histogram(reduced)
    expected = literal_histogram(small)
    assert {c: n for c, n in hist.counts.items() if n} == expected
    assert classical_max(reduced) == max(expected)


def combination_rows(n, size):
    """Index rows of every `size`-multiset of range(n), in combinations order."""
    return [list(c) for c in itertools.combinations_with_replacement(range(n), size)]


def x01_pair_expression(m):
    """The pair x01:m, the pair class m, as a hand-built expression."""
    labels = all_labels()
    pair = OrbitPair(labels[0], labels[m])
    return BellExpression(bell_terms([pair], standard_context().orbit).terms)


@functools.lru_cache(maxsize=None)
def unreduced_class_maxima(size):
    """Reference: per class multiset of `size` in combinations order, the largest row maximum
    of its members' summed tables M, from the product of the 24 pair expressions x01:m's own
    tables.  No class table, relabeling or `class_scan` is read."""
    f = np.stack([x01_pair_expression(k).table for k in range(24)])
    m = _per_alice_tables(f, standard_context().class_tables.alice_orbits[0])
    rows = np.array(combination_rows(24, size))
    return np.concatenate([_row_maxima(sum(m[chunk[:, j]] for j in range(size))).max(axis=1)
                           for chunk in np.array_split(rows, 10)])


def class_multisets(size):
    """The standard context's class multisets of `size` and their tables."""
    return standard_context().class_tables.multisets(size)


def class_rows(multisets):
    """The `class_multisets` rows of class multisets, each given in any order."""
    codes = _codes(class_multisets(multisets.shape[1])[0])
    sorter = np.argsort(codes)
    return sorter[np.searchsorted(codes, _codes(multisets), sorter=sorter)]


def class_row(multiset):
    """The `class_multisets` row of a class multiset given in any order."""
    return int(class_rows(np.asarray(multiset)[None])[0])


def bob_rows(class_of, alice, size):
    """Per Bob-label multiset of `size` in combinations order, the `class_multisets` row of its
    classes class_of[alice, m] of Bob's labels m, with Alice at label index `alice`."""
    bob = np.array(combination_rows(24, size))
    return class_rows(np.sort(class_of[alice][bob], axis=1))


def test_class_maxima_equal_the_unreduced_maxima():
    assert {len(x01_pair_expression(k)._scan[0]) for k in range(24)} == {306}
    for size in (1, 2, 3):
        multisets, maxima, _, _, _ = class_multisets(size)
        assert np.array_equal(maxima[np.argsort(_codes(multisets))], unreduced_class_maxima(size))


def test_class_maxima_of_set_multisets_equal_the_union_maximum():
    rng = np.random.default_rng(29)
    for size in rng.integers(1, 4, size=40).tolist():
        bob = rng.choice(24, size, replace=False)
        union = BellExpression(sum((x01_pair_expression(k).terms for k in bob), ()))
        assert class_multisets(size)[1][class_row(bob)] == classical_max(union)


@pytest.mark.parametrize("multiset", [[5, 5], [0, 0, 0], [7, 19, 7], [23, 3, 3]])
def test_class_maxima_of_repeated_classes_equal_the_full_scan(multiset):
    table = sum(x01_pair_expression(k).table for k in multiset)
    expected = _max_coefficient(table, ALL_ROWS)
    assert class_multisets(len(multiset))[1][class_row(multiset)] == expected


def expanded_term_by_term(pairs, orbit):
    """Reference `bell_terms`: each pair's terms read off the label action, element by
    element, in a hand-built expression."""
    labels, action = all_labels(), orbit.label_action
    terms = [Term(*labels[g[labels.index(p.alice)]], *labels[g[labels.index(p.bob)]])
             for p in pairs for g in action]
    return BellExpression(tuple(terms), tuple(pairs))


def test_class_sums_equal_the_term_route(orbit):
    labels = all_labels()
    specs = [[OrbitPair(a, b)] for a in labels for b in labels]
    specs += [[OrbitPair(*p) for p in tables.CASE_PAIRS[name]] for name in tables.CASE_NAMES]
    specs += [cli.parse_pair_spec(",".join(f"x01:{cli.format_label(lab)}" for lab in labels)),
              cli.parse_pair_spec(
                  "x01:x01,x11:x16,x21:x17,x02:x26,x12:x04,x22:x02,x03:x02,x13:x18,x23:x02,"
                  "x04:x16,x14:x24,x24:x28,x05:x22,x15:x04,x25:x13,x06:x22,x16:x13,x26:x17,"
                  "x07:x01,x17:x12,x27:x24,x08:x03,x18:x03,x28:x13"), []]
    rng = np.random.default_rng(25)
    specs += [[OrbitPair(labels[a], labels[b]) for a, b in rng.integers(24, size=(n, 2))]
              for n in rng.integers(1, 7, size=200)]
    # Another order of the elements relabels the orbit: its pairs' term sets are not the
    # standard pair classes, so most of their unions take the full scan.
    other = dataclasses.replace(orbit, elements=orbit.elements[rng.permutation(24)])
    assert not np.array_equal(other.label_action, orbit.label_action)
    duplicates, full = 0, (ALL_ROWS, np.ones(3 ** 8, dtype=np.int64))
    action, invariant_others = orbit.label_action.tolist(), 0
    for spec, action_of in itertools.chain(zip(specs, itertools.repeat(orbit)),
                                           zip(specs[-50:], itertools.repeat(other))):
        try:
            reference = expanded_term_by_term(spec, action_of)
        except ValueError as exc:
            duplicates += 1
            with pytest.raises(ValueError) as excinfo:
                bell_terms(spec, action_of)
            assert str(excinfo.value) == str(exc)
            continue
        expr = bell_terms(spec, action_of)
        assert expr == reference == BellExpression(expr.terms, expr.pairs)
        # Each scan state equals the product of the term table on its rows: the orbit rows
        # exactly when every element of S4 maps the term set onto itself.
        pairs = {(labels.index(t[:2]), labels.index(t[2:])) for t in expr.terms}
        invariant = all({(g[k], g[m]) for k, m in pairs} == pairs for g in action)
        rows = standard_context().class_tables.alice_orbits if invariant else full
        invariant_others += invariant and action_of is other
        m = _per_alice_tables(reference.table, rows[0])
        for e in (expr, reference):
            for got, want in zip((e.table, *e._scan),
                                 (reference.table, *rows, m, _row_maxima(m))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                assert not got.flags.writeable
    assert 20 < duplicates < 150
    assert 0 < invariant_others < 40  # the relabeled orbit reaches both scans


def test_class_index_names_each_bob_multisets_class_multiset(ctx):
    # Each row of class_of is a permutation, so at every Alice label the Bob-label multisets
    # name every class multiset exactly once.
    class_of = ctx.orbit.class_of
    for size in (1, 2, 3):
        multisets, bob = class_multisets(size)[0], np.array(combination_rows(24, size))
        for alice in range(24):
            rows = bob_rows(class_of, alice, size)
            assert np.array_equal(multisets[rows], np.sort(class_of[alice][bob], axis=1))
            assert np.array_equal(np.sort(rows), np.arange(len(multisets)))


def test_class_lambdas_equal_the_spec_order_sums_and_the_eigen_solve(ctx):
    # Independent of the pair model: per Alice label, each pair's own `eigenvalues_isotypic`
    # summed over each Bob multiset in spec order.
    labels, coords = all_labels(), ctx.orbit.coords
    eigenvalues = np.array([[eigenvalues_isotypic(coords(*alice), coords(*bob), ctx.projectors)
                             for bob in labels] for alice in labels])
    for size in (1, 2, 3):
        lambdas, bob = class_multisets(size)[2], np.array(combination_rows(24, size))
        assert not lambdas.flags.writeable
        for alice in range(24):
            sums = eigenvalues[alice][bob[:, 0]]
            for j in range(1, size):
                sums = sums + eigenvalues[alice][bob[:, j]]
            found = lambdas[bob_rows(ctx.orbit.class_of, alice, size)]
            assert np.abs(found - sums.max(axis=1)).max() <= 1e-12
    # Set specs in random order against the diagonalized sum of their operators.
    rng = np.random.default_rng(28)
    for size in rng.integers(1, 4, size=60).tolist():
        alice, bob = int(rng.integers(24)), rng.choice(24, size, replace=False)
        found = class_multisets(size)[2][class_row(ctx.orbit.class_of[alice][bob])]
        pairs = [OrbitPair(labels[alice], labels[m]) for m in bob]
        assert abs(found - max_eigenvalue_sum(pairs, ctx).lambda_max) <= EIG_TOL


def test_class_relabelings_form_a_group_of_order_72(ctx):
    maps = ctx.class_tables.relabelings
    assert maps.shape == (72, 24)
    keys = {tuple(m) for m in maps}
    assert len(keys) == 72
    assert tuple(range(24)) in keys
    assert all(tuple(a[b]) in keys for a in maps for b in maps)


def test_class_relabelings_keep_every_maximum(ctx):
    # Unreduced maxima of all 2600 class multisets of size 3; each map must
    # carry every multiset to one with the same maximum.
    rows = np.array(combination_rows(24, 3))
    maxima = unreduced_class_maxima(3)
    codes = [np.ravel_multi_index(r, (24,) * 3) for r in rows]
    for relabel in ctx.class_tables.relabelings:
        image = np.sort(relabel[rows], axis=1)
        rank = np.searchsorted(codes, np.ravel_multi_index(image.T, (24,) * 3))
        assert np.array_equal(maxima[rank], maxima)


@pytest.mark.parametrize("table, message", [
    ("alice_orbits", "a group element does not map measurement bases onto bases"),
    ("relabelings", "expected 6 basis-preserving label maps, found 1"),
], ids=["alice_orbits", "class_relabelings"])
def test_a_labeling_that_splits_bases_is_rejected(ctx, table, message):
    # The standard context with labels x01 and x02 traded: S4 no longer maps bases onto bases.
    swap = np.arange(24)
    swap[[0, 3]] = 3, 0
    orbit = dataclasses.replace(ctx.orbit, elements=ctx.orbit.elements[swap])
    with pytest.raises(RuntimeError, match=message):
        getattr(dataclasses.replace(ctx, orbit=orbit).class_tables, table)


def test_replaced_context_has_its_own_class_tables(ctx):
    replaced = dataclasses.replace(ctx)
    tables, own = ctx.class_tables, replaced.class_tables
    assert own is not tables and own is replaced.class_tables

    def arrays(t):
        return [*t.alice_orbits, t.class_m, t.relabelings,
                *(a for size in (1, 2, 3) for a in t.multisets(size)[:4])]

    for got, want in zip(arrays(own), arrays(tables), strict=True):
        assert np.array_equal(got, want)
        assert not got.flags.writeable and not want.flags.writeable
    assert [own.multisets(size)[4] for size in (1, 2, 3)] == [0, 1, 26]
    assert own.flat_class_of == tables.flat_class_of == ctx.orbit.class_of.ravel().tolist()


@pytest.mark.parametrize("size, count", [(1, 2), (2, 14), (3, 70)])
def test_multiset_orbits_count(ctx, size, count):
    arrays = class_multisets(size)[:4]
    assert not any(arr.flags.writeable for arr in arrays)
    order = np.argsort(_codes(arrays[0]))  # combinations order
    multisets, maxima = (arr[order] for arr in arrays[:2])
    rows = np.array(combination_rows(24, size))
    assert np.array_equal(multisets, rows)
    codes = _codes(multisets)
    assert np.array_equal(codes, [np.ravel_multi_index(r, (24,) * size) for r in rows])
    # Orbits of the 72 relabelings, each named by its smallest code.
    smallest = np.min([np.ravel_multi_index(np.sort(m[rows], axis=1).T, (24,) * size)
                       for m in ctx.class_tables.relabelings], axis=0)
    names, first, orbit_of = np.unique(smallest, return_index=True, return_inverse=True)
    assert len(names) == count
    # Every multiset of an orbit carries the orbit's maximum.
    assert np.array_equal(maxima, maxima[first][orbit_of])
    # Every Alice label's Bob-label multisets meet all `count` orbits.
    action = ctx.orbit.label_action
    for alice in range(24):
        classes = action[np.flatnonzero(action[:, alice] == 0)[0]]
        image = np.sort(classes[rows], axis=1)
        hit = orbit_of[np.searchsorted(codes, np.ravel_multi_index(image.T, (24,) * size))]
        assert len(np.unique(hit)) == count


def test_rank_order_is_built_once_per_size_with_non_decreasing_ties(ctx, monkeypatch):
    # The gaps descend in rank order; a tie class starts wherever a step down exceeds 1e-9.
    # The gaps above 1e-9, the scan's violations, are counted with them, on these tables.
    tables = dataclasses.replace(ctx).class_tables
    for size, violations in ((1, 0), (2, 1), (3, 26)):
        arrays = tables.multisets(size)
        _, maxima, lambdas, ties, count = arrays
        assert count == violations
        steps = np.diff(lambdas - maxima)
        assert (steps <= 0).all() and ties[0] == 1
        assert np.array_equal(np.diff(ties), steps < -1e-9)
        assert np.count_nonzero(lambdas - maxima > 1e-9) == violations
        with monkeypatch.context() as patch:
            patch.setattr(tables, "class_scan", None)  # a second build would call it
            assert tables.multisets(size) is arrays


def test_empty_expression():
    expr = BellExpression(())
    assert classical_max(expr) == 0
    hist = classical_histogram(expr)
    assert hist.counts[0] == 3 ** 16
    assert hist.c_max == 0
    assert optimal_classical_strategy(expr) == ((0,) * 8, (0,) * 8)


def test_reduced_instance_oracle(case_exprs):
    # keep only settings 1..3 on both sides; 3**6 literal configurations
    for name in ("I", "II"):
        terms = [t for t in case_exprs[name].terms if t.s <= 3 and t.t <= 3]
        reduced = BellExpression(tuple(terms))
        hist = classical_histogram(reduced)
        expected = literal_histogram(terms)
        observed = {c: n for c, n in hist.counts.items() if n}
        assert observed == {c: n for c, n in expected.items() if n}
        assert classical_max(reduced) == max(expected)


def test_bob_relabel_symmetry(case_exprs):
    relabel = {1: 3, 2: 1, 3: 2, 4: 6, 5: 4, 6: 5, 7: 8, 8: 7}
    expr = case_exprs["I"]
    permuted = BellExpression(
        tuple(Term(s, a, relabel[t], b) for s, a, t, b in expr.terms)
    )
    assert classical_histogram(permuted).counts == classical_histogram(expr).counts
    assert classical_max(permuted) == classical_max(expr)


def test_cmax_at_most_term_count(case_exprs):
    for expr in case_exprs.values():
        assert classical_max(expr) <= len(expr.terms)
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    # all three terms hold for a_1 = a_2 = 0, b_1 = 0, b_2 = 1
    assert classical_max(friendly) == 3


def test_optimal_strategy_attains_max(case_exprs):
    for expr in case_exprs.values():
        f_alice, f_bob = optimal_classical_strategy(expr)
        assert coefficient(expr, f_alice, f_bob) == classical_max(expr)


def test_optimal_strategy_lex_tiebreak():
    expr = BellExpression(((1, 0, 1, 0),))
    f_alice, f_bob = optimal_classical_strategy(expr)
    assert f_alice == (0,) * 8
    assert f_bob == (0,) * 8
    assert coefficient(expr, f_alice, f_bob) == 1


@pytest.mark.parametrize("f_alice, f_bob", [
    ((0,) * 7, (0,) * 8),
    ((0,) * 8, (0,) * 9),
    ((0,) * 8, (0,) * 7 + (3,)),
    ((-1,) + (0,) * 7, (0,) * 8),
    ((1.0,) * 8, (True,) * 8),
], ids=["short_alice", "long_bob", "outcome_3", "outcome_minus_1", "float_outcomes"])
def test_coefficient_rejects_malformed_strategy(f_alice, f_bob):
    # A short tuple used to raise IndexError, a long one was cut to eight
    # entries, an out-of-range outcome silently matched no term, and float
    # outcomes were counted; outcomes follow BellExpression's integer rule.
    expr = BellExpression(((1, 0, 1, 0),))
    with pytest.raises(ValueError, match="8 outcomes in 0..2"):
        coefficient(expr, f_alice, f_bob)


def first_optimal_strategy(expr):
    """Reference: the first Alice tuple, in lexicographic order over all of
    them, whose best Bob response scores highest; then Bob's smallest best
    outcome per setting."""
    n = 8
    alice = np.array(list(itertools.product(range(3), repeat=n)))
    m = np.zeros((len(alice), n, 3), dtype=int)  # m[i, t-1, b]
    for s, a, t, b in expr.terms:
        m[:, t - 1, b] += alice[:, s - 1] == a
    best = int(np.argmax(m.max(axis=2).sum(axis=1)))
    return tuple(alice[best].tolist()), tuple(m[best].argmax(axis=1).tolist())


@settings(max_examples=20, deadline=None)
@given(st.lists(st.builds(OrbitPair, _LABELS, _LABELS), min_size=1, max_size=3, unique=True))
@example(tables.CASE_PAIRS["I"])
@example(tables.CASE_PAIRS["II"])
@example(tables.CASE_PAIRS["III"])
def test_optimal_strategy_matches_full_scan(pairs):
    try:
        expr = bell_terms(pairs, standard_context().orbit)
    except ValueError:  # two of the pairs expand into the same terms
        assume(False)
    assert len(expr._scan[0]) == 306
    assert optimal_classical_strategy(expr) == first_optimal_strategy(expr)


def test_histogram_csv_layout(case_exprs):
    hist = classical_histogram(case_exprs["I"])
    lines = histogram_csv(hist).strip().splitlines()
    assert lines[0] == "c,count"
    assert len(lines) == 21
    assert lines[1] == "1,12960"
    assert lines[16] == "16,15876"
    assert lines[20] == "20,0"
