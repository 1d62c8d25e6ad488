import collections
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import index_of, row_of
from s4bell import classical, cli, standard_context, tables
from s4bell.classical import (
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
    optimal_classical_strategy,
)
from s4bell.orbit import OrbitPair, all_labels
from s4bell.quantum import EIG_TOL, eigenvalues_isotypic, max_eigenvalue_sum


@pytest.fixture(scope="module")
def case_exprs(orbit, case_pairs):
    return {name: bell_terms(pairs) for name, pairs in case_pairs.items()}


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
    assert {type(term) for term in expr.terms} == {Term}
    assert {type(x) for term in expr.terms for x in term} == {int}


def test_diagonal_pair_terms():
    expr = bell_terms([OrbitPair((1, 0), (1, 0))])
    assert set(expr.terms) == {Term(i, a, i, a) for i in range(1, 9) for a in range(3)}


def test_repeated_pair_raises():
    pair = OrbitPair((1, 0), (4, 1))
    with pytest.raises(ValueError, match="duplicate"):
        bell_terms([pair, pair])


@pytest.mark.parametrize("bad", ["1", 1.5, 1.0])
def test_non_integer_terms_rejected(bad):
    # A term's entries are its pair's label entries, each read as an integer.
    for pair in (((bad, 0), (1, 0)), ((1, bad), (1, 0)), ((1, 0), (1, np.float64(bad)))):
        with pytest.raises(ValueError, match=r"^label must be two integers, got "):
            bell_terms([((2, 1), (3, 2)), pair])


def test_expression_validation():
    # `bell_terms` reads each pair as two labels of an `OrbitPair`, then rejects a repeated term.
    good = ((1, 0), (4, 1))
    for bad, message in ((600, "each pair must be two labels"),
                         ((good[0],), "each pair must be two labels"),
                         (((9, 0), (1, 0)), "label out of range: basis 9, outcome 0"),
                         (((1, 0), (0, 0)), "label out of range: basis 0, outcome 0"),
                         (((1, 3), (1, 0)), "label out of range: basis 1, outcome 3"),
                         (((1, 0), (1, -1)), "label out of range: basis 1, outcome -1"),
                         (((1, 0, 1), (1, 0)), "label must be two integers, got (1, 0, 1)"),
                         ((7, (1, 0)), "label must be two integers, got 7"),
                         (good, "duplicate term Term(s=1, a=0, t=4, b=1)")):
        with pytest.raises(ValueError) as excinfo:
            bell_terms([good, bad])
        assert str(excinfo.value) == message


def test_pairs_are_stored_as_orbit_pairs():
    raw, built = (bell_terms(pairs)
                  for pairs in ([((1, 0), (1, 0))], (OrbitPair((1, 0), (1, 0)),)))
    assert raw.pairs == built.pairs == (OrbitPair((1, 0), (1, 0)),)
    assert raw == built and hash(raw) == hash(built)


ALL_ROWS = np.arange(3 ** 8)
ONES = np.ones(3 ** 8, dtype=np.int64)


def table_of(index):
    """Reference: F[s-1, a, t-1, b] = 1 for each term (s, a, t, b) of a term index, else 0."""
    table = np.zeros((8, 3, 8, 3), np.int16)
    table.put(index, 1)
    return table


def _max_coefficient(table, rows):
    """Reference: the classical maximum over the Alice tuples `rows`, from fresh tables."""
    return int(_row_maxima(_per_alice_tables(table, rows)).max())


def histogram_counts(table, rows, weights):
    """`_histogram_counts` of a table over the Alice tuples `rows`, from fresh tables M."""
    m = _per_alice_tables(table, rows)
    return _histogram_counts(int(table.sum()), rows, weights, m, _row_maxima(m))[0]


def full_counts(index):
    """Histogram of a term index from the full scan over every Alice tuple, as a list."""
    return histogram_counts(table_of(index), ALL_ROWS, ONES).tolist()


def test_histogram_reduced_matches_full(case_exprs):
    for expr in case_exprs.values():
        hist = classical_histogram(expr)
        assert [hist.counts[c] for c in range(len(hist.counts))] == full_counts(expr.index)


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


def assert_counts_match_reference(table, rows, weights):
    counts = histogram_counts(table, rows, weights)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, shift_polynomial_counts(table, rows, weights))


def assert_scan_counts_match_reference(expr):
    assert_counts_match_reference(table_of(expr.index), *expr._scan[:2])


def test_histogram_kernel_matches_reference_on_cases(case_exprs):
    for expr in case_exprs.values():
        assert len(expr._scan[0]) == 306
        assert_scan_counts_match_reference(expr)


@pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_kernel_matches_reference_on_random_unions(n_pairs, seed):
    rng = np.random.default_rng(seed)
    labels = all_labels()
    while True:
        picks = rng.choice(len(labels), size=(n_pairs, 2))
        try:
            expr = bell_terms([OrbitPair(labels[a], labels[b]) for a, b in picks])
        except ValueError:  # two of the pairs expand into the same terms
            continue
        break
    assert_scan_counts_match_reference(expr)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_kernel_matches_reference_on_non_invariant_subsets(case_exprs, seed):
    rng = np.random.default_rng(seed)
    expr = case_exprs[tables.CASE_NAMES[seed]]
    keep = rng.choice(len(expr.index), size=rng.integers(1, len(expr.index)), replace=False)
    assert_counts_match_reference(table_of([expr.index[k] for k in keep]), ALL_ROWS, ONES)
    # The subset's terms on bases 1..3, on all 6561 tuples, against the literal histogram.
    small = [t for t in (expr.terms[k] for k in keep) if t.s <= 3 and t.t <= 3]
    counts = histogram_counts(table_of(index_of(small)), ALL_ROWS, ONES)
    assert {c: n for c, n in enumerate(counts.tolist()) if n} == literal_histogram(small)


def test_histogram_kernel_matches_reference_on_small_tables():
    # The empty table on the 306 orbit rows, a single term on all 6561 tuples.
    assert_scan_counts_match_reference(bell_terms(()))
    assert_counts_match_reference(table_of(index_of([(3, 2, 6, 1)])), ALL_ROWS, ONES)


def test_histogram_kernel_matches_reference_on_all_pairs_of_one_alice_label():
    expr = bell_terms([OrbitPair((1, 0), lab) for lab in all_labels()])
    assert len(expr.terms) == 576
    assert_scan_counts_match_reference(expr)


def test_histogram_kernel_at_its_size_bound():
    # Every term but one, on all 6561 tuples: M holds 8 almost everywhere, so a half scores
    # up to 4 * 8 = 32; the int32 bin index reaches its largest, 32 * 6561 + 6560.
    table = table_of(range(1, 576))
    counts = histogram_counts(table, ALL_ROWS, ONES)
    assert counts.tolist() == shift_polynomial_counts(table, ALL_ROWS, ONES).tolist()
    assert np.flatnonzero(counts)[-1] == 64


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


def product_scan(expr):
    """Reference: the tables M and row maxima of `expr`'s scan rows, from the product of its
    own table F.  No class table is read."""
    m = _per_alice_tables(table_of(expr.index), expr._scan[0])
    return m, _row_maxima(m)


def assert_scan_equals_the_product(expr):
    rows, weights, m, maxima = expr._scan
    assert len(rows) == 306 and weights.sum() == 3 ** 8
    for got, want in zip((m, maxima), product_scan(expr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_several_invariant_expressions_keep_the_reduced_scan(case_exprs):
    # The tables summed from the classes must equal the product of the term table.
    for expr in case_exprs.values():
        assert_scan_equals_the_product(expr)
    # The 24 single-pair expressions of Alice label x12, one per class, and their union.
    pool = [[OrbitPair((2, 1), lab)] for lab in all_labels()]
    for pairs in (*pool, sum(pool, [])):
        assert_scan_equals_the_product(bell_terms(pairs))


def test_the_scan_is_reduced_exactly_on_unions_of_pair_classes(case_pairs):
    # Each pair's terms are one whole pair class, so every expression, in any pair order,
    # scans the 306 orbit rows with the tables of its term table's product.
    labels = all_labels()
    # Whole classes with Alice at several labels: x01:x14, x12:x26, x23:x21, x28:x22.
    spread = [OrbitPair(labels[k], labels[m]) for k, m in ((0, 10), (4, 17), (8, 2), (23, 5))]
    for pairs in (case_pairs["II"][::-1], (), spread, [*spread, OrbitPair((2, 1), (5, 0))]):
        assert_scan_equals_the_product(bell_terms(pairs))


def gathered_per_alice_tables(table, rows):
    """Reference: the former kernel, one gather per Alice setting."""
    alice = np.array(list(itertools.product(range(3), repeat=8)))[rows]
    m = np.zeros((len(alice), 8, 3), dtype=np.int16)
    for s in range(8):
        m += table[s][alice[:, s]]
    return m


def test_per_alice_tables_match_the_gather_reference(case_exprs):
    friendly = index_of([(1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)])
    indices = [*(e.index for e in case_exprs.values()), friendly,
               bell_terms([OrbitPair((2, 1), (5, 0))]).index]
    stacked = np.stack([table_of(index) for index in indices])
    for rows in (standard_context().class_tables.alice_orbits[0], ALL_ROWS):
        for table in stacked:
            m = _per_alice_tables(table, rows)
            assert m.dtype == np.int16
            assert np.array_equal(m, gathered_per_alice_tables(table, rows))
        m = _per_alice_tables(stacked, rows)
        assert m.shape == (len(indices), len(rows), 8, 3)
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
    # A C-order (6561, 8, 3) table, as the full-scan references build, and outcome-major sums
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
    # (2 3), (3 4) is closed under both, but is only part of the term's pair class.
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
    assert {24 * k + m for k, m in positions} < set(bell_terms([((1, 0), (4, 1))]).index)


_LABELS = st.tuples(st.integers(1, 8), st.integers(0, 2))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.builds(OrbitPair, _LABELS, _LABELS), min_size=1, max_size=3, unique=True))
def test_reduced_scan_matches_full_on_orbit_pair_unions(pairs):
    try:
        expr = bell_terms(pairs)
    except ValueError:  # two of the pairs expand into the same terms
        assume(False)
    assert len(expr._scan[0]) == 306
    assert classical_max(expr) == _max_coefficient(table_of(expr.index), ALL_ROWS)
    hist = classical_histogram(expr)
    assert [hist.counts[c] for c in range(len(hist.counts))] == full_counts(expr.index)


def combination_rows(n, size):
    """Index rows of every `size`-multiset of range(n), in combinations order."""
    return [list(c) for c in itertools.combinations_with_replacement(range(n), size)]


def x01_pairs(bob):
    """The pairs x01:m of Bob's label indices m, each the pair class m."""
    labels = all_labels()
    return [OrbitPair(labels[0], labels[m]) for m in bob]


def x01_pair_table(m):
    """Reference: the term table of the pair x01:m."""
    return table_of(bell_terms(x01_pairs([m])).index)


@functools.lru_cache(maxsize=None)
def unreduced_class_maxima(size):
    """Reference: per class multiset of `size` in combinations order, the largest row maximum
    of its members' summed tables M, from the product of the 24 pair expressions x01:m's own
    tables.  No class table, relabeling or `class_scan` is read."""
    f = np.stack([x01_pair_table(k) for k in range(24)])
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
    orbit = standard_context().orbit
    assert {len(bell_terms(x01_pairs([k]))._scan[0]) for k in range(24)} == {306}
    for size in (1, 2, 3):
        multisets, maxima, _, _, _ = class_multisets(size)
        assert np.array_equal(maxima[np.argsort(_codes(multisets))], unreduced_class_maxima(size))


def test_class_maxima_of_set_multisets_equal_the_union_maximum():
    rng = np.random.default_rng(29)
    for size in rng.integers(1, 4, size=40).tolist():
        bob = rng.choice(24, size, replace=False)
        union = bell_terms(x01_pairs(bob))
        assert class_multisets(size)[1][class_row(bob)] == classical_max(union)


@pytest.mark.parametrize("multiset", [[5, 5], [0, 0, 0], [7, 19, 7], [23, 3, 3]])
def test_class_maxima_of_repeated_classes_equal_the_full_scan(multiset):
    table = sum(x01_pair_table(k) for k in multiset)
    expected = _max_coefficient(table, ALL_ROWS)
    assert class_multisets(len(multiset))[1][class_row(multiset)] == expected


def expanded_term_by_term(pairs, orbit):
    """Reference `bell_terms`: each pair's terms read off the label action, element by
    element; ValueError at the first repeated term."""
    labels, action, seen = all_labels(), orbit.label_action, set()
    terms = [Term(*labels[g[labels.index(p.alice)]], *labels[g[labels.index(p.bob)]])
             for p in pairs for g in action]
    for term in terms:
        if term in seen:
            raise ValueError(f"duplicate term {term}")
        seen.add(term)
    return tuple(terms)


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
    duplicates, rows = 0, standard_context().class_tables.alice_orbits
    action = orbit.label_action.tolist()
    for spec in specs:
        try:
            terms = expanded_term_by_term(spec, orbit)
        except ValueError as exc:  # the class route names the same first repeated term
            duplicates += 1
            with pytest.raises(ValueError) as excinfo:
                bell_terms(spec)
            assert str(excinfo.value) == str(exc)
            continue
        expr = bell_terms(spec)
        assert expr.index == index_of(terms) and expr.terms == terms and expr.pairs == tuple(spec)
        # Every element of S4 maps the term set onto itself, and the scan state summed from
        # its classes equals the product of its term table on the orbit rows.
        pairs = {(labels.index(t[:2]), labels.index(t[2:])) for t in terms}
        assert all({(g[k], g[m]) for k, m in pairs} == pairs for g in action)
        m = _per_alice_tables(table_of(expr.index), rows[0])
        for got, want in zip(expr._scan, (*rows, m, _row_maxima(m))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable
    assert 20 < duplicates < 150


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
    expr = bell_terms(())
    assert classical_max(expr) == 0
    hist = classical_histogram(expr)
    assert hist.counts[0] == 3 ** 16
    assert hist.c_max == 0
    assert optimal_classical_strategy(expr) == ((0,) * 8, (0,) * 8)


def test_reduced_instance_oracle(case_exprs):
    # keep only settings 1..3 on both sides, scanned over all 6561 Alice tuples;
    # 3**6 literal configurations
    for name in ("I", "II"):
        terms = [t for t in case_exprs[name].terms if t.s <= 3 and t.t <= 3]
        counts = histogram_counts(table_of(index_of(terms)), ALL_ROWS, ONES)
        assert {c: n for c, n in enumerate(counts.tolist()) if n} == literal_histogram(terms)


def test_bob_relabel_symmetry(case_exprs):
    # The relabeled terms are no union of pair classes, so the full scan is the reference.
    relabel = {1: 3, 2: 1, 3: 2, 4: 6, 5: 4, 6: 5, 7: 8, 8: 7}
    expr = case_exprs["I"]
    permuted = index_of((s, a, relabel[t], b) for s, a, t, b in expr.terms)
    hist = classical_histogram(expr)
    assert full_counts(permuted) == [hist.counts[c] for c in range(len(hist.counts))]


def test_cmax_at_most_term_count(case_exprs):
    for expr in case_exprs.values():
        assert classical_max(expr) <= len(expr.terms)
    friendly = index_of([(1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)])
    # all three terms hold for a_1 = a_2 = 0, b_1 = 0, b_2 = 1
    assert _max_coefficient(table_of(friendly), ALL_ROWS) == 3


def test_optimal_strategy_attains_max(case_exprs):
    for expr in case_exprs.values():
        f_alice, f_bob = optimal_classical_strategy(expr)
        assert coefficient(expr, f_alice, f_bob) == classical_max(expr)


def test_optimal_strategy_lex_tiebreak():
    # The terms (i, a, i, a): every a_i = b_i configuration scores the maximum 8.
    expr = bell_terms([OrbitPair((1, 0), (1, 0))])
    f_alice, f_bob = optimal_classical_strategy(expr)
    assert f_alice == (0,) * 8
    assert f_bob == (0,) * 8
    assert coefficient(expr, f_alice, f_bob) == 8


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
    # outcomes were counted; outcomes must be integers, as labels are.
    expr = bell_terms([OrbitPair((1, 0), (1, 0))])
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
        expr = bell_terms(pairs)
    except ValueError:  # two of the pairs expand into the same terms
        assume(False)
    assert len(expr._scan[0]) == 306
    assert optimal_classical_strategy(expr) == first_optimal_strategy(expr)
