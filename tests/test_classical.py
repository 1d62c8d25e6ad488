import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_terms import CASE_TERMS
from s4bell import standard_context, tables
from s4bell.classical import (
    BellExpression,
    Term,
    _alice_orbits,
    _alice_rows,
    _histogram_counts,
    _is_invariant,
    _max_coefficient,
    bell_terms,
    classical_histogram,
    classical_max,
    coefficient,
    configuration_from_index,
    configuration_index,
    histogram_csv,
    multiset_maxima,
    optimal_classical_strategy,
)
from s4bell.orbit import OrbitPair


@pytest.fixture(scope="module")
def case_exprs(orbit, case_pairs):
    return {name: bell_terms(pairs, orbit) for name, pairs in case_pairs.items()}


def literal_histogram(terms, n_settings):
    """Independent oracle: score every configuration by direct term scan."""
    counts = {}
    for config in itertools.product(range(3), repeat=2 * n_settings):
        f_alice, f_bob = config[:n_settings], config[n_settings:]
        c = sum(
            1
            for s, a, t, b in terms
            if f_alice[s - 1] == a and f_bob[t - 1] == b
        )
        counts[c] = counts.get(c, 0) + 1
    return counts


def test_terms_match_reference(case_exprs):
    for name, expr in case_exprs.items():
        assert len(expr.terms) == 72
        assert set(expr.terms) == set(Term(*t) for t in CASE_TERMS[name])


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


def test_expression_validation():
    with pytest.raises(ValueError):
        BellExpression(((9, 0, 1, 0),))
    with pytest.raises(ValueError):
        BellExpression(((1, 3, 1, 0),))
    with pytest.raises(ValueError):
        BellExpression(((1, 0, 1, 0), (1, 0, 1, 0)))


def test_classical_bounds(case_exprs):
    bounds = {name: classical_max(expr) for name, expr in case_exprs.items()}
    assert bounds == {"I": 16, "II": 18, "III": 16}


def test_histogram_case1(case_exprs):
    hist = classical_histogram(case_exprs["I"])
    for c in range(1, 21):
        assert hist.counts.get(c, 0) == tables.REF_COEFFICIENT_COUNTS["I"][c - 1]
    assert hist.total() == 3 ** 16
    assert hist.weighted_total() == 72 * 3 ** 14
    assert hist.c_max == 16
    assert hist.counts[0] == 3 ** 16 - sum(tables.REF_COEFFICIENT_COUNTS["I"])


def full_counts(expr):
    """Histogram from the full scan over every Alice tuple, as a list."""
    return _histogram_counts(expr.terms, expr.n_settings).tolist()


def test_histogram_reduced_matches_full(case_exprs):
    for expr in case_exprs.values():
        hist = classical_histogram(expr)
        assert [hist.counts[c] for c in range(len(hist.counts))] == full_counts(expr)


def test_alice_orbit_table():
    orbits = _alice_orbits()
    assert len(orbits.representatives) == 306
    assert all(24 % size == 0 for size in orbits.sizes.tolist())
    assert orbits.sizes.sum() == 3 ** 8


def test_non_invariant_expression_scans_every_alice_tuple(case_exprs):
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    assert not _is_invariant(friendly)
    rows, weights = _alice_rows(friendly)
    assert rows.tolist() == list(range(3 ** 8))
    assert set(weights.tolist()) == {1}
    rows, weights = _alice_rows(case_exprs["I"])
    assert len(rows) == 306
    assert weights.sum() == 3 ** 8


_LABELS = st.tuples(st.integers(1, 8), st.integers(0, 2))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.builds(OrbitPair, _LABELS, _LABELS), min_size=1, max_size=3, unique=True))
def test_reduced_scan_matches_full_on_orbit_pair_unions(pairs):
    try:
        expr = bell_terms(pairs, standard_context().orbit)
    except ValueError:  # two of the pairs expand into the same terms
        assume(False)
    assert _is_invariant(expr)
    assert classical_max(expr) == _max_coefficient(expr.terms, 8)
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
    assert not _is_invariant(BellExpression(subset))
    small = tuple(t for t in subset if t.s <= 3 and t.t <= 3)
    reduced = BellExpression(small, n_settings=3)
    assert not _is_invariant(reduced)
    hist = classical_histogram(reduced)
    expected = literal_histogram(small, 3)
    assert {c: n for c, n in hist.counts.items() if n} == expected
    assert classical_max(reduced) == max(expected)


def test_multiset_maxima_match_full_scan_of_unions(orbit):
    exprs = [bell_terms([OrbitPair((1, 0), lab)], orbit) for lab in ((4, 1), (7, 0), (5, 1))]
    friendly = BellExpression(((1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 1)))
    for members in (exprs, exprs[:2] + [friendly]):
        combos = itertools.combinations_with_replacement(members, 2)
        expected = [_max_coefficient(a.terms + b.terms, 8) for a, b in combos]
        assert multiset_maxima(members, 2) == expected


def test_empty_expression():
    expr = BellExpression(())
    assert classical_max(expr) == 0
    hist = classical_histogram(expr)
    assert hist.counts[0] == 3 ** 16
    assert hist.c_max == 0
    assert optimal_classical_strategy(expr) == ((0,) * 8, (0,) * 8)


def test_reduced_instance_oracle(case_exprs):
    # keep only settings 1..3 on both sides; 3**6 configurations
    for name in ("I", "II"):
        terms = [t for t in case_exprs[name].terms if t.s <= 3 and t.t <= 3]
        reduced = BellExpression(tuple(terms), n_settings=3)
        hist = classical_histogram(reduced)
        expected = literal_histogram(terms, 3)
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


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, 2)] * n), st.tuples(*[st.integers(0, 2)] * n)
)))
def test_configuration_encoding_roundtrip(config):
    f_alice, f_bob = config
    idx = configuration_index(f_alice, f_bob)
    assert 0 <= idx < 3 ** (2 * len(f_alice))
    assert configuration_from_index(idx, len(f_alice)) == (f_alice, f_bob)
    # little-endian in the setting index, Alice digits low
    assert configuration_index((1,) + (0,) * 7, (0,) * 8) == 1
    assert configuration_index((0,) * 8, (1,) + (0,) * 7) == 3 ** 8


def test_histogram_csv_layout(case_exprs):
    hist = classical_histogram(case_exprs["I"])
    lines = histogram_csv(hist).strip().splitlines()
    assert lines[0] == "c,count"
    assert len(lines) == 21
    assert lines[1] == "1,12960"
    assert lines[16] == "16,15876"
    assert lines[20] == "20,0"
