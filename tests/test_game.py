import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from compare_cli import COMMANDS
from s4bell.classical import BellExpression, bell_terms, classical_max, coefficient
from s4bell.cli import parse_pair_spec
from s4bell.game import GameValue, game_values, winning_table
from s4bell.orbit import OrbitPair
from s4bell.quantum import max_eigenvalue_sum


@pytest.fixture(scope="module")
def case_data(orbit, case_pairs):
    out = {}
    for name, pairs in case_pairs.items():
        expr = bell_terms(pairs, orbit)
        out[name] = (pairs, expr, winning_table(expr))
    return out


def test_absent_settings_pair_is_empty(case_data):
    _, _, table = case_data["I"]
    assert (1, 1) not in table.entries


def test_uniform_triple_structure_reported(case_data):
    # Holds for case I's 24-row table; the other built-in cases have rows
    # with only two winning pairs, so the property is reported per case
    # rather than assumed.
    flags = {
        name: table.has_uniform_triple_structure()
        for name, (_, _, table) in case_data.items()
    }
    assert flags == {"I": True, "II": False, "III": False}


def test_game_values_case2(ctx, case_data):
    pairs, expr, _ = case_data["II"]
    value = game_values(expr, ctx)
    spectrum = max_eigenvalue_sum(pairs, ctx)
    assert value.classical == Fraction(18, 64)
    assert value.quantum == spectrum.lambda_max / 64
    assert abs(value.quantum - 18.5138 / 64) < 1e-4


def test_game_values_rejects_terms_that_are_not_its_pairs_expansion(ctx, case_data):
    pairs, expr, _ = case_data["I"]
    assert game_values(BellExpression(expr.terms, pairs), ctx) == game_values(expr, ctx)
    for terms, own in ((expr.terms[:48], pairs[1:2]), ([(1, 0, 1, 0)], [((1, 0), (1, 0))])):
        with pytest.raises(ValueError, match="^the expression's terms are not the expansion"):
            game_values(BellExpression(terms, own), ctx)


def test_random_strategies_below_optimum(case_data, rng):
    from s4bell.classical import optimal_classical_strategy

    _, expr, _ = case_data["I"]
    bound = classical_max(expr)
    best = 0
    for _ in range(1000):
        f_alice = tuple(int(x) for x in rng.integers(0, 3, 8))
        f_bob = tuple(int(x) for x in rng.integers(0, 3, 8))
        best = max(best, coefficient(expr, f_alice, f_bob))
    assert best <= bound
    f_alice, f_bob = optimal_classical_strategy(expr)
    assert coefficient(expr, f_alice, f_bob) == bound == 16


def test_all_zeros_strategy_case1(case_data):
    # Table rows containing the answer pair 00: settings pairs
    # 17, 34, 37, 43, 68, 71, 73, 86, i.e. 8 of 64
    _, expr, table = case_data["I"]
    zeros = (0,) * 8
    assert sum((0, 0) in pairs for pairs in table.entries.values()) == 8
    assert coefficient(expr, zeros, zeros) == 8


def test_quantum_value_consistent_with_term_view(ctx, case_data):
    # rebuild the operator from the term list and take the expectation in
    # the optimal shared state
    for name, (pairs, expr, _) in case_data.items():
        spectrum = max_eigenvalue_sum(pairs, ctx)
        op = np.zeros((9, 9))
        for s, a, t, b in expr.terms:
            w = np.kron(ctx.orbit.coords(s, a), ctx.orbit.coords(t, b))
            op += np.outer(w, w)
        op /= 64.0
        v = spectrum.eigenvector
        quantum = spectrum.lambda_max / 64.0
        assert abs(float(v @ op @ v) - quantum) < 1e-9


def test_violation_flag_tolerance():
    value = GameValue(Fraction(8, 64), 8.0000000000000002 / 64)
    assert not value.violation


def test_violation_is_the_gap_above_the_lambda_scale_tolerance(ctx, case_data):
    # 5e-9 above the classical maximum on the lambda scale: a violation under the one rule,
    # though only 7.8e-11 above it on the probability scale.
    value = GameValue(Fraction(16, 64), (16 + 5e-9) / 64)
    assert value.violation
    assert value.gap == pytest.approx(5e-9, rel=1e-6)
    pairs, expr, _ = case_data["I"]
    assert game_values(expr, ctx).gap == max_eigenvalue_sum(pairs, ctx).lambda_max - 16


def test_render_text_matches_reference_rows(case_data):
    _, _, table = case_data["I"]
    text = table.render_text()
    assert "14   01 10 22" in text
    assert "86   00 11 22" in text
    assert text.splitlines()[0] == "s,t  winning a,b"


def _pinned_expressions(orbit):
    """The expression of every `analyze` and `game` spec of the CLI contract that expands."""
    specs = {argv[argv.index("--pairs") + 1] for argv in COMMANDS if argv[0] in ("analyze", "game")}
    out = {}
    for spec in sorted(specs):
        try:
            out[spec] = bell_terms(parse_pair_spec(spec), orbit)
        except ValueError:  # the contract's rejected specs
            continue
    return out


def _assert_one_sorted_view(expr, table):
    """`rows` are the terms grouped by settings pair, pairs and answers sorted; `entries`
    gives back each pair's answers; `render_text` and `as_dict` list `rows` in order."""
    grouped = {}
    for s, a, t, b in expr.terms:
        grouped.setdefault((s, t), set()).add((a, b))
    expected = tuple(((s, t), tuple(f"{a}{b}" for a, b in sorted(grouped[s, t])))
                     for s, t in sorted(grouped))
    assert table.rows == expected
    assert table.entries == {key: frozenset(answers) for key, answers in grouped.items()}
    text = table.render_text().splitlines()
    assert text[0] == "s,t  winning a,b"
    assert [line.split() for line in text[1:]] == [[f"{s}{t}", *cell] for (s, t), cell in expected]
    assert list(table.as_dict().items()) == [(f"{s},{t}", list(cell)) for (s, t), cell in expected]


def test_text_rows_and_dict_items_are_one_sorted_view(orbit):
    pinned = _pinned_expressions(orbit)
    assert len(pinned) == 8
    # Beyond the contract's specs: the empty expression, every term (64 settings pairs with
    # all nine answers each) and a term set that is not S4-invariant, given out of order.
    everything = BellExpression(itertools.product(range(1, 9), range(3), range(1, 9), range(3)))
    order = np.random.default_rng(46).permutation(len(everything.terms))[:150]
    shuffled = BellExpression([everything.terms[i] for i in order])
    assert shuffled.index != tuple(sorted(shuffled.index))
    assert len(winning_table(everything).rows) == 64
    for expr in (*pinned.values(), BellExpression(()), everything, shuffled):
        _assert_one_sorted_view(expr, winning_table(expr))


_LABELS = st.tuples(st.integers(1, 8), st.integers(0, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.builds(OrbitPair, _LABELS, _LABELS), min_size=1, max_size=3, unique=True))
def test_rows_are_the_sorted_grouping_of_the_terms(orbit, pairs):
    try:
        expr = bell_terms(pairs, orbit)
    except ValueError:  # two of the pairs expand into the same terms
        reject()
    _assert_one_sorted_view(expr, winning_table(expr))


def test_uniform_triple_structure_needs_three_distinct_a_and_b_per_cell(orbit):
    single = winning_table(bell_terms([OrbitPair((1, 0), (4, 1))], orbit))
    assert {len(cell) for _, cell in single.rows} == {1}
    assert not single.has_uniform_triple_structure()
    repeated_a = BellExpression([(1, 0, 2, 0), (1, 0, 2, 1), (1, 1, 2, 2)])
    repeated_b = BellExpression([(1, 0, 2, 0), (1, 1, 2, 0), (1, 2, 2, 1)])
    for expr in (repeated_a, repeated_b):
        assert winning_table(expr).rows == (((1, 2), tuple(f"{a}{b}" for _, a, _, b in expr.terms)),)
        assert not winning_table(expr).has_uniform_triple_structure()
    assert winning_table(BellExpression([])).has_uniform_triple_structure()


def test_table_json_keys(case_data):
    _, _, table = case_data["I"]
    data = table.as_dict()
    assert data["1,4"] == ["01", "10", "22"]
    assert len(data) == 24
