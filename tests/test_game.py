from fractions import Fraction

import numpy as np
import pytest

from s4bell import tables
from s4bell.classical import bell_terms, classical_max, coefficient
from s4bell.game import GameValue, WinningTable, evaluate_strategy, game_values, winning_table
from s4bell.quantum import max_eigenvalue_sum


@pytest.fixture(scope="module")
def case_data(orbit, case_pairs):
    out = {}
    for name, pairs in case_pairs.items():
        expr = bell_terms(pairs, orbit)
        out[name] = (pairs, expr, winning_table(expr))
    return out


def test_case1_table_matches_reference(case_data):
    _, _, table = case_data["I"]
    assert table.entries == tables.REF_WINNING_TABLE_I
    assert len(table.entries) == 24
    assert all(len(pairs) == 3 for pairs in table.entries.values())


def test_absent_settings_pair_is_empty(case_data):
    _, _, table = case_data["I"]
    assert table.winning_pairs(1, 1) == frozenset()
    assert not table.wins(1, 1, 0, 0)


def test_uniform_triple_structure_reported(case_data):
    # Holds for case I's 24-row table; the other built-in cases have rows
    # with only two winning pairs, so the property is reported per case
    # rather than assumed.
    flags = {
        name: table.has_uniform_triple_structure()
        for name, (_, _, table) in case_data.items()
    }
    assert flags == {"I": True, "II": False, "III": False}


def test_game_values_case1(ctx, case_data):
    _, expr, _ = case_data["I"]
    value = game_values(expr, ctx)
    assert value.classical == Fraction(16, 64)
    assert abs(value.quantum - 0.2514) <= 1e-4
    assert value.violation


def test_game_values_case2(ctx, case_data):
    pairs, expr, _ = case_data["II"]
    value = game_values(expr, ctx)
    spectrum = max_eigenvalue_sum(pairs, ctx)
    assert value.classical == Fraction(18, 64)
    assert value.quantum == spectrum.lambda_max / 64
    assert abs(value.quantum - 18.5138 / 64) < 1e-4


def test_strategy_evaluation_matches_coefficient(case_data, rng):
    _, expr, table = case_data["I"]
    for _ in range(1000):
        f_alice = tuple(int(x) for x in rng.integers(0, 3, 8))
        f_bob = tuple(int(x) for x in rng.integers(0, 3, 8))
        won = evaluate_strategy(f_alice, f_bob, table)
        assert won == Fraction(coefficient(expr, f_alice, f_bob), 64)


def test_random_strategies_below_optimum(case_data, rng):
    from s4bell.classical import optimal_classical_strategy

    _, expr, table = case_data["I"]
    bound = Fraction(classical_max(expr), 64)
    best = Fraction(0)
    for _ in range(1000):
        f_alice = tuple(int(x) for x in rng.integers(0, 3, 8))
        f_bob = tuple(int(x) for x in rng.integers(0, 3, 8))
        best = max(best, evaluate_strategy(f_alice, f_bob, table))
    assert best <= bound
    f_alice, f_bob = optimal_classical_strategy(expr)
    assert evaluate_strategy(f_alice, f_bob, table) == bound == Fraction(16, 64)


def test_all_zeros_strategy_case1(case_data):
    # Table rows containing the answer pair 00: settings pairs
    # 17, 34, 37, 43, 68, 71, 73, 86, i.e. 8 of 64
    _, _, table = case_data["I"]
    zeros = (0,) * 8
    assert evaluate_strategy(zeros, zeros, table) == Fraction(8, 64)


def test_empty_table_never_wins(rng):
    table = WinningTable({}, 8)
    for _ in range(10):
        f_alice = tuple(int(x) for x in rng.integers(0, 3, 8))
        f_bob = tuple(int(x) for x in rng.integers(0, 3, 8))
        assert evaluate_strategy(f_alice, f_bob, table) == 0


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


def test_render_text_matches_reference_rows(case_data):
    _, _, table = case_data["I"]
    text = table.render_text()
    assert "14   01 10 22" in text
    assert "86   00 11 22" in text
    assert text.splitlines()[0] == "s,t  winning a,b"


def test_table_json_keys(case_data):
    _, _, table = case_data["I"]
    data = table.as_dict()
    assert data["1,4"] == ["01", "10", "22"]
    assert len(data) == 24
