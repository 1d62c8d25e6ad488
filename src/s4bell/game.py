"""The two-player nonlocal game attached to a Bell expression.

A referee draws settings (s, t) uniformly from the 64 pairs and sends one
to each player; they answer (a, b) without communicating and win exactly
when (a_s = a, b_t = b) occurs as a term of the expression.  The best
classical strategy wins max c / 64 rounds where max c is the classical
bound.  The orbit strategy (measuring the orbit bases on a shared
eigenstate of the summed orbit operator) wins lambda_max / 64, a lower
bound on the quantum value: for case I a see-saw over other real
measurements reaches 18.26 / 64 against 16.09 / 64.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .classical import GAP_TOL, BellExpression, _expansion, classical_max
from .context import Context
from .orbit import N_OUTCOMES, N_SETTINGS
from .quantum import max_eigenvalue_sum

__all__ = [
    "WinningTable",
    "GameValue",
    "winning_table",
    "game_values",
]


@dataclass(frozen=True, eq=False)
class WinningTable:
    """Winning answer pairs per settings pair (s, t), as the rows the renderers print."""

    rows: tuple  # ((s, t), ("ab", ...)) per settings pair, pairs and answers sorted

    @cached_property
    def entries(self):
        """(s, t) -> frozenset of answer pairs (a, b)."""
        return {key: frozenset((int(a), int(b)) for a, b in cell) for key, cell in self.rows}

    def has_uniform_triple_structure(self):
        """True when every nonempty entry holds exactly three answer pairs
        with pairwise distinct a values and pairwise distinct b values."""
        return all(len(cell) == len({a for a, _ in cell}) == len({b for _, b in cell}) == 3
                   for _, cell in self.rows)

    def render_text(self):
        """Compact rows "st  ab ab ab", sorted by (s, t)."""
        rows = [f"{s}{t}   {' '.join(cell)}\n" for (s, t), cell in self.rows]
        return "s,t  winning a,b\n" + "".join(rows)

    def as_dict(self):
        return {f"{s},{t}": list(cell) for (s, t), cell in self.rows}


_ANSWERS = tuple(f"{a}{b}" for a in range(N_OUTCOMES) for b in range(N_OUTCOMES))  # at 3 a + b


def winning_table(expr: BellExpression) -> WinningTable:
    """Group the expression's terms by settings pair, in one pass over the sorted terms."""
    # Term 24 k + m joins Alice's label row k = 3 (s - 1) + a and Bob's m = 3 (t - 1) + b, so
    # ascending terms run in (s, a, t, b) order and each settings pair's answers come sorted.
    cells = {}
    for i in sorted(expr.index):
        answer = _ANSWERS[i // 24 % 3 * 3 + i % 3]
        cells.setdefault((i // 72 + 1, i % 24 // 3 + 1), []).append(answer)
    return WinningTable(tuple((key, tuple(cells[key])) for key in sorted(cells)))


@dataclass(frozen=True)
class GameValue:
    """Winning probabilities: exact rational classically; `quantum` is the orbit
    strategy's float value, a lower bound on the quantum value."""

    classical: Fraction
    quantum: float

    @cached_property
    def gap(self):
        """lambda_max - classical maximum: both values times 64, which is exact."""
        return self.quantum * N_SETTINGS ** 2 - float(self.classical * N_SETTINGS ** 2)

    @property
    def violation(self):
        # Strict beyond rounding noise (GAP_TOL); equal-bound games are not violations.
        return self.gap > GAP_TOL


def game_values(expr: BellExpression, ctx: Context) -> GameValue:
    """Classical and quantum winning probabilities of the expression's game.

    The quantum value is the orbit strategy's, on the orbit pairs the
    expression was built from, `expr.pairs`: a lower bound on the game's
    quantum value.  ValueError unless its terms are `bell_terms(expr.pairs, ctx.orbit)`'s.
    """
    if expr.index != _expansion(expr.pairs, ctx.orbit):
        raise ValueError("the expression's terms are not the expansion of its pairs")
    denominator = N_SETTINGS ** 2
    classical = Fraction(classical_max(expr), denominator)
    spectrum = max_eigenvalue_sum(expr.pairs, ctx)
    return GameValue(classical, spectrum.lambda_max / denominator)
