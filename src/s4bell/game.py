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
from functools import cached_property, lru_cache

from .classical import GAP_TOL, BellExpression, _expansion, classical_max
from .context import Context
from .orbit import N_SETTINGS
from .quantum import max_eigenvalue_sum

__all__ = [
    "WinningTable",
    "GameValue",
    "winning_table",
    "game_values",
]


# An answer's text "ab" -> (a, b), for the nine answer pairs in the order of 3 a + b.
_ANSWER_PAIRS = {f"{a}{b}": (a, b) for a in range(3) for b in range(3)}


@dataclass(frozen=True, eq=False)
class WinningTable:
    """Winning answer pairs per settings pair (s, t), as the rows the renderers print."""

    rows: tuple  # ((s, t), ("ab", ...)) per settings pair, pairs and answers sorted

    @cached_property
    def entries(self):
        """(s, t) -> frozenset of answer pairs (a, b)."""
        return {key: frozenset(map(_ANSWER_PAIRS.__getitem__, cell)) for key, cell in self.rows}

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


@lru_cache(maxsize=1)
def _lookup():
    """Built on first use: per term 24 k + m (k = 3 (s - 1) + a, m = 3 (t - 1) + b), its cell
    8 (s - 1) + t - 1 and bit 1 << (3 a + b); per cell its (s, t); per 9-bit mask its answers."""
    cells = [i // 72 * N_SETTINGS + i % 24 // 3 for i in range(576)]
    bits = [1 << (i // 24 % 3 * 3 + i % 3) for i in range(576)]
    keys = [(s, t) for s in range(1, N_SETTINGS + 1) for t in range(1, N_SETTINGS + 1)]
    texts = list(_ANSWER_PAIRS)  # answer 3 a + b's text, shared by every mask's answers
    answers = [tuple(t for j, t in enumerate(texts) if mask >> j & 1) for mask in range(512)]
    return cells, bits, keys, answers


def winning_table(expr: BellExpression) -> WinningTable:
    """Group the terms by settings pair, in one pass that ORs each answer bit into a cell mask."""
    cells, bits, keys, answers = _lookup()
    masks = [0] * len(keys)
    for i in expr.index:
        masks[cells[i]] |= bits[i]
    return WinningTable(tuple([(key, answers[mask]) for key, mask in zip(keys, masks) if mask]))


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
