"""The two-player nonlocal game attached to a Bell expression.

A referee draws settings (s, t) uniformly from the 64 pairs and sends one
to each player; they answer (a, b) without communicating and win exactly
when (a_s = a, b_t = b) occurs as a term of the expression.  The best
classical strategy wins max c / 64 rounds where max c is the classical
bound, and the best quantum strategy (measuring a shared eigenstate of the
summed orbit operator) wins lambda_max / 64.
"""

from dataclasses import dataclass
from fractions import Fraction

from .classical import BellExpression, classical_max
from .context import Context
from .quantum import max_eigenvalue_sum

__all__ = [
    "WinningTable",
    "GameValue",
    "winning_table",
    "game_values",
    "evaluate_strategy",
]


@dataclass(frozen=True)
class WinningTable:
    """Winning answer pairs per settings pair (s, t)."""

    entries: dict  # (s, t) -> frozenset of (a, b)
    n_settings: int = 8

    def __post_init__(self):
        entries = {
            key: frozenset(tuple(p) for p in value)
            for key, value in self.entries.items()
        }
        object.__setattr__(self, "entries", entries)

    def winning_pairs(self, s, t):
        return self.entries.get((s, t), frozenset())

    def wins(self, s, t, a, b):
        return (a, b) in self.winning_pairs(s, t)

    def has_uniform_triple_structure(self):
        """True when every nonempty entry holds exactly three answer pairs
        with pairwise distinct a values and pairwise distinct b values."""
        for pairs in self.entries.values():
            if len(pairs) != 3:
                return False
            if len({a for a, _ in pairs}) != 3 or len({b for _, b in pairs}) != 3:
                return False
        return True

    def render_text(self):
        """Compact rows "st  ab ab ab", sorted by (s, t)."""
        lines = ["s,t  winning a,b"]
        for (s, t) in sorted(self.entries):
            cell = " ".join(f"{a}{b}" for a, b in sorted(self.entries[(s, t)]))
            lines.append(f"{s}{t}   {cell}")
        return "\n".join(lines) + "\n"

    def as_dict(self):
        return {
            f"{s},{t}": sorted(f"{a}{b}" for a, b in pairs)
            for (s, t), pairs in self.entries.items()
        }


def winning_table(expr: BellExpression) -> WinningTable:
    """Group the expression's terms by settings pair."""
    entries = {}
    for s, a, t, b in expr.terms:
        entries.setdefault((s, t), set()).add((a, b))
    return WinningTable(entries, expr.n_settings)


@dataclass(frozen=True)
class GameValue:
    """Winning probabilities: exact rational classically, float quantumly."""

    classical: Fraction
    quantum: float

    @property
    def violation(self):
        # Strict beyond rounding noise; equal-bound games are not violations.
        return self.quantum > float(self.classical) + 1e-9

    @property
    def gap(self):
        return self.quantum - float(self.classical)


def game_values(expr: BellExpression, ctx: Context) -> GameValue:
    """Classical and quantum winning probabilities of the expression's game.

    The quantum value comes from the orbit pairs the expression was built
    from, `expr.pairs`.
    """
    denominator = expr.n_settings ** 2
    classical = Fraction(classical_max(expr), denominator)
    spectrum = max_eigenvalue_sum(expr.pairs, ctx)
    return GameValue(classical, spectrum.lambda_max / denominator)


def evaluate_strategy(f_alice, f_bob, table: WinningTable) -> Fraction:
    """Exact winning probability of a deterministic strategy pair."""
    n = table.n_settings
    wins = sum(
        1
        for s in range(1, n + 1)
        for t in range(1, n + 1)
        if table.wins(s, t, f_alice[s - 1], f_bob[t - 1])
    )
    return Fraction(wins, n * n)
