"""Crystal structure on label tuples: signatures and the operators e~_i, f~_i.

For a color ``i`` every label contributes a symbol: on the left side of the
separator a label equal to i gives ``+`` and a label equal to i+1 gives
``-``; on the right side the two cases are flipped.  Cancelling every ``-``
against the nearest later uncancelled ``+`` leaves the reduced signature,
whose minus/plus counts are the statistics eps_i and phi_i.  The raising
operator e~_i lowers the weight at the leftmost surviving minus (adding 1
to a right label or subtracting 1 from a left one is "lowering" in the
appropriate sense: the stored unit is +1 on left positions and -1 on right
positions), and f~_i acts dually at the rightmost surviving plus.

A moved minus becomes a plus that nothing cancels, since every symbol
left of it is a surviving plus or cancelled; dually a moved plus becomes a
minus that nothing cancels.  The other survivors stay put, so e~_i^k moves
the k leftmost surviving minuses at once and f~_i^k the k rightmost
surviving plusses: every operator, power or statistic reads the signature
once.

>>> w = SuperWeight.parse("1,0|0,1")
>>> print(e_tilde(w, 1))
1,0|0,2
>>> epsilon(w, 1), phi(w, 1), epsilon(w, 0)
(1, 1, 0)
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionError
from .weights import SuperWeight

__all__ = [
    "Signature",
    "i_signature",
    "reduce",
    "e_tilde",
    "f_tilde",
    "epsilon",
    "phi",
    "e_tilde_power",
    "f_tilde_power",
    "active_colors",
]


class Signature(NamedTuple):
    """A +/-/0 pattern of length m+n with the separator after position m."""

    symbols: tuple[str, ...]
    separator_index: int

    def __str__(self) -> str:
        s = "".join(self.symbols)
        return s[: self.separator_index] + "|" + s[self.separator_index:]

    def count(self, symbol: str) -> int:
        return self.symbols.count(symbol)


def _symbols(weight: SuperWeight, i: int) -> Iterator[str]:
    """The raw i-signature's symbols, left labels first."""
    for a in weight.left:
        yield "+" if a == i else "-" if a == i + 1 else "0"
    for b in weight.right:
        yield "+" if b == i + 1 else "-" if b == i else "0"


def i_signature(weight: SuperWeight, i: int) -> Signature:
    """The raw i-signature, before any cancellation.

    >>> str(i_signature(SuperWeight.parse("1,0|0,1"), 1))
    '+0|0-'
    """
    return Signature(tuple(_symbols(weight, i)), weight.m)


def _survivors(symbols: Iterable[str]) -> tuple[list[int], list[int]]:
    """Positions of the plusses and of the minuses left standing once each
    ``-`` cancels the nearest later uncancelled ``+``, left to right."""
    plusses: list[int] = []
    open_minuses: list[int] = []
    for pos, s in enumerate(symbols):
        if s == "+":
            if open_minuses:
                open_minuses.pop()
            else:
                plusses.append(pos)
        elif s == "-":
            open_minuses.append(pos)
    return plusses, open_minuses


def reduce(sig: Signature) -> Signature:
    """Cancel minus-before-plus pairs (through zeros) until none remain.

    Each ``-`` cancels the nearest subsequent uncancelled ``+``; the result
    has all surviving plusses before all surviving minuses and is a fixed
    point of this map.

    >>> str(reduce(Signature(("-", "+", "0", "+"), 2)))
    '00|0+'
    """
    plusses, minuses = _survivors(sig.symbols)
    kept = set(plusses + minuses)
    symbols = tuple(s if pos in kept else "0" for pos, s in enumerate(sig.symbols))
    return Signature(symbols, sig.separator_index)


def _moved(weight: SuperWeight, positions: list[int], sign: int) -> SuperWeight:
    """The weight with each label at `positions` stepped by `sign` times its
    stored unit (+1 on left positions, -1 on right positions)."""
    m = len(weight.left)
    labels = list(weight.labels)
    for pos in positions:
        labels[pos] += sign if pos < m else -sign
    return SuperWeight(labels[:m], labels[m:])


def e_tilde(weight: SuperWeight, i: int) -> SuperWeight | None:
    """Raising operator; None when the reduced i-signature has no minus."""
    minuses = _survivors(_symbols(weight, i))[1]
    return _moved(weight, minuses[:1], -1) if minuses else None


def f_tilde(weight: SuperWeight, i: int) -> SuperWeight | None:
    """Lowering operator; None when the reduced i-signature has no plus."""
    plusses = _survivors(_symbols(weight, i))[0]
    return _moved(weight, plusses[-1:], 1) if plusses else None


def epsilon(weight: SuperWeight, i: int) -> int:
    """Minus count of the reduced i-signature = max power of e~_i that applies."""
    return len(_survivors(_symbols(weight, i))[1])


def phi(weight: SuperWeight, i: int) -> int:
    """Plus count of the reduced i-signature = max power of f~_i that applies."""
    return len(_survivors(_symbols(weight, i))[0])


def e_tilde_power(weight: SuperWeight, i: int, power: int) -> SuperWeight:
    """e~_i^power: the `power` leftmost surviving minuses move at once."""
    return _power("e", weight, i, power)


def f_tilde_power(weight: SuperWeight, i: int, power: int) -> SuperWeight:
    """f~_i^power: the `power` rightmost surviving plusses move at once."""
    return _power("f", weight, i, power)


def _power(op: str, weight: SuperWeight, i: int, power: int) -> SuperWeight:
    """Raises PreconditionError unless 0 <= power <= the op's statistic."""
    plusses, minuses = _survivors(_symbols(weight, i))
    movable = minuses if op == "e" else plusses[::-1]
    if not 0 <= power <= len(movable):
        raise PreconditionError(
            f"{op}~_{i}^{power} undefined on {weight} (statistic is {len(movable)})"
        )
    return _moved(weight, movable[:power], -1 if op == "e" else 1)


def active_colors(weight: SuperWeight) -> range:
    """The colors i that can carry a nonzero statistic for this weight.

    Only i with some label in {i, i+1} matter, so the range
    [min label - 1, max label] is exhaustive.
    """
    labels = weight.labels
    return range(min(labels) - 1, max(labels) + 1)
