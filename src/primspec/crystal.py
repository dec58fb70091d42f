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

>>> w = SuperWeight.parse("1,0|0,1")
>>> print(e_tilde(w, 1))
1,0|0,2
>>> epsilon(w, 1), phi(w, 1), epsilon(w, 0)
(1, 1, 0)
"""

from __future__ import annotations

from typing import NamedTuple

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


def i_signature(weight: SuperWeight, i: int) -> Signature:
    """The raw i-signature, before any cancellation.

    >>> str(i_signature(SuperWeight.parse("1,0|0,1"), 1))
    '+0|0-'
    """
    symbols = []
    for a in weight.left:
        symbols.append("+" if a == i else "-" if a == i + 1 else "0")
    for b in weight.right:
        symbols.append("+" if b == i + 1 else "-" if b == i else "0")
    return Signature(tuple(symbols), weight.m)


def reduce(sig: Signature) -> Signature:
    """Cancel minus-before-plus pairs (through zeros) until none remain.

    Each ``-`` cancels the nearest subsequent uncancelled ``+``; the result
    has all surviving plusses before all surviving minuses and is a fixed
    point of this map.

    >>> str(reduce(Signature(("-", "+", "0", "+"), 2)))
    '00|0+'
    """
    symbols = list(sig.symbols)
    open_minuses: list[int] = []
    for pos, s in enumerate(symbols):
        if s == "-":
            open_minuses.append(pos)
        elif s == "+" and open_minuses:
            symbols[open_minuses.pop()] = "0"
            symbols[pos] = "0"
    return Signature(tuple(symbols), sig.separator_index)


def _unit(position_index: int, m: int) -> int:
    # the stored unit c_j: +1 on left positions, -1 on right positions
    return 1 if position_index < m else -1


def e_tilde(weight: SuperWeight, i: int) -> SuperWeight | None:
    """Raising operator; None when the reduced i-signature has no minus."""
    red = reduce(i_signature(weight, i)).symbols
    for j, s in enumerate(red):
        if s == "-":
            labels = list(weight.labels)
            labels[j] -= _unit(j, weight.m)
            return SuperWeight(tuple(labels[: weight.m]), tuple(labels[weight.m:]))
    return None


def f_tilde(weight: SuperWeight, i: int) -> SuperWeight | None:
    """Lowering operator; None when the reduced i-signature has no plus."""
    red = reduce(i_signature(weight, i)).symbols
    for j in range(len(red) - 1, -1, -1):
        if red[j] == "+":
            labels = list(weight.labels)
            labels[j] += _unit(j, weight.m)
            return SuperWeight(tuple(labels[: weight.m]), tuple(labels[weight.m:]))
    return None


def epsilon(weight: SuperWeight, i: int) -> int:
    """Minus count of the reduced i-signature = max power of e~_i that applies."""
    return reduce(i_signature(weight, i)).count("-")


def phi(weight: SuperWeight, i: int) -> int:
    """Plus count of the reduced i-signature = max power of f~_i that applies."""
    return reduce(i_signature(weight, i)).count("+")


def e_tilde_power(weight: SuperWeight, i: int, power: int) -> SuperWeight:
    """Apply e~_i exactly `power` times; raises if any step is undefined."""
    out = weight
    for _ in range(power):
        nxt = e_tilde(out, i)
        if nxt is None:
            raise ValueError(f"e~_{i} undefined on {out} (power {power} from {weight})")
        out = nxt
    return out


def f_tilde_power(weight: SuperWeight, i: int, power: int) -> SuperWeight:
    """Apply f~_i exactly `power` times; raises if any step is undefined."""
    out = weight
    for _ in range(power):
        nxt = f_tilde(out, i)
        if nxt is None:
            raise ValueError(f"f~_{i} undefined on {out} (power {power} from {weight})")
        out = nxt
    return out


def active_colors(weight: SuperWeight) -> range:
    """The colors i that can carry a nonzero statistic for this weight.

    Only i with some label in {i, i+1} matter, so the range
    [min label - 1, max label] is exhaustive.
    """
    labels = weight.labels
    if not labels:
        return range(0)
    return range(min(labels) - 1, max(labels) + 1)
