"""Integral weights of gl(m|n) as integer label tuples.

A weight is stored as m "left" labels and n "right" labels, written
``a_1,...,a_m|b_1,...,b_n``.  The labels are the pairings of the shifted
weight with the standard basis of the dual Cartan; all predicates of
interest (dominance, singularity, atypicality, orbit membership, central
character) become elementary combinatorics of the labels.

Conventions baked in here and relied on everywhere else:

* left part dominant = weakly decreasing, right part dominant = weakly
  increasing;
* the central-character invariant of a weight is the map
  ``x -> (#left labels equal to x) - (#right labels equal to x)``;
* ``n = 0`` is allowed, so a plain gl(m) weight is the degenerate case.

All values are immutable; everything in this module is safe to share
between threads.
"""

from __future__ import annotations

import re
from functools import cache
from operator import index
from typing import Iterable

from .errors import PreconditionError, WeightParseError

__all__ = [
    "SuperWeight",
    "central_character",
    "atypicality_degree",
    "orbit_equal",
]

_WEIGHT_RE = re.compile(r"^\s*(\()?\s*([^|()]*)\|([^|()]*)(?(1)\))\s*$")  # parens paired
_LABEL_RE = re.compile(r"\s*[+-]?[0-9]+\s*")  # what `int` reads, less `_` and non-ASCII digits


class _Frozen:
    """Base of the slotted value classes.  Fields are set once, in __init__;
    an instance equals only one of its own class, and compares, hashes and
    prints as the tuple of the fields named in `_compared`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._compared)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._compared))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


class SuperWeight(_Frozen):
    """An element of Z^(m|n): m left labels and n right labels."""

    __slots__ = _compared = ("left", "right")
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __init__(self, left: Iterable[int], right: Iterable[int]):
        left, right = tuple(left), tuple(right)
        try:
            left, right = tuple(map(index, left)), tuple(map(index, right))
        except TypeError:  # not all ints: "2" and 1.0 are read, 1.5 is refused
            bad = [x for x in left + right if not isinstance(x, str) and int(x) != x]
            if bad:
                raise WeightParseError(f"non-integral label {bad[0]!r}") from None
            left, right = tuple(map(int, left)), tuple(map(int, right))
        if not left:
            raise WeightParseError("a weight needs at least one left label")
        _set_left(self, left)
        _set_right(self, right)

    # the base's __eq__ and __hash__, spelt out: weights key every hot dict
    def __eq__(self, other):
        if other.__class__ is not SuperWeight:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    @property
    def m(self) -> int:
        return len(self.left)

    @property
    def n(self) -> int:
        return len(self.right)

    @property
    def labels(self) -> tuple[int, ...]:
        """All m+n labels, left part first."""
        return self.left + self.right

    def replace(self, position: int, value: int) -> "SuperWeight":
        """Copy with the label at a 1-based position replaced."""
        labels = list(self.labels)
        if not 1 <= position <= len(labels):
            raise PreconditionError(f"position {position} is outside 1..{len(labels)}")
        labels[position - 1] = value
        return SuperWeight(labels[: self.m], labels[self.m :])

    @classmethod
    def parse(cls, text: str) -> "SuperWeight":
        """Parse ``"a1,...,am|b1,...,bn"`` (spaces allowed, ``|`` mandatory).

        >>> SuperWeight.parse("7,6, 2|4, 3")
        SuperWeight(left=(7, 6, 2), right=(4, 3))
        >>> SuperWeight.parse("2,1,0|")
        SuperWeight(left=(2, 1, 0), right=())
        """
        match = _WEIGHT_RE.match(text)
        if not match:
            raise WeightParseError(
                f"cannot parse weight {text!r}: expected 'a1,...,am|b1,...,bn'"
            )
        left, right = (part.split(",") if part.strip() else [] for part in match.group(2, 3))
        if not all(tok.strip() for tok in left + right):
            raise WeightParseError(f"empty label in {text!r}")
        if not all(map(_LABEL_RE.fullmatch, left + right)):
            raise WeightParseError(f"non-integer label in {text!r}")
        left, right = tuple(map(int, left)), tuple(map(int, right))
        if not left:
            raise WeightParseError(f"empty left part in {text!r}")
        return cls(left, right)

    def __str__(self) -> str:
        return _template(len(self.left), len(self.right)) % (self.left + self.right)


@cache
def _template(m: int, n: int) -> str:
    """The text of a Z^(m|n) weight with `%d` for each label."""
    return ",".join(["%d"] * m) + "|" + ",".join(["%d"] * n)


# the slots' own setters: on the hottest constructor, faster than object.__setattr__
_set_left, _set_right = SuperWeight.left.__set__, SuperWeight.right.__set__


def _weight(left: tuple[int, ...], right: tuple[int, ...]) -> SuperWeight:
    """SuperWeight(left, right) for tuples of ints built by the caller: no
    coercion and no check."""
    weight = SuperWeight.__new__(SuperWeight)
    _set_left(weight, left)
    _set_right(weight, right)
    return weight


def central_character(weight: SuperWeight) -> tuple[tuple[int, int], ...]:
    """The nonzero values of x -> left count minus right count, as sorted
    (label, count) pairs.  Two integral weights have equal central character
    exactly when these maps agree.

    >>> central_character(SuperWeight((1, 0), (0, 1)))
    ()
    >>> central_character(SuperWeight((2, 1, 0), ()))
    ((0, 1), (1, 1), (2, 1))
    """
    counts: dict[int, int] = {}
    for a in weight.left:
        counts[a] = counts.get(a, 0) + 1
    for b in weight.right:
        counts[b] = counts.get(b, 0) - 1
    return tuple(sorted([item for item in counts.items() if item[1]]))


def atypicality_degree(weight: SuperWeight) -> int:
    """Number of disjoint equal-label pairs across the separator.

    >>> atypicality_degree(SuperWeight.parse("7,6,2,3,6,1,3,1|4,3,4,5"))
    1
    >>> atypicality_degree(SuperWeight.parse("1,0|0,1"))
    2
    """
    unmatched: dict[int, int] = {}
    for b in weight.right:
        unmatched[b] = unmatched.get(b, 0) + 1
    pairs = 0
    for a in weight.left:
        if unmatched.get(a):
            unmatched[a] -= 1
            pairs += 1
    return pairs


def orbit_equal(a: SuperWeight, b: SuperWeight) -> bool:
    """Same orbit of the product of symmetric groups acting per side.

    >>> orbit_equal(SuperWeight.parse("2,0,1|0"), SuperWeight.parse("0,2,1|0"))
    True
    """
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("weights live in different Z^(m|n)")
    return sorted(a.left) == sorted(b.left) and sorted(a.right) == sorted(b.right)

