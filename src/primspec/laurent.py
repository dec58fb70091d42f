"""Exact Laurent polynomials in one variable `q` with integer coefficients.

Coefficients are Python ints, exponents may be negative.  Instances are
immutable and hashable, so they can be used as table values throughout the
Kazhdan-Lusztig machinery.

>>> p = LaurentPolynomial({0: 1, 1: 1})
>>> p * p
LaurentPolynomial({0: 1, 1: 2, 2: 1})
>>> print(p.bar())
q^-1 + 1
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["LaurentPolynomial", "ZERO", "ONE", "Q"]


class LaurentPolynomial:
    """A Z[q, q^-1] element stored as a sparse exponent -> coefficient map."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    data[int(exp)] = int(c)
        self._coeffs = data

    # -- inspection ---------------------------------------------------------

    def coeff(self, exp: int) -> int:
        """Coefficient of q^exp (0 if absent)."""
        return self._coeffs.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        data = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = data.get(exp, 0) + c
            if s:
                data[exp] = s
            else:
                data.pop(exp, None)
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._coeffs = data
        return out

    def __neg__(self) -> "LaurentPolynomial":
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._coeffs = {e: -c for e, c in self._coeffs.items()}
        return out

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            out = LaurentPolynomial.__new__(LaurentPolynomial)
            out._coeffs = (
                {e: c * other for e, c in self._coeffs.items()} if other else {}
            )
            return out
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = data.get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._coeffs = data
        return out

    __rmul__ = __mul__

    def bar(self) -> "LaurentPolynomial":
        """The involution q -> q^-1."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._coeffs = {-e: c for e, c in self._coeffs.items()}
        return out

    # -- comparisons / container protocol -----------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- serialization ------------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        """Sorted [exponent, coefficient] pairs, for JSON and cache files."""
        return [[e, c] for e, c in sorted(self._coeffs.items())]

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if e == 1 else f"{mag}q^{e}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
Q = LaurentPolynomial({1: 1})
