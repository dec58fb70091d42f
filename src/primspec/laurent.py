"""Exact Laurent polynomials in one variable `q` with integer coefficients.

`LaurentPolynomial` is the value type the two polynomial tables hand out:
`KLTable.kl_polynomial` (classical P_{x,y}) and `CanonicalBasisTable.d`
(canonical-basis coefficients).  Both compute on packed ints and build a
`LaurentPolynomial` only to read one out, so the type is an immutable value:
it is built from an exponent -> coefficient mapping, read with `coeff` and
`to_pairs`, compared, hashed and printed.  Exponents may be negative.  Of
the ring operations only `*` is left, for the benchmark's tracer (see the
class).

>>> p = LaurentPolynomial({-1: 1, 0: 0, 1: -2})
>>> print(p)
q^-1 - 2*q
>>> p.coeff(1), p.to_pairs()
(-2, [[-1, 1], [1, -2]])
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["LaurentPolynomial", "ZERO", "ONE"]


class LaurentPolynomial:
    """A Z[q, q^-1] element stored as a sparse exponent -> coefficient map.

    `*` (by a polynomial or an int) is the one ring operation kept: no code
    in the package multiplies, but the benchmark's tracer counts
    `LaurentPolynomial.__mul__` calls, so the name must resolve.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    data[int(exp)] = int(c)
        self._coeffs = data

    def coeff(self, exp: int) -> int:
        """Coefficient of q^exp (0 if absent)."""
        return self._coeffs.get(exp, 0)

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self._coeffs.items()})
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(data)

    __rmul__ = __mul__

    # -- comparisons --------------------------------------------------------

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
