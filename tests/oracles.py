"""Reference routes that only the tests call.

Each computes, independently of the package, a quantity some test checks
the package against: the Bruhat order by prefix sorting, Coxeter length by
counting inversions, the strict descent sets of a label tuple, the colors
on which a crystal statistic can be nonzero, the Chevalley generators
E_i and F_i on packed vectors of a bar involution, and the canonical basis
solved column by column from psi alone.
"""

from __future__ import annotations

from typing import Literal, Sequence

from primspec.brundan_kl import _HALF, BITS, BarInvolution, _digits, _down
from primspec.tableaux import Permutation
from primspec.weights import SuperWeight


def bruhat_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat order via prefix rank domination.

    x <= y iff for every k the descending sort of x's first k values is
    entrywise dominated by that of y's.

    >>> bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))
    False
    """
    if len(x) != len(y):
        raise ValueError("ranks differ")
    for k in range(1, len(x)):
        xs = sorted(x[:k], reverse=True)
        ys = sorted(y[:k], reverse=True)
        if any(a > b for a, b in zip(xs, ys)):
            return False
    return True


def inversions(w: Permutation) -> int:
    """Coxeter length of w.

    >>> inversions((3, 1, 2))
    2
    """
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def strict_tau(
    labels: Sequence[int], orientation: Literal["left", "right"] = "left"
) -> frozenset[int]:
    """Positions where the simple reflection acts finitely on the simple.

    Strict comparisons only: a repeated adjacent label means the weight
    sits on that wall and the reflection fixes it.  At singular weights
    this is smaller than `tau_of_weight`, and it is the invariant actually
    preserved by the translation maps on ideals.

    >>> sorted(strict_tau((5, 4, 3, 4)))
    [1, 2]
    >>> sorted(strict_tau((4, 3, 4, 5), "right"))
    [2, 3]
    """
    if orientation == "right":
        return frozenset(
            p for p in range(1, len(labels)) if labels[p - 1] < labels[p]
        )
    return frozenset(p for p in range(1, len(labels)) if labels[p - 1] > labels[p])


def active_colors(weight: SuperWeight) -> range:
    """The colors i that can carry a nonzero statistic for this weight.

    Only i with some label in {i, i+1} matter, so the range
    [min label - 1, max label] is exhaustive.
    """
    labels = weight.labels
    return range(min(labels) - 1, max(labels) + 1)


def apply_f(bar: BarInvolution, i: int, vec: dict, k: int) -> dict:
    """F_i on the first k slots of a packed vector (lowering; dual slots
    twist later factors), through the bar's own moves."""
    return _chevalley(vec, k, lambda mono: bar._moves(i, mono))


def apply_e(bar: BarInvolution, i: int, vec: dict, k: int) -> dict:
    """E_i on the first k slots of a packed vector (raising; twists act on
    earlier factors)."""
    return _chevalley(vec, k, lambda mono: _raising_moves(bar._dual, i, mono))


def _chevalley(vec: dict, k: int, moves) -> dict:
    out = {}
    for mono, coeff in vec.items():
        for target, twist in moves(mono[:k]):
            moved = coeff << (BITS * twist) if twist >= 0 else _down(coeff, -twist)
            target += mono[k:]
            out[target] = out.get(target, 0) + moved
    return {mono: x for mono, x in out.items() if x}


def _raising_moves(dual: Sequence[bool], i: int, mono: tuple) -> list[tuple[tuple, int]]:
    """(target, q-power) of each term of E_i on a unit monomial: label i+1
    moves down to i in a V slot, i up to i+1 in a W slot."""
    out = []
    for j in range(len(mono)):
        up = dual[j]
        if mono[j] != (i if up else i + 1):
            continue
        twist = 0
        for l in range(j):
            w = 1 if mono[l] == i else -1 if mono[l] == i + 1 else 0
            twist += -w if dual[l] else w
        out.append((mono[:j] + ((i + 1) if up else i,) + mono[j + 1:], twist))
    return out


def solve_canonical(bar: BarInvolution, monos: list[tuple]) -> dict[tuple[int, int], int]:
    """D of the weight space `monos` (indices into it, packed at offset 0)
    with every column solved from psi by the triangular walk.

    With psi(v_k) = sum_i r_ik v_i and b_j = sum_k d_kj v_k, bar invariance
    asks that g_ij = sum_k r_ik d_kj be antisymmetric under q -> q^-1 with
    no constant term; d_ij is the part of g_ij below q^0, reflected.
    Columns go in the label order (V labels descending, then W labels
    ascending), in which psi is triangular, and each walks the rows before
    it, nearest first.
    """
    index = {mono: i for i, mono in enumerate(monos)}
    m, off = bar.window.m, bar.offset
    psi = []  # k -> (i, r_ik) for i != k
    for mono in monos:
        image = bar.psi(mono)
        assert image.get(mono) == bar.one, mono
        psi.append([(index[tgt], x) for tgt, x in image.items() if tgt != mono])
    order = sorted(range(len(monos)), key=lambda k: ([-a for a in monos[k][:m]], monos[k][m:]))
    low = (1 << (BITS * off)) - 1
    bias = sum(_HALF << (BITS * p) for p in range(off))  # balances the digits below q^0
    D = {}
    for pos, j in enumerate(order):
        g_of = dict(psi[j])
        for i in reversed(order[:pos]):
            g = g_of.pop(i, 0)
            if not g:
                continue
            below = ((g + bias) & low) - bias
            d = (below - g) >> (BITS * off)  # -(the part from q^0 up), at offset 0
            assert d == sum(c << (BITS * -e) for e, c in _digits(below, off)), (i, j)
            D[i, j] = d
            for t, x in psi[i]:
                g_of[t] = g_of.get(t, 0) + x * d
        assert not g_of, j
    return D
