"""Permutations, Robinson-Schensted insertion, and descent-set invariants.

Permutations are tuples in one-line notation over ``1..m`` (``w[k-1]`` is
the image of k).  The descent set ``tau(w)`` lives in positions ``1..m-1``.
For the stratification machinery a simple root can also be addressed by its
gamma-index ``i``, related to the position by ``position = m - i``.

The Robinson-Schensted map sends a permutation to a pair of standard
tableaux (A, B) of one shape, each a tuple of rows: A is built by row
insertion of the one-line word and B records the growth.  Equalities of
primitive-ideal labels in a fixed orbit are controlled by the A-tableau of
the "rank word" computed here (the longest-coset-representative reading of
a label tuple).
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterator, Literal, Sequence

__all__ = [
    "Permutation",
    "Tableau",
    "identity",
    "inverse",
    "inversions",
    "all_permutations",
    "robinson_schensted",
    "tau",
    "tau_of_weight",
    "strict_tau",
    "rank_word",
    "involution_count",
]

Permutation = tuple[int, ...]


def identity(m: int) -> Permutation:
    return tuple(range(1, m + 1))


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for k, wk in enumerate(w):
        out[wk - 1] = k + 1
    return tuple(out)


def inversions(w: Permutation) -> int:
    """Coxeter length of w.

    >>> inversions((3, 1, 2))
    2
    """
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def all_permutations(m: int) -> Iterator[Permutation]:
    return _itertools_permutations(range(1, m + 1))


Tableau = tuple[tuple[int, ...], ...]


def robinson_schensted(w: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert the one-line word of w; return (insertion A, recording B).

    >>> robinson_schensted((2, 3, 1))
    (((1, 3), (2,)), ((1, 2), (3,)))
    >>> all(robinson_schensted(v)[0] == robinson_schensted(v)[1]
    ...     for v in [(1, 2), (2, 1)])
    True
    """
    insertion: list[list[int]] = []
    recording: list[list[int]] = []
    for step, value in enumerate(w, start=1):
        x = value
        for r, row in enumerate(insertion):
            bump = next((c for c, y in enumerate(row) if y > x), None)
            if bump is None:
                row.append(x)
                recording[r].append(step)
                break
            row[bump], x = x, row[bump]
        else:
            insertion.append([x])
            recording.append([step])
    return tuple(map(tuple, insertion)), tuple(map(tuple, recording))


def tau(w: Permutation) -> frozenset[int]:
    """Descent positions {p in 1..m-1 : w(p) > w(p+1)}.

    >>> sorted(tau((3, 1, 2)))
    [1]
    """
    return frozenset(p for p in range(1, len(w)) if w[p - 1] > w[p])


def rank_word(labels: Sequence[int]) -> Permutation:
    """Ranks of the labels from largest to smallest, ties broken backwards.

    Equal labels receive consecutive ranks assigned right-to-left, which
    realizes the longest permutation sorting the tuple to its dominant
    (weakly decreasing) rearrangement.  The word is the inverse of that
    longest permutation.

    >>> rank_word((1, 3, 0, 2))
    (3, 1, 4, 2)
    >>> rank_word((1, 1, 0))
    (2, 1, 3)
    """
    # a stable descending sort over the positions taken backwards
    order = sorted(range(len(labels) - 1, -1, -1), key=labels.__getitem__, reverse=True)
    ranks = [0] * len(labels)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return tuple(ranks)


def tau_of_weight(labels: Sequence[int]) -> frozenset[int]:
    """Descent set of the longest permutation whose inverse sorts `labels`,
    read on the left side (dominant = weakly decreasing).

    >>> sorted(tau_of_weight((0, 1, 2)))
    [1, 2]
    >>> sorted(tau_of_weight((1, 1, 0)))
    [1]
    >>> sorted(tau_of_weight((1, 3, 0, 2)))
    [2]
    """
    return tau(inverse(rank_word(labels)))


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


def involution_count(m: int) -> int:
    """Number of involutions in the symmetric group on m letters.

    >>> [involution_count(m) for m in range(6)]
    [1, 1, 2, 4, 10, 26]
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    prev, cur = 1, 1
    for k in range(2, m + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur if m >= 1 else 1
