"""Kazhdan-Lusztig polynomials for symmetric groups and the left preorder.

The table is computed in the Hecke algebra with the self-dual generator
normalization: natural basis ``H_x``, quadratic relation
``(H_s - v^{-1})(H_s + v) = 0``, and new basis ``B_y = sum_x h_{x,y}(v) H_x``
built by the right-multiplication recursion

    B_y = B_{y'} B_s - sum_{z s < z} mu(z, y') B_z        (y = y' s > y').

The usual polynomials are recovered through
``h_{x,y}(v) = v^{l(y) - l(x)} P_{x,y}(v^{-2})``, and the mu-function is the
coefficient of ``v`` in ``h_{x,y}``.

Each ``h_{x,y}`` is stored as one int, its value at ``v = 2^16`` (a 16-bit
slot per power of ``v``), so the recursion is int arithmetic: ``<< 16`` and
an exact ``>> 16`` shift by ``v^{+-1}``, and ``mu`` is slot 1.  The ints
decode exactly while every coefficient lies in ``[0, 2^16)``: KL positivity
(Kazhdan-Lusztig 1980) keeps them nonnegative, so no slot borrows, they are
at most 15 at rank 7, and a negative value or a slot reaching ``2^15``
raises InvariantError.  A column stores its sorted row indices and interned
polynomial ids; each distinct (h, length gap) is checked once.

On top of the table sits the left preorder on a regular orbit of weight
tuples, generated by wall-crossing conditions plus nonvanishing Ext^1
between simples (equivalently nonvanishing mu), and the full inclusion
decision for annihilators of simples of gl(m) and gl(m)+gl(n) at integral,
possibly singular, central characters: a singular weight is routed through
its longest coset representative, which realizes the translation-to-the-
wall poset isomorphism.  Each factor is read once, as the rank word of that
representative: inclusion and covers are read off its left cell, equality
off its Robinson-Schensted insertion tableau (no KL table, no bound).

Tables are immutable once built and are cached both in-process and on disk
(one versioned file per rank).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from array import array
from bisect import bisect_left
from itertools import permutations as iperm
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceededError, CacheVersionError, InvariantError, PreconditionError
from .laurent import ZERO, LaurentPolynomial
from .posets import Preorder, wall_edges
from .tableaux import (
    Permutation,
    all_permutations,
    inverse,
    inversions,
    rank_word,
    robinson_schensted,
)
from .weights import SuperWeight, orbit_equal

__all__ = [
    "KLTable",
    "LeftOrder",
    "bruhat_leq",
    "kl_table",
    "mu",
    "left_preorder",
    "classical_inclusion",
    "classical_equal",
    "classical_cover",
    "DEFAULT_KL_BOUND",
]

DEFAULT_KL_BOUND = 7

_CACHE_FORMAT = "primspec-kl"
_CACHE_VERSION = 1


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


_SLOT = 16  # bits per power of v in a packed h-polynomial
_SLOT_MASK = (1 << _SLOT) - 1


def _unpack(h: int, gap: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (power of q, coefficient) pairs of P_{x,y} from the packed
    h_{x,y} of a pair x < y with length gap `gap`.  Raises InvariantError on
    a negative h, a slot of 2^15 or more, or a failed degree or constant-term
    check."""
    slots = [h >> s & _SLOT_MASK for s in range(0, h.bit_length(), _SLOT)]
    if h < 0 or any(c >= 1 << (_SLOT - 1) for c in slots):
        raise InvariantError(
            f"packed h-polynomial {h:#x} is negative or has a slot of 2^15 or more"
        )
    exps = [e for e, c in enumerate(slots) if c]
    if not all(0 < e <= gap and (gap - e) % 2 == 0 for e in exps):
        raise InvariantError("h-polynomial violates degree bounds")
    if len(slots) != gap + 1 or slots[gap] != 1:
        raise InvariantError("KL polynomial must have constant term 1")
    return tuple(((gap - e) // 2, slots[e]) for e in reversed(exps))


class KLTable:
    """Immutable table of KL polynomials and mu values for one rank, once
    `_build_kl_table` or `load` has added its columns in index order."""

    def __init__(self, m: int):
        self.m = m
        self.perms = sorted(all_permutations(m), key=lambda w: (inversions(w), w))
        self.index = {w: i for i, w in enumerate(self.perms)}
        self.lengths = [inversions(w) for w in self.perms]
        self._rows: list[array] = []  # column y: the sorted x <= y, y last
        self._ids: list[array] = []  # aligned with _rows: the id of each h_{x,y}
        # by id (0 is the diagonal): packed h, P's pairs, the coefficient of v
        self._packed = [1]
        self._p_pairs: list[tuple[tuple[int, int], ...]] = [((0, 1),)]
        self._slot_one = [0]
        self._id_of: dict[tuple[int, int], int] = {}
        self._mu: dict[tuple[int, int], int] = {}

    def _intern(self, h: int, gap: int) -> int:
        """The id of an off-diagonal packed h at gap `gap`, checked once."""
        pid = self._id_of.get((h, gap))
        if pid is None:
            self._p_pairs.append(_unpack(h, gap))
            self._slot_one.append(h >> _SLOT & _SLOT_MASK)
            pid = self._id_of[(h, gap)] = len(self._packed)
            self._packed.append(h)
        return pid

    def _add_column(self, xs: Sequence[int], pids: Sequence[int]) -> None:
        """Append the next column y: the sorted x < y with h_{x,y} != 0, and ids."""
        yi = len(self._rows)
        self._rows.append(array("I", [*xs, yi]))
        self._ids.append(array("I", [*pids, 0]))
        slot_one = self._slot_one
        self._mu.update(((xi, yi), slot_one[pid]) for xi, pid in zip(xs, pids) if slot_one[pid])

    def __len__(self) -> int:
        return sum(map(len, self._rows)) - len(self._rows)

    def kl_polynomial(self, x: Permutation, y: Permutation) -> LaurentPolynomial:
        """P_{x,y} in the variable q (1 on the diagonal, 0 unless x <= y)."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        column = self._rows[yi]
        k = bisect_left(column, xi)
        if k == len(column) or column[k] != xi:
            return ZERO
        return LaurentPolynomial(dict(self._p_pairs[self._ids[yi][k]]))

    def mu(self, x: Permutation, y: Permutation) -> int:
        """Symmetrized mu: the top-allowed coefficient of the comparable pair."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        if xi == yi:
            return 0
        if self.lengths[xi] > self.lengths[yi]:
            xi, yi = yi, xi
        return self._mu.get((xi, yi), 0)

    def mu_pairs(self) -> Iterable[tuple[Permutation, Permutation, int]]:
        """All (x, y, mu) with x shorter than y and mu(x, y) != 0."""
        for (xi, yi), value in self._mu.items():
            yield self.perms[xi], self.perms[yi], value

    # -- persistence ---------------------------------------------------------

    def save(self, path: Path) -> None:
        """Atomically write the table, one line per pair x < y in index order;
        exact round-trip with `load`."""
        header = {"format": _CACHE_FORMAT, "version": _CACHE_VERSION, "m": self.m,
                  "count": len(self)}
        perm_text = [json.dumps(list(w)) for w in self.perms]
        poly_text = [json.dumps([list(kc) for kc in pairs]) for pairs in self._p_pairs]
        # the columns transposed into rows of (y, id), without the diagonal
        rows = [array("I") for _ in self.perms]
        for yi, (column, pids) in enumerate(zip(self._rows, self._ids)):
            for xi, pid in zip(column[:-1], pids[:-1]):
                rows[xi].extend((yi, pid))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                for x_text, row in zip(perm_text, rows):
                    it = iter(row)
                    fh.writelines(f"[{x_text}, {perm_text[yi]}, {poly_text[pid]}]\n"
                                  for yi, pid in zip(it, it))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: Path, m: int) -> "KLTable":
        """Read a table written by `save`; a file that does not parse as one
        raises CacheVersionError naming the path."""
        table = cls(m)
        xs = [array("I") for _ in table.perms]
        pids = [array("I") for _ in table.perms]
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
                if header.get("format") != _CACHE_FORMAT or header.get("version") != _CACHE_VERSION:
                    raise CacheVersionError(
                        f"cache {path} has header {header}, expected format "
                        f"{_CACHE_FORMAT!r} version {_CACHE_VERSION}; refusing to overwrite"
                    )
                if header.get("m") != m:
                    raise CacheVersionError(f"cache {path} is for m={header.get('m')}, not {m}")
                last = (-1, -1)
                for line in fh:
                    x, y, pairs = json.loads(line)
                    xi, yi = table.index[tuple(x)], table.index[tuple(y)]
                    if (xi, yi) <= last:
                        raise ValueError(f"pair {x}, {y} is out of order")
                    last = (xi, yi)
                    gap = table.lengths[yi] - table.lengths[xi]
                    xs[yi].append(xi)
                    h = sum(c << _SLOT * (gap - 2 * k) for k, c in pairs)
                    pids[yi].append(table._intern(h, gap))
                if sum(map(len, xs)) != header["count"]:
                    raise CacheVersionError(f"cache {path} is truncated")
            except (ValueError, KeyError, TypeError, AttributeError, InvariantError) as exc:
                raise CacheVersionError(f"cache {path} is corrupt: {exc!r}") from exc
        for column in zip(xs, pids):
            table._add_column(*column)
        return table


def _build_kl_table(m: int) -> KLTable:
    table = KLTable(m)
    lengths, packed, rows, ids = table.lengths, table._packed, table._rows, table._ids
    right_mult = [
        [table.index[w[:p] + (w[p + 1], w[p]) + w[p + 2:]] for p in range(m - 1)]
        for w in table.perms
    ]
    table._add_column([], [])  # the identity
    for yi, y in enumerate(table.perms[1:], 1):
        p = next(p for p in range(m - 1) if y[p] > y[p + 1])
        y1i = right_mult[yi][p]
        column = list(zip(rows[y1i], map(packed.__getitem__, ids[y1i])))
        prod: dict[int, int] = {}
        get = prod.get
        # B_{y'} B_s, from H_x B_s = H_{xs} + v^{+-1} H_x (+ when xs > x)
        for xi, h in column:
            xsi = right_mult[xi][p]
            prod[xsi] = get(xsi, 0) + h
            prod[xi] = get(xi, 0) + (h << _SLOT if lengths[xsi] > lengths[xi] else h >> _SLOT)
        for zi, h in column:
            mu_z = h >> _SLOT & _SLOT_MASK
            if mu_z and lengths[right_mult[zi][p]] < lengths[zi]:
                for xi, hz in zip(rows[zi], map(packed.__getitem__, ids[zi])):
                    prod[xi] = get(xi, 0) - mu_z * hz
        if prod.pop(yi, None) != 1:
            raise InvariantError("new-basis element is not unitriangular")
        xs = sorted(xi for xi, h in prod.items() if h)
        table._add_column(xs, [table._intern(prod[xi], lengths[yi] - lengths[xi]) for xi in xs])
    return table


_tables: dict[int, KLTable] = {}
_orders: dict[int, "LeftOrder"] = {}
_lock = threading.Lock()


def default_cache_dir() -> Path:
    env = os.environ.get("PRIMSPEC_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "primspec"


def _check_rank(m: int, bound: int) -> None:
    if m < 1:
        raise PreconditionError(f"a KL table needs rank m >= 1, got {m}")
    if m > bound:
        raise BoundExceededError("KL table rank", m, bound)


def kl_table(
    m: int,
    *,
    bound: int = DEFAULT_KL_BOUND,
    cache_dir: Path | str | None = None,
    use_disk: bool = True,
) -> KLTable:
    """The full KL table for rank m, built once and cached.

    Raises BoundExceededError (naming the bound) for m above `bound`.
    """
    _check_rank(m, bound)
    with _lock:
        path = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        cache_file = path / f"kl_m{m}.jsonl"
        table = _tables.get(m)
        if table is None:
            if use_disk and cache_file.exists():
                table = KLTable.load(cache_file, m)
            else:
                table = _build_kl_table(m)
            _tables[m] = table
        if use_disk and not cache_file.exists():
            try:
                table.save(cache_file)
            except OSError as exc:  # caching is best-effort; the table is still valid
                import logging  # lazily: importing it costs each process 0.5 MB
                logging.getLogger(__name__).warning(
                    "could not write the KL cache %s: %s", cache_file, exc
                )
        return table


def mu(x: Permutation, y: Permutation, table: KLTable) -> int:
    """Symmetric mu-function; 0 on equal or incomparable arguments."""
    return table.mu(x, y)


class LeftOrder:
    """The left-KL preorder on the regular orbit of gl(m) weight tuples.

    Nodes are rank words (each regular weight in a fixed orbit is encoded by
    the ranks of its labels, largest first).  The generating relation lowers
    nu below lambda whenever some wall has lambda strictly on its positive
    side, nu not, and Ext^1 between the simples is nonzero.  Equivalence
    classes of the preorder are exactly the fibers of the insertion-tableau
    invariant (checked in the test suite), so quotienting yields the honest
    inclusion order on annihilators.
    """

    def __init__(self, table: KLTable):
        self.m = table.m
        m = table.m
        perms = sorted(all_permutations(m))
        self.index = {w: i for i, w in enumerate(perms)}
        self.perms = perms

        # bit p: strictly on the positive side of wall p (an ascent of the word)
        ascent_mask = [
            sum(1 << p for p in range(m - 1) if r[p] < r[p + 1]) for r in perms
        ]

        def node_of_base_element(u: Permutation) -> int:
            # u is the antidominant-based Weyl element; its weight's rank
            # word is inverse(u w0), with (u w0) = reversed one-line word.
            return self.index[inverse(tuple(reversed(u)))]

        pairs = (
            (node_of_base_element(x), node_of_base_element(y))
            for x, y, _ in table.mu_pairs()
        )
        self.preorder = Preorder(len(perms), wall_edges(ascent_mask, pairs))

    def node(self, r: Permutation) -> int:
        return self.index[tuple(r)]

    def leq(self, r_small: Permutation, r_big: Permutation) -> bool:
        """Is the ideal at rank word r_small included in the one at r_big?"""
        return self.preorder.leq(self.node(r_small), self.node(r_big))

    def class_id(self, r: Permutation) -> int:
        return self.preorder.class_id(self.node(r))

    def class_count(self) -> int:
        return self.preorder.class_count()


def left_preorder(m: int, *, bound: int = DEFAULT_KL_BOUND, **table_kwargs) -> LeftOrder:
    """The left preorder for rank m (cached; the bound is checked first)."""
    _check_rank(m, bound)
    with _lock:
        order = _orders.get(m)
    if order is not None:
        return order
    table = kl_table(m, bound=bound, **table_kwargs)
    order = LeftOrder(table)
    with _lock:
        _orders[m] = order
    return order


# -- label-tuple front end ---------------------------------------------------


def _factors(
    delta: SuperWeight, gamma: SuperWeight
) -> Iterator[tuple[tuple[int, ...], Permutation, Permutation]]:
    """For each factor of rank >= 2: delta's labels and the rank words of
    delta and gamma, the right factor read reversed (a factor of rank <= 1
    holds one ideal)."""
    for d, g in ((delta.left, gamma.left), (delta.right[::-1], gamma.right[::-1])):
        if len(d) > 1:
            yield d, rank_word(d), rank_word(g)


def classical_inclusion(delta: SuperWeight, gamma: SuperWeight, **kw) -> bool:
    """Is Ann L(delta) included in Ann L(gamma) for gl(m)+gl(n)?

    False for different orbits (central-character separation); otherwise
    the conjunction of the factor decisions, each routed through longest
    coset representatives into the regular-orbit preorder.
    """
    return orbit_equal(delta, gamma) and all(
        left_preorder(len(labels), **kw).leq(d, g) for labels, d, g in _factors(delta, gamma)
    )


def classical_equal(delta: SuperWeight, gamma: SuperWeight) -> bool:
    """Equality of the two annihilators: same orbit and, per factor, the
    same insertion tableau of the rank word (no KL table, no bound)."""
    return orbit_equal(delta, gamma) and all(
        robinson_schensted(d)[0] == robinson_schensted(g)[0] for _, d, g in _factors(delta, gamma)
    )


def classical_cover(delta: SuperWeight, gamma: SuperWeight, **kw) -> bool:
    """Covering relation in the product poset of the two factor orbits:
    exactly one factor changes its left cell, to a cell covering the old one
    among the cells of the rearrangements of its labels."""
    if not orbit_equal(delta, gamma):
        return False
    moved = None
    for labels, d, g in _factors(delta, gamma):
        order = left_preorder(len(labels), **kw)
        cd, cg = order.class_id(d), order.class_id(g)
        if cd != cg:
            if moved or not order.preorder.class_leq(cd, cg):
                return False
            moved = labels, order, cd, cg
    if moved is None:
        return False
    labels, order, cd, cg = moved
    leq = order.preorder.class_leq
    return not any(
        cz not in (cd, cg) and leq(cd, cz) and leq(cz, cg)
        for cz in {order.class_id(rank_word(w)) for w in set(iperm(labels))}
    )
