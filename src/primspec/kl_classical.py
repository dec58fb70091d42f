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
raises InvariantError.  Each distinct (h, length gap) is checked once.

Column y stores h_{x,y} only for the diagonal and the x <= y extremal to y,
DL(x) and DR(x) containing I = DL(y) and J = DR(y): 2,220 of 97,687 pairs at
rank 6.  As P_{x,y} = P_{sx,y} (or P_{xs,y}) for a descent s of y that x
lacks (Kazhdan-Lusztig 1979, 2.3), any x is read raised to the top of
W_I x W_J, h shifting a slot per step; a top missing from the column is not
below y.  Off the extremal pairs mu is nonzero only one step below y, where
it is 1.  The disk cache holds what the table holds: one line per stored
pair x < y, by y then x, under a header with the line count and a CRC-32
of the lines.

On top of the table sits the left preorder on a regular orbit of weight
tuples, generated by wall-crossing conditions plus nonvanishing Ext^1
between simples (equivalently nonvanishing mu), and the full inclusion
decision for annihilators of simples of gl(m) and gl(m)+gl(n) at integral,
possibly singular, central characters: a singular weight is routed through
its longest coset representative, which realizes the translation-to-the-
wall poset isomorphism.  Each factor is read once, as the rank word of that
representative: inclusion and covers are read off its left cell, equality
off its Robinson-Schensted insertion tableau (no KL table, no bound; the
tableau is kept per rank word in a memo of INSERTION_MEMO_SIZE entries).

Tables are immutable once built and are cached both in-process and on disk
(one versioned file per rank).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from collections import Counter
from functools import lru_cache
from itertools import permutations as iperm
from math import factorial, prod
from pathlib import Path
from typing import Iterable, Iterator

from .errors import BoundExceededError, CacheVersionError, InvariantError, PreconditionError
from .laurent import ZERO, LaurentPolynomial
from .posets import Preorder, wall_edges
from .tableaux import (
    Permutation,
    Tableau,
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
    "cache_file",
    "mu",
    "left_preorder",
    "classical_inclusion",
    "classical_equal",
    "classical_cover",
    "DEFAULT_KL_BOUND",
]

DEFAULT_KL_BOUND = 7
INSERTION_MEMO_SIZE = 1024  # rank words whose insertion tableau `classical_equal` keeps

_CACHE_FORMAT = "primspec-kl"
_CACHE_VERSION = 2


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
    `_build_kl_table` or `load` has filled its columns."""

    def __init__(self, m: int):
        self.m = m
        self.perms = perms = sorted(all_permutations(m), key=lambda w: (inversions(w), w))
        self.index = index = {w: i for i, w in enumerate(perms)}
        self.lengths = [inversions(w) for w in perms]
        # w s_p swaps positions p, p+1 and s_t w values t+1, t+2; descents are bitmasks
        self._right = [[index[w[:p] + (w[p + 1], w[p]) + w[p + 2:]] for p in range(m - 1)]
                       for w in perms]
        inv = [index[inverse(w)] for w in perms]
        self._left = [[inv[r] for r in self._right[j]] for j in inv]
        self._dr = [sum(1 << p for p in range(m - 1) if w[p] > w[p + 1]) for w in perms]
        self._dl = [self._dr[j] for j in inv]
        self._low = [(k & -k).bit_length() - 1 for k in range(1 << max(m - 1, 0))]  # lowest bit
        self._cols = [{yi: 0} for yi in range(len(perms))]  # y: each extremal x -> id of h_{x,y}
        # by id (0 is the diagonal): packed h, P's pairs, the coefficient of v
        self._packed = [1]
        self._p_pairs: list[tuple[tuple[int, int], ...]] = [((0, 1),)]
        self._slot_one = [0]
        self._id_of: dict[tuple[int, int], int] = {}

    def _intern(self, h: int, gap: int) -> int:
        """The id of an off-diagonal packed h at gap `gap`, checked once."""
        pid = self._id_of.get((h, gap))
        if pid is None:
            self._p_pairs.append(_unpack(h, gap))
            self._slot_one.append(h >> _SLOT & _SLOT_MASK)
            pid = self._id_of[(h, gap)] = len(self._packed)
            self._packed.append(h)
        return pid

    def _raise(self, xi: int, yi: int) -> int:
        """x raised along the descents of y it lacks: the top of W_I x W_J."""
        dl, dr, low = self._dl, self._dr, self._low
        while miss := dl[yi] & ~dl[xi]:
            xi = self._left[xi][low[miss]]
        while miss := dr[yi] & ~dr[xi]:
            xi = self._right[xi][low[miss]]
        return xi

    def _h(self, xi: int, yi: int) -> int:
        """Packed h_{x,y} = v^k h_{x*,y}, x* x raised k steps (0 unless x <= y)."""
        top = self._raise(xi, yi)
        k = self.lengths[top] - self.lengths[xi]
        return self._packed[self._cols[yi][top]] << _SLOT * k if top in self._cols[yi] else 0

    def __len__(self) -> int:
        """Stored x stands for |W_I x W_J| = |W_I| |W_J| / prod M_ab! pairs, M_ab
        the values of block a of I at positions of block b of J (Kilmoyer)."""
        def young(keys: Iterable) -> int:  # the Young subgroup on classes of equal keys
            return prod(map(factorial, Counter(keys).values()))

        def blocks(mask: int) -> list[int]:  # the block of each place; bit k joins k, k+1
            return [(~mask & (1 << k) - 1).bit_count() for k in range(self.m)]

        total = -len(self._cols)  # the diagonal
        for yi, column in enumerate(self._cols):
            vb, pb = blocks(self._dl[yi]), blocks(self._dr[yi])
            order = young(vb) * young(pb)
            total += sum(order // young(zip([vb[v - 1] for v in self.perms[x]], pb))
                         for x in column)
        return total

    def kl_polynomial(self, x: Permutation, y: Permutation) -> LaurentPolynomial:
        """P_{x,y} in the variable q (1 on the diagonal, 0 unless x <= y)."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        pid = self._cols[yi].get(self._raise(xi, yi))
        return ZERO if pid is None else LaurentPolynomial(dict(self._p_pairs[pid]))

    def mu(self, x: Permutation, y: Permutation) -> int:
        """Symmetrized mu: the coefficient of v in h_{x,y}, x the shorter; off the
        extremal pairs the raise makes it 1 at y = sx or xs and 0 otherwise."""
        xi, yi = sorted((self.index[tuple(x)], self.index[tuple(y)]))  # indices follow length
        return self._h(xi, yi) >> _SLOT & _SLOT_MASK

    def _mu_below(self, yi: int) -> dict[int, int]:
        """x -> mu(x, y) != 0 over x < y: one step below y, or stored with a v term."""
        lengths, slot_one = self.lengths, self._slot_one
        below = {w: 1 for w in self._left[yi] + self._right[yi] if lengths[w] < lengths[yi]}
        below.update((x, slot_one[pid]) for x, pid in self._cols[yi].items() if slot_one[pid])
        return below

    def mu_pairs(self) -> Iterable[tuple[Permutation, Permutation, int]]:
        """All (x, y, mu) with x shorter than y and mu(x, y) != 0, by y then x."""
        for yi, y in enumerate(self.perms):
            below = self._mu_below(yi)
            yield from ((self.perms[xi], y, below[xi]) for xi in sorted(below))

    # -- persistence ---------------------------------------------------------

    def save(self, path: Path) -> None:
        """Atomically write the table: one line per stored pair x < y, by y
        then x, under a header with their count and CRC-32; exact round-trip
        with `load`."""
        perm_text = [json.dumps(list(w)) for w in self.perms]
        poly_text = [json.dumps([list(kc) for kc in pairs]) for pairs in self._p_pairs]
        body = b"".join("".join(f"[{perm_text[xi]}, {perm_text[yi]}, {poly_text[column[xi]]}]\n"
                                for xi in sorted(column) if xi != yi).encode()
                        for yi, column in enumerate(self._cols))
        header = {"format": _CACHE_FORMAT, "version": _CACHE_VERSION, "m": self.m,
                  "count": body.count(b"\n"), "crc32": zlib.crc32(body)}
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
                fh.write(body)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: Path, m: int) -> "KLTable":
        """Read a table written by `save`; a file that cannot be read, or does
        not parse as one, raises CacheVersionError naming the path."""
        table = cls(m)
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                if header.get("format") != _CACHE_FORMAT or header.get("version") != _CACHE_VERSION:
                    raise CacheVersionError(
                        f"cache {path} has header {header}, expected format "
                        f"{_CACHE_FORMAT!r} version {_CACHE_VERSION}; refusing to overwrite"
                    )
                if header.get("m") != m:
                    raise CacheVersionError(f"cache {path} is for m={header.get('m')}, not {m}")
                last, lines, crc = (-1, -1), 0, 0
                for line in fh:
                    crc, lines = zlib.crc32(line, crc), lines + 1
                    x, y, pairs = json.loads(line)
                    xi, yi = table.index[tuple(x)], table.index[tuple(y)]
                    if (yi, xi) <= last:
                        raise ValueError(f"pair {x}, {y} is out of order")
                    if xi == yi or table._raise(xi, yi) != xi:
                        raise ValueError(f"pair {x}, {y} is not an extremal pair")
                    last, gap = (yi, xi), table.lengths[yi] - table.lengths[xi]
                    h = sum(c << _SLOT * (gap - 2 * k) for k, c in pairs)
                    table._cols[yi][xi] = table._intern(h, gap)
            if lines != header["count"]:
                raise CacheVersionError(f"cache {path} is truncated")
            if crc != header["crc32"]:
                raise ValueError("its lines fail the CRC-32 check")
        except OSError as exc:
            raise CacheVersionError(f"cache {path} cannot be read: {exc}") from exc
        except (ValueError, KeyError, TypeError, AttributeError, InvariantError) as exc:
            raise CacheVersionError(f"cache {path} is corrupt: {exc!r}") from exc
        return table


def _coset_walk(mult: list[list[int]], mask: int):
    """w -> its coset under W_mask via `mult`, along a spanning tree of W_mask."""
    nodes, seen, tree = [0], {0}, []
    for k, w in enumerate(nodes):
        for t, v in enumerate(mult[w]):
            if mask >> t & 1 and v not in seen:
                seen.add(v)
                nodes.append(v)
                tree.append((k, t))

    def walk(start: int) -> list[int]:
        out = [start]
        for parent, t in tree:
            out.append(mult[out[parent]][t])
        return out

    return walk


def _build_kl_table(m: int) -> KLTable:
    table = KLTable(m)
    lengths, cols, raise_, read = table.lengths, table._cols, table._raise, table._h
    right, dr = table._right, table._dr
    walks = {mask: _coset_walk(right, mask) for mask in set(dr)}
    for yi in range(1, len(table.perms)):
        p = table._low[dr[yi]]  # the first right descent s
        y1 = right[yi][p]
        # [e, y] is [e, y'] with [e, y'] s: each extremal x tops a u w, u stored for y', w in W_J'
        k = dr[yi] & dr[y1]  # K = J & J': raise one u w of each u w W_K, its K-top
        tops = {raise_(g, yi) for u in cols[y1] for g in walks[dr[y1]](u) if dr[g] & k == k}
        # B_y = B_{y'} B_s - sum mu(z, y') B_z over z s < z, with H_x B_s =
        # H_{xs} + v^{-1} H_x for x s < x
        terms = [(z, mu_z) for z, mu_z in table._mu_below(y1).items() if dr[z] >> p & 1]
        column = {xi: read(right[xi][p], y1) + (read(xi, y1) >> _SLOT)
                  - sum(mu_z * read(xi, zi) for zi, mu_z in terms if lengths[xi] <= lengths[zi])
                  for xi in tops}
        if column.pop(yi) != 1:
            raise InvariantError("new-basis element is not unitriangular")
        cols[yi].update((xi, table._intern(h, lengths[yi] - lengths[xi]))
                        for xi, h in column.items())
    return table


_tables: dict[int, KLTable] = {}
_orders: dict[int, "LeftOrder"] = {}
_lock = threading.Lock()


def cache_file(m: int, cache_dir: Path | str | None = None) -> Path:
    """The file `kl_table` caches rank m in: under `cache_dir`, else under
    $PRIMSPEC_CACHE, else under ~/.cache/primspec."""
    if cache_dir is None:
        cache_dir = os.environ.get("PRIMSPEC_CACHE") or Path.home() / ".cache" / "primspec"
    return Path(cache_dir) / f"kl_m{m}.v{_CACHE_VERSION}.jsonl"


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
        path = cache_file(m, cache_dir)
        table = _tables.get(m)
        if table is None:
            if use_disk and path.exists():
                table = KLTable.load(path, m)
            else:
                table = _build_kl_table(m)
            _tables[m] = table
        if use_disk and not path.exists():
            try:
                table.save(path)
            except OSError as exc:  # caching is best-effort; the table is still valid
                import logging  # lazily: importing it costs each process 0.5 MB
                logging.getLogger(__name__).warning(
                    "could not write the KL cache %s: %s", path, exc
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
        self.m = m = table.m
        self.perms = perms = sorted(all_permutations(m))
        self.index = {w: i for i, w in enumerate(perms)}
        # bit p: strictly on the positive side of wall p (an ascent of the word)
        ascent_mask = [sum(1 << p for p in range(m - 1) if r[p] < r[p + 1]) for r in perms]
        # u, antidominant-based, has rank word inverse(u w0); u w0 is u's word reversed
        node = {u: self.index[inverse(tuple(reversed(u)))] for u in table.perms}
        pairs = ((node[x], node[y]) for x, y, _ in table.mu_pairs())
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


def left_preorder(
    m: int,
    *,
    bound: int = DEFAULT_KL_BOUND,
    cache_dir: Path | str | None = None,
    use_disk: bool = True,
) -> LeftOrder:
    """The left preorder for rank m (cached; the bound is checked first)."""
    _check_rank(m, bound)
    with _lock:
        order = _orders.get(m)
    if order is not None:
        return order
    table = kl_table(m, bound=bound, cache_dir=cache_dir, use_disk=use_disk)
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
        _insertion(d) == _insertion(g) for _, d, g in _factors(delta, gamma)
    )


@lru_cache(maxsize=INSERTION_MEMO_SIZE)
def _insertion(word: Permutation) -> Tableau:
    """The insertion tableau of a rank word (Robinson-Schensted, looked up
    in this module at call time)."""
    return robinson_schensted(word)[0]


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
