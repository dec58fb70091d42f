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
pair x < y, by y then x, each in (length, lex) order, under a header with
the line count and a CRC-32 of the lines.

Column y = y's, J' = DR(y') and K = J & J', comes from the column of y':
each extremal x of y is the raise of a K-top u v (DR(u v) containing K),
u stored for y' and v in W_J'.  A stored u has DR(u) containing J', so
u = u0 w_J' with u0 minimal in u W_J' and DR(u v) & J' = DR(w_J' v) & J':
which v give a K-top does not depend on u.  So the build walks, for each
(J', K), one spanning tree of W_J' cut down to those v and their
ancestors, and applies it to every stored u.  The build reads h through
one local function over the table's lists (raise, column lookup, shift);
`kl_polynomial` raises x and returns the one LaurentPolynomial kept per
distinct stored P.  A read whose answer the lengths fix skips the raise:
P_{x,y} = 0 when x is not shorter than y and x != y,
and mu(x, y) = 0 when l(y) - l(x) is even, as h_{x,y} has only powers of v
of that parity (Kazhdan-Lusztig 1979).  `mu` never raises: the raise of a
non-extremal x multiplies h by v at least once, so only x = sy or ys, one
step below y, keeps a v term, and it is v itself.

Only the first column of each orbit of {id, x -> x^-1, x -> w0 x w0, both}
runs that recursion (230 of 720 at rank 6).  P_{x,y} = P_{x^-1,y^-1}
(Kazhdan-Lusztig 1979) and P_{x,y} = P_{w0 x w0,w0 y w0} (the diagram
automorphism), and both maps keep lengths and send extremal pairs to
extremal pairs: inversion swaps DL and DR, conjugation by w0 reverses the
descent positions.  Columns are built by index, the lex rank of y, a linear
extension of the Bruhat order (Bjorner-Brenti, Combinatorics of Coxeter
Groups, ch. 2): y s and every z the recursion reads, all below y, come
first, and an orbit's first column, its least index, before the others,
which copy it relabelled.
Every column is held in full, so no reader knows which were mirrored; only
the polynomial ids and the order of x inside a column differ from running
the recursion everywhere, and every reader looks x up or sorts.

On top of the table sits the left preorder on a regular orbit of weight
tuples, generated by wall-crossing conditions plus nonvanishing Ext^1
between simples (equivalently nonvanishing mu), and the full inclusion
decision for annihilators of simples of gl(m) and gl(m)+gl(n) at integral,
possibly singular, central characters: a singular weight is routed through
its longest coset representative, which realizes the translation-to-the-
wall poset isomorphism.  A factor is read as the rank word of that
representative: inclusion and covers are read off its left cell, equality
off its Robinson-Schensted insertion tableau (no KL table, no bound; the
tableau is kept per rank word in a memo of INSERTION_MEMO_SIZE entries).
`classical_relation` reads each factor's rank words once for all three
questions.  `LeftOrder` takes the table's index, the lex rank, as its node
number and reads everything else off the table's own lists (see there).

Tables are immutable once built.  On disk there is one versioned file per
rank, which `kl_table` reads when it exists and writes when it builds; in
memory only the left orders are kept, one per (rank, cache settings), by
`left_preorder`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from functools import cache, lru_cache
from itertools import chain, compress, filterfalse, repeat
from math import factorial
from pathlib import Path
from typing import Iterable, Iterator

from .errors import BoundExceededError, CacheVersionError, InvariantError, PreconditionError
from .laurent import ONE, ZERO, LaurentPolynomial
from .posets import Preorder, bits, wall_edges
from .tableaux import (
    Permutation,
    Tableau,
    all_permutations,
    rank_word,
    robinson_schensted,
)
from .weights import SuperWeight, orbit_equal

__all__ = [
    "KLTable",
    "LeftOrder",
    "kl_table",
    "cache_file",
    "mu",
    "left_preorder",
    "classical_inclusion",
    "classical_relation",
    "classical_equal",
    "classical_cover",
    "DEFAULT_KL_BOUND",
]

DEFAULT_KL_BOUND = 7
INSERTION_MEMO_SIZE = 1024  # rank words whose insertion tableau `classical_equal` keeps

_CACHE_FORMAT = "primspec-kl"
_CACHE_VERSION = 2


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


def _lex_tables(m: int, ids: list[int]) -> tuple[list, list, list[list[int]], list[list[int]]]:
    """By lex rank, the index of `KLTable`: each w's length and right descent
    mask, and for each p the lex ranks of all w s_p, then of all s_p w.

    The digits of w's lex rank in the factorial base are its Lehmer code c
    (c_p counts the later values below w[p]), so l(w) is their sum and p is
    a right descent iff c_p > c_{p+1}.  Rank k lists w = (d+1, u) for
    d = c_0 = 0..k-1 in turn, u running over rank k-1 relabelled, so each
    table is k blocks of the last one but for the two new cases:
    - w s_0 swaps c_0 and c_1: (c_1 + 1, c_0) on an ascent, else (c_1, c_0 - 1);
    - s_d w and s_{d-1} w change only the first value, to d+2 and d, and
      keep u; any other s_t w is (d+1, s_t' u), t' = t below d and t - 1 above.

    A rank r is entered as ids[r], so each is one shared int object."""
    def tile(parts: Iterable[Iterable[int]]) -> list[int]:
        return list(chain.from_iterable(parts))

    def ranks(parts: Iterable[Iterable[int]]) -> list[int]:
        return list(map(ids.__getitem__, chain.from_iterable(parts)))

    lengths, dr, right, left = [0], [0], [], []
    for k in range(2, m + 1):
        f1 = len(lengths)  # (k-1)!
        f2 = f1 // (k - 1)
        bases = [d * f1 for d in range(k)]
        tail = [[v << 1 for v in dr[c * f2:(c + 1) * f2]] for c in range(k - 1)]  # by c_1
        lengths = tile(map(d.__add__, lengths) for d in range(k))
        dr = tile(map((1).__or__, tail[c]) if d > c else tail[c]
                  for d in range(k) for c in range(k - 1))
        swap = ranks(range((c + 1) * f1 + d * f2, (c + 1) * f1 + (d + 1) * f2) if d <= c
                     else range(c * f1 + (d - 1) * f2, c * f1 + d * f2)
                     for d in range(k) for c in range(k - 1))
        right = [swap, *(ranks(map(b.__add__, col) for b in bases) for col in right)]
        left = [ranks(map(b.__add__, left[t]) if t < d - 1 else range(b - f1, b) if t == d - 1
                      else range(b + f1, b + 2 * f1) if t == d else map(b.__add__, left[t - 1])
                      for d, b in enumerate(bases)) for t in range(k - 1)]
    return lengths, dr, right, left


def _parabolic_order(mask: int) -> int:
    """|W_K| for K the simple reflections s_(k+1) at the set bits k of mask:
    (r+1)! for each run of r consecutive bits."""
    order, run = 1, 1
    while mask:
        run = run + 1 if mask & 1 else 1
        order *= run
        mask >>= 1
    return order


class KLTable:
    """Immutable table of KL polynomials and mu values for one rank, once
    `_build_kl_table` or `load` has filled its columns.  Index i is
    `perms[i]`, the word of lex rank i, a Bruhat linear extension (so
    `lengths`, not i, says which word is shorter); the cache file alone
    keeps (length, lex) order."""

    def __init__(self, m: int):
        self.m = m
        n = factorial(m)
        ids = list(range(n))  # the one int object of each index, shared by every list below
        self.lengths, self._dr, right, left = _lex_tables(m, ids)
        self.perms = perms = list(all_permutations(m))
        self.index = dict(zip(perms, ids))
        # w s_p swaps positions p, p+1 and s_t w values t+1, t+2; descents are bitmasks
        self._right, self._left = list(zip(*right)) or [()], list(zip(*left)) or [()]
        # the lowest bit of each mask, and all of its bits
        self._low = low = [(k & -k).bit_length() - 1 for k in range(1 << max(m - 1, 0))]
        self._bits = [tuple(bits(k)) for k in range(1 << max(m - 1, 0))]
        inv = [0] * n  # (w s)^-1 = s w^-1 for the first right descent s of w
        for yi in range(1, n):
            p = low[self._dr[yi]]
            inv[yi] = self._left[inv[self._right[yi][p]]][p]
        self._dl = list(map(self._dr.__getitem__, inv))
        # w0 w complements every value, so its lex rank is n - 1 - that of w;
        # w0 w w0 = w0 (w0 w^-1)^-1
        sigma = [ids[n - 1 - inv[n - 1 - j]] for j in inv]
        self._mirrors = (inv, sigma, list(map(inv.__getitem__, sigma)))  # x^-1, w0 x w0, both
        self._cols = [{yi: 0} for yi in ids]  # y: each extremal x -> id of h_{x,y}
        # by id (0 is the diagonal): packed h, P, the coefficient of v
        self._packed = [1]
        self._polys = [ONE]
        self._slot_one = [0]
        self._id_of: dict[tuple[int, int], int] = {}

    def _intern(self, h: int, gap: int) -> int:
        """The id of an off-diagonal packed h at gap `gap`, checked once."""
        pid = self._id_of.get((h, gap))
        if pid is None:
            self._polys.append(LaurentPolynomial(dict(_unpack(h, gap))))
            self._slot_one.append(h >> _SLOT & _SLOT_MASK)
            pid = self._id_of[(h, gap)] = len(self._packed)
            self._packed.append(h)
        return pid

    def _raise(self, xi: int, yi: int) -> int:
        """x raised along the descents of y it lacks: the top of W_I x W_J."""
        dl, dr, low, left, right = self._dl, self._dr, self._low, self._left, self._right
        dly, dry = dl[yi], dr[yi]
        while miss := dly & ~dl[xi]:
            xi = left[xi][low[miss]]
        while miss := dry & ~dr[xi]:
            xi = right[xi][low[miss]]
        return xi

    def __len__(self) -> int:
        """Stored x, the top of W_I x W_J for I and J the left and right descents
        of y, stands for the |W_I| |W_J| / |W_I & x W_J x^-1| pairs of that double
        coset.  At the top, W_I & x W_J x^-1 is the parabolic W_K, K the s_t in I
        with x^-1 s_t x = s_u in J (Kilmoyer, through w0), i.e. values t, t+1 at
        positions u, u+1; bit (t-1)(m-1) + u-1 of adj[x] marks each such (t, u).
        The first column of an orbit counts for each column of the orbit."""
        m1 = max(self.m - 1, 0)
        sizes = list(map(_parabolic_order, range(1 << m1)))
        bit = {}  # (u-1, w(u), w(u+1)) -> the bit of (t, u) when {w(u), w(u+1)} = {t, t+1}
        for u in range(m1):
            for t in range(1, m1 + 1):
                bit[u, t, t + 1] = bit[u, t + 1, t] = 1 << (t - 1) * m1 + u
        adj = [sum(map(bit.get, zip(range(m1), w, w[1:]), repeat(0, m1))) for w in self.perms]

        @cache
        def stabiliser(key: int) -> int:  # |W_K| for the (t, u) bits of adj[x] & (I x J)
            return sizes[sum({1 << b // m1 for b in bits(key)})]  # K: s_t for each t of a bit

        total = -len(self._cols)  # the diagonal
        for yi, first in enumerate(map(min, *self._mirrors)):
            if first < yi:  # a mirror maps cosets onto cosets
                continue
            dl, dr = self._dl[yi], self._dr[yi]
            pairs = sum(dr << t * m1 for t in range(m1) if dl >> t & 1)  # I x J
            order = sizes[dl] * sizes[dr]
            orbit = len({yi, *(g[yi] for g in self._mirrors)})
            x_pairs = map(pairs.__and__, map(adj.__getitem__, self._cols[yi]))
            total += orbit * sum(map(order.__floordiv__, map(stabiliser, x_pairs)))
        return total

    def _mirror(self, yi: int) -> list[int] | None:
        """The map of `_mirrors` taking y to the first member of its orbit,
        or None for the first member itself."""
        g = min(self._mirrors, key=lambda g: g[yi])
        return g if g[yi] < yi else None

    def kl_polynomial(self, x: Permutation, y: Permutation) -> LaurentPolynomial:
        """P_{x,y} in the variable q (1 on the diagonal, 0 unless x <= y)."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        if xi != yi and self.lengths[xi] >= self.lengths[yi]:  # x is not below y
            return ZERO
        pid = self._cols[yi].get(self._raise(xi, yi))
        return ZERO if pid is None else self._polys[pid]

    def mu(self, x: Permutation, y: Permutation) -> int:
        """Symmetrized mu: the coefficient of v in h_{x,y}, x the shorter.
        h_{x,y} has only powers of v of the parity of l(y) - l(x), so an even
        gap gives 0.  Off the extremal pairs, where x lacks a descent of y,
        the raise would make it 1 at y = sx or xs and 0 otherwise; so no
        read raises x."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        if self.lengths[xi] > self.lengths[yi]:
            xi, yi = yi, xi
        if (self.lengths[yi] - self.lengths[xi]) & 1 == 0:
            return 0
        if self._dl[yi] & ~self._dl[xi] or self._dr[yi] & ~self._dr[xi]:
            return int(xi in self._left[yi] or xi in self._right[yi])
        return self._slot_one[self._cols[yi].get(xi, 0)]  # id 0, the diagonal, has no v term

    def _mu_below(self, yi: int) -> Iterator[int]:
        """Each x < y with mu(x, y) != 0, once: first the x one step below y,
        then the stored x with a v term (`_mu_at` reads mu off either).  A
        one-step x lacks a descent of y, so it is never stored, and an x that
        is both s y and y s' is taken as s y only."""
        left, right, column, positions = self._left[yi], self._right[yi], self._cols[yi], self._bits
        return chain(
            map(left.__getitem__, positions[self._dl[yi]]),
            filterfalse(left.__contains__, map(right.__getitem__, positions[self._dr[yi]])),
            compress(column, map(self._slot_one.__getitem__, column.values())),
        )

    def _mu_at(self, xi: int, yi: int) -> int:
        """mu(x, y) for an x that `_mu_below(y)` yields: 1 one step below y,
        else the v term of the stored h."""
        pid = self._cols[yi].get(xi)
        return 1 if pid is None else self._slot_one[pid]

    def mu_pairs(self) -> Iterable[tuple[Permutation, Permutation, int]]:
        """All (x, y, mu) with x shorter than y and mu(x, y) != 0, by y then x."""
        perms = self.perms
        for yi, y in enumerate(perms):
            yield from ((perms[xi], y, self._mu_at(xi, yi)) for xi in sorted(self._mu_below(yi)))

    # -- persistence ---------------------------------------------------------

    def save(self, path: Path) -> None:
        """Atomically write the table: one line per stored pair x < y, by y
        then x, each in (length, lex) order (kept by the file alone), under a
        header with their count and CRC-32; exact round-trip with `load`.  The
        lines go to an unnamed temporary file first and are copied in under
        the header, so only one column's text is held."""
        perm_text = [json.dumps(list(w)) for w in self.perms]
        poly_text = [json.dumps(poly.to_pairs()) for poly in self._polys]
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.perms)
        key = list(zip(self.lengths, range(n)))  # the file's order: (length, lex rank)
        with tempfile.TemporaryFile(dir=path.parent) as body:
            count, crc = 0, 0
            for yi in sorted(range(n), key=key.__getitem__):
                column = self._cols[yi]
                lines = "".join(f"[{perm_text[xi]}, {perm_text[yi]}, {poly_text[column[xi]]}]\n"
                                for xi in sorted(column, key=key.__getitem__) if xi != yi).encode()
                count, crc = count + len(column) - 1, zlib.crc32(lines, crc)
                body.write(lines)
            body.seek(0)
            header = {"format": _CACHE_FORMAT, "version": _CACHE_VERSION, "m": self.m,
                      "count": count, "crc32": crc}
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
                    shutil.copyfileobj(body, fh)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    @classmethod
    def load(cls, path: Path, m: int) -> "KLTable":
        """Read a table written by `save`, lines in its (length, lex) order; a
        file that cannot be read, or does not parse as one, raises
        CacheVersionError naming the path."""
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
                lengths, last, lines, crc = table.lengths, (-1, -1, -1, -1), 0, 0
                for line in fh:
                    crc, lines = zlib.crc32(line, crc), lines + 1
                    x, y, pairs = json.loads(line)
                    xi, yi = table.index[tuple(x)], table.index[tuple(y)]
                    here = (lengths[yi], yi, lengths[xi], xi)
                    if here <= last:
                        raise ValueError(f"pair {x}, {y} is out of order")
                    if xi == yi or table._raise(xi, yi) != xi:
                        raise ValueError(f"pair {x}, {y} is not an extremal pair")
                    last, gap = here, lengths[yi] - lengths[xi]
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


def _coset_walk(mult: list[tuple[int, ...]], dr: list[int], low: list[int], mask: int,
                keep: int):
    """w -> the elements of its coset w W_mask whose right descents contain
    `keep` (a subset of `mask`), for w the top of that coset.

    Such a w is w0 w_mask, w0 minimal in the coset and w_mask the top of
    W_mask, and l(w0 v) = l(w0) + l(v) for v in W_mask, so s in mask is a
    right descent of w v exactly when it is one of w_mask v: which v pass
    does not depend on w.  The spanning tree of W_mask, grown from w_mask by
    `mult`, is cut down once to the passing nodes and their ancestors."""
    top = 0
    while miss := mask & ~dr[top]:
        top = mult[top][low[miss]]
    nodes, tree, seen = [top], [(-1, -1)], {top}
    for k, w in enumerate(nodes):
        for t, v in enumerate(mult[w]):
            if mask >> t & 1 and v not in seen:
                seen.add(v)
                nodes.append(v)
                tree.append((k, t))
    passes = [dr[w] & keep == keep for w in nodes]
    needed = passes[:]
    for k in range(len(nodes) - 1, 0, -1):
        if needed[k]:
            needed[tree[k][0]] = True
    place, pruned, yielded = [0] * len(nodes), [], [0]  # the root passes: dr[top] holds mask
    for k in range(1, len(nodes)):
        if needed[k]:
            parent, t = tree[k]
            place[k] = len(pruned) + 1
            pruned.append((place[parent], t))
            if passes[k]:
                yielded.append(place[k])

    def walk(start: int) -> list[int]:
        out = [start]
        for parent, t in pruned:
            out.append(mult[out[parent]][t])
        return [out[i] for i in yielded]

    return walk


def _build_kl_table(m: int) -> KLTable:
    table = KLTable(m)
    lengths, cols, packed, raise_ = table.lengths, table._cols, table._packed, table._raise
    left, right, dl, dr, low = table._left, table._right, table._dl, table._dr, table._low

    def read(xi: int, yi: int) -> int:  # packed h_{x,y} = v^k h_{x*,y}, x* x raised k steps
        top, dly, dry = xi, dl[yi], dr[yi]
        while miss := dly & ~dl[top]:
            top = left[top][low[miss]]
        while miss := dry & ~dr[top]:
            top = right[top][low[miss]]
        pid = cols[yi].get(top)
        return 0 if pid is None else packed[pid] << _SLOT * (lengths[top] - lengths[xi])

    walks = {}
    for yi in range(1, len(table.perms)):
        g = table._mirror(yi)
        if g is not None:  # P_{x,y} = P_{gx,gy}: relabel the orbit's first column
            cols[yi] = {g[x]: pid for x, pid in cols[g[yi]].items()}
            continue
        p = low[dr[yi]]  # the first right descent s
        y1 = right[yi][p]
        # [e, y] is [e, y'] with [e, y'] s: each extremal x tops a u w, u stored for y', w in W_J'
        k = dr[yi] & dr[y1]  # K = J & J': raise one u w of each u w W_K, its K-top
        walk = walks.get((dr[y1], k))
        if walk is None:
            walk = walks[dr[y1], k] = _coset_walk(right, dr, low, dr[y1], k)
        tops = {raise_(g, yi) for u in cols[y1] for g in walk(u)}
        # B_y = B_{y'} B_s - sum mu(z, y') B_z over z s < z, with H_x B_s =
        # H_{xs} + v^{-1} H_x for x s < x
        terms = [(z, lengths[z], table._mu_at(z, y1))
                 for z in table._mu_below(y1) if dr[z] >> p & 1]
        column = {}
        for xi in tops:
            lx = lengths[xi]
            h = read(right[xi][p], y1) + (read(xi, y1) >> _SLOT)
            for zi, lz, mu_z in terms:
                if lx <= lz:
                    h -= mu_z * read(xi, zi)
            column[xi] = h
        if column.pop(yi) != 1:
            raise InvariantError("new-basis element is not unitriangular")
        cols[yi].update((xi, table._intern(h, lengths[yi] - lengths[xi]))
                        for xi, h in column.items())
    return table


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
    """The full KL table for rank m, read from its cache file when `use_disk`
    is set and the file exists, else built (and written there, with
    `use_disk`).  Nothing is kept in memory; `left_preorder` keeps the orders.

    Raises BoundExceededError (naming the bound) for m above `bound`.
    """
    _check_rank(m, bound)
    path = cache_file(m, cache_dir)
    if use_disk and path.exists():
        return KLTable.load(path, m)
    table = _build_kl_table(m)
    if use_disk:
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

    Node r is the word of lex rank r, the table's own index, and everything
    is index arithmetic on the table: `perms`, `left_descents` and the node
    of a word are the table's.  The rank word of u is inverse(u w0) =
    w0 u^-1, whose index is n - 1 - that of u^-1 (`w0 w` reverses lex
    order), and a word's ascents are the complement of its right descent
    mask (`left_descents` keeps the left one: bit t, rank t+2 stands left of
    rank t+1).  Each column's mu pairs, mapped to nodes, go straight into
    one adjacency list per node (`wall_edges`); each unordered pair comes
    once, so no edge repeats and no edge set is built.  The class ids follow the preorder
    alone: a topological order of the cells, sources first, each tie going
    to the cell whose lexicographically least rank word comes first.
    """

    def __init__(self, table: KLTable):
        self.m = m = table.m
        n, full = len(table.perms), (1 << max(m - 1, 0)) - 1
        self.perms, self.left_descents, self._index = table.perms, table._dl, table.index
        # bit p of a mask: strictly on the positive side of wall p
        ascent_mask = [full & ~dr for dr in table._dr]
        # u, antidominant-based, has rank word w0 u^-1
        node = [n - 1 - j for j in table._mirrors[0]]
        partners = ((node[yi], map(node.__getitem__, table._mu_below(yi))) for yi in range(n))
        self.preorder = Preorder(n, wall_edges(ascent_mask, partners))

    def node(self, r: Permutation) -> int:
        return self._index[tuple(r)]

    def leq(self, r_small: Permutation, r_big: Permutation) -> bool:
        """Is the ideal at rank word r_small included in the one at r_big?"""
        return self.preorder.leq(self.node(r_small), self.node(r_big))

    def class_id(self, r: Permutation) -> int:
        return self.preorder.class_id(self.node(r))

    def class_count(self) -> int:
        return self.preorder.class_count()


_ORDER_KEYWORDS = frozenset(("bound", "cache_dir", "use_disk"))


def _check_keywords(kw: dict) -> None:
    """Refuse a keyword `left_preorder` does not take, before any work, so a
    misspelt one fails on every pair, also on one that fetches no order."""
    if not _ORDER_KEYWORDS.issuperset(kw):
        unknown = ", ".join(map(repr, sorted(set(kw) - _ORDER_KEYWORDS)))
        raise TypeError(
            f"unexpected keyword argument(s) {unknown}; the order takes "
            "bound, cache_dir and use_disk"
        )


def left_preorder(
    m: int,
    *,
    bound: int = DEFAULT_KL_BOUND,
    cache_dir: Path | str | None = None,
    use_disk: bool = True,
) -> LeftOrder:
    """The left preorder for rank m, kept per (m, cache_dir, use_disk); the
    bound is checked before the cache, so a kept order honours it too."""
    _check_rank(m, bound)
    return _left_order(m, cache_dir, use_disk)


@cache
def _left_order(m: int, cache_dir: Path | str | None, use_disk: bool) -> LeftOrder:
    return LeftOrder(kl_table(m, bound=m, cache_dir=cache_dir, use_disk=use_disk))


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
    _check_keywords(kw)
    return orbit_equal(delta, gamma) and _below(_factors(delta, gamma), kw)


def _below(factors: Iterable[tuple], kw: dict) -> bool:
    """Every factor's first rank word below its second, each factor's order
    fetched only when the factors before it hold."""
    return all(left_preorder(len(labels), **kw).leq(d, g) for labels, d, g in factors)


def classical_relation(delta: SuperWeight, gamma: SuperWeight, **kw) -> str:
    """Ann L(delta) against Ann L(gamma) for gl(m)+gl(n): 'equal', 'subset'
    (strictly included), 'superset' or 'incomparable' (so for different
    orbits).  Equality is decided as `classical_equal` does; each direction
    then fetches a factor's order only where `classical_inclusion` would."""
    _check_keywords(kw)
    return _orbit_relation(delta, gamma, kw) if orbit_equal(delta, gamma) else "incomparable"


def _orbit_relation(delta: SuperWeight, gamma: SuperWeight, kw: dict) -> str:
    """`classical_relation` of two weights of one orbit, keywords checked."""
    factors = list(_factors(delta, gamma))
    if all(_insertion(d) == _insertion(g) for _, d, g in factors):
        return "equal"
    if _below(factors, kw):
        return "subset"
    return "superset" if _below([(lab, g, d) for lab, d, g in factors], kw) else "incomparable"


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
    among the cells of the rearrangements of its labels.  Every cell below
    the new one is such a cell: the ties of the labels are descents of the
    rank word's inverse, and that descent set is constant on left cells and
    only grows down the left order (Kazhdan-Lusztig 1979, 2.4)."""
    _check_keywords(kw)
    if not orbit_equal(delta, gamma):
        return False
    moved = None
    for labels, d, g in _factors(delta, gamma):
        order = left_preorder(len(labels), **kw)
        cd, cg = order.class_id(d), order.class_id(g)
        if cd != cg:
            if moved or not order.preorder.class_leq(cd, cg):
                return False
            moved = order, cd, cg
    if moved is None:
        return False
    order, cd, cg = moved
    preorder = order.preorder
    between = preorder.below(cg) & ~(1 << cd | 1 << cg)
    return not any(preorder.class_leq(cd, cz) for cz in bits(between))
