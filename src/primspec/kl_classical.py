"""Kazhdan-Lusztig polynomials for symmetric groups and the left preorder.

The table is computed in the Hecke algebra with the self-dual generator
normalization: natural basis ``H_x``, quadratic relation
``(H_s - v^{-1})(H_s + v) = 0``, and new basis ``B_y = sum_x h_{x,y}(v) H_x``
built by the right-multiplication recursion

    B_y = B_{y'} B_s - sum_{z s < z} mu(z, y') B_z        (y = y' s > y').

The usual polynomials are recovered through
``h_{x,y}(v) = v^{l(y) - l(x)} P_{x,y}(v^{-2})``, and the mu-function is the
coefficient of ``v`` in ``h_{x,y}``.

On top of the table sits the left preorder on a regular orbit of weight
tuples, generated by wall-crossing conditions plus nonvanishing Ext^1
between simples (equivalently nonvanishing mu), and the full inclusion
decision for annihilators of simples of gl(m) and gl(m)+gl(n) at integral,
possibly singular, central characters: a singular weight is routed through
its longest coset representative, which realizes the translation-to-the-
wall poset isomorphism.

Tables are immutable once built and are cached both in-process and on disk
(one versioned file per rank).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from itertools import permutations as iperm
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .errors import BoundExceededError, CacheVersionError
from .laurent import ONE, ZERO, LaurentPolynomial
from .posets import Preorder
from .tableaux import (
    Permutation,
    StandardTableau,
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
    "ideal_class_invariant",
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


class KLTable:
    """Immutable table of KL polynomials and mu values for one rank."""

    def __init__(
        self,
        m: int,
        perms: list[Permutation],
        p_polys: dict[tuple[int, int], tuple[int, ...]],
    ):
        self.m = m
        self.perms = perms
        self.index = {w: i for i, w in enumerate(perms)}
        self.lengths = [inversions(w) for w in perms]
        self._p = p_polys
        self._mu: dict[tuple[int, int], int] = {}
        for (xi, yi), coeffs in p_polys.items():
            gap = self.lengths[yi] - self.lengths[xi]
            if gap % 2 == 1:
                k = (gap - 1) // 2
                if k < len(coeffs) and coeffs[k]:
                    self._mu[(xi, yi)] = coeffs[k]

    def __len__(self) -> int:
        return len(self._p)

    def kl_polynomial(self, x: Permutation, y: Permutation) -> LaurentPolynomial:
        """P_{x,y} in the variable q (1 on the diagonal, 0 unless x <= y)."""
        xi, yi = self.index[tuple(x)], self.index[tuple(y)]
        if xi == yi:
            return ONE
        coeffs = self._p.get((xi, yi))
        if coeffs is None:
            return ZERO
        return LaurentPolynomial({k: c for k, c in enumerate(coeffs)})

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
        """Atomically write the table; exact round-trip with `load`."""
        header = {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "m": self.m,
            "count": len(self._p),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for (xi, yi) in sorted(self._p):
            poly = self._p[(xi, yi)]
            entry = [list(self.perms[xi]), list(self.perms[yi]),
                     [[k, c] for k, c in enumerate(poly) if c]]
            lines.append(json.dumps(entry))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: Path, m: int) -> "KLTable":
        with open(path) as fh:
            header = json.loads(fh.readline())
            if header.get("format") != _CACHE_FORMAT or header.get("version") != _CACHE_VERSION:
                raise CacheVersionError(
                    f"cache {path} has header {header}, expected format "
                    f"{_CACHE_FORMAT!r} version {_CACHE_VERSION}; refusing to overwrite"
                )
            if header.get("m") != m:
                raise CacheVersionError(f"cache {path} is for m={header.get('m')}, not {m}")
            perms = sorted(all_permutations(m), key=lambda w: (inversions(w), w))
            index = {w: i for i, w in enumerate(perms)}
            p_polys: dict[tuple[int, int], tuple[int, ...]] = {}
            for line in fh:
                x, y, pairs = json.loads(line)
                coeffs = [0] * (max(k for k, _ in pairs) + 1)
                for k, c in pairs:
                    coeffs[k] = c
                p_polys[(index[tuple(x)], index[tuple(y)])] = tuple(coeffs)
            if len(p_polys) != header["count"]:
                raise CacheVersionError(f"cache {path} is truncated")
        return cls(m, perms, p_polys)


def _build_kl_table(m: int) -> KLTable:
    perms = sorted(all_permutations(m), key=lambda w: (inversions(w), w))
    index = {w: i for i, w in enumerate(perms)}
    lengths = [inversions(w) for w in perms]
    right_mult = [
        [index[w[:p] + (w[p + 1], w[p]) + w[p + 2:]] for p in range(m - 1)]
        for w in perms
    ]

    # h[yi]: dict xi -> dict v-exponent -> int
    h: list[dict[int, dict[int, int]]] = [dict() for _ in perms]

    def add(target: dict[int, dict[int, int]], xi: int, poly: dict[int, int],
            shift: int = 0, scale: int = 1) -> None:
        slot = target.setdefault(xi, {})
        for e, c in poly.items():
            s = slot.get(e + shift, 0) + scale * c
            if s:
                slot[e + shift] = s
            else:
                del slot[e + shift]
        if not slot:
            del target[xi]

    for yi, y in enumerate(perms):
        if lengths[yi] == 0:
            h[yi] = {yi: {0: 1}}
            continue
        p = next(p for p in range(m - 1) if y[p] > y[p + 1])
        y1i = right_mult[yi][p]
        prod: dict[int, dict[int, int]] = {}
        for xi, poly in h[y1i].items():
            xsi = right_mult[xi][p]
            add(prod, xsi, poly)
            add(prod, xi, poly, shift=1 if lengths[xsi] > lengths[xi] else -1)
        for zi, poly in h[y1i].items():
            mu_z = poly.get(1, 0)
            if mu_z and lengths[right_mult[zi][p]] < lengths[zi]:
                for xi, zpoly in h[zi].items():
                    add(prod, xi, zpoly, scale=-mu_z)
        assert prod.get(yi) == {0: 1}, "new-basis element is not unitriangular"
        h[yi] = prod

    p_polys: dict[tuple[int, int], tuple[int, ...]] = {}
    for yi, column in enumerate(h):
        for xi, poly in column.items():
            if xi == yi:
                continue
            gap = lengths[yi] - lengths[xi]
            assert all(0 < e <= gap and (gap - e) % 2 == 0 for e in poly), (
                "h-polynomial violates degree bounds"
            )
            coeffs = [0] * ((gap + 1) // 2 if gap % 2 else gap // 2 + 1)
            for e, c in poly.items():
                coeffs[(gap - e) // 2] = c
            assert coeffs[0] == 1, "KL polynomial must have constant term 1"
            p_polys[(xi, yi)] = tuple(coeffs)
    return KLTable(m, perms, p_polys)


_tables: dict[int, KLTable] = {}
_orders: dict[int, "LeftOrder"] = {}
_lock = threading.Lock()


def default_cache_dir() -> Path:
    env = os.environ.get("PRIMSPEC_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "primspec"


def _check_rank(m: int, bound: int) -> None:
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
            except OSError:
                pass  # caching is best-effort; the table is still valid
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
        n_nodes = len(perms)

        ascent_mask = []
        descent_mask = []
        for r in perms:
            asc = desc = 0
            for p in range(m - 1):
                if r[p] < r[p + 1]:
                    asc |= 1 << p
                else:
                    desc |= 1 << p
            ascent_mask.append(asc)
            descent_mask.append(desc)

        def node_of_base_element(u: Permutation) -> int:
            # u is the antidominant-based Weyl element; its weight's rank
            # word is inverse(u w0), with (u w0) = reversed one-line word.
            return self.index[inverse(tuple(reversed(u)))]

        edges: set[tuple[int, int]] = set()
        for x, y, _ in table.mu_pairs():
            a, b = node_of_base_element(x), node_of_base_element(y)
            for lam, nu in ((a, b), (b, a)):
                if ascent_mask[lam] & descent_mask[nu]:
                    edges.add((lam, nu))

        self.preorder = Preorder(n_nodes, edges)

    def node(self, r: Permutation) -> int:
        return self.index[tuple(r)]

    def leq(self, r_small: Permutation, r_big: Permutation) -> bool:
        """Is the ideal at rank word r_small included in the one at r_big?"""
        return self.preorder.leq(self.node(r_small), self.node(r_big))

    def same_class(self, r1: Permutation, r2: Permutation) -> bool:
        return self.class_id(r1) == self.class_id(r2)

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


def _factor_words(
    labels: Sequence[int], orientation: Literal["left", "right"]
) -> Permutation:
    if orientation == "right":
        labels = tuple(reversed(labels))
    return rank_word(labels)


def ideal_class_invariant(
    labels: Sequence[int], orientation: Literal["left", "right"] = "left"
) -> StandardTableau:
    """Insertion tableau of the longest-representative rank word.

    Two same-orbit label tuples define equal annihilators exactly when
    these tableaux agree (per factor).
    """
    return robinson_schensted(_factor_words(labels, orientation))[0]


def _factor_leq(
    delta: Sequence[int], gamma: Sequence[int],
    orientation: Literal["left", "right"], **kw,
) -> bool:
    if len(delta) <= 1:
        return True
    order = left_preorder(len(delta), **kw)
    return order.leq(_factor_words(delta, orientation), _factor_words(gamma, orientation))


def classical_inclusion(delta: SuperWeight, gamma: SuperWeight, **kw) -> bool:
    """Is Ann L(delta) included in Ann L(gamma) for gl(m)+gl(n)?

    False for different orbits (central-character separation); otherwise
    the conjunction of the factor decisions, each routed through longest
    coset representatives into the regular-orbit preorder.
    """
    if not orbit_equal(delta, gamma):
        return False
    return _factor_leq(delta.left, gamma.left, "left", **kw) and _factor_leq(
        delta.right, gamma.right, "right", **kw
    )


def classical_equal(delta: SuperWeight, gamma: SuperWeight) -> bool:
    """Equality of the two annihilators, via the tableau invariant."""
    return (
        orbit_equal(delta, gamma)
        and _factor_equal(delta.left, gamma.left, "left")
        and _factor_equal(delta.right, gamma.right, "right")
    )


def _factor_equal(
    delta: Sequence[int], gamma: Sequence[int], orientation: Literal["left", "right"]
) -> bool:
    return ideal_class_invariant(delta, orientation) == ideal_class_invariant(gamma, orientation)


def _factor_cover(
    delta: Sequence[int], gamma: Sequence[int],
    orientation: Literal["left", "right"], **kw,
) -> bool:
    """Is the delta-class covered by the gamma-class within their orbit poset?"""
    if len(delta) <= 1:
        return False
    order = left_preorder(len(delta), **kw)
    cd = order.class_id(_factor_words(delta, orientation))
    cg = order.class_id(_factor_words(gamma, orientation))
    classes = order.preorder
    if cd == cg or not classes.class_leq(cd, cg):
        return False
    orbit = {order.class_id(_factor_words(w, orientation)) for w in set(iperm(delta))}
    return not any(
        cz not in (cd, cg) and classes.class_leq(cz, cg) and classes.class_leq(cd, cz)
        for cz in orbit
    )


def classical_cover(delta: SuperWeight, gamma: SuperWeight, **kw) -> bool:
    """Covering relation in the product poset of the two factor orbits."""
    if not classical_inclusion(delta, gamma, **kw):
        return False
    left_eq = _factor_equal(delta.left, gamma.left, "left")
    right_eq = _factor_equal(delta.right, gamma.right, "right")
    if left_eq and right_eq:
        return False
    if left_eq:
        return _factor_cover(delta.right, gamma.right, "right", **kw)
    if right_eq:
        return _factor_cover(delta.left, gamma.left, "left", **kw)
    return False
