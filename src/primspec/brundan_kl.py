"""Canonical bases of mixed tensor spaces and the super left KL order.

The Grothendieck-group model of a block is a weight space of the tensor
space V^(m) x W^(n) over the quantized special linear algebra of a finite
integer interval: V has basis v_a indexed by interval points with
E_i v_{i+1} = v_i, and W is its dual with E_i w_i = w_{i+1}.  Monomials
v_alpha are indexed by label tuples, and a weight space consists of all
tuples with one central-character invariant.

The bar involution is built one tensor factor at a time.  Appending a
factor composes the bar of the prefix with a triangular correction whose
coefficients are iterated q-commutators of Chevalley lowering operators:

    psi(x (x) v_b) = psi(x) (x) v_b + (q^{-1}-q) * sum_{a<b} G_{a,b}(psi(x)) (x) v_a
    psi(x (x) w_b) = psi(x) (x) w_b + (q^{-1}-q) * sum_{c>b} G'_{c,b}(psi(x)) (x) w_c

with G_{b-1,b} = F_{b-1}, G_{a,b} = G_{a+1,b} F_a - q F_a G_{a+1,b}, and
mirrored chains for the dual factor.  The involution and its compatibility
with the quantum group action are verified in the test suite rather than
assumed.

The canonical basis b_beta = sum_alpha d_{alpha,beta}(q) v_alpha is the
unique bar-invariant unitriangular family with off-diagonal entries in
q Z[q]; the Ext^1 pairing between simples is read off the q-linear terms
of d.  The left order on a block is generated, per simple reflection, by
a wall-crossing condition plus nonvanishing of that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Sequence

from .errors import BoundExceededError, InvariantError, PreconditionError
from .laurent import ONE, ZERO, LaurentPolynomial
from .posets import Preorder, topological_order, wall_edges
from .weights import SuperWeight, central_character

__all__ = [
    "TensorWindow",
    "BarInvolution",
    "CanonicalBasisTable",
    "SuperOrder",
    "canonical_basis",
    "mu_super",
    "kl_left_order",
    "DEFAULT_RANK_BOUND",
    "DEFAULT_INTERVAL_BOUND",
]

DEFAULT_RANK_BOUND = 5
DEFAULT_INTERVAL_BOUND = 8

Mono = tuple[int, ...]
Vector = dict[Mono, LaurentPolynomial]

_MINUS_Q = LaurentPolynomial({1: -1})
_CORR = LaurentPolynomial({-1: 1, 1: -1})  # q^-1 - q


@dataclass(frozen=True, slots=True)
class TensorWindow:
    """A finite label interval [lo, hi] with factor shape (m, n)."""

    lo: int
    hi: int
    m: int
    n: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty interval")

    def contains(self, weight: SuperWeight) -> bool:
        return all(self.lo <= x <= self.hi for x in weight.labels)


def _add(vec: Vector, mono: Mono, coeff: LaurentPolynomial) -> None:
    cur = vec.get(mono)
    new = coeff if cur is None else cur + coeff
    if new:
        vec[mono] = new
    elif cur is not None:
        del vec[mono]


class BarInvolution:
    """Bar involution on prefixes of the tensor space of one window.

    Caches are shared across weight spaces; all returned vectors map
    monomials to Laurent polynomials and must not be mutated.
    """

    def __init__(self, window: TensorWindow):
        self.window = window
        self._psi: dict[Mono, Vector] = {}
        self._chain: dict[tuple[int, int, int, Mono], Vector] = {}

    def _is_dual(self, slot: int) -> bool:
        return slot >= self.window.m

    # -- Chevalley action on prefixes ----------------------------------------

    def apply_f(self, i: int, vec: Vector, k: int) -> Vector:
        """F_i on the first k slots (lowering; dual slots twist later factors)."""
        return self._chevalley(i, vec, k, raising=False)

    def apply_e(self, i: int, vec: Vector, k: int) -> Vector:
        """E_i on the first k slots (raising; twists act on earlier factors)."""
        return self._chevalley(i, vec, k, raising=True)

    def _chevalley(self, i: int, vec: Vector, k: int, raising: bool) -> Vector:
        out: Vector = {}
        for mono, coeff in vec.items():
            for j in range(k):
                # label i moves up to i+1 in a V slot under F, in a W slot under E
                up = self._is_dual(j) == raising
                if mono[j] != (i if up else i + 1):
                    continue
                target = mono[:j] + ((i + 1) if up else i,) + mono[j + 1:]
                twist = 0
                for l in range(j) if raising else range(j + 1, k):
                    w = 1 if mono[l] == i else -1 if mono[l] == i + 1 else 0
                    twist += w if self._is_dual(l) != raising else -w
                _add(out, target, coeff.shift(twist))
        return out

    # -- q-commutator chains ---------------------------------------------------

    def _chain_apply(self, kind: int, start: int, end: int, vec: Vector) -> Vector:
        """G_{a,b} (kind 0, a=start, b=end) or G'_{c,b} (kind 1, c=end, b=start)."""
        out: Vector = {}
        for mono, coeff in vec.items():
            cached = self._chain_mono(kind, start, end, mono)
            for tgt, c in cached.items():
                _add(out, tgt, coeff * c)
        return out

    def _chain_mono(self, kind: int, start: int, end: int, mono: Mono) -> Vector:
        key = (kind, start, end, mono)
        hit = self._chain.get(key)
        if hit is not None:
            return hit
        k = len(mono)
        base: Vector = {mono: ONE}
        if end == start + 1:
            result = self.apply_f(start, base, k)
        else:
            if kind == 0:  # G_{start,end}, recursion lowers `start`
                color, inner = start, (start + 1, end)
            else:  # G'_{end,start}, recursion raises `end`
                color, inner = end - 1, (start, end - 1)
            result = self._chain_apply(kind, *inner, self.apply_f(color, base, k))
            f_of_inner = self.apply_f(color, self._chain_mono(kind, *inner, mono), k)
            for tgt, c in f_of_inner.items():
                _add(result, tgt, c * _MINUS_Q)
        self._chain[key] = result
        return result

    # -- the involution ---------------------------------------------------------

    def psi(self, mono: Mono) -> Vector:
        """Image of a monomial under the bar involution (coefficients for
        general vectors conjugate under antilinearity, handled by callers)."""
        hit = self._psi.get(mono)
        if hit is not None:
            return hit
        k = len(mono)
        if k == 1:
            result: Vector = {mono: ONE}
        else:
            prefix, b = mono[:-1], mono[-1]
            inner = self.psi(prefix)
            result = {pm + (b,): c for pm, c in inner.items()}
            slot = k - 1
            if self._is_dual(slot):
                targets = range(b + 1, self.window.hi + 1)
            else:
                targets = range(self.window.lo, b)
            for t in targets:
                if self._is_dual(slot):
                    moved = self._chain_apply(1, b, t, inner)
                else:
                    moved = self._chain_apply(0, t, b, inner)
                for pm, c in moved.items():
                    _add(result, pm + (t,), c * _CORR)
        self._psi[mono] = result
        return result


@cache
def bar_involution(window: TensorWindow) -> BarInvolution:
    return BarInvolution(window)


def _counts_key(mono: Mono, m: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for j, a in enumerate(mono):
        counts[a] = counts.get(a, 0) + (1 if j < m else -1)
    return tuple(sorted((x, c) for x, c in counts.items() if c))


def _weight_space(window: TensorWindow, key) -> list[Mono]:
    out = [
        mono
        for mono in product(range(window.lo, window.hi + 1), repeat=window.m + window.n)
        if _counts_key(mono, window.m) == key
    ]
    return sorted(out)


class CanonicalBasisTable:
    """Transition data between monomial and canonical bases of one weight space."""

    def __init__(self, window: TensorWindow, monos: list[Mono],
                 d_matrix: dict[tuple[int, int], LaurentPolynomial]):
        self.window = window
        self._monos = monos
        self._index = {mono: i for i, mono in enumerate(monos)}
        self._d = d_matrix
        self._p: dict[tuple[int, int], LaurentPolynomial] | None = None

    @property
    def weights(self) -> list[SuperWeight]:
        m = self.window.m
        return [SuperWeight(mono[:m], mono[m:]) for mono in self._monos]

    def _key(self, weight: SuperWeight) -> int:
        mono = weight.labels
        if mono not in self._index:
            raise KeyError(f"{weight} is not in this table's weight space")
        return self._index[mono]

    def d(self, alpha: SuperWeight, beta: SuperWeight) -> LaurentPolynomial:
        """Coefficient of the alpha-monomial in the beta-canonical vector."""
        i, j = self._key(alpha), self._key(beta)
        if i == j:
            return ONE
        return self._d.get((i, j), ZERO)

    def p(self, alpha: SuperWeight, beta: SuperWeight) -> LaurentPolynomial:
        """Inverse transition, sign-twisted: v_alpha = sum p(alpha,beta)(-q) b_beta."""
        if self._p is None:
            self._p = self._invert()
        i, j = self._key(alpha), self._key(beta)
        if i == j:
            return ONE
        return self._p.get((j, i), ZERO).substitute_negated()

    def _invert(self) -> dict[tuple[int, int], LaurentPolynomial]:
        # D = I + N with N nilpotent, so D^{-1} = I - N + N^2 - ...
        n = len(self._monos)
        strict: dict[int, list[tuple[int, LaurentPolynomial]]] = {}
        for (i, j), poly in self._d.items():
            strict.setdefault(j, []).append((i, poly))

        cols: dict[tuple[int, int], LaurentPolynomial] = {}
        for j in range(n):
            acc: dict[int, LaurentPolynomial] = {j: ONE}
            layer: dict[int, LaurentPolynomial] = {j: ONE}
            sign = -1
            while layer:
                nxt: dict[int, LaurentPolynomial] = {}
                for k, coeff in layer.items():
                    for i, nik in strict.get(k, ()):
                        cur = nxt.get(i, ZERO) + nik * coeff
                        if cur:
                            nxt[i] = cur
                        else:
                            nxt.pop(i, None)
                for i, coeff in nxt.items():
                    cur = acc.get(i, ZERO) + coeff * sign
                    if cur:
                        acc[i] = cur
                    else:
                        acc.pop(i, None)
                layer = nxt
                sign = -sign
            for i, val in acc.items():
                if i != j:
                    cols[(i, j)] = val
        return cols

    def mu(self, alpha: SuperWeight, beta: SuperWeight) -> int:
        """dim Ext^1 between the simples: q-linear terms of d both ways."""
        return self.d(alpha, beta).coeff(1) + self.d(beta, alpha).coeff(1)

    def mu_pairs(self) -> Iterable[tuple[SuperWeight, SuperWeight, int]]:
        """All (alpha, beta, mu) with mu != 0; D is unitriangular, so at most
        one of d(alpha, beta) and d(beta, alpha) is nonzero: each pair once."""
        ws = self.weights
        for (i, j), poly in self._d.items():
            if poly.coeff(1):
                yield ws[i], ws[j], poly.coeff(1)

    def to_json_dict(self) -> dict:
        entries = []
        ws = self.weights
        for (i, j), poly in sorted(self._d.items()):
            entries.append(
                {"alpha": str(ws[i]), "beta": str(ws[j]), "d": poly.to_pairs()}
            )
        return {
            "interval": [self.window.lo, self.window.hi],
            "m": self.window.m,
            "n": self.window.n,
            "weights": [str(w) for w in ws],
            "entries": entries,
        }


def _solve_canonical(
    bar: BarInvolution, monos: list[Mono]
) -> dict[tuple[int, int], LaurentPolynomial]:
    """Unitriangular bar-invariant correction with off-diagonals in qZ[q]."""
    index = {mono: i for i, mono in enumerate(monos)}
    n = len(monos)
    # R: conjugated bar matrix, R[j] maps row index -> polynomial
    R: list[dict[int, LaurentPolynomial]] = []
    touched_by: list[list[int]] = [[] for _ in range(n)]  # i -> j whose bar image has i
    for j, mono in enumerate(monos):
        image = bar.psi(mono)
        row: dict[int, LaurentPolynomial] = {}
        for tgt, coeff in image.items():
            if tgt not in index:
                raise PreconditionError(
                    f"bar image leaves the window at {tgt}; enlarge the interval"
                )
            i = index[tgt]
            row[i] = coeff.bar()
        if row.get(j) != ONE:
            raise InvariantError("bar involution must be unitriangular")
        for i in row:
            if i != j:
                touched_by[i].append(j)
        R.append(row)

    # the canonical basis is unique, so every linear extension gives the same D
    order = topological_order(n, touched_by)
    D: dict[tuple[int, int], LaurentPolynomial] = {}
    for pos, j in enumerate(order):
        col_bar = {j: ONE}  # bar of each solved entry of column j
        # rows strictly below j in the linear order, nearest first
        for i in reversed(order[:pos]):
            f = ZERO
            for k, dkj_bar in col_bar.items():
                rik = R[k].get(i)
                if rik is not None:
                    f = f + rik * dkj_bar
            if f.is_zero():
                continue
            # f must be bar-antisymmetric with no constant term
            if f.bar() != -f or f.coeff(0) != 0:
                raise InvariantError("canonical correction failed")
            c = LaurentPolynomial({e: cf for e, cf in f.items() if e > 0})
            if c:
                D[(i, j)] = c
                col_bar[i] = c.bar()
    return D


def canonical_basis(
    block: Iterable[SuperWeight],
    interval: tuple[int, int] | None = None,
    *,
    rank_bound: int = DEFAULT_RANK_BOUND,
    interval_bound: int = DEFAULT_INTERVAL_BOUND,
) -> CanonicalBasisTable:
    """Canonical-basis table of the weight space containing `block`.

    The block must be nonempty with one central character; the default
    interval pads the label range by one on each side.  The table covers
    the whole weight space of the window, which contains the block.
    """
    weights = sorted(set(block), key=lambda w: w.labels)
    if not weights:
        raise PreconditionError("empty block")
    first = weights[0]
    m, n = first.m, first.n
    if m + n > rank_bound:
        raise BoundExceededError("tensor factor count", m + n, rank_bound)
    invariant = central_character(first)
    for w in weights[1:]:
        if (w.m, w.n) != (m, n) or central_character(w) != invariant:
            raise PreconditionError("block weights must share one central character")
    if interval is None:
        labels = [x for w in weights for x in w.labels]
        interval = (min(labels) - 1, max(labels) + 1)
    lo, hi = interval
    if hi - lo + 1 > interval_bound:
        raise BoundExceededError("interval length", hi - lo + 1, interval_bound)
    window = TensorWindow(lo, hi, m, n)
    for w in weights:
        if not window.contains(w):
            raise PreconditionError(f"{w} lies outside the interval {interval}")

    return _table(window, _counts_key(first.labels, m))


@cache
def _table(window: TensorWindow, key: tuple[tuple[int, int], ...]) -> CanonicalBasisTable:
    monos = _weight_space(window, key)
    return CanonicalBasisTable(window, monos, _solve_canonical(bar_involution(window), monos))


def mu_super(alpha: SuperWeight, beta: SuperWeight, table: CanonicalBasisTable) -> int:
    """dim Ext^1(L(alpha), L(beta)) from the table's q-linear coefficients."""
    return table.mu(alpha, beta)


class SuperOrder:
    """The left order on a finite set of block weights.

    Generated per simple reflection by the wall conditions (strictly on
    the wall's negative side for the upper weight, weakly positive for the
    lower) plus nonvanishing Ext^1; closed transitively.  Raises KeyError
    for a weight outside the table's weight space.
    """

    def __init__(self, weights: Sequence[SuperWeight], table: CanonicalBasisTable):
        self.weights = list(weights)
        self._index = {w: i for i, w in enumerate(self.weights)}
        for w in self.weights:
            table._key(w)
        masks = [_wall_mask(w) for w in self.weights]
        pairs = [
            (self._index[alpha], self._index[beta])
            for alpha, beta, _ in table.mu_pairs()
            if alpha in self._index and beta in self._index
        ]
        self.preorder = Preorder(len(self.weights), wall_edges(masks, pairs))

    def leq(self, beta: SuperWeight, alpha: SuperWeight) -> bool:
        """beta below-or-equivalent-to alpha in the left order."""
        return self.preorder.leq(self._index[beta], self._index[alpha])

    def same_class(self, a: SuperWeight, b: SuperWeight) -> bool:
        classes = self.preorder
        return classes.class_id(self._index[a]) == classes.class_id(self._index[b])

    def relations(self) -> set[tuple[SuperWeight, SuperWeight]]:
        """All (beta, alpha) pairs with beta strictly below alpha."""
        out = set()
        for a in self.weights:
            for b in self.weights:
                if a != b and self.leq(b, a) and not self.same_class(a, b):
                    out.add((b, a))
        return out


def _wall_mask(weight: SuperWeight) -> int:
    """Bit p for a strict descent of the left labels at p, bit m+j for a
    strict ascent of the right labels at j: the walls the weight is
    strictly on the negative side of."""
    m, left, right = weight.m, weight.left, weight.right
    return sum(1 << p for p in range(m - 1) if left[p] > left[p + 1]) + sum(
        1 << (m + j) for j in range(weight.n - 1) if right[j] < right[j + 1]
    )


def kl_left_order(
    block: Iterable[SuperWeight],
    table: CanonicalBasisTable | None = None,
    **table_kwargs,
) -> SuperOrder:
    """The left order on the given block weights (table built if needed)."""
    weights = sorted(set(block), key=lambda w: w.labels)
    if table is None:
        table = canonical_basis(weights, **table_kwargs)
    return SuperOrder(weights, table)
