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
from itertools import product
from typing import Iterable, Sequence

from .errors import BoundExceededError, PreconditionError
from .laurent import ONE, ZERO, LaurentPolynomial
from .posets import Preorder
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

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, weight: SuperWeight) -> bool:
        return all(self.lo <= x <= self.hi for x in weight.labels)

    def enlarged(self, pad: int) -> "TensorWindow":
        return TensorWindow(self.lo - pad, self.hi + pad, self.m, self.n)


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
        out: Vector = {}
        for mono, coeff in vec.items():
            for j in range(k):
                a = mono[j]
                if self._is_dual(j):
                    if a != i + 1:
                        continue
                    target = mono[:j] + (i,) + mono[j + 1:]
                else:
                    if a != i:
                        continue
                    target = mono[:j] + (i + 1,) + mono[j + 1:]
                twist = 0
                for l in range(j + 1, k):
                    w = 1 if mono[l] == i else -1 if mono[l] == i + 1 else 0
                    twist += w if self._is_dual(l) else -w
                _add(out, target, coeff.shift(twist))
        return out

    def apply_e(self, i: int, vec: Vector, k: int) -> Vector:
        """E_i on the first k slots (raising; twists act on earlier factors)."""
        out: Vector = {}
        for mono, coeff in vec.items():
            for j in range(k):
                a = mono[j]
                if self._is_dual(j):
                    if a != i:
                        continue
                    target = mono[:j] + (i + 1,) + mono[j + 1:]
                else:
                    if a != i + 1:
                        continue
                    target = mono[:j] + (i,) + mono[j + 1:]
                twist = 0
                for l in range(j):
                    w = 1 if mono[l] == i else -1 if mono[l] == i + 1 else 0
                    twist += -w if self._is_dual(l) else w
                _add(out, target, coeff.shift(twist))
        return out

    def weight_exponent(self, mono: Mono, i: int) -> int:
        """Exponent of the K_i eigenvalue on a monomial."""
        total = 0
        for j, a in enumerate(mono):
            w = 1 if a == i else -1 if a == i + 1 else 0
            total += -w if self._is_dual(j) else w
        return total

    # -- q-commutator chains ---------------------------------------------------

    def _chain_apply(self, kind: int, start: int, end: int, vec: Vector, k: int) -> Vector:
        """G_{a,b} (kind 0, a=start, b=end) or G'_{c,b} (kind 1, c=end, b=start)."""
        out: Vector = {}
        for mono, coeff in vec.items():
            cached = self._chain_mono(kind, start, end, mono, k)
            for tgt, c in cached.items():
                _add(out, tgt, coeff * c)
        return out

    def _chain_mono(self, kind: int, start: int, end: int, mono: Mono, k: int) -> Vector:
        key = (kind, start, end, mono)
        hit = self._chain.get(key)
        if hit is not None:
            return hit
        base: Vector = {mono: ONE}
        if kind == 0:  # G_{start,end}, recursion lowers `start`
            if start == end - 1:
                result = self.apply_f(start, base, k)
            else:
                inner_of_f = self._chain_apply(0, start + 1, end, self.apply_f(start, base, k), k)
                f_of_inner = self.apply_f(start, self._chain_mono(0, start + 1, end, mono, k), k)
                result = inner_of_f
                for tgt, c in f_of_inner.items():
                    _add(result, tgt, c * _MINUS_Q)
        else:  # G'_{end,start}, recursion raises `end`
            if end == start + 1:
                result = self.apply_f(start, base, k)
            else:
                chain_of_f = self._chain_apply(
                    1, start, end - 1, self.apply_f(end - 1, base, k), k
                )
                f_of_chain = self.apply_f(
                    end - 1, self._chain_mono(1, start, end - 1, mono, k), k
                )
                result = chain_of_f
                for tgt, c in f_of_chain.items():
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
                    moved = self._chain_apply(1, b, t, inner, k - 1)
                else:
                    moved = self._chain_apply(0, t, b, inner, k - 1)
                for pm, c in moved.items():
                    _add(result, pm + (t,), c * _CORR)
        self._psi[mono] = result
        return result


_bar_registry: dict[TensorWindow, BarInvolution] = {}


def bar_involution(window: TensorWindow) -> BarInvolution:
    bar = _bar_registry.get(window)
    if bar is None:
        bar = _bar_registry[window] = BarInvolution(window)
    return bar


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
    edges = []
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
        assert row.get(j) == ONE, "bar involution must be unitriangular"
        for i in row:
            if i != j:
                edges.append((j, i))
        R.append(row)

    order = _linearize(n, edges)
    pos = {node: k for k, node in enumerate(order)}
    D: dict[tuple[int, int], LaurentPolynomial] = {}
    col: dict[int, LaurentPolynomial] = {}
    for j in order:
        col = {j: ONE}
        # rows strictly below j in the linear order, nearest first
        below = sorted((i for i in range(n) if pos[i] < pos[j]), key=lambda i: -pos[i])
        for i in below:
            f = ZERO
            for k, dkj in col.items():
                rik = R[k].get(i) if k != i else None
                if k == i:
                    continue
                if rik is not None:
                    f = f + rik * dkj.bar()
            if f.is_zero():
                continue
            # f must be bar-antisymmetric with no constant term
            assert f.bar() == -f and f.coeff(0) == 0, "canonical correction failed"
            c = LaurentPolynomial({e: cf for e, cf in f.items() if e > 0})
            if c:
                col[i] = c
        for i, poly in col.items():
            if i != j:
                D[(i, j)] = poly
    return D


def _linearize(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Topological order with bar-fixed monomials first.

    An edge a -> b records that the bar image of monomial a touches
    monomial b, so b must precede a.
    """
    from heapq import heapify, heappop, heappush

    deps: list[set[int]] = [set() for _ in range(n)]
    rdeps: dict[int, list[int]] = {}
    for a, b in edges:
        if b not in deps[a]:
            deps[a].add(b)
            rdeps.setdefault(b, []).append(a)
    remaining = [len(d) for d in deps]
    waiting = [i for i in range(n) if remaining[i] == 0]
    heapify(waiting)
    order: list[int] = []
    while waiting:
        node = heappop(waiting)
        order.append(node)
        for parent in rdeps.get(node, ()):
            remaining[parent] -= 1
            if remaining[parent] == 0:
                heappush(waiting, parent)
    if len(order) != n:
        raise PreconditionError("bar involution support is not acyclic")
    return order


_table_registry: dict[tuple, CanonicalBasisTable] = {}


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

    key = (window, _counts_key(first.labels, m))
    table = _table_registry.get(key)
    if table is None:
        monos = _weight_space(window, _counts_key(first.labels, m))
        d_matrix = _solve_canonical(bar_involution(window), monos)
        table = CanonicalBasisTable(window, monos, d_matrix)
        _table_registry[key] = table
    return table


def mu_super(alpha: SuperWeight, beta: SuperWeight, table: CanonicalBasisTable) -> int:
    """dim Ext^1(L(alpha), L(beta)) from the table's q-linear coefficients."""
    return table.mu(alpha, beta)


class SuperOrder:
    """The left order on a finite set of block weights.

    Generated per simple reflection by the wall conditions (strictly on
    the wall's negative side for the upper weight, weakly positive for the
    lower) plus nonvanishing Ext^1; closed transitively.
    """

    def __init__(self, weights: Sequence[SuperWeight], table: CanonicalBasisTable):
        self.weights = list(weights)
        self._index = {w: i for i, w in enumerate(self.weights)}
        m, n = self.weights[0].m, self.weights[0].n
        edges = set()
        for ia, alpha in enumerate(self.weights):
            for ib, beta in enumerate(self.weights):
                if ia == ib:
                    continue
                if not self._wall_condition(alpha, beta, m, n):
                    continue
                if table.mu(alpha, beta):
                    edges.add((ia, ib))  # beta below alpha
        self.preorder = Preorder(len(self.weights), edges)

    @staticmethod
    def _wall_condition(alpha: SuperWeight, beta: SuperWeight, m: int, n: int) -> bool:
        for p in range(m - 1):
            if alpha.left[p] > alpha.left[p + 1] and beta.left[p] <= beta.left[p + 1]:
                return True
        for j in range(n - 1):
            if alpha.right[j] < alpha.right[j + 1] and beta.right[j] >= beta.right[j + 1]:
                return True
        return False

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
