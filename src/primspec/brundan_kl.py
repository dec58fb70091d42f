"""Canonical bases of mixed tensor spaces and the super left KL order.

The Grothendieck-group model of a block is a weight space of the tensor
space V^(m) x W^(n) over the quantized special linear algebra of a finite
integer interval: V has basis v_a indexed by interval points with
E_i v_{i+1} = v_i, and W is its dual with E_i w_i = w_{i+1}.  Monomials
v_alpha are indexed by label tuples, and a weight space consists of all
tuples with one central-character invariant.

The bar involution is built one tensor factor at a time on the orbit
representatives of S_m x S_n, the monomials whose V labels weakly decrease
and whose W labels weakly increase; every prefix of one is one too.
Appending a factor composes the bar of the prefix with a triangular
correction whose coefficients are iterated q-commutators of Chevalley
lowering operators.  V factors take none: appending v_b adds terms
G_{a,b}(psi(x)) (x) v_a for a < b, with G_{a,b} built from F_a, ...,
F_{b-1}, and the V labels of a representative x (x) v_b are all at least
b, so no F_i with i < b moves one; by induction psi(x (x) v_b) = x (x) v_b.
On a W factor,

    psi(x (x) w_b) = psi(x) (x) w_b + (q^{-1}-q) * sum_{c>b} G'_{c,b}(psi(x)) (x) w_c

with G'_{b+1,b} = F_b and G'_{c,b} = G'_{c-1,b} F_{c-1} - q F_{c-1} G'_{c-1,b}.
Every other monomial is one Hecke step from a monomial nearer its
representative.  The Hecke generator H_p acts on two adjacent factors of
one type, and psi(x H_p) = psi(x) H_p^-1 (Frenkel, Khovanov and Kirillov,
Transform. Groups 3 (1998); Brundan, J. Amer. Math. Soc. 16 (2003)).
H_p^-1 takes a monomial u with labels (x, y) at slots (p, p+1) to q^-1 u
if x = y, to swap(u) + (q^-1 - q) u if x > y in V or x < y in W, and to
swap(u) otherwise.  So a monomial with a V ascent or a W descent at p is
swapped H_p, and its image is psi(swapped) H_p^-1.  The involution, its
compatibility with the quantum group and Hecke actions, and the agreement
of the two routes are verified in the test suite rather than assumed.

The canonical basis b_beta = sum_alpha d_{alpha,beta}(q) v_alpha is the
unique bar-invariant unitriangular family with off-diagonal entries in
q Z[q].  The Ext^1 pairing between simples is read off the q-linear terms
of d, and the left order on a block is generated, per simple reflection,
by a wall-crossing condition plus nonvanishing of that pairing.

The columns of D go in a label order psi is triangular in.  Only an orbit
representative's column is solved from psi.  Every other column u is one
Hecke step from the column of u', u with the slots psi steps at swapped:
b_u = b_u' (H_p + q) - sum_t mu_t b_t, mu_t the constant terms the
product leaves (the parabolic KL recursion of Deodhar, J. Algebra 111
(1987)).  The solve reads bar invariance as sum_k r_ik d_kj = d_ij at
q^-1, psi's coefficients conjugated, so its H_p is the conjugate of the
one above: q^-1 t on equal labels, swap(t) on a V descent or W ascent,
and swap(t) + (q^-1 - q) t otherwise.  The test suite checks the
recursion against the solve from psi on every column.

Coefficients are packed (Kronecker substitution): sum_e c_e q^e is the int
sum_e c_e 2^(BITS (e + offset)), with balanced digits in [-H, H), H =
2^(BITS-1).  Sums are int sums, q^k is a shift by k digits, and a product
is one int multiply and an exact right shift by the offset.  The bar
involution on k factors packs at offset k(k-1)/2, the length of the
longest permutation of k letters and the lowest exponent its coefficients
reach in every window tried; D, in Z[q], packs at offset 0.
`LaurentPolynomial` appears only where a table is read.  InvariantError
is raised when a right shift would drop a nonzero digit (an exponent below
the offset; a fused shift tests every digit its parts would), when a stored
bar coefficient has a digit outside [-2^8, 2^8) or one past 64 digits above
the offset, and when a sum of products could carry a digit to H: stored
digits of magnitude at most 2^8 bound a q-commutator sum of n terms with
first factors of L1 norm at most l by n l 2^8, doubled by the (q^-1 - q)
step, and a column of the solve by 2^8 times the L1 norms of its solved
entries; when psi is not triangular in the label order; and when a Hecke
step leaves a diagonal other than 1 or a constant term off it, or its
columns' digit bounds could reach H.

Nothing is cached across calls: each `canonical_basis` call builds its
own bar involution, with its caches of psi and of each chain, and drops it
on return.  psi is read, and cached, only for the representatives, the rows
their solves reach and what those are built from.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BoundExceededError, InvariantError, PreconditionError
from .laurent import ONE, LaurentPolynomial
from .posets import Preorder, wall_edges
from .weights import SuperWeight, _Frozen, _weight, central_character

__all__ = [
    "TensorWindow",
    "BarInvolution",
    "CanonicalBasisTable",
    "SuperOrder",
    "canonical_basis",
    "kl_left_order",
    "unpack",
    "DEFAULT_RANK_BOUND",
    "DEFAULT_INTERVAL_BOUND",
]

DEFAULT_RANK_BOUND = 5
DEFAULT_INTERVAL_BOUND = 8

BITS = 40  # digit width of a packed polynomial
_MASK = (1 << BITS) - 1
_HALF = 1 << (BITS - 1)
_CAP = 1 << 8  # stored bar coefficients have digits in [-_CAP, _CAP) ...
_SPAN = 64  # ... and at most this many digits above the offset

Mono = tuple[int, ...]
Vector = dict[Mono, int]  # monomial -> packed coefficient


def _down(x: int, digits: int) -> int:
    """x times q^-digits, refusing to drop a nonzero digit."""
    if x & ((1 << (BITS * digits)) - 1):
        raise InvariantError("exponent below the packing offset")
    return x >> (BITS * digits)


def _digits(x: int, offset: int = 0) -> Iterator[tuple[int, int]]:
    """(exponent, coefficient) of each nonzero digit of x, lowest first."""
    while x:
        p = ((x & -x).bit_length() - 1) // BITS  # skip the zero low digits
        c = (((x >> (BITS * p)) + _HALF) & _MASK) - _HALF
        yield p - offset, c
        x -= c << (BITS * p)


def unpack(x: int, offset: int = 0) -> LaurentPolynomial:
    """The Laurent polynomial packed in x."""
    return LaurentPolynomial(dict(_digits(x, offset)))


def _q_digit(x: int) -> int:
    """The coefficient of q in x, an entry of D: D is in qZ[q], so the q^0
    digit is zero and lends nothing to the q digit."""
    return (((x >> BITS) + _HALF) & _MASK) - _HALF


class TensorWindow(_Frozen):
    """A finite label interval [lo, hi] with factor shape (m, n)."""

    __slots__ = _compared = ("lo", "hi", "m", "n")
    lo: int
    hi: int
    m: int
    n: int

    def __init__(self, lo: int, hi: int, m: int, n: int):
        if hi < lo:
            raise ValueError("empty interval")
        for name, value in zip(self.__slots__, (lo, hi, m, n)):
            object.__setattr__(self, name, value)

    def contains(self, weight: SuperWeight) -> bool:
        return all(self.lo <= x <= self.hi for x in weight.labels)


class BarInvolution:
    """Bar involution on prefixes of the tensor space of one window.

    Coefficients are packed at `offset` (`unpack(x, bar.offset)` reads
    one); `one` is the packed unit.  Returned vectors must not be mutated.
    """

    def __init__(self, window: TensorWindow):
        self.window = window
        k = window.m + window.n
        self.offset = k * (k - 1) // 2
        self.one = 1 << (BITS * self.offset)
        # every digit biased by _CAP lands in [0, 2 _CAP) iff it was in range
        span = range(self.offset + _SPAN)
        self._bias = sum(_CAP << (BITS * p) for p in span)
        self._outside = ~sum((2 * _CAP - 1) << (BITS * p) for p in span)
        self._dual = tuple(slot >= window.m for slot in range(k))
        self._psi: dict[Mono, Vector] = {}
        self._chain: dict[tuple[int, int], dict[Mono, Vector]] = {}  # (b, c) -> G'_{c,b}

    def _stored(self, vec: Vector) -> Vector:
        """vec, after the headroom check every cached coefficient passes."""
        for x in vec.values():
            if (x + self._bias) & self._outside:
                raise InvariantError("a bar coefficient outgrew the packing headroom")
        return vec

    def _moves(self, i: int, mono: Mono) -> list[tuple[Mono, int]]:
        """(target, q-power) of each term of F_i on a unit monomial."""
        dual, k, out = self._dual, len(mono), []
        for j in range(k):
            # label i moves up to i+1 in a V slot, i+1 down to i in a W slot
            up = not dual[j]
            if mono[j] != (i if up else i + 1):
                continue
            twist = 0
            for l in range(j + 1, k):
                w = 1 if mono[l] == i else -1 if mono[l] == i + 1 else 0
                twist += w if dual[l] else -w
            out.append((mono[:j] + ((i + 1) if up else i,) + mono[j + 1:], twist))
        return out

    # -- q-commutator chains ---------------------------------------------------

    def _chain_mono(self, b: int, c: int, mono: Mono) -> Vector:
        """G'_{c,b} on a unit monomial."""
        cache = self._chain.setdefault((b, c), {})
        hit = cache.get(mono)
        if hit is not None:
            return hit
        off = self.offset  # a twist on k slots is at least 1 - k >= -off
        if c == b + 1:
            result = {tgt: 1 << (BITS * (off + tw)) for tgt, tw in self._moves(b, mono)}
        else:
            result = {}  # G'_{c-1,b}(F_{c-1} v), where F v is a sum of q^twist v'
            for mid, twist in self._moves(c - 1, mono):
                for tgt, x in self._chain_mono(b, c - 1, mid).items():
                    result[tgt] = result.get(tgt, 0) + (x << (BITS * (off + twist)))
            result = {tgt: _down(x, off) for tgt, x in result.items() if x}
            # - q F_{c-1}(G'_{c-1,b} v): the twist and the factor q in one shift
            for mid, x in self._chain_mono(b, c - 1, mono).items():
                for tgt, twist in self._moves(c - 1, mid):
                    y = x << (BITS * (twist + 1)) if twist >= 0 else _down(x, -twist) << BITS
                    result[tgt] = result.get(tgt, 0) - y
            result = {tgt: x for tgt, x in result.items() if x}
        cache[mono] = self._stored(result)
        return result

    # -- the involution ---------------------------------------------------------

    def psi(self, mono: Mono) -> Vector:
        """Image of a monomial under the bar involution (coefficients for
        general vectors conjugate under antilinearity, handled by callers)."""
        hit = self._psi.get(mono)
        if hit is not None:
            return hit
        dual = self._dual
        for p in range(len(mono) - 1):
            x, y = mono[p], mono[p + 1]
            # a V ascent or a W descent, on two slots of one type
            if x != y and dual[p] == dual[p + 1] and (x < y) != dual[p]:
                result = self._hecke_step(mono, p)
                break
        else:
            result = self._appended(mono)
        self._psi[mono] = self._stored(result)
        return result

    def _hecke_step(self, mono: Mono, p: int) -> Vector:
        """psi(mono) as psi(swapped) H_p^-1 (module docstring), swapped being
        mono with slots p and p+1 exchanged.  The terms are summed one digit
        up, so q^-1 drops no digit unseen."""
        dual = self._dual[p]
        out: Vector = {}
        for u, c in self.psi(mono[:p] + (mono[p + 1], mono[p]) + mono[p + 2:]).items():
            x, y = u[p], u[p + 1]
            if x == y:
                out[u] = out.get(u, 0) + c
                continue
            swapped = u[:p] + (y, x) + u[p + 2:]
            out[swapped] = out.get(swapped, 0) + (c << BITS)
            if (x > y) != dual:  # a V descent or a W ascent
                out[u] = out.get(u, 0) + c - (c << (2 * BITS))
        return {u: _down(x, 1) for u, x in out.items() if x}

    def _appended(self, mono: Mono) -> Vector:
        """psi(mono) from psi of its prefix and the q-commutator chains of
        its last label (mono is a representative, and so is its prefix)."""
        if len(mono) <= self.window.m:  # V slots only: its own image
            return {mono: self.one}
        prefix, b = mono[:-1], mono[-1]
        inner = self.psi(prefix)
        result = {pm + (b,): x for pm, x in inner.items()}
        news = range(b + 1, self.window.hi + 1)
        # a chain coefficient's stored digits bound its L1 norm
        if news and 2 * len(inner) * (self.offset + _SPAN) * _CAP * _CAP >= _HALF:
            raise InvariantError("packed digits could overflow")
        # (q^-1 - q) x q^-off is two shifts of x, whose low off+1 digits are zero
        low, up = (1 << (BITS * (self.offset + 1))) - 1, BITS * (self.offset + 1)
        for c in news:  # c is the new last label
            out: Vector = {}
            for pm, coeff in inner.items():
                for tgt, y in self._chain_mono(b, c, pm).items():
                    out[tgt] = out.get(tgt, 0) + coeff * y
            for pm, x in out.items():
                if x:
                    if x & low:
                        raise InvariantError("exponent below the packing offset")
                    result[pm + (c,)] = (x >> up) - (x >> (up - 2 * BITS))
        return result


def _weight_space(window: TensorWindow, invariant) -> list[Mono]:
    """The monomials of the window with this central character, sorted.

    The right labels' multiset fixes the left one, the central character
    plus the right counts, which must be nonnegative everywhere.  So each
    multiset of the window's labels is tested once, and a kept one gives
    every distinct arrangement of its right labels after every distinct
    arrangement of its left ones."""
    out = []
    for right in combinations_with_replacement(range(window.lo, window.hi + 1), window.n):
        counts = dict(invariant)
        for a in right:
            counts[a] = counts.get(a, 0) + 1
        if min(counts.values(), default=0) < 0:
            continue
        left = [a for a, c in counts.items() for _ in range(c)]
        rights = set(permutations(right))
        out.extend(p + r for p in set(permutations(left)) for r in rights)
    return sorted(out)


class CanonicalBasisTable:
    """Transition data between monomial and canonical bases of one weight space."""

    def __init__(
        self, window: TensorWindow, monos: list[Mono], d_matrix: dict[tuple[int, int], int]
    ):
        self.window = window
        self._index = {mono: i for i, mono in enumerate(monos)}
        self._d = d_matrix  # packed at offset 0
        m = window.m
        self._weights = [_weight(mono[:m], mono[m:]) for mono in monos]

    @property
    def weights(self) -> list[SuperWeight]:
        return list(self._weights)

    def _key(self, weight: SuperWeight) -> int:
        """The table position of a weight of the table's weight space."""
        i = self._index.get(weight.labels)
        if i is None or len(weight.left) != self.window.m:
            raise KeyError(f"{weight} is not in this table's weight space")
        return i

    def d(self, alpha: SuperWeight, beta: SuperWeight) -> LaurentPolynomial:
        """Coefficient of the alpha-monomial in the beta-canonical vector."""
        i, j = self._key(alpha), self._key(beta)
        if i == j:
            return ONE
        return unpack(self._d.get((i, j), 0))

    def mu(self, alpha: SuperWeight, beta: SuperWeight) -> int:
        """dim Ext^1 between the simples: q-linear terms of d both ways."""
        i, j = self._key(alpha), self._key(beta)
        return _q_digit(self._d.get((i, j), 0)) + _q_digit(self._d.get((j, i), 0))

    def _mu_positions(self) -> Iterator[tuple[int, int, int]]:
        """(i, j, mu) on table positions for each pair with mu != 0; D is
        unitriangular, so at most one of d_ij and d_ji is nonzero: each pair
        once."""
        for (i, j), x in self._d.items():
            if c := _q_digit(x):
                yield i, j, c

    def mu_pairs(self) -> Iterable[tuple[SuperWeight, SuperWeight, int]]:
        """All (alpha, beta, mu) with mu != 0, each pair once."""
        ws = self._weights
        for i, j, c in self._mu_positions():
            yield ws[i], ws[j], c

    def to_json_dict(self) -> dict:
        names = [str(w) for w in self._weights]
        entries = [
            {"alpha": names[i], "beta": names[j], "d": [list(t) for t in _digits(x)]}
            for (i, j), x in sorted(self._d.items())
        ]
        return {
            "interval": [self.window.lo, self.window.hi],
            "m": self.window.m,
            "n": self.window.n,
            "weights": names,
            "entries": entries,
        }


def _solve_canonical(bar: BarInvolution, monos: list[Mono]) -> dict[tuple[int, int], int]:
    """Unitriangular bar-invariant correction with off-diagonals in qZ[q],
    keyed by (row, column) indices into `monos`.

    Columns go in the label order: slot by slot, V labels descending, then
    W labels ascending.  psi(v_u) - v_u has terms v_t with t below u in the
    Bruhat order (Brundan 2003): where t first differs from u, labels a in
    u and b in t, u's prefix weight exceeds t's by eps_a - eps_b (V slot,
    so a < b) or eps_b - eps_a (W slot, so b < a).  D is unique, so any
    linear extension gives this D.

    An orbit representative's column is solved from psi (`_walk_column`);
    every other column is one Hecke step from an earlier one
    (`_hecke_column`).  psi of a monomial is read once, and only when a
    representative's solve reaches it.  Each column carries a bound on the
    digits of its entries, which the Hecke steps check.
    """
    m, off = bar.window.m, bar.offset
    order = sorted(monos, key=lambda u: ([-a for a in u[:m]], u[m:]))
    pos = {mono: i for i, mono in enumerate(order)}  # psi and swaps keep the weight space
    # position of each monomial with slots p and p+1 exchanged, p+1 of p's type
    swaps = {
        p: [pos[u[:p] + (u[p + 1], u[p]) + u[p + 2:]] for u in order]
        for p in range(len(order[0]) - 1) if p != m - 1
    }
    rows: dict[int, list[tuple[int, int]]] = {}  # i -> (t, r_ti) for t != i, read on demand

    def row(i: int) -> list[tuple[int, int]]:
        out = rows.get(i)
        if out is None:
            image = bar.psi(order[i])
            if image.get(order[i]) != bar.one:
                raise InvariantError("bar involution must be unitriangular")
            out = rows[i] = [(pos[t], x) for t, x in image.items() if t != order[i]]
        return out

    cols: list[dict[int, int]] = []  # j -> {i: d_ij}, positions in the label order
    bounds: list[int] = []  # j -> a bound on every digit of column j, d_jj = 1 included
    for j in range(len(order)):
        # the first V ascent or W descent, the slot pair psi steps at
        p = next((p for p, swap in swaps.items() if swap[j] < j), None)
        if p is not None:
            col, bound = _hecke_column(cols, bounds, swaps[p], j)
        else:
            col, bound = _walk_column(row, j, off)
        cols.append(col)
        bounds.append(bound)
    index = {mono: i for i, mono in enumerate(monos)}
    at = [index[mono] for mono in order]
    return {(at[i], at[j]): d for j, col in enumerate(cols) for i, d in col.items()}


def _walk_column(
    row: Callable[[int], list[tuple[int, int]]], j: int, off: int
) -> tuple[dict[int, int], int]:
    """Column j of a representative, solved from psi, and its digit bound.

    `row(i)` gives psi(v_i)'s off-diagonal terms (t, r_ti), packed at
    offset `off`.  With psi(v_k) = sum_i r_ik v_i and b_j = sum_k d_kj v_k,
    bar invariance asks that g_ij = sum_k r_ik d_kj (over the solved k) be
    antisymmetric under q -> q^-1 with no constant term; d_ij is then the
    part of g_ij below q^0, reflected.  g stays packed at the bar's offset,
    since d is in Z[q], so no product is shifted.  The walk visits the rows
    before j, nearest first, and reads a row once a nonzero g reaches it; a
    psi term out of the label order is refused.  The bound is the sum of
    the entries' L1 norms, d_jj = 1 included.
    """
    low = (1 << (BITS * off)) - 1
    bias = sum(_HALF << (BITS * p) for p in range(off))  # balances the digits below q^0
    g_of = dict(row(j))  # row -> g, scattered from each solved entry
    col, norms = {}, 1
    for i in range(j - 1, -1, -1):
        if not g_of:  # psi(v_i) touches only rows before i: nothing more can appear
            break
        g = g_of.pop(i, 0)
        if not g:
            continue
        below = ((g + bias) & low) - bias
        d = (below - g) >> (BITS * off)  # -(the part from q^0 up), at offset 0
        reflected = norm = 0
        for e, c in _digits(below, off):
            reflected += c << (BITS * -e)
            norm += abs(c)
        if d != reflected:
            raise InvariantError("canonical correction failed")
        col[i] = d
        norms += norm
        if norms * _CAP >= _HALF:
            raise InvariantError("packed digits could overflow")
        for t, x in row(i):
            g_of[t] = g_of.get(t, 0) + x * d
    if g_of:  # a row at or after j: some psi term is not before its monomial
        raise InvariantError("bar involution is not triangular in the label order")
    return col, norms


def _hecke_column(
    cols: list[dict[int, int]], bounds: list[int], swap: list[int], j: int
) -> tuple[dict[int, int], int]:
    """Column j and its digit bound, from column u' = swap[j] < j:

        b_j = b_u' (H_p + q) - sum_t mu_t b_t

    with mu_t the constant term the product leaves at t != j, every b_t
    before j.  On a monomial t with s = swap[t], t (H_p + q) is
    (q + q^-1) t if s = t (equal labels), s + q t if s follows t (a V
    descent or W ascent at p) and s + q^-1 t otherwise.  The product is in
    Z[q] with diagonal 1, and the corrections clear its constant terms; a
    column left otherwise is refused.
    """
    src = swap[j]
    out: dict[int, int] = {}
    for t, d in (*cols[src].items(), (src, 1)):
        s = swap[t]
        if s == t:
            out[t] = out.get(t, 0) + (d << BITS) + _down(d, 1)
            continue
        out[s] = out.get(s, 0) + d
        out[t] = out.get(t, 0) + ((d << BITS) if s > t else _down(d, 1))
    if out.pop(j, 0) != 1:
        raise InvariantError("the Hecke step's diagonal is not 1")
    bound = 2 * bounds[src]  # q^k d_t + d_s, or (q + q^-1) d_t
    corrections = []
    for t, x in out.items():
        mu = ((x + _HALF) & _MASK) - _HALF
        if mu and t < j:
            corrections.append((t, mu))
            bound += abs(mu) * bounds[t]
    if bound >= _HALF:
        raise InvariantError("a Hecke step's digits could overflow")
    for t, mu in corrections:
        out[t] -= mu
        for i, d in cols[t].items():
            out[i] = out.get(i, 0) - mu * d
    col = {}
    for t, x in out.items():
        if x & _MASK:
            raise InvariantError("a constant term survives the Hecke step")
        if x:
            col[t] = x
    return col, bound


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
    if hi < lo:
        raise PreconditionError(f"the interval {interval} is empty")
    if hi - lo + 1 > interval_bound:
        raise BoundExceededError("interval length", hi - lo + 1, interval_bound)
    window = TensorWindow(lo, hi, m, n)
    for w in weights:
        if not window.contains(w):
            raise PreconditionError(f"{w} lies outside the interval {interval}")

    monos = _weight_space(window, invariant)
    return CanonicalBasisTable(window, monos, _solve_canonical(BarInvolution(window), monos))


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
        node = {table._key(w): i for i, w in enumerate(self.weights)}  # table position -> node
        masks = [_wall_mask(w) for w in self.weights]
        partners: list[list[int]] = [[] for _ in self.weights]
        for i, j, _ in table._mu_positions():
            if i in node and j in node:
                partners[node[i]].append(node[j])
        self.preorder = Preorder(len(self.weights), wall_edges(masks, enumerate(partners)))

    def leq(self, beta: SuperWeight, alpha: SuperWeight) -> bool:
        """beta below-or-equivalent-to alpha in the left order."""
        return self.preorder.leq(self._index[beta], self._index[alpha])

    def relations(self) -> set[tuple[SuperWeight, SuperWeight]]:
        """All (beta, alpha) pairs with beta strictly below alpha."""
        ws = self.weights
        return {(ws[b], ws[a]) for b, a in self.preorder.strict_pairs()}


def _wall_mask(weight: SuperWeight) -> int:
    """Bit p for a strict descent of the left labels at p, bit m+j for a
    strict ascent of the right labels at j: the walls the weight is
    strictly on the negative side of."""
    m, left, right = weight.m, weight.left, weight.right
    return sum(1 << p for p in range(m - 1) if left[p] > left[p + 1]) + sum(
        1 << (m + j) for j in range(weight.n - 1) if right[j] < right[j + 1]
    )


def kl_left_order(block: Iterable[SuperWeight], table: CanonicalBasisTable) -> SuperOrder:
    """The left order on the given block weights, read from `table`, a
    canonical basis of a weight space that contains them."""
    return SuperOrder(sorted(set(block), key=lambda w: w.labels), table)
