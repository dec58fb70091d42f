import hashlib
import json
import re
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from primspec import brundan_kl
from primspec.aug_poset import IdealPoset
from primspec.brundan_kl import (
    BITS,
    BarInvolution,
    TensorWindow,
    _hecke_column,
    _solve_canonical,
    _weight_space,
    canonical_basis,
    kl_left_order,
    unpack,
)
from primspec.errors import BoundExceededError, InvariantError, PreconditionError
from primspec.kl_classical import kl_table, left_preorder
from primspec.laurent import ONE, ZERO, LaurentPolynomial
from primspec.posets import transitive_reduction
from primspec.super_inclusion import inclusion
from primspec.tableaux import rank_word
from primspec.weights import SuperWeight, atypicality_degree, central_character
from oracles import apply_e, apply_f, bruhat_leq, inversions, solve_canonical

W = SuperWeight.parse


def _decoded(bar, vec):
    """A vector of `bar` with its packed coefficients unpacked."""
    return {mono: unpack(x, bar.offset) for mono, x in vec.items()}


def _bar(p):
    """p with q -> q^-1."""
    return LaurentPolynomial({-e: c for e, c in p.to_pairs()})


def _add(a, b):
    out = dict(a.to_pairs())
    for e, c in b.to_pairs():
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def _psi_vector(bar, vec):
    """psi of a vector with unpacked coefficients (antilinear)."""
    out = {}
    for mono, coeff in vec.items():
        for target, c in _decoded(bar, bar.psi(mono)).items():
            cur = out.get(target)
            val = _bar(coeff) * c
            out[target] = _add(cur, val) if cur is not None else val
    return {t: c for t, c in out.items() if c}


def _commutator_chain(bar, colors, vec, k):
    """The iterated q-commutator of lowering operators over `colors`,
    outermost first, on a packed vector of k slots: F_i alone for one color,
    else G F_i - q F_i G with G the chain of the rest.  So G_{a,b} has colors
    a, ..., b-1 and G'_{c,b} has c-1, ..., b."""
    i, rest = colors[0], colors[1:]
    if not rest:
        return apply_f(bar, i, vec, k)
    out = dict(_commutator_chain(bar, rest, apply_f(bar, i, vec, k), k))
    for mono, x in apply_f(bar, i, _commutator_chain(bar, rest, vec, k), k).items():
        out[mono] = out.get(mono, 0) - (x << BITS)
    return {mono: x for mono, x in out.items() if x}


def _unit_chain(bar, colors, mono, chains):
    """The chain over `colors` on a unit monomial, unpacked and kept in
    `chains`.  The unit is packed deep enough that no twist, one per color
    and each above -len(mono), reaches below the offset."""
    cache = chains.setdefault(colors, {})
    if mono not in cache:
        deep = len(colors) * len(mono)
        vec = _commutator_chain(bar, colors, {mono: 1 << (BITS * deep)}, len(mono))
        cache[mono] = {tgt: unpack(x, deep) for tgt, x in vec.items()}
    return cache[mono]


def _chain_psi(bar, mono, memo, chains):
    """psi by the prefix recursion alone, on unpacked vectors: every
    monomial and every prefix through chains of both kinds, with no Hecke
    step.  The chains are the oracle's own, through `apply_f`:

        psi(x (x) v_b) = psi(x) (x) v_b + (q^-1 - q) sum_{a<b} G_{a,b}(psi(x)) (x) v_a
        psi(x (x) w_b) = psi(x) (x) w_b + (q^-1 - q) sum_{c>b} G'_{c,b}(psi(x)) (x) w_c
    """
    hit = memo.get(mono)
    if hit is not None:
        return hit
    if len(mono) == 1:
        out = {mono: ONE}
    else:
        inner, b, window = _chain_psi(bar, mono[:-1], memo, chains), mono[-1], bar.window
        out = {pm + (b,): c for pm, c in inner.items()}
        if len(mono) > window.m:
            news = {c: tuple(range(c - 1, b - 1, -1)) for c in range(b + 1, window.hi + 1)}
        else:
            news = {a: tuple(range(a, b)) for a in range(window.lo, b)}
        for t, colors in news.items():  # t is the new last label
            terms = {}
            for pm, c in inner.items():
                for tgt, g in _unit_chain(bar, colors, pm, chains).items():
                    terms[tgt] = _add(terms[tgt], c * g) if tgt in terms else c * g
            for tgt, g in terms.items():
                if g:
                    out[tgt + (t,)] = g * _Q_GAP
    memo[mono] = out
    return out


_Q, _Q_INV = LaurentPolynomial({1: 1}), LaurentPolynomial({-1: 1})
_Q_GAP = LaurentPolynomial({-1: 1, 1: -1})  # q^-1 - q


def _hecke(vec, p, m, inverse):
    """vec H_p, or vec H_p^-1 if `inverse`, for slots p, p+1 of one type
    (unpacked).  H_p^-1 takes u to q^-1 u on equal labels, to swap(u) +
    (q^-1 - q) u on a V descent or W ascent, else to swap(u); H_p is
    H_p^-1 + (q - q^-1)."""
    out = {}
    for u, c in vec.items():
        x, y = u[p], u[p + 1]
        if x == y:
            terms = [(u, c * (_Q_INV if inverse else _Q))]
        else:
            terms = [(u[:p] + (y, x) + u[p + 2:], c)]
            if ((x > y) == (p < m)) == inverse:
                terms.append((u, c * _Q_GAP * (1 if inverse else -1)))
        for t, c in terms:
            out[t] = _add(out[t], c) if t in out else c
    return {t: c for t, c in out.items() if c}


def _entries(chains):
    return sum(len(cache) for cache in chains.values())


def _psi_matches_the_chain_route(window, monos):
    """Asserts psi against `_chain_psi` on each monomial; returns the bar and
    the oracle's chains."""
    bar, memo, chains = BarInvolution(window), {}, {}
    for mono in monos:
        assert _decoded(bar, bar.psi(mono)) == _chain_psi(bar, mono, memo, chains), mono
    return bar, chains


class TestBarInvolution:
    WINDOWS = [(2, 0, 1, 3), (1, 1, 0, 2), (2, 1, 0, 2), (1, 2, -1, 1), (2, 2, 0, 1)]
    # with a third V slot, psi steps at two adjacent V pairs
    HECKE_WINDOWS = WINDOWS + [(3, 1, 0, 3), (3, 2, 0, 2)]

    def test_hecke_steps_match_the_chain_route(self):
        for m, n, lo, hi in self.HECKE_WINDOWS:
            monos = list(iproduct(range(lo, hi + 1), repeat=m + n))
            bar, chains = _psi_matches_the_chain_route(TensorWindow(lo, hi, m, n), monos)
            if max(m, n) > 1:  # a Hecke step saved some chains
                assert _entries(bar._chain) < _entries(chains)

    def test_psi_intertwines_the_hecke_action(self):
        # psi(x H_p) = psi(x) H_p^-1 for every monomial x and every slot pair
        # of one type (Frenkel-Khovanov-Kirillov 1998; Brundan 2003)
        for m, n, lo, hi in self.HECKE_WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            slots = [p for p in range(m + n - 1) if p != m - 1]
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                image = _decoded(bar, bar.psi(mono))
                for p in slots:
                    lhs = _psi_vector(bar, _hecke({mono: ONE}, p, m, inverse=False))
                    assert lhs == _hecke(image, p, m, inverse=True)

    def test_is_involution(self):
        for m, n, lo, hi in self.WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                assert _psi_vector(bar, _decoded(bar, bar.psi(mono))) == {mono: ONE}

    def test_commutes_with_chevalley_action(self):
        for m, n, lo, hi in self.WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            k = m + n
            for mono in iproduct(range(lo, hi + 1), repeat=k):
                for i in range(lo, hi):
                    for apply_op in (apply_f, apply_e):
                        lhs = _decoded(bar, apply_op(bar, i, bar.psi(mono), k))
                        rhs = _psi_vector(bar, _decoded(bar, apply_op(bar, i, {mono: bar.one}, k)))
                        assert lhs == rhs

    def test_preserves_weight_spaces(self):
        # so every bar image the canonical solve reads lies in its weight space
        for m, n, lo, hi in self.HECKE_WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                key = central_character(SuperWeight(mono[:m], mono[m:]))
                for t in bar.psi(mono):
                    assert len(t) == m + n and all(lo <= x <= hi for x in t)
                    assert central_character(SuperWeight(t[:m], t[m:])) == key

    def test_psi_is_triangular_in_the_label_order(self):
        # every other term of psi(v_u) precedes u slot by slot, V labels
        # descending and W labels ascending: the order the canonical solve takes
        for m, n, lo, hi in self.HECKE_WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                key = ([-a for a in mono[:m]], mono[m:])
                for t in bar.psi(mono):
                    assert t == mono or ([-a for a in t[:m]], t[m:]) < key

    def test_hecke_recursion_matches_the_reference_solve(self):
        # every weight space of every window: D by the Hecke recursion off
        # the representatives against every column solved from psi
        for m, n, lo, hi in self.HECKE_WINDOWS:
            window = TensorWindow(lo, hi, m, n)
            bar = BarInvolution(window)
            keys = {
                central_character(SuperWeight(labs[:m], labs[m:]))
                for labs in iproduct(range(lo, hi + 1), repeat=m + n)
            }
            for key in keys:
                monos = _weight_space(window, key)
                assert _solve_canonical(bar, monos) == solve_canonical(bar, monos), (window, key)

    def test_psi_is_read_only_on_the_representatives_walks(self):
        # the solve asks psi for each representative and for each row its
        # walk solves, and for no other monomial
        window = TensorWindow(-1, 4, 3, 1)
        monos = _weight_space(window, central_character(W("2,1,0|0")))
        bar = _Recorded(BarInvolution(window))
        D = _solve_canonical(bar, monos)
        reps = {j for j, u in enumerate(monos) if _is_representative(u, window.m)}
        expected = reps | {i for i, j in D if j in reps}
        assert len(bar.asked) == len(set(bar.asked)) == len(expected) < len(monos)
        assert {monos.index(u) for u in bar.asked} == expected

    def test_enumerated_weight_space_matches_the_filter(self):
        # three or four right factors: the multisets walked are fewest there
        # against the right tuples, so the walk differs most from the filter
        extra = [(1, 3, 0, 3), (1, 4, 1, 4), (2, 3, 0, 2), (2, 3, 1, 4), (3, 3, 0, 1)]
        for m, n, lo, hi in self.WINDOWS + extra:
            window = TensorWindow(lo, hi, m, n)
            spaces: dict = {}
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                key = central_character(SuperWeight(mono[:m], mono[m:]))
                spaces.setdefault(key, []).append(mono)
            for key, monos in spaces.items():
                assert _weight_space(window, key) == sorted(monos)


class _Recorded:
    """A bar involution that records the monomials it is asked psi of
    (its own recursion goes to the bar it wraps)."""

    def __init__(self, bar):
        self.window, self.offset, self.one = bar.window, bar.offset, bar.one
        self._psi, self.asked = bar.psi, []

    def psi(self, mono):
        self.asked.append(mono)
        return self._psi(mono)


def _is_representative(mono, m):
    """V labels weakly decreasing, W labels weakly increasing."""
    left, right = mono[:m], mono[m:]
    return list(left) == sorted(left, reverse=True) and list(right) == sorted(right)


def _pack(poly, offset=0):
    return sum(c << (BITS * (e + offset)) for e, c in poly.to_pairs())


class _StubBar:
    """Two monomials of one W slot, psi(v_b) = v_b + r v_a: enough to drive
    the solve, which takes v_0 before v_1."""

    offset = 1
    one = 1 << BITS
    window = TensorWindow(0, 1, 0, 1)

    def __init__(self, r, a=0, b=1):
        self._images = {(a,): {(a,): self.one}, (b,): {(b,): self.one, (a,): _pack(r, 1)}}

    def psi(self, mono):
        return self._images[mono]


class TestPacking:
    digit = st.integers(min_value=-(1 << (BITS - 1)), max_value=(1 << (BITS - 1)) - 1)

    @given(
        st.dictionaries(st.integers(min_value=-6, max_value=6), digit, max_size=6),
        st.integers(min_value=6, max_value=20),
    )
    def test_round_trip(self, coeffs, offset):
        poly = LaurentPolynomial(coeffs)
        assert unpack(_pack(poly, offset), offset) == poly

    def test_exponent_below_the_offset_raises(self):
        # F_0 lowers slot 0 of (0, 0) past a later 0, a twist by q^-1:
        # q^-1 (the lowest exponent offset 1 holds) would become q^-2
        bar = BarInvolution(TensorWindow(0, 2, 2, 0))
        assert bar.offset == 1
        assert apply_f(bar, 0, {(0, 0): bar.one}, 2) == {(1, 0): 1, (0, 1): bar.one}
        with pytest.raises(InvariantError, match="below the packing offset"):
            apply_f(bar, 0, {(0, 0): 1}, 2)

    def test_a_stored_digit_past_the_headroom_raises(self):
        bar = BarInvolution(TensorWindow(0, 2, 1, 1))
        assert bar._stored({(0, 1): 255 * bar.one}) == {(0, 1): 255 * bar.one}
        with pytest.raises(InvariantError, match="headroom"):
            bar._stored({(0, 1): 256 * bar.one})

    def test_a_bar_image_off_the_diagonal_is_refused(self, monkeypatch):
        # psi(v_k) is v_k plus lower terms; a bar whose images lose their
        # diagonal is refused before any column is solved.  The doctored bar
        # is a fresh one, so no image of it reaches the cached bar.
        def doctored(window):
            bar = BarInvolution(window)
            psi = bar.psi
            bar.psi = lambda mono: {i: c for i, c in psi(mono).items() if i != mono}
            return bar

        monkeypatch.setattr(brundan_kl, "bar_involution", doctored)
        with pytest.raises(InvariantError, match="^bar involution must be unitriangular$"):
            canonical_basis([W("1,0|1")], interval=(-1, 3))

    def test_a_chain_sum_that_could_overflow_raises(self, monkeypatch):
        # psi bounds a chain coefficient's L1 norm by its (offset + _SPAN)
        # stored digits of magnitude _CAP; one inner term, offset 1, so the
        # sum could reach H = 2^39 once 1 + _SPAN reaches 2^22 (psi reads
        # _SPAN per call; the bars are built before it is widened)
        below, bar = (BarInvolution(TensorWindow(0, 2, 1, 1)) for _ in range(2))
        monkeypatch.setattr(brundan_kl, "_SPAN", (1 << 22) - 2)
        below.psi((1, 1))
        monkeypatch.setattr(brundan_kl, "_SPAN", (1 << 22) - 1)
        # a last W label at the top of the window has no chain to bound
        assert bar.psi((1, 2)) == {(1, 2): bar.one}
        with pytest.raises(InvariantError, match="could overflow"):
            bar.psi((1, 1))

    def test_a_psi_term_below_the_offset_raises(self):
        # (q^-1 - q) c q^-offset must not drop a digit: a stored chain
        # coefficient q^-1 (the lowest offset 1 holds) would reach q^-2
        bar = BarInvolution(TensorWindow(0, 2, 1, 1))
        bar._chain[1, 2] = {(1,): {(0,): 1 << BITS}}
        assert bar.psi((1, 1)) == {(1, 1): bar.one, (0, 2): 1 - (1 << (2 * BITS))}  # q^-1 - q
        bar = BarInvolution(TensorWindow(0, 2, 1, 1))
        bar._chain[1, 2] = {(1,): {(0,): 1}}
        with pytest.raises(InvariantError, match="below the packing offset"):
            bar.psi((1, 1))

    def test_a_hecke_term_below_the_offset_raises(self, monkeypatch):
        # psi(0, 1) = psi(1, 0) H_0^-1, and H_0^-1 multiplies the equal
        # labels (0, 0) by q^-1: a cached coefficient q^-1 (the lowest
        # exponent offset 1 holds) would reach q^-2, one digit up would not
        bar = BarInvolution(TensorWindow(0, 2, 2, 0))
        monkeypatch.setitem(bar._psi, (1, 0), {(0, 0): 1 << BITS})
        assert bar.psi((0, 1)) == {(0, 0): 1}
        bar = BarInvolution(TensorWindow(0, 2, 2, 0))
        monkeypatch.setitem(bar._psi, (1, 0), {(0, 0): 1})
        with pytest.raises(InvariantError, match="^exponent below the packing offset$"):
            bar.psi((0, 1))

    def test_a_twisted_chain_term_below_the_offset_raises(self):
        # G'_{2,0} = G'_{1,0} F_1 - q F_1 G'_{1,0}; F_1 finds no 2 in (0, 0, 0),
        # and on a chain term (0, 2, 2) it lowers slot 1 past a later W label
        # 2, a twist by q^-1 that is tested on the chain coefficient before
        # the factor q is applied
        bar = BarInvolution(TensorWindow(0, 2, 1, 2))
        bar._chain[0, 1] = {(0, 0, 0): {(0, 2, 2): bar.one}}
        assert bar._chain_mono(0, 2, (0, 0, 0)) == {
            (0, 1, 2): -bar.one, (0, 2, 1): -(bar.one << BITS)
        }
        bar = BarInvolution(TensorWindow(0, 2, 1, 2))
        bar._chain[0, 1] = {(0, 0, 0): {(0, 2, 2): 1}}
        with pytest.raises(InvariantError, match="below the packing offset"):
            bar._chain_mono(0, 2, (0, 0, 0))

    def test_a_column_that_could_overflow_raises(self):
        # r = c (q^-1 - q) gives d_ab = c q; the column's norm sum then
        # bounds its digits by c 2^8
        small = LaurentPolynomial({-1: 5, 1: -5})
        assert _solve_canonical(_StubBar(small), [(0,), (1,)]) == {(0, 1): 5 << BITS}
        big = 1 << (BITS - 9)
        with pytest.raises(InvariantError, match="could overflow"):
            _solve_canonical(_StubBar(LaurentPolynomial({-1: big, 1: -big})), [(0,), (1,)])

    def test_a_symmetric_correction_raises(self):
        with pytest.raises(InvariantError, match="canonical correction failed"):
            _solve_canonical(_StubBar(LaurentPolynomial({-1: 1, 1: 1})), [(0,), (1,)])

    def test_a_psi_term_after_its_monomial_raises(self):
        # psi(v_0) with a v_1 term: v_1 follows v_0 in the label order, so
        # column 0's walk over the rows before it leaves row 1 unsolved
        r = LaurentPolynomial({-1: 5, 1: -5})
        assert _solve_canonical(_StubBar(r), [(0,), (1,)]) == {(0, 1): 5 << BITS}
        with pytest.raises(InvariantError, match="^bar involution is not triangular in the"):
            _solve_canonical(_StubBar(r, a=1, b=0), [(0,), (1,)])


    # _hecke_column on doctored columns: `swap` pairs the positions that
    # differ at slots p, p+1, and a position it fixes has equal labels there

    def test_a_hecke_step_off_the_diagonal_raises(self):
        # column 1 from column 0 = v_0 + q v_1: the q v_1 term lands at v_1
        # as q^-1 q, beside the swapped diagonal
        assert _hecke_column([{}], [1], [1, 0], 1) == ({0: 1 << BITS}, 2)
        with pytest.raises(InvariantError, match="^the Hecke step's diagonal is not 1$"):
            _hecke_column([{1: 1 << BITS}], [1], [1, 0], 1)

    def test_a_constant_term_at_an_unsolved_column_raises(self):
        # a term q v_t with equal labels at t leaves (q + q^-1) q there: b_0,
        # solved before column 2, clears its constant term; b_2, not solved
        # before column 1, cannot
        q = 1 << BITS
        assert _hecke_column([{}, {0: q}], [1, 1], [0, 2, 1], 2) == ({0: q * q, 1: q}, 3)
        with pytest.raises(InvariantError, match="^a constant term survives the Hecke step$"):
            _hecke_column([{2: q}], [1], [1, 0, 2], 1)

    def test_a_hecke_step_that_could_overflow_raises(self):
        # the product's digits are bounded by twice column 0's bound
        half = 1 << (BITS - 2)
        assert _hecke_column([{}], [half - 1], [1, 0], 1)[1] == 2 * half - 2
        with pytest.raises(InvariantError, match="^a Hecke step's digits could overflow$"):
            _hecke_column([{}], [half], [1, 0], 1)


class TestCanonicalBasis:
    def test_dual_pair_blocks(self):
        table = canonical_basis([W("0|0")], interval=(-1, 3))
        for a in range(-1, 3):
            b = SuperWeight((a,), (a,))
            up = SuperWeight((a + 1,), (a + 1,))
            assert table.d(b, b) == ONE
            assert table.d(up, b) == LaurentPolynomial({1: 1})
            two_up = SuperWeight((a + 2,), (a + 2,))
            if a + 2 <= 3:
                assert not table.d(two_up, b)

    def test_singleton_block(self):
        # a typical 1|1 weight is alone in its weight space
        table = canonical_basis([W("0|1")], interval=(-1, 2))
        assert table.weights == [W("0|1")]
        assert table.weights is not table.weights  # a fresh list per read
        assert table.d(W("0|1"), W("0|1")) == ONE

    def test_two_element_orbit(self):
        table = canonical_basis([W("5,0|")], interval=(0, 6))
        assert table.d(W("5,0|"), W("5,0|")) == ONE
        # the antidominant canonical vector picks up the dominant monomial
        assert table.d(W("5,0|"), W("0,5|")) == LaurentPolynomial({1: 1})
        assert not table.d(W("0,5|"), W("5,0|"))

    def test_block_after_bar_eviction_matches_a_cold_build(self):
        # the bar involution is cached for the latest window only: a block on
        # window B evicts window A's, and the next block on A rebuilds it;
        # window A is gl(2|1) on [0, 3], window B gl(3|1) on [0, 3]
        brundan_kl.bar_involution.cache_clear()
        canonical_basis([W("1,0|0")], interval=(0, 3))
        canonical_basis([W("2,1,0|0")], interval=(0, 3))
        assert brundan_kl.bar_involution.cache_info().currsize == 1
        warm = canonical_basis([W("2,1|1")], interval=(0, 3))
        brundan_kl.bar_involution.cache_clear()
        cold = canonical_basis([W("2,1|1")], interval=(0, 3))
        assert warm is not cold
        assert warm.to_json_dict() == cold.to_json_dict()

    def test_off_diagonal_in_q_polynomials(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 2))
        ws = table.weights
        for a in ws:
            for b in ws:
                if a != b:
                    poly = table.d(a, b)
                    assert all(e >= 1 for e, _ in poly.to_pairs())

    def test_derivative_identity_between_p_and_d(self):
        # the inverse transition p(b, a) = (D^-1)_{ab}(-q) has the q-linear
        # term of d(a, b); D is unitriangular, so D^-1 = I - N + N^2 - ...
        # with N = D - I nilpotent
        table = canonical_basis([W("1,0|1")], interval=(-1, 3))
        ws = table.weights
        strict: dict = {}
        for c in ws:
            for b in ws:
                if c != b and table.d(c, b):
                    strict.setdefault(c, []).append((b, table.d(c, b)))
        inverse = {(a, a): ONE for a in ws}
        term = dict(inverse)
        while term:
            nxt: dict = {}
            for (a, c), x in term.items():
                for b, y in strict.get(c, ()):
                    nxt[a, b] = _add(nxt.get((a, b), ZERO), x * y * -1)
            term = {key: x for key, x in nxt.items() if x}
            for key, x in term.items():
                inverse[key] = _add(inverse.get(key, ZERO), x)
        for a in ws:
            for b in ws:
                if a != b:
                    # q -> -q negates the q-linear term
                    lhs = -inverse.get((a, b), ZERO).coeff(1)
                    assert lhs == table.d(a, b).coeff(1)

    def test_typical_block_matches_classical_kl(self):
        # a typical block is a single product orbit; its d-matrix must be
        # the product of classical KL polynomials in the multiplicity
        # normalization q^(length gap) P(q^-2)... realized here by direct
        # comparison of the two tables on gl(2|1).
        table = canonical_basis([W("2,1|0")], interval=(-1, 3))
        kl = kl_table(2, use_disk=False)
        block = [w for w in table.weights if sorted(w.left) == [1, 2] and w.right == (0,)]
        assert len(block) == 2
        lo_w, hi_w = W("1,2|0"), W("2,1|0")
        assert table.d(hi_w, lo_w) == LaurentPolynomial({1: 1})
        assert not table.d(lo_w, hi_w)

    def test_typical_gl31_block_matches_classical(self):
        # regular typical gl(3|1) block: the d-matrix is the classical KL
        # matrix in the multiplicity normalization q^(gap) P(q^-2); at rank
        # 3 every classical P is 1, so entries are single powers of q over
        # exactly the Bruhat-comparable rank-word pairs.
        table = canonical_basis([W("3,2,1|-1")], interval=(-2, 4))
        block = [w for w in table.weights if w.right == (-1,)]
        assert len(block) == 6
        for a in block:
            for b in block:
                ra, rb = rank_word(a.left), rank_word(b.left)
                la, lb = inversions(ra), inversions(rb)
                poly = table.d(a, b)
                if a == b:
                    assert poly == ONE
                elif bruhat_leq(ra, rb):
                    assert poly == LaurentPolynomial({lb - la: 1})
                else:
                    assert not poly

    def test_ext_splitting_only_one_direction(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        ws = table.weights
        for a in ws:
            for b in ws:
                if a != b:
                    assert not (table.d(a, b).coeff(1) and table.d(b, a).coeff(1))

    def test_a_weight_of_another_shape_is_not_in_the_table(self):
        # gl(2|1) and gl(3|0) weights carry the labels of gl(1|2) monomials
        table = canonical_basis([W("0|0,1")], interval=(-1, 2))
        inside = W("0|0,1")
        assert table.d(inside, inside) == ONE
        for stray in ("0,0|1", "0,0,1|"):
            with pytest.raises(KeyError, match="not in this table's weight space"):
                table.d(W(stray), inside)
            with pytest.raises(KeyError, match="not in this table's weight space"):
                table.d(inside, W(stray))
            with pytest.raises(KeyError, match="not in this table's weight space"):
                table.mu(inside, W(stray))

    def test_mu_pairs_lists_each_nonzero_mu_once(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        listed = [(frozenset((a, b)), value) for a, b, value in table.mu_pairs()]
        ws = table.weights
        expected = {
            frozenset((a, b)): table.mu(a, b)
            for a in ws for b in ws if a != b and table.mu(a, b)
        }
        assert len(listed) == len(expected) and dict(listed) == expected

    def test_gl22_ext_values(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        top = W("1,0|0,1")
        assert table.mu(top, W("1,1|1,1")) == 1
        assert table.mu(top, W("2,1|2,1")) == 1
        assert table.mu(top, W("1,2|1,2")) == 1
        assert table.mu(top, top) == 0

    def test_interval_stability(self):
        base = canonical_basis([W("1,0|1")], interval=(-1, 3))
        bigger = canonical_basis(
            [W("1,0|1")], interval=(-2, 4), interval_bound=9
        )
        for a in base.weights:
            for b in base.weights:
                assert base.d(a, b) == bigger.d(a, b)

    def test_gl22_interval_stability(self):
        base = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        bigger = canonical_basis(
            [W("1,0|0,1")], interval=(-2, 4), interval_bound=9
        )
        for a in base.weights:
            for b in base.weights:
                assert base.d(a, b) == bigger.d(a, b)

    def test_bounds_are_enforced(self):
        with pytest.raises(BoundExceededError):
            canonical_basis([W("1,2,3|1,2,3")], interval=(0, 4))
        with pytest.raises(BoundExceededError):
            canonical_basis([W("1,0|1")], interval=(-5, 6))
        with pytest.raises(PreconditionError):
            canonical_basis([W("1,0|1"), W("2,0|1")])
        with pytest.raises(PreconditionError, match="^empty block$"):
            canonical_basis([])
        outside = re.escape("1,0|1 lies outside the interval (1, 3)")
        with pytest.raises(PreconditionError, match=outside):
            canonical_basis([W("1,0|1")], interval=(1, 3))
        with pytest.raises(PreconditionError, match=re.escape("the interval (5, 3) is empty")):
            canonical_basis([W("4|4")], interval=(5, 3))

    def test_table_dump_schema(self):
        doc = canonical_basis([W("1,0|1")], interval=(-1, 3)).to_json_dict()
        assert {"interval", "m", "n", "weights", "entries"} <= set(doc)
        json.dumps(doc)


class TestLeftOrder:
    def test_gl22_generators(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        window = [w for w in table.weights if atypicality_degree(w) == 2]
        order = kl_left_order(window, table)
        top = W("1,0|0,1")
        for text in ["1,1|1,1", "2,1|2,1", "1,2|1,2", "1,2|2,1"]:
            assert order.leq(W(text), top)
        assert not order.leq(W("2,1|1,2"), top)
        assert order.leq(top, top)

    def test_weight_outside_the_table_raises(self):
        # the check must not wait for a pair to pass the wall test
        table = canonical_basis([W("1,0|1")], interval=(-1, 2))
        for stray in ("3,0|3", "1,1|0"):
            with pytest.raises(KeyError, match="not in this table's weight space"):
                kl_left_order([W("1,0|1"), W(stray)], table)

    def test_weight_of_another_shape_raises(self):
        # 0,0|1 has the labels of the gl(1|2) monomial 0|0,1
        table = canonical_basis([W("0|0,1")], interval=(-1, 2))
        for stray in ("0,0|1", "0,0,1|"):
            with pytest.raises(KeyError, match="not in this table's weight space"):
                kl_left_order([W("0|0,1"), W(stray)], table)

    @pytest.mark.parametrize("seed, interval", [("3,2,1,0|", (-1, 4)), ("2,1,0|", (-1, 3))])
    def test_regular_even_block_matches_classical_left_preorder(self, seed, interval):
        # the super order and the classical order are one construction
        table = canonical_basis([W(seed)], interval=interval)
        order = kl_left_order(table.weights, table)
        classical = left_preorder(W(seed).m, use_disk=False)
        for a in table.weights:
            for b in table.weights:
                expected = classical.leq(rank_word(b.left), rank_word(a.left))
                assert order.leq(b, a) == expected

    @pytest.mark.parametrize("seed, interval", [("2,1,0|0", None), ("3,2,1,0|0", (-1, 4))])
    def test_relations_match_the_pairwise_definition(self, seed, interval):
        table = canonical_basis([W(seed)], interval=interval)
        order = kl_left_order(table.weights, table)
        ws = order.weights
        assert order.preorder.class_count() < len(ws)  # some class holds two weights
        expected = {
            (b, a)
            for a in ws
            for b in ws
            if a != b and order.leq(b, a) and not order.leq(a, b)
        }
        assert expected and order.relations() == expected

    def test_rank_four_block_reproduces_full_classical_table(self):
        # pure even rank 4, where the first nontrivial classical KL
        # polynomial lives: all 576 d-entries must equal q^(gap) P(q^-2)
        table = canonical_basis([W("3,2,1,0|")], interval=(-1, 4))
        kl = kl_table(4, use_disk=False)
        assert len(table.weights) == 24
        for a in table.weights:
            for b in table.weights:
                ra, rb = rank_word(a.left), rank_word(b.left)
                la, lb = inversions(ra), inversions(rb)
                if a == b:
                    expected = ONE
                else:
                    p = kl.kl_polynomial(ra, rb)
                    expected = LaurentPolynomial(
                        {lb - la - 2 * e: c for e, c in p.to_pairs()}
                    )
                assert table.d(a, b) == expected
        s2w = SuperWeight(tuple(4 - x for x in (1, 3, 2, 4)), ())
        y34 = SuperWeight(tuple(4 - x for x in (3, 4, 1, 2)), ())
        assert table.d(s2w, y34) == LaurentPolynomial({1: 1, 3: 1})

    def test_gl41_augmentation_block_agreement(self):
        # every pair of augmentation-component weights of gl(4|1): the
        # canonical-basis order and the ladder algorithm must agree
        from primspec.aug_poset import enumerate_X

        poset = enumerate_X(4)
        weights = sorted(
            {w for c in poset.classes for w in c.members}, key=lambda w: w.labels
        )
        key = central_character(weights[0])
        assert all(central_character(w) == key for w in weights)
        enlarged = set(weights)
        for labs in iproduct(range(-2, 6), repeat=5):
            w = SuperWeight(labs[:4], labs[4:])
            if central_character(w) == key:
                enlarged.add(w)
        block = sorted(enlarged, key=lambda x: x.labels)
        order = kl_left_order(block, canonical_basis(block, interval_bound=12))
        for a in weights:
            for b in weights:
                assert order.leq(b, a) == inclusion(a, b)

    def test_gl22_wide_window_matches_inclusion(self):
        # every doubly atypical gl(2|2) weight with labels in [-2, 3], one
        # weight space on [-3, 4]: the canonical-basis order against
        # `inclusion`, as criterion 9 checks labels [-1, 2]
        labels = range(-2, 4)
        window = sorted(
            {
                SuperWeight(left, right)
                for a in labels
                for b in labels
                for left in ((a, b), (b, a))
                for right in ((a, b), (b, a))
            },
            key=lambda w: w.labels,
        )
        assert len(window) == 66
        order = kl_left_order(window, canonical_basis(window))
        mismatches = [
            (a, b) for a in window for b in window if order.leq(b, a) != inclusion(a, b)
        ]
        assert mismatches == []

    def test_matches_inclusion_on_singly_atypical_blocks(self):
        # oracle equivalence on a gl(2|1) and a gl(3|1) block
        for seed_text, pads in [("1,0|1", 2), ("2,1,0|0", 2)]:
            seed = W(seed_text)
            key = central_character(seed)
            m, n = seed.m, seed.n
            lo = min(seed.labels) - pads
            hi = max(seed.labels) + pads
            block = []
            for labs in iproduct(range(lo, hi + 1), repeat=m + n):
                w = SuperWeight(labs[:m], labs[m:])
                if central_character(w) == key:
                    block.append(w)
            order = kl_left_order(block, canonical_basis(block, interval_bound=12))
            for a in block:
                for b in block:
                    assert order.leq(b, a) == inclusion(a, b)


def _against_the_order(poset, order):
    """The disagreements between an augmentation poset and the order on the
    canonical basis: a member not equivalent to its representative, two
    equivalent representatives, a `down` row unlike the strict order
    between representatives, and a Hasse diagram unlike its reduction."""
    reps = [c.representative for c in poset.classes]
    failures = [
        ("member", w) for c in poset.classes for w in c.members
        if not (order.leq(w, c.representative) and order.leq(c.representative, w))
    ]
    leq = [[order.leq(a, b) for b in reps] for a in reps]  # leq[a][b]: a below b
    failures += [
        ("equivalent", a, b) for a in range(len(reps)) for b in range(a)
        if leq[a][b] and leq[b][a]
    ]
    rows = [
        sum(1 << a for a in range(len(reps)) if leq[a][b] and not leq[b][a])
        for b in range(len(reps))
    ]
    failures += [("down", b) for b, row in enumerate(rows) if row != poset.down[b]]
    if transitive_reduction(rows) != list(poset.hasse):
        failures.append(("hasse",))
    return failures


class TestAugmentationPosetAgainstTheOrder:
    """The gl(5|1) augmentation poset, built by the ladder and the classical
    left order, against the order the canonical basis of the weight space
    of all its members generates, on two label windows, and the gl(6|1)
    poset on one (slow).  The source paper proves the two orders equal on
    singly atypical blocks."""

    # sha256 of each table's JSON (sorted keys), recorded before psi stopped
    # taking chains on V factors
    WINDOWS = {
        (-1, 5): (600, "4d96a8181ce6273c298a5150251e07b20e9745d6bd4974974bfa0013cf4dd175"),
        (-2, 6): (840, "b8a67e6755a3f756bf31ca887d26e3df2521806635b236a74a191089ae4877cc"),
    }

    @pytest.fixture(scope="class")
    def poset(self):
        from primspec.aug_poset import enumerate_X

        return enumerate_X(5)

    @pytest.fixture(scope="class")
    def orders(self, poset):
        members = [w for c in poset.classes for w in c.members]
        out = {}
        for (lo, hi), (size, digest) in self.WINDOWS.items():
            table = canonical_basis(
                members, interval=(lo, hi), rank_bound=6, interval_bound=hi - lo + 1
            )
            assert len(table.weights) == size
            text = json.dumps(table.to_json_dict(), sort_keys=True).encode()
            assert hashlib.sha256(text).hexdigest() == digest
            out[lo, hi] = kl_left_order(table.weights, table)
        return out

    def test_classes_order_and_hasse_diagram_agree(self, poset, orders):
        assert len(poset.classes) == 78
        for order in orders.values():
            assert _against_the_order(poset, order) == []

    def test_a_doctored_down_row_fails(self, poset, orders):
        b = next(b for b, row in enumerate(poset.down) if row)
        down = list(poset.down)
        down[b] &= down[b] - 1  # one strict pair dropped
        doctored = IdealPoset(poset.m, poset.classes, tuple(down), poset.hasse, poset.order)
        for order in orders.values():
            assert _against_the_order(doctored, order) == [("down", b)]

    @pytest.mark.slow
    def test_gl61_classes_order_and_hasse_diagram_agree(self):
        # 266 classes on [-1, 6], a weight space of 3,960 monomials; the
        # digest was recorded from the solve that walked every column
        from primspec.aug_poset import enumerate_X

        poset = enumerate_X(6)
        assert len(poset.classes) == 266
        members = [w for c in poset.classes for w in c.members]
        table = canonical_basis(members, interval=(-1, 6), rank_bound=7, interval_bound=8)
        assert len(table.weights) == 3960
        text = json.dumps(table.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "d118a561c82d5ada893150e88177beb3053cd0513a2040cd151a51bb86c81e8c"
        )
        del text
        assert _against_the_order(poset, kl_left_order(table.weights, table)) == []

    def test_a_member_moved_to_another_class_fails(self, poset, orders):
        first, second = poset.classes[:2]
        moved = second.members[-1]
        classes = (
            first._replace(members=first.members + (moved,)),
            second._replace(members=second.members[:-1]),
            *poset.classes[2:],
        )
        doctored = IdealPoset(poset.m, classes, poset.down, poset.hasse, poset.order)
        for order in orders.values():
            assert _against_the_order(doctored, order) == [("member", moved)]


class TestGoldenDigests:
    """sha256 of the table JSON, recorded from the dict-of-LaurentPolynomial
    solve the packed kernel replaced; any change to D shows here."""

    # every weight space of labels [0, 3], one digest per shape, tables
    # hashed in counts-key order
    SMALL_WINDOWS = {
        (1, 1): "990713f3c27024c8e9d88dcb075beeb1496c7587ace9a68604b80446691f163e",
        (2, 1): "cfabe4e081c2bf337c534c8a4191ffc5e245cd8303b2ae2ad3a4a33578ce15ec",
        (1, 2): "01e60e7a1b6181fdf62827b2517f35c02662801d3e1db8825c450c5a6e06435a",
        (3, 1): "d9027c7b4e2d18b33b2a67c1c60c971ad9f060d6998e1d51bb49fed12393487a",
        (2, 2): "7aff512da735bfd4addb8907971e90a7b9340ebcf5256a21999293c2584137cd",
        (1, 3): "892e9298ada1112a03d462338c72247d625bb0cf1dcbf49a64ce6eb886924f40",
    }

    # every weight space of these shapes and label intervals, 317 spaces:
    # table JSON with the sorted strict pairs of the left order on it
    ORDERED_WINDOWS = [
        ((2, 1), (0, 4)), ((1, 2), (0, 4)), ((2, 2), (0, 3)), ((3, 1), (0, 3)),
        ((1, 3), (0, 3)), ((3, 2), (0, 2)), ((4, 1), (0, 2)),
    ]
    ORDERED_DIGEST = "c9f8a3a27c1e6947ec445e574a962c0513d520367a584ee868cd03bec09a8c59"

    @staticmethod
    def _text(table) -> bytes:
        return json.dumps(table.to_json_dict(), sort_keys=True).encode()

    @staticmethod
    def _tables(m, n, lo, hi):
        """One table per weight space of the window, in central-character order."""
        seeds = {}
        for labs in iproduct(range(lo, hi + 1), repeat=m + n):
            seeds.setdefault(central_character(SuperWeight(labs[:m], labs[m:])), labs)
        for key in sorted(seeds):
            labs = seeds[key]
            yield canonical_basis([SuperWeight(labs[:m], labs[m:])], interval=(lo, hi))

    @pytest.mark.parametrize("shape", sorted(SMALL_WINDOWS))
    def test_every_weight_space_of_a_small_window(self, shape):
        digest = hashlib.sha256()
        for table in self._tables(*shape, 0, 3):
            digest.update(self._text(table))
        assert digest.hexdigest() == self.SMALL_WINDOWS[shape]

    def test_every_weight_space_with_its_order(self):
        digest, spaces = hashlib.sha256(), 0
        for (m, n), (lo, hi) in self.ORDERED_WINDOWS:
            for table in self._tables(m, n, lo, hi):
                doc = table.to_json_dict()
                order = kl_left_order(table.weights, table)
                doc["order"] = sorted([str(b), str(a)] for b, a in order.relations())
                digest.update(json.dumps(doc, sort_keys=True).encode())
                spaces += 1
        assert spaces == 317
        assert digest.hexdigest() == self.ORDERED_DIGEST

    def test_dimension_108_block(self):
        table = canonical_basis([W("3,2,1,0|0")], interval=(-1, 4))
        assert len(table.weights) == 108
        assert hashlib.sha256(self._text(table)).hexdigest() == (
            "ac4df0406efdf16dbdcb793118ad2dff859bc8082d62a807d1c2dbe40e3aeaa3"
        )


@pytest.mark.slow
def test_dimension_600_hecke_steps_match_the_chain_route():
    # the weight space of the gl(5|1) block below: 600 monomials, whose
    # chain route psi builds only for the orbit representatives
    window = TensorWindow(-1, 5, 5, 1)
    monos = _weight_space(window, central_character(W("4,3,2,1,0|0")))
    assert len(monos) == 600
    bar, chains = _psi_matches_the_chain_route(window, monos)
    assert _entries(bar._chain) < _entries(chains)


@pytest.mark.slow
def test_dimension_600_block_command_output(capsys):
    # the gl(5|1) block of ROADMAP item 6, outside tier-1 (a few seconds):
    # run with `pytest -m slow`
    from primspec.cli import main

    assert main(["super-kl", "--weights", "4,3,2,1,0|0", "--interval=-1:5", "--rank-bound", "6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "6094ad42dbaa89a8558d42e1d09b4c643c89d4c492fb180135154d80e9fc0a0d"
    )
