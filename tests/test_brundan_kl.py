from itertools import product as iproduct

import pytest

from primspec.brundan_kl import (
    BarInvolution,
    TensorWindow,
    bar_involution,
    canonical_basis,
    kl_left_order,
    mu_super,
)
from primspec.errors import BoundExceededError, PreconditionError
from primspec.kl_classical import kl_table, left_preorder
from primspec.laurent import ONE, LaurentPolynomial
from primspec.super_inclusion import inclusion
from primspec.tableaux import inversions, rank_word
from primspec.weights import SuperWeight, atypicality_degree, central_character

W = SuperWeight.parse


def _psi_vector(bar, vec):
    out = {}
    for mono, coeff in vec.items():
        for target, c in bar.psi(mono).items():
            cur = out.get(target)
            val = coeff.bar() * c
            out[target] = cur + val if cur is not None else val
    return {t: c for t, c in out.items() if c}


class TestBarInvolution:
    WINDOWS = [(2, 0, 1, 3), (1, 1, 0, 2), (2, 1, 0, 2), (1, 2, -1, 1), (2, 2, 0, 1)]

    def test_is_involution(self):
        for m, n, lo, hi in self.WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            for mono in iproduct(range(lo, hi + 1), repeat=m + n):
                assert _psi_vector(bar, bar.psi(mono)) == {mono: ONE}

    def test_commutes_with_chevalley_action(self):
        for m, n, lo, hi in self.WINDOWS:
            bar = BarInvolution(TensorWindow(lo, hi, m, n))
            k = m + n
            for mono in iproduct(range(lo, hi + 1), repeat=k):
                for i in range(lo, hi):
                    for apply_op in (bar.apply_f, bar.apply_e):
                        lhs = apply_op(i, bar.psi(mono), k)
                        rhs = _psi_vector(bar, apply_op(i, {mono: ONE}, k))
                        assert lhs == rhs

    def test_preserves_weight_spaces(self):
        from primspec.brundan_kl import _counts_key

        bar = BarInvolution(TensorWindow(0, 2, 2, 1))
        for mono in iproduct(range(3), repeat=3):
            key = _counts_key(mono, 2)
            assert all(
                _counts_key(t, 2) == key for t in bar.psi(mono)
            )


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
                assert table.d(two_up, b).is_zero()

    def test_singleton_block(self):
        # a typical 1|1 weight is alone in its weight space
        table = canonical_basis([W("0|1")], interval=(-1, 2))
        assert table.weights == [W("0|1")]
        assert table.d(W("0|1"), W("0|1")) == ONE

    def test_two_element_orbit(self):
        table = canonical_basis([W("5,0|")], interval=(0, 6))
        assert table.d(W("5,0|"), W("5,0|")) == ONE
        # the antidominant canonical vector picks up the dominant monomial
        assert table.d(W("5,0|"), W("0,5|")) == LaurentPolynomial({1: 1})
        assert table.d(W("0,5|"), W("5,0|")).is_zero()

    def test_off_diagonal_in_q_polynomials(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 2))
        ws = table.weights
        for a in ws:
            for b in ws:
                if a != b:
                    poly = table.d(a, b)
                    assert poly.is_zero() or poly.in_q_times_polynomials()

    def test_transition_matrices_mutually_inverse(self):
        table = canonical_basis([W("1,0|1")], interval=(-1, 3))
        ws = table.weights
        for a in ws:
            for c in ws:
                total = LaurentPolynomial()
                for b in ws:
                    # sum_b p(a,b)(-q) d(.,.) recovers the identity matrix
                    total = total + table.p(a, b).substitute_negated() * table.d(c, b)
                assert total == (ONE if a == c else LaurentPolynomial())

    def test_derivative_identity_between_p_and_d(self):
        table = canonical_basis([W("1,0|1")], interval=(-1, 3))
        ws = table.weights
        for a in ws:
            for b in ws:
                if a != b:
                    lhs = table.p(b, a).coeff(1)
                    rhs = table.d(a, b).coeff(1)
                    assert lhs == rhs

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
        assert table.d(lo_w, hi_w).is_zero()

    def test_typical_gl31_block_matches_classical(self):
        # regular typical gl(3|1) block: the d-matrix is the classical KL
        # matrix in the multiplicity normalization q^(gap) P(q^-2); at rank
        # 3 every classical P is 1, so entries are single powers of q over
        # exactly the Bruhat-comparable rank-word pairs.
        from primspec.kl_classical import bruhat_leq

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
                    assert poly.is_zero()

    def test_ext_splitting_only_one_direction(self):
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        ws = table.weights
        for a in ws:
            for b in ws:
                if a != b:
                    assert not (table.d(a, b).coeff(1) and table.d(b, a).coeff(1))

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
        assert mu_super(top, W("1,1|1,1"), table) == 1
        assert mu_super(top, W("2,1|2,1"), table) == 1
        assert mu_super(top, W("1,2|1,2"), table) == 1
        assert mu_super(top, top, table) == 0

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

    def test_table_dump_schema(self):
        import json

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

    def test_rank_four_block_reproduces_full_classical_table(self):
        # pure even rank 4, where the first nontrivial classical KL
        # polynomial lives: all 576 d-entries must equal q^(gap) P(q^-2)
        from primspec.kl_classical import bruhat_leq

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
                        {lb - la - 2 * e: c for e, c in p.items()}
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
        key = central_character(weights[0]).items
        assert all(central_character(w).items == key for w in weights)
        enlarged = set(weights)
        for labs in iproduct(range(-2, 6), repeat=5):
            w = SuperWeight(labs[:4], labs[4:])
            if central_character(w).items == key:
                enlarged.add(w)
        order = kl_left_order(
            sorted(enlarged, key=lambda x: x.labels), interval_bound=12
        )
        for a in weights:
            for b in weights:
                assert order.leq(b, a) == inclusion(a, b)

    def test_matches_inclusion_on_singly_atypical_blocks(self):
        # oracle equivalence on a gl(2|1) and a gl(3|1) block
        for seed_text, pads in [("1,0|1", 2), ("2,1,0|0", 2)]:
            seed = W(seed_text)
            key = central_character(seed).items
            m, n = seed.m, seed.n
            lo = min(seed.labels) - pads
            hi = max(seed.labels) + pads
            block = []
            for labs in iproduct(range(lo, hi + 1), repeat=m + n):
                w = SuperWeight(labs[:m], labs[m:])
                if central_character(w).items == key:
                    block.append(w)
            order = kl_left_order(block, interval_bound=12)
            for a in block:
                for b in block:
                    assert order.leq(b, a) == inclusion(a, b)
