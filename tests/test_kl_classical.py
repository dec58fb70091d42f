from itertools import permutations as iperm

import pytest

from primspec.errors import BoundExceededError, CacheVersionError
from primspec.kl_classical import (
    KLTable,
    bruhat_leq,
    classical_cover,
    classical_equal,
    classical_inclusion,
    ideal_class_invariant,
    kl_table,
    left_preorder,
    mu,
)
from primspec.laurent import ONE, LaurentPolynomial
from primspec.super_inclusion import inclusion
from primspec.tableaux import (
    all_permutations,
    identity,
    inverse,
    inversions,
    longest_element,
    rank_word,
    robinson_schensted,
    tau_of_weight,
)
from primspec.weights import SuperWeight

W = SuperWeight.parse
NO_DISK = {"use_disk": False}


def _subword_leq(x, y):
    """Independent Bruhat oracle: some reduced word of y contains a reduced
    word of x as a subword (checked via the recursive exchange property)."""
    if inversions(x) > inversions(y):
        return False
    if x == y:
        return True
    m = len(y)
    for p in range(m - 1):
        if y[p] > y[p + 1]:  # right descent of y
            ys = y[:p] + (y[p + 1], y[p]) + y[p + 2:]
            xs = x[:p] + (x[p + 1], x[p]) + x[p + 2:]
            if inversions(xs) < inversions(x):
                return _subword_leq(xs, ys) or _subword_leq(x, ys)
            return _subword_leq(x, ys)
    return False


class TestBruhat:
    def test_identity_below_everything(self):
        for y in all_permutations(4):
            assert bruhat_leq(identity(4), y)
            assert bruhat_leq(y, y)

    def test_against_subword_oracle(self):
        for m in (3, 4):
            for x in all_permutations(m):
                for y in all_permutations(m):
                    assert bruhat_leq(x, y) == _subword_leq(x, y)


class TestKLTable:
    def test_rank_two(self):
        table = kl_table(2, **NO_DISK)
        assert table.kl_polynomial((1, 2), (2, 1)) == ONE

    def test_rank_three_all_trivial(self):
        table = kl_table(3, **NO_DISK)
        for x in all_permutations(3):
            for y in all_permutations(3):
                p = table.kl_polynomial(x, y)
                if bruhat_leq(x, y):
                    assert p == ONE
                else:
                    assert p.is_zero()

    def test_rank_four_nontrivial_entries(self):
        table = kl_table(4, **NO_DISK)
        one_plus_q = LaurentPolynomial({0: 1, 1: 1})
        assert table.kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == one_plus_q
        nontrivial = [
            (x, y)
            for x in all_permutations(4)
            for y in all_permutations(4)
            if table.kl_polynomial(x, y) not in (ONE, LaurentPolynomial())
        ]
        assert len(nontrivial) == 6
        assert all(table.kl_polynomial(x, y) == one_plus_q for x, y in nontrivial)

    def test_degree_bound(self):
        table = kl_table(4, **NO_DISK)
        for x in all_permutations(4):
            for y in all_permutations(4):
                if x != y and bruhat_leq(x, y):
                    p = table.kl_polynomial(x, y)
                    assert p.coeff(0) == 1
                    gap = inversions(y) - inversions(x)
                    assert 2 * p.degree <= gap - 1

    def test_bound_refusal_names_bound(self):
        with pytest.raises(BoundExceededError) as err:
            kl_table(9, bound=7, **NO_DISK)
        assert "7" in str(err.value) and "9" in str(err.value)


class TestMu:
    def test_adjacent_pairs(self):
        table = kl_table(4, **NO_DISK)
        for x in all_permutations(4):
            for y in all_permutations(4):
                if bruhat_leq(x, y) and inversions(y) == inversions(x) + 1:
                    assert mu(x, y, table) == 1
                    assert mu(y, x, table) == 1  # symmetrized

    def test_even_gap_vanishes(self):
        table = kl_table(4, **NO_DISK)
        for x in all_permutations(4):
            for y in all_permutations(4):
                if x != y and (inversions(y) - inversions(x)) % 2 == 0:
                    assert mu(x, y, table) == 0


class TestCache:
    def test_round_trip(self, tmp_path):
        table = kl_table(4, **NO_DISK)
        path = tmp_path / "kl_m4.jsonl"
        table.save(path)
        loaded = KLTable.load(path, 4)
        assert len(loaded) == len(table)
        for x in all_permutations(4):
            for y in all_permutations(4):
                assert loaded.kl_polynomial(x, y) == table.kl_polynomial(x, y)

    def test_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "kl_m3.jsonl"
        path.write_text('{"format": "primspec-kl", "version": 999, "m": 3, "count": 0}\n')
        with pytest.raises(CacheVersionError):
            KLTable.load(path, 3)


class TestLeftPreorder:
    def test_reflexive(self):
        order = left_preorder(3, **NO_DISK)
        for w in all_permutations(3):
            assert order.leq(w, w)

    def test_classes_are_insertion_fibers(self):
        for m in (2, 3, 4):
            order = left_preorder(m, **NO_DISK)
            for u in all_permutations(m):
                for v in all_permutations(m):
                    same = robinson_schensted(u)[0] == robinson_schensted(v)[0]
                    assert order.same_class(u, v) == same

    def test_class_count_is_involution_number(self):
        from primspec.tableaux import involution_count

        for m in (2, 3, 4, 5):
            assert left_preorder(m, **NO_DISK).class_count() == involution_count(m)

    def test_cached_order_still_honours_bound(self):
        # a cached rank-5 order must not answer for a caller bounded at 3
        left_preorder(5, **NO_DISK)
        with pytest.raises(BoundExceededError):
            left_preorder(5, bound=3, **NO_DISK)
        with pytest.raises(BoundExceededError):
            inclusion(W("4,3,2,1,0|"), W("0,1,2,3,4|"), bound=3, **NO_DISK)


class TestClassicalInclusion:
    def test_gl4_worked_example(self):
        # of the twelve residual weights in the worked gl(4|1) example,
        # exactly (0123) and the class of (1230) land below I(1302)
        gamma = SuperWeight((1, 3, 0, 2), ())
        candidates = [
            (2, 3, 1, 0), (2, 1, 3, 0), (1, 2, 3, 0), (2, 3, 0, 1), (2, 1, 0, 3),
            (1, 2, 0, 3), (2, 0, 3, 1), (2, 0, 1, 3), (1, 0, 2, 3), (0, 2, 3, 1),
            (0, 2, 1, 3), (0, 1, 2, 3),
        ]
        below = [
            d for d in candidates
            if classical_inclusion(SuperWeight(d, ()), gamma, **NO_DISK)
        ]
        assert below == [
            (1, 2, 3, 0), (1, 2, 0, 3), (1, 0, 2, 3), (0, 1, 2, 3)
        ]

    def test_gl4_full_orbit_downset(self):
        # the flip symmetry of the algebra forces the mirror class of
        # (1230) below I(1302) as well; the full down-set is three classes
        # plus the ideal itself
        gamma = SuperWeight((1, 3, 0, 2), ())
        below = {
            d
            for d in iperm((0, 1, 2, 3))
            if classical_inclusion(SuperWeight(d, ()), gamma, **NO_DISK)
        }
        assert below == {
            (1, 3, 0, 2), (1, 0, 3, 2),                      # its own class
            (1, 2, 3, 0), (1, 2, 0, 3), (1, 0, 2, 3),        # quoted class
            (0, 1, 3, 2), (0, 3, 1, 2), (3, 0, 1, 2),        # its flip image
            (0, 1, 2, 3),                                     # the minimum
        }

    def test_reflexive_and_antidominant(self):
        for labels in [(2, 0, 1), (1, 3, 0, 2)]:
            w = SuperWeight(labels, ())
            assert classical_inclusion(w, w, **NO_DISK)
        for m in (2, 3, 4):
            anti = SuperWeight(tuple(range(m)), ())
            dom = SuperWeight(tuple(range(m - 1, -1, -1)), ())
            assert classical_inclusion(anti, dom, **NO_DISK)
            assert not classical_inclusion(dom, anti, **NO_DISK)

    def test_different_orbits_incomparable(self):
        assert not classical_inclusion(
            SuperWeight((5, 0), ()), SuperWeight((1, 0), ()), **NO_DISK
        )

    def test_two_factor_conjunction(self):
        a = W("0,1|0,1")
        b = W("1,0|0,1")
        # left factor strictly below, right factors equal
        assert classical_inclusion(a, b, **NO_DISK)
        assert not classical_inclusion(b, a, **NO_DISK)
        # right orientation: dominant means weakly increasing
        c = W("1,0|1,0")
        assert classical_inclusion(c, b, **NO_DISK)

    def test_tau_reversal_on_inclusions(self):
        for m in (3, 4):
            for d in iperm(range(m)):
                for g in iperm(range(m)):
                    if classical_inclusion(
                        SuperWeight(d, ()), SuperWeight(g, ()), **NO_DISK
                    ):
                        assert tau_of_weight(d) >= tau_of_weight(g)

    def test_antisymmetric_modulo_classes(self):
        for m in (3, 4):
            for d in iperm(range(m)):
                for g in iperm(range(m)):
                    dw, gw = SuperWeight(d, ()), SuperWeight(g, ())
                    if classical_inclusion(dw, gw, **NO_DISK) and classical_inclusion(
                        gw, dw, **NO_DISK
                    ):
                        assert classical_equal(dw, gw)


class TestClassicalEqual:
    def test_gl4_class(self):
        assert classical_equal(W("1,2,3,0|"), W("1,2,0,3|"))
        assert classical_equal(W("1,2,3,0|"), W("1,0,2,3|"))
        assert not classical_equal(W("1,3,0,2|"), W("0,1,2,3|"))
        w = W("1,3,0,2|")
        assert classical_equal(w, w)

    def test_singular_orbit(self):
        assert classical_equal(W("2,0,1|"), W("0,2,1|"))
        assert not classical_equal(W("2,0,1|"), W("2,1,0|"))


class TestClassicalCover:
    def test_regular_gl3(self):
        assert classical_cover(W("2,0,1|"), W("2,1,0|"), **NO_DISK)
        assert not classical_cover(W("0,1,2|"), W("2,1,0|"), **NO_DISK)

    def test_product_requires_one_factor_fixed(self):
        assert classical_cover(W("0,1|1,0"), W("1,0|1,0"), **NO_DISK)
        assert not classical_cover(W("0,1|0,1"), W("1,0|1,0"), **NO_DISK)
