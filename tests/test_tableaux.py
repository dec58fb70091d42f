import random
from fractions import Fraction
from itertools import permutations, product

from primspec.tableaux import (
    all_permutations,
    inverse,
    involution_count,
    rank_word,
    robinson_schensted,
    tau,
    tau_of_weight,
)
from oracles import inversions


def row_of(tableau, entry):
    """1-based row index of an entry of a tableau given as a tuple of rows."""
    return next(i for i, row in enumerate(tableau, 1) if entry in row)


def is_standard(tableau, m):
    """Entries exactly 1..m, rows and columns strictly increasing, row
    lengths weakly decreasing."""
    entries = sorted(x for row in tableau for x in row)
    rows_rise = all(a < b for row in tableau for a, b in zip(row, row[1:]))
    columns_rise = all(
        len(low) <= len(up) and all(a < b for a, b in zip(up, low))
        for up, low in zip(tableau, tableau[1:])
    )
    return entries == list(range(1, m + 1)) and rows_rise and columns_rise


class TestRobinsonSchensted:
    def test_identity_gives_single_row(self):
        a, b = robinson_schensted((1, 2, 3, 4))
        assert a == b == ((1, 2, 3, 4),)

    def test_longest_gives_single_column(self):
        a, b = robinson_schensted((4, 3, 2, 1))
        assert a == b == ((1,), (2,), (3,), (4,))

    def test_bijection_and_inverse_swap_exhaustive(self):
        for m in range(1, 6):
            seen = set()
            for w in all_permutations(m):
                a, b = robinson_schensted(w)
                assert is_standard(a, m) and is_standard(b, m)
                assert list(map(len, a)) == list(map(len, b))
                seen.add((a, b))
                ai, bi = robinson_schensted(inverse(w))
                assert (ai, bi) == (b, a)
                assert (inverse(w) == w) == (a == b)
            assert len(seen) == len(list(all_permutations(m)))


class TestTau:
    def test_extremes(self):
        assert tau((1, 2, 3, 4, 5)) == frozenset()
        assert tau((5, 4, 3, 2, 1)) == frozenset({1, 2, 3, 4})

    def test_descents_vs_row_criterion(self):
        # descents of w are read off the recording tableau, descents of the
        # inverse off the insertion tableau: p is a descent iff entry p+1
        # sits in a strictly lower row.
        for m in range(2, 6):
            for w in all_permutations(m):
                ins, rec = robinson_schensted(w)
                descents = tau(w)
                inv_descents = tau(inverse(w))
                for p in range(1, m):
                    assert (p in descents) == (row_of(rec, p + 1) > row_of(rec, p))
                    assert (p in inv_descents) == (row_of(ins, p + 1) > row_of(ins, p))

    def test_half_of_tableaux_have_each_descent(self):
        for m in range(2, 6):
            tableaux = {robinson_schensted(w)[1] for w in all_permutations(m)}
            for i in range(1, m):
                hits = sum(1 for t in tableaux if row_of(t, i + 1) > row_of(t, i))
                assert hits * 2 == len(tableaux)


class TestRankWord:
    def test_regular(self):
        assert rank_word((1, 3, 0, 2)) == (3, 1, 4, 2)

    def test_ties_break_backwards(self):
        assert rank_word((1, 1, 0)) == (2, 1, 3)
        assert rank_word((2, 2, 2)) == (3, 2, 1)

    def test_every_short_label_tuple_follows_the_rule(self):
        # rank of position i: 1 + the labels above it + its ties to its right
        for n in range(7):
            for labels in product(range(4), repeat=n):
                expected = tuple(
                    1 + sum(b > a for b in labels) + sum(b == a for b in labels[i + 1:])
                    for i, a in enumerate(labels)
                )
                assert rank_word(labels) == expected, labels


def egf_series(order=11):
    """Taylor coefficients of exp(x + x^2/2) as exact fractions."""
    series = [Fraction(0)] * order
    series[0] = Fraction(1)
    term = [Fraction(1)] + [Fraction(0)] *(order - 1)
    for k in range(1, order):
        nxt = [Fraction(0)] * order
        for e, c in enumerate(term):
            if c:
                if e + 1 < order:
                    nxt[e + 1] += c
                if e + 2 < order:
                    nxt[e + 2] += c / 2
        term = [c / k for c in nxt]
        for e, c in enumerate(term):
            series[e] += c
    return series


def _longest_sorting_permutation(labels):
    """Brute force: the longest w whose inverse sorts labels decreasingly."""
    m = len(labels)
    best = None
    for w in permutations(range(1, m + 1)):
        arranged = tuple(labels[w[k] - 1] for k in range(m))
        if list(arranged) == sorted(labels, reverse=True):
            if best is None or inversions(w) > inversions(best):
                best = w
    return best


class TestTauOfWeight:
    def test_examples(self):
        assert tau_of_weight((2, 1, 0)) == frozenset()
        assert tau_of_weight((0, 1, 2)) == frozenset({1, 2})
        assert 1 in tau_of_weight((1, 1, 0))
        assert tau_of_weight((1, 3, 0, 2)) == frozenset({2})

    def test_against_longest_representative_brute_force(self):
        rng = random.Random(7)
        for m in range(2, 6):
            for _ in range(40):
                labels = tuple(rng.randint(0, 3) for _ in range(m))
                w = _longest_sorting_permutation(labels)
                assert inverse(rank_word(labels)) == w
                assert tau_of_weight(labels) == tau(w)


class TestInvolutionCount:
    def test_small_values(self):
        assert involution_count(1) == 1
        assert involution_count(4) == 10

    def test_matches_enumeration(self):
        for m in range(1, 6):
            direct = sum(1 for w in all_permutations(m) if inverse(w) == w)
            assert involution_count(m) == direct

    def test_exponential_generating_function(self):
        # s_m = m! [x^m] exp(x + x^2/2) for m <= 10.  (The source display
        # drops the 1/2; already s_2 = 2 rules that version out.)
        series = egf_series(order=11)
        fact = 1
        for m in range(11):
            if m:
                fact *= m
            assert series[m] * fact == involution_count(m)
