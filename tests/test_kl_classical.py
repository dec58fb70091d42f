import hashlib
import json
import logging
import re
import sys
import threading
import tracemalloc
import zlib
from collections import Counter
from itertools import combinations_with_replacement as multisets
from itertools import permutations as iperm
from itertools import product
from itertools import zip_longest

import pytest

from primspec import kl_classical
from primspec.errors import (
    BoundExceededError,
    CacheVersionError,
    InvariantError,
    PreconditionError,
)
from primspec.kl_classical import (
    KLTable,
    LeftOrder,
    classical_cover,
    classical_equal,
    classical_inclusion,
    classical_relation,
    kl_table,
    left_preorder,
    mu,
)
from primspec.laurent import ONE, ZERO, LaurentPolynomial
from primspec.posets import Preorder, bits, wall_edges
from primspec.super_inclusion import inclusion
from primspec.tableaux import (
    all_permutations,
    inverse,
    robinson_schensted,
    tau_of_weight,
)
from primspec.weights import SuperWeight
from oracles import bruhat_leq, inversions

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


def _oracle_kl(m):
    """Independent KL polynomials: {w: {x: coefficients of P_{x,w}(q),
    ascending}} over S_m, by the left-descent recursion (Humphreys,
    Reflection Groups and Coxeter Groups, 7.11): for s w < w and v = s w,

        P_{x,w} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum_{z < v, sz < z} mu(z,v) q^((l(w)-l(z))/2) P_{x,z},

    with c = 1 if sx < x and c = 0 otherwise.  Here s_i acts on the left,
    swapping the values i and i+1 of the one-line word."""
    perms = sorted(iperm(range(1, m + 1)), key=lambda w: (inversions(w), w))
    length = {w: inversions(w) for w in perms}

    def left(i, w):
        return tuple(i + 1 if a == i else i if a == i + 1 else a for a in w)

    def add(acc, poly, shift, scale=1):
        for k, c in enumerate(poly):
            acc[k + shift] = acc.get(k + shift, 0) + scale * c

    def oracle_mu(z, v):
        gap, poly = length[v] - length[z], P[v].get(z, [])
        k = (gap - 1) // 2
        return poly[k] if gap % 2 and k < len(poly) else 0

    P = {}
    for w in perms:
        if length[w] == 0:
            P[w] = {w: [1]}
            continue
        i = next(i for i in range(1, m) if w.index(i + 1) < w.index(i))
        v = left(i, w)
        terms = [
            (z, oracle_mu(z, v)) for z in P[v]
            if z != v and length[left(i, z)] < length[z] and oracle_mu(z, v)
        ]
        column = {}
        for x in perms:
            c = 1 if length[left(i, x)] < length[x] else 0
            acc = {}
            add(acc, P[v].get(left(i, x), []), 1 - c)
            add(acc, P[v].get(x, []), c)
            for z, k in terms:
                add(acc, P[z].get(x, []), (length[w] - length[z]) // 2, -k)
            if any(acc.values()):
                column[x] = [acc.get(k, 0) for k in range(max(acc) + 1)]
        P[w] = column
    return P


def _oracle_mu(P, x, y):
    """Symmetrized mu from the oracle table."""
    if inversions(x) > inversions(y):
        x, y = y, x
    gap, poly = inversions(y) - inversions(x), P[y].get(x, [])
    k = (gap - 1) // 2
    return poly[k] if x != y and gap % 2 and k < len(poly) else 0


class TestBruhat:
    def test_identity_below_everything(self):
        for y in all_permutations(4):
            assert bruhat_leq((1, 2, 3, 4), y)
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
                    assert not p

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
                    assert 2 * max(e for e, _ in p.to_pairs()) <= gap - 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_against_left_descent_oracle(self, m):
        P = _oracle_kl(m)
        table = kl_table(m, **NO_DISK)
        for x in all_permutations(m):
            for y in all_permutations(m):
                expected = LaurentPolynomial(dict(enumerate(P[y].get(x, []))))
                assert table.kl_polynomial(x, y) == expected, (x, y)
                assert table.mu(x, y) == _oracle_mu(P, x, y), (x, y)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_len_counts_bruhat_pairs(self, m):
        # each stored pair stands for a double coset; the sizes must add up
        # to every comparable pair, counted here by brute force
        perms = list(all_permutations(m))
        expected = sum(x != y and bruhat_leq(x, y) for x in perms for y in perms)
        assert len(kl_table(m, **NO_DISK)) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_mu_pairs_match_oracle(self, m):
        # pins the one-step rule: a pair off the stored ones has mu 1 exactly
        # when it is one step apart
        P = _oracle_kl(m)
        expected = {
            (x, y, _oracle_mu(P, x, y))
            for y in P for x in P[y] if x != y and _oracle_mu(P, x, y)
        }
        assert set(kl_table(m, **NO_DISK).mu_pairs()) == expected

    def test_rank_six_digest(self):
        # every (x, y, P, mu) with P != 0 at rank 6 (97,687 off-diagonal
        # pairs), digested from the dict-of-dicts build this table replaced
        table = kl_table(6, **NO_DISK)
        perms = list(all_permutations(6))
        digest = hashlib.sha256()
        for y in perms:
            for x in perms:
                p = table.kl_polynomial(x, y)
                if p:
                    digest.update(repr((x, y, p.to_pairs(), table.mu(x, y))).encode())
        assert len(table) == 97687
        assert digest.hexdigest() == (
            "52f020590a3ad93e8613c50e15418d610b6ac276ca2d7d812db1eaeeb227a0dc"
        )

    def test_rank_seven_len(self):
        # recorded from the count that built one Counter per stored x
        assert len(kl_classical._build_kl_table(7)) == 3545879

    @pytest.mark.slow
    def test_rank_eight_len(self):
        assert len(kl_classical._build_kl_table(8)) == 170248265

    @staticmethod
    def _digest(m):
        """Each column's packed h by x, then the left order with no class
        ids in it: the cells as word lists, and the closure as each cell's
        least word with the least words of the cells below it.  Columns, and
        x within each, go in (length, lex) order, x keyed by its place there:
        the numbering the digests were recorded under."""
        table = kl_classical._build_kl_table(m)
        order = LeftOrder(table)
        digest = hashlib.sha256()
        by_length = sorted(range(len(table.perms)), key=lambda i: (table.lengths[i], i))
        place = dict(zip(by_length, range(len(by_length))))
        stored = TestCache._stored(table)
        for yi in by_length:
            digest.update(repr(sorted((place[x], h) for x, h in stored[yi].items())).encode())
        cells = {}
        for r in order.perms:
            cells.setdefault(order.class_id(r), []).append(r)
        least = {c: words[0] for c, words in cells.items()}
        closure = ((least[c], sorted(least[d] for d in bits(order.preorder.below(c))))
                   for c in cells)
        digest.update(repr(sorted(cells.values())).encode())
        digest.update(repr(sorted(closure)).encode())
        return digest.hexdigest()

    @pytest.mark.slow
    def test_rank_seven_digest(self):
        # digested from the build with the full coset walk
        assert self._digest(7) == (
            "696692a4245204d540865228401116b5d1c24d0e00ba2d58e35980d5af42c09a"
        )

    @pytest.mark.slow
    def test_rank_eight_digest(self):
        # digested from the build that ran the recursion for every column
        assert self._digest(8) == (
            "67a825b2c8b972744a3dad12b79163dc7f3d85c259d443b0e79d5809a9d4eedc"
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_oracle_is_invariant_under_the_mirrors(self, m):
        # P_{x,y} = P_{x^-1,y^-1} = P_{w0 x w0, w0 y w0} (Kazhdan-Lusztig 1979),
        # on the oracle alone: what lets the build mirror columns
        P = {y: {x: LaurentPolynomial(dict(enumerate(poly))) for x, poly in column.items()}
             for y, column in _oracle_kl(m).items()}

        def conjugate(w):  # w0 w w0
            return tuple(m + 1 - v for v in reversed(w))

        for y, column in P.items():
            for g in (inverse, conjugate):
                assert P[g(y)] == {g(x): poly for x, poly in column.items()}, (y, g)

    def test_mirrored_columns_hold_only_extremal_pairs(self):
        table = kl_table(6, **NO_DISK)
        mirrored = [yi for yi in range(720) if table._mirror(yi) is not None]
        assert len(mirrored) == 720 - 230
        for yi in mirrored:
            assert all(table._raise(xi, yi) == xi for xi in table._cols[yi]), yi

    @staticmethod
    def _schedule_failures(table, number):
        """What breaks if the build ran its columns by `number` (index ->
        position): Bruhat pairs x < y numbered the wrong way round (by the
        oracle); for each column y the recursion runs, a y s (s its first
        right descent) numbered after y, or a z read off `_mu_below(y s)`
        numbered after y s; for each mirrored column, an orbit whose first
        member does not have the least number."""
        perms, n = table.perms, len(table.perms)
        bruhat = [(x, y) for x in range(n) for y in range(n)
                  if x != y and number[x] > number[y] and bruhat_leq(perms[x], perms[y])]
        reads, orbits = [], []
        for yi in range(1, n):
            g = table._mirror(yi)
            if g is not None:
                orbit = {yi, *(h[yi] for h in table._mirrors)}
                if number[g[yi]] != min(map(number.__getitem__, orbit)):
                    orbits.append(yi)
                continue
            y1 = table._right[yi][table._low[table._dr[yi]]]
            if number[y1] > number[yi]:
                reads.append((y1, yi))
            reads += [(z, y1) for z in table._mu_below(y1) if number[z] > number[y1]]
        return bruhat, reads, orbits

    @pytest.mark.parametrize("m", range(1, 6))
    def test_lex_rank_extends_the_bruhat_order(self, m):
        # the build runs columns by index, the lex rank; colex is no Bruhat
        # extension: for y = x (i j) above x, y is smaller at position j
        table = kl_table(m, **NO_DISK)
        assert table.perms == sorted(table.perms)
        assert self._schedule_failures(table, range(len(table.perms))) == ([], [], [])
        if m > 1:
            colex = sorted(range(len(table.perms)), key=lambda i: table.perms[i][::-1])
            number = dict(zip(colex, range(len(colex))))
            bruhat, reads, orbits = self._schedule_failures(table, number)
            assert len(bruhat) == len(table)  # every comparable pair the wrong way round
            assert reads
            assert orbits or m < 4

    @pytest.mark.parametrize("m", range(2, 7))
    def test_pruned_walk_yields_the_k_tops(self, m):
        # for every (J', K) the build walks and every u stored for y': the
        # K-tops of the whole coset u W_J', found by a search of the coset
        table = kl_table(m, **NO_DISK)
        right, dr, low = table._right, table._dr, table._low
        for yi in range(1, len(table.perms)):
            y1 = right[yi][low[dr[yi]]]
            mask, keep = dr[y1], dr[yi] & dr[y1]
            walk = kl_classical._coset_walk(right, dr, low, mask, keep)
            for u in table._cols[y1]:
                coset = {u}
                frontier = [u]
                while frontier:
                    w = frontier.pop()
                    for t in range(m - 1):
                        if mask >> t & 1 and right[w][t] not in coset:
                            coset.add(right[w][t])
                            frontier.append(right[w][t])
                walked = walk(u)
                assert len(walked) == len(set(walked))
                assert set(walked) == {g for g in coset if dr[g] & keep == keep}

    def test_a_diagonal_off_one_is_refused(self, monkeypatch):
        # B_y = B_{y'} B_s - ... has H_y with coefficient h_{y',y'} = 1; a
        # table whose diagonal reads 2 breaks that at the first column built
        init = KLTable.__init__

        def doctored(self, m):
            init(self, m)
            self._packed[0] = 2

        monkeypatch.setattr(KLTable, "__init__", doctored)
        with pytest.raises(InvariantError, match="^new-basis element is not unitriangular$"):
            kl_classical._build_kl_table(3)

    def test_bound_refusal_names_bound(self):
        with pytest.raises(BoundExceededError) as err:
            kl_table(9, bound=7, **NO_DISK)
        assert "7" in str(err.value) and "9" in str(err.value)

    def test_rank_below_one_refused(self):
        with pytest.raises(PreconditionError, match="m >= 1"):
            kl_table(0, **NO_DISK)
        with pytest.raises(PreconditionError, match="m >= 1"):
            left_preorder(-1, **NO_DISK)


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

    @pytest.mark.parametrize("m", range(1, 6))
    def test_reads_match_the_raised_read(self, m):
        # the shortcuts of `kl_polynomial` and `mu` against the read through
        # `_raise` on every pair: h_{x,y} = v^k h_{x*,y}, x* x raised k steps
        table = kl_table(m, **NO_DISK)

        def h(xi, yi):
            top = table._raise(xi, yi)
            pid = table._cols[yi].get(top)
            k = table.lengths[top] - table.lengths[xi]
            return 0 if pid is None else table._packed[pid] << 16 * k

        for xi, x in enumerate(table.perms):
            for yi, y in enumerate(table.perms):
                pid = table._cols[yi].get(table._raise(xi, yi))
                assert table.kl_polynomial(x, y) == (ZERO if pid is None else table._polys[pid])
                lo, hi = min(xi, yi), max(xi, yi)
                assert table.mu(x, y) == h(lo, hi) >> 16 & 0xFFFF, (x, y)
                if (table.lengths[hi] - table.lengths[lo]) % 2 == 0:
                    assert table.mu(x, y) == 0

    def test_mu_reads_never_raise(self, monkeypatch):
        table = kl_table(5, **NO_DISK)
        expected = [table.mu(x, y) for x in table.perms for y in table.perms]

        def refuse(*args):
            raise AssertionError("mu raised x")

        monkeypatch.setattr(kl_classical.KLTable, "_raise", refuse)
        assert [table.mu(x, y) for x in table.perms for y in table.perms] == expected
        assert sum(expected) == 2 * sum(1 for _ in table.mu_pairs())

    def test_same_length_reads_skip_the_raise(self, monkeypatch):
        # distinct x, y of one length are never comparable: P is 0 by lengths alone
        table = kl_table(5, **NO_DISK)

        def refuse(*args):
            raise AssertionError("raised a pair that lengths decide")

        monkeypatch.setattr(kl_classical.KLTable, "_raise", refuse)
        pairs = 0
        for xi, x in enumerate(table.perms):
            for yi, y in enumerate(table.perms):
                if xi != yi and table.lengths[xi] == table.lengths[yi]:
                    assert table.kl_polynomial(x, y) == ZERO
                    pairs += 1
        assert pairs == 1810  # sum of c (c - 1) over the Mahonian numbers of rank 5


class TestPacking:
    def test_oversized_slot_is_refused(self):
        # P = 1 + 2^15 q at gap 3 passes the degree and constant-term checks;
        # only the slot-width guard stops it
        h = (1 << 48) | (1 << 15 << 16)
        with pytest.raises(InvariantError, match="slot of 2"):
            kl_classical._unpack(h, 3)

    def test_negative_value_is_refused(self):
        with pytest.raises(InvariantError, match="negative"):
            kl_classical._unpack(-(1 << 16), 1)

    def test_unpack_reads_p_off_h(self):
        # h = v^3 + v, gap 3: P = 1 + q
        assert kl_classical._unpack((1 << 48) | (1 << 16), 3) == ((0, 1), (1, 1))
        with pytest.raises(InvariantError, match="degree"):
            kl_classical._unpack((1 << 48) | (1 << 32), 3)
        with pytest.raises(InvariantError, match="constant term"):
            kl_classical._unpack(2 << 16, 1)


# sha256 of the version-2 cache files, ranks 4..6: a format change needs a
# version bump
SAVED_SHA256 = {
    4: "a36a54c25bd7cb8425db32ad7a58dd0c79046721eb1cf17a5fbe9ac62df20e49",
    5: "d9985664d2fa25b6b57d3eaec7f7f4f08507fcd68c3d0a11c517430577b5ab87",
    6: "bcfaa354b3c9592d46cdcef39bfa703b9ddd8c1c4a4cf76655f2b048fbb70a21",
}


def _saved_lines(tmp_path, m):
    path = kl_classical.cache_file(m, tmp_path)
    kl_table(m, **NO_DISK).save(path)
    return path, path.read_text().splitlines()


def _restamp(path, lines):
    """Write `lines` back under their own count and CRC-32, so that only the
    per-line checks can refuse them."""
    header = json.loads(lines[0])
    body = "".join(line + "\n" for line in lines[1:]).encode()
    header.update(count=len(lines) - 1, crc32=zlib.crc32(body))
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


class TestCache:
    def test_round_trip(self, tmp_path):
        for m in range(1, 7):
            table = kl_table(m, **NO_DISK)
            path = kl_classical.cache_file(m, tmp_path)
            table.save(path)
            loaded = KLTable.load(path, m)
            assert len(loaded) == len(table)
            assert sorted(loaded.mu_pairs()) == sorted(table.mu_pairs())
            assert self._stored(loaded) == self._stored(table)
            for x in table.perms if m <= 5 else ():  # 518,400 reads at rank 6 take 4 s
                for y in table.perms:
                    assert loaded.kl_polynomial(x, y) == table.kl_polynomial(x, y)
                    assert loaded.mu(x, y) == table.mu(x, y)
            fresh, again = LeftOrder(table), LeftOrder(loaded)
            assert [again.class_id(r) for r in again.perms] == [
                fresh.class_id(r) for r in fresh.perms
            ]

    def test_table_is_read_from_disk_on_every_call(self, tmp_path):
        built = kl_table(3, cache_dir=tmp_path)
        assert kl_table(3, **NO_DISK) is not built
        kl_classical.cache_file(3, tmp_path).write_text("not a cache file\n")
        with pytest.raises(CacheVersionError):
            kl_table(3, cache_dir=tmp_path)

    @staticmethod
    def _stored(table):
        """Each column's packed h by x: every P and mu is read off these."""
        return [{x: table._packed[pid] for x, pid in column.items()} for column in table._cols]

    @pytest.mark.parametrize("m", sorted(SAVED_SHA256))
    def test_saved_bytes(self, tmp_path, m):
        path, _ = _saved_lines(tmp_path, m)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[m]
        again = tmp_path / "again.jsonl"
        KLTable.load(path, m).save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_one_line_per_stored_pair(self, tmp_path):
        # the 2,220 extremal pairs of rank 6, not the 97,687 comparable ones
        _, lines = _saved_lines(tmp_path, 6)
        assert json.loads(lines[0])["count"] == len(lines) - 1 == 2220

    def test_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "kl_m3.jsonl"
        path.write_text('{"format": "primspec-kl", "version": 999, "m": 3, "count": 0}\n')
        with pytest.raises(CacheVersionError):
            KLTable.load(path, 3)

    @staticmethod
    def _refuse_first_line_edit(tmp_path, corrupt, reason):
        # the count and CRC are stamped again, so only a per-line check can refuse
        path, lines = _saved_lines(tmp_path, 4)
        assert lines[1] == "[[2, 1, 4, 3], [2, 3, 4, 1], [[0, 1]]]"
        lines[1:3] = corrupt(lines[1:3])
        _restamp(path, lines)
        with pytest.raises(CacheVersionError, match=re.escape(str(path)) + ".*" + reason):
            KLTable.load(path, 4)

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda two: ["not a cache line", two[1]], "JSONDecodeError"),
            (lambda two: [two[0][: len(two[0]) // 2], two[1]], "JSONDecodeError"),
            (lambda two: [two[0].replace("[2, 1, 4, 3]", "[2, 1, 4, 9]", 1), two[1]],
             "KeyError"),
        ],
        ids=["not-json", "truncated-line", "unknown-permutation"],
    )
    def test_corrupt_file_names_the_path(self, tmp_path, corrupt, reason):
        self._refuse_first_line_edit(tmp_path, corrupt, reason)

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda two: [two[0].replace("[[0, 1]]", "[[0, 2]]"), two[1]], "constant term 1"),
            (lambda two: two[::-1], "out of order"),
        ],
        ids=["bad-polynomial", "out-of-order"],
    )
    def test_bad_entry_in_full_file_names_the_path(self, tmp_path, corrupt, reason):
        self._refuse_first_line_edit(tmp_path, corrupt, reason)

    def test_non_extremal_line_is_refused(self, tmp_path):
        # a pair whose x lacks a descent of y is read off its extremal pair
        # and never written
        path, lines = _saved_lines(tmp_path, 4)
        table = kl_table(4, **NO_DISK)
        x, y = next(
            (x, y) for x in table.perms for y in table.perms
            if x != y and table.kl_polynomial(x, y) == ONE
            and table._raise(table.index[x], table.index[y]) != table.index[x]
        )
        lines.append(json.dumps([list(x), list(y), [[0, 1]]]))

        def file_order(line):  # by y, then x, each by (length, lex rank)
            yi, xi = (table.index[tuple(w)] for w in json.loads(line)[1::-1])
            return table.lengths[yi], yi, table.lengths[xi], xi

        lines[1:] = sorted(lines[1:], key=file_order)
        _restamp(path, lines)
        with pytest.raises(CacheVersionError, match="not an extremal pair"):
            KLTable.load(path, 4)

    def test_crc_mismatch_is_refused(self, tmp_path):
        # a parseable edit to P that every per-line check accepts
        path, lines = _saved_lines(tmp_path, 5)
        k = next(k for k, line in enumerate(lines[1:], 1) if line.endswith("[[0, 1], [1, 1]]]"))
        lines[k] = lines[k].replace("[[0, 1], [1, 1]]]", "[[0, 1], [1, 2]]]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheVersionError, match="CRC-32"):
            KLTable.load(path, 5)
        _restamp(path, lines)
        assert KLTable.load(path, 5).kl_polynomial(*[
            tuple(w) for w in json.loads(lines[k])[:2]
        ]).to_pairs() == [[0, 1], [1, 2]]

    def test_failed_cache_write_is_logged(self, tmp_path, caplog):
        # a regular file where the cache directory should be
        blocker = tmp_path / "cache"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="primspec.kl_classical"):
            table = kl_table(3, cache_dir=blocker)
        assert len(table) == len(kl_table(3, **NO_DISK))
        assert str(kl_classical.cache_file(3, blocker)) in caplog.text


class TestLeftPreorder:
    def test_reflexive(self):
        order = left_preorder(3, **NO_DISK)
        for w in all_permutations(3):
            assert order.leq(w, w)

    def test_classes_are_insertion_fibers(self):
        # left cells of S_m are the Robinson-Schensted fibres (KL 1979)
        for m in range(1, 7):
            order = left_preorder(m, **NO_DISK)
            by_tableau, by_cell = {}, {}
            for u in all_permutations(m):
                by_tableau.setdefault(robinson_schensted(u)[0], set()).add(u)
                by_cell.setdefault(order.class_id(u), set()).add(u)
            assert set(map(frozenset, by_tableau.values())) == set(
                map(frozenset, by_cell.values())
            )

    def test_class_count_is_involution_number(self):
        from primspec.tableaux import involution_count

        for m in (2, 3, 4, 5):
            assert left_preorder(m, **NO_DISK).class_count() == involution_count(m)

    def test_inverse_descents_grow_down_the_order(self):
        # what `classical_cover` relies on to search every cell below the new
        # one: the descents of a word's inverse (its ties) are constant on
        # left cells and only grow downwards
        for m in range(2, 7):
            order = left_preorder(m, **NO_DISK)
            descents = {}
            for w in all_permutations(m):
                inv = inverse(w)
                got = frozenset(k for k in range(m - 1) if inv[k] > inv[k + 1])
                assert descents.setdefault(order.class_id(w), got) == got
            for lower, below in descents.items():
                for upper, above in descents.items():
                    if order.preorder.class_leq(lower, upper):
                        assert below >= above, (m, lower, upper)

    @staticmethod
    def _sorted_construction(table):
        """The order built on its own lex-sorted words: a second index, each
        node found as the index of inverse(u w0), masks read off the tuples
        and mu rows sorted."""
        m = table.m
        perms = sorted(all_permutations(m))
        index = {w: i for i, w in enumerate(perms)}
        masks = [sum(1 << p for p in range(m - 1) if r[p] < r[p + 1]) for r in perms]
        node = [index[inverse(u[::-1])] for u in table.perms]
        partners = ((node[yi], [node[xi] for xi in sorted(table._mu_below(yi))])
                    for yi in range(len(node)))
        return perms, Preorder(len(perms), wall_edges(masks, partners))

    def _check_index_arithmetic(self, m):
        table = kl_classical._build_kl_table(m)
        order = LeftOrder(table)
        perms, preorder = self._sorted_construction(table)
        assert order.perms == perms
        assert [order.class_id(r) for r in perms] == list(map(preorder.class_id, range(len(perms))))
        count = preorder.class_count()
        assert order.class_count() == count
        assert list(map(order.preorder.below, range(count))) == list(map(preorder.below, range(count)))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_index_arithmetic_matches_the_sorted_construction(self, m):
        self._check_index_arithmetic(m)

    @pytest.mark.slow
    def test_rank_eight_index_arithmetic(self):
        self._check_index_arithmetic(8)

    @pytest.mark.slow
    def test_rank_eight_order_memory(self):
        # built through the set of its 324,854 generating edges, the order
        # took the traced peak to 46.9 MiB; from adjacency lists it is about 9
        table = kl_classical._build_kl_table(8)  # the table is built outside the measure
        tracemalloc.start()
        try:
            order = LeftOrder(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order.class_count() == 764
        assert peak < 23.4 * 2**20, peak

    def test_cached_order_still_honours_bound(self):
        # a cached rank-5 order must not answer for a caller bounded at 3
        left_preorder(5, **NO_DISK)
        with pytest.raises(BoundExceededError):
            left_preorder(5, bound=3, **NO_DISK)
        with pytest.raises(BoundExceededError):
            inclusion(W("4,3,2,1,0|"), W("0,1,2,3,4|"), bound=3, **NO_DISK)

    def test_cached_order_still_refuses_unknown_keywords(self):
        left_preorder(3, **NO_DISK)
        with pytest.raises(TypeError, match="use_disc"):
            left_preorder(3, use_disc=False)

    def test_concurrent_first_fetches_agree(self):
        kl_classical._left_order.cache_clear()
        start, orders = threading.Barrier(2, timeout=60), [None, None]

        def fetch(k):
            start.wait()
            orders[k] = left_preorder(5, **NO_DISK)

        threads = [threading.Thread(target=fetch, args=(k,)) for k in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two builds finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        first, second = orders
        assert [first.class_id(r) for r in first.perms] == [
            second.class_id(r) for r in second.perms
        ]

    def test_order_kept_per_cache_setting(self, tmp_path):
        # an order is reused only under the same cache_dir and use_disk
        kept = left_preorder(3, **NO_DISK)
        assert left_preorder(3, **NO_DISK) is kept
        assert not kl_classical.cache_file(3, tmp_path).exists()
        assert left_preorder(3, cache_dir=tmp_path) is not kept
        assert kl_classical.cache_file(3, tmp_path).exists()


def _shape(word):
    return tuple(map(len, robinson_schensted(word)[0]))


def _strictly_dominates(big, small):
    """Is partition `big` above `small` in the dominance order, and not equal?"""
    above = below = 0
    for b, s in zip_longest(big, small, fillvalue=0):
        above, below = above + b, below + s
        if above < below:
            return False
    return big != small


def _dominance_failures(order):
    """The number of strict class pairs (upper, lower) of `order`, and those
    whose upper cell's RS shape does not strictly dominate the lower's; a
    cell holding two shapes fails as (c, c)."""
    shapes = {}
    for r in order.perms:
        shapes.setdefault(order.class_id(r), set()).add(_shape(r))
    failures = [(c, c) for c, found in shapes.items() if len(found) != 1]
    shape = {c: min(found) for c, found in shapes.items()}
    below = order.preorder.below
    strict = [(c, d) for c in shape for d in bits(below(c) & ~(1 << c))]
    failures += [(c, d) for c, d in strict if not _strictly_dominates(shape[c], shape[d])]
    return len(strict), failures


def _descent_masks(order):
    """Cell -> the set of left descent masks of its rank words."""
    masks = {}
    for r, mask in enumerate(order.left_descents):
        masks.setdefault(order.preorder.class_id(r), set()).add(mask)
    return masks


def _descent_failures(order):
    """The cells holding two left descent masks, as (c, c), and the strict
    class pairs (upper, lower) whose lower cell's mask lacks a descent of
    the upper cell's."""
    masks = _descent_masks(order)
    failures = [(c, c) for c, found in masks.items() if len(found) != 1]
    mask = {c: min(found) for c, found in masks.items()}
    below = order.preorder.below
    return failures + [
        (c, d) for c in mask for d in bits(below(c) & ~(1 << c)) if mask[c] & ~mask[d]
    ]


def _mu_values(table):
    """How often each mu value occurs over the table's pairs with mu != 0."""
    return Counter(value for _, _, value in table.mu_pairs())


class TestTableFreeChecks:
    """Necessary conditions on the left order and on mu whose statement
    needs no KL polynomial.

    J(x) strictly inside J(y) makes the associated variety of J(y) a proper
    subvariety of that of J(x) (Borho-Brylinski 1982, Joseph 1984); in type
    A these are nilpotent orbit closures, fixed by the RS shape and ordered
    by dominance, and comparable cells of one shape coincide (Lusztig's P9).
    So a strict class pair climbs strictly in dominance from the lower cell
    to the upper.  The descent set is constant on left cells and only grows
    down the left order (Kazhdan-Lusztig 1979, 2.4); in this code's rank
    words it is the left descent mask, the set `classical_cover` relies on.
    And mu is 0 or 1 in S_n for n <= 9 (McLarnan-Warrington 2003)."""

    # strict class pairs and mu pairs, counted at the ranks they are known for
    STRICT_PAIRS = {7: 5679, 8: 39623}
    MU_PAIRS = {6: 4268, 7: 41934, 8: 457782}

    def _check(self, m, **kw):
        table = kl_table(m, **kw, **NO_DISK)
        order = LeftOrder(table)
        strict, failures = _dominance_failures(order)
        assert failures == []
        assert strict == self.STRICT_PAIRS.get(m, strict)
        assert _descent_failures(order) == []
        mus = _mu_values(table)
        assert set(mus) == {1}
        assert mus[1] == self.MU_PAIRS.get(m, mus[1])

    @pytest.mark.parametrize("m", range(2, 8))
    def test_strict_pairs_climb_in_dominance_and_mu_is_one(self, m):
        self._check(m)

    @pytest.mark.slow
    def test_rank_eight(self):
        self._check(8, bound=8)

    def test_a_doctored_closure_row_fails(self):
        order = LeftOrder(kl_table(4, **NO_DISK))
        assert _dominance_failures(order)[1] == []
        assert _descent_failures(order) == []
        mask = {c: min(found) for c, found in _descent_masks(order).items()}
        upper, lower = next((c, d) for c in range(order.class_count())
                            for d in bits(order.preorder.below(c) & ~(1 << c))
                            if mask[c] != mask[d])
        order.preorder._closure[lower] |= 1 << upper  # the upper cell put below the lower one
        assert _dominance_failures(order)[1] == [(lower, upper)]
        assert _descent_failures(order) == [(lower, upper)]

    def test_a_doctored_mu_fails(self, monkeypatch):
        # a stored pair's v term read as 2; the one-step pairs keep mu 1
        table = kl_table(5, **NO_DISK)
        monkeypatch.setattr(table, "_slot_one", [2 if v else 0 for v in table._slot_one])
        assert set(_mu_values(table)) == {1, 2}


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

    def test_relation_reads_equality_and_inclusion_both_ways(self):
        weights = [
            SuperWeight(labels[:m], labels[m:])
            for m, n in ((3, 0), (2, 1), (2, 2))
            for labels in product(range(3), repeat=m + n)
        ]
        for d in weights:
            for g in weights:
                if (d.m, d.n) != (g.m, g.n):
                    continue
                below = classical_inclusion(d, g, **NO_DISK)
                above = classical_inclusion(g, d, **NO_DISK)
                want = "equal" if classical_equal(d, g) else {
                    (True, False): "subset", (False, True): "superset",
                }.get((below, above), "incomparable")
                assert classical_relation(d, g, **NO_DISK) == want, (d, g)

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

    def test_insertion_runs_once_per_rank_word(self, monkeypatch):
        # the memo calls the module's `robinson_schensted` at call time, so a
        # wrapper installed there (as the benchmark's tracer does) sees each miss
        words = []

        def counted(word):
            words.append(word)
            return robinson_schensted(word)

        monkeypatch.setattr(kl_classical, "robinson_schensted", counted)
        kl_classical._insertion.cache_clear()
        for _ in range(3):
            assert classical_equal(W("1,2,3,0|"), W("1,2,0,3|"))
            assert not classical_equal(W("1,3,0,2|"), W("0,1,2,3|"))
        assert len(words) == len(set(words)) == 4
        assert kl_classical._insertion.cache_info().maxsize == kl_classical.INSERTION_MEMO_SIZE


class TestClassicalCover:
    def test_regular_gl3(self):
        assert classical_cover(W("2,0,1|"), W("2,1,0|"), **NO_DISK)
        assert not classical_cover(W("0,1,2|"), W("2,1,0|"), **NO_DISK)

    def test_product_requires_one_factor_fixed(self):
        assert classical_cover(W("0,1|1,0"), W("1,0|1,0"), **NO_DISK)
        assert not classical_cover(W("0,1|0,1"), W("1,0|1,0"), **NO_DISK)

    @staticmethod
    def _brute_force_covers(orbit):
        """The covers of one orbit, each checked against the reference: a
        strict inclusion with no orbit member strictly between."""
        below = {
            (d, g) for d in orbit for g in orbit
            if classical_inclusion(d, g, **NO_DISK) and not classical_equal(d, g)
        }
        found = 0
        for d in orbit:
            for g in orbit:
                expected = (d, g) in below and not any(
                    (d, z) in below and (z, g) in below for z in orbit
                )
                assert classical_cover(d, g, **NO_DISK) == expected, (d, g)
                found += expected
        return found

    def test_matches_brute_force_covers(self):
        # every ordered same-orbit pair of gl(m)+gl(n), m+n <= 4, labels 0..2
        found = 0
        for m, n in [(m, n) for m in range(1, 5) for n in range(5 - m)]:
            for left in multisets(range(3), m):
                for right in multisets(range(3), n):
                    found += self._brute_force_covers([
                        SuperWeight(a, b)
                        for a in set(iperm(left)) for b in set(iperm(right))
                    ])
        assert found == 338  # the reference is not vacuous
        # and every tie pattern of a rank-5 factor, one per composition of 5
        found = 0
        for cuts in range(16):
            labels = [(cuts & (1 << k) - 1).bit_count() for k in range(5)]
            found += self._brute_force_covers([SuperWeight(a, ()) for a in set(iperm(labels))])
        assert found == 3292
