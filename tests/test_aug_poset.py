import hashlib
import json
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations as iperm, product

import pytest

from primspec.aug_poset import (
    IdealPoset,
    _ladder_length,
    _node,
    counts,
    enumerate_X,
    exceptional_coverings,
    irreducible_components,
    minimal_elements,
    odd_reflection_ad,
    strata,
    to_dot,
    to_json_dict,
)
from primspec.cli import main
from primspec.errors import (
    BoundExceededError,
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
)
from primspec.kl_classical import left_preorder
from primspec.posets import bits
from primspec.super_inclusion import covers, frame, inclusion
from primspec.tableaux import involution_count, rank_word, robinson_schensted, tau_of_weight
from primspec.weights import SuperWeight
from test_kl_classical import _shape, _strictly_dominates
from test_tableaux import egf_series

W = SuperWeight.parse


@pytest.fixture(scope="module")
def posets():
    return {m: enumerate_X(m) for m in range(1, 7)}


@pytest.fixture(scope="module")
def assignments(posets):
    return {m: strata(posets[m]) for m in posets}


class TestRankThreeDiagram:
    def test_classes_and_equalities(self, posets):
        poset = posets[3]
        members = {
            str(c.representative): sorted(str(w) for w in c.members)
            for c in poset.classes
        }
        assert members == {
            "2,1,0|0": ["2,1,0|0"],
            "2,0,1|0": ["0,2,1|0", "2,0,1|0"],
            "1,2,0|0": ["1,0,2|0", "1,2,0|0"],
            "0,1,2|0": ["0,1,2|0"],
            "2,1,1|1": ["1,2,1|1", "2,1,1|1"],
            "1,1,2|1": ["1,1,2|1"],
            "2,2,1|2": ["2,1,2|2", "2,2,1|2"],
            "1,2,2|2": ["1,2,2|2"],
        }

    def test_hasse_edges(self, posets):
        poset = posets[3]
        name = {c.index: str(c.representative) for c in poset.classes}
        edges = {(name[a], name[b]) for a, b in poset.hasse}
        assert edges == {
            ("2,0,1|0", "2,1,0|0"),
            ("1,2,0|0", "2,1,0|0"),
            ("2,1,1|1", "2,1,0|0"),
            ("2,2,1|2", "2,1,0|0"),
            ("0,1,2|0", "2,0,1|0"),
            ("0,1,2|0", "1,2,0|0"),
            ("1,1,2|1", "1,2,0|0"),
            ("1,1,2|1", "2,1,1|1"),
            ("1,2,2|2", "2,1,1|1"),
            ("1,2,2|2", "2,2,1|2"),
        }

    def test_strata_match_prose(self, posets, assignments):
        poset, assign = posets[3], assignments[3]
        by_j = {}
        for c in poset.classes:
            by_j.setdefault(assign[c.index].j_index, set()).add(str(c.representative))
        assert by_j[0] == {"2,1,0|0", "2,1,1|1", "2,2,1|2", "1,2,2|2"}
        assert by_j[1] == {"1,2,0|0", "1,1,2|1"}
        assert by_j[2] == {"2,0,1|0", "0,1,2|0"}
        # X_i is read off the last entry
        for c in poset.classes:
            assert assign[c.index].i_index == c.representative.right[0]
        # maximal ideals of the singular strata
        maxima = {
            i: max(
                (c for c in poset.classes if c.i_index == i),
                key=lambda c: sum(
                    1 for x in range(len(poset.classes)) if (x, c.index) in poset.strict
                ),
            )
            for i in (1, 2)
        }
        assert str(maxima[1].representative) == "2,1,1|1"
        assert str(maxima[2].representative) == "2,2,1|2"


class TestCounts:
    def test_small_ranks(self, posets):
        for m, expected in [(1, 1), (2, 3), (3, 8), (4, 25), (5, 78)]:
            assert len(posets[m].classes) == expected

    def test_stratum_sizes(self, posets):
        for m in range(1, 6):
            report = counts(posets[m])
            assert report.total == (m + 1) * report.involutions // 2
            assert report.stratum_sizes[0] == report.involutions
            for i in range(1, m):
                assert report.stratum_sizes[i] == report.involutions // 2

    def test_formula_against_series(self):
        series = egf_series(order=11)
        fact = 1
        for m in range(11):
            if m:
                fact *= m
            assert series[m] * fact == involution_count(m)

    def test_count_function_series(self):
        # sum_{m>=1} t_m x^m / m! agrees with (1 + x + x^2) exp(x + x^2/2) / 2
        # as exact coefficients through degree 10 (the degree-0 term of the
        # product is the formal 1/2, where no poset exists)
        f = egf_series(order=11)
        fact = 1
        for m in range(1, 11):
            fact *= m
            t_m = (m + 1) * involution_count(m) // 2
            g_m = f[m] + f[m - 1] + (f[m - 2] if m >= 2 else 0)
            assert Fraction(g_m, 2) * fact == t_m

    def test_bound_refusal(self):
        with pytest.raises(BoundExceededError):
            enumerate_X(9)

    def test_rank_six_structure(self):
        # beyond the proven range: the enumeration still satisfies every
        # counting identity and the covering scan stays empty
        poset = enumerate_X(6)
        report = counts(poset)
        assert report.total == 266
        assert report.stratum_sizes == {0: 76, 1: 38, 2: 38, 3: 38, 4: 38, 5: 38}
        assert exceptional_coverings(poset, strata(poset)) == []


class TestRankSeven:
    # digests of the CLI output; a command without --m runs at m = 7.  The
    # first two were recorded from the pairwise node comparison that the
    # closure-row reading replaced, the rest from the code that sorted the
    # DOT lines and kept no left order at m = 1
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("aug-poset", "9be0f9f327d650745cf66efb29aab54151b58db2319a9f18fd29519ca30f922b"),
            ("components", "a60e411b4f1bd5183573ad3648c9832154e42d5748777a3dba5d19df80bba541"),
            (
                "aug-poset --format dot",
                "cc8773c7913cc13d51cf100268aebda4e181764bce24c7abb3bd23085c522b79",
            ),
            (
                "aug-poset --format dot --cluster x",
                "7677abfc0ce37ccf1e60a52c26959aaf73dfc2b7e3a174cc645dd5057b7ba2b2",
            ),
            (
                "aug-poset --m 1",
                "9234004a477f978dfae37c077a1c475daa40953268a6de8d804aec1e39681d7d",
            ),
            (
                "aug-poset --m 1 --format dot --cluster x",
                "1a39ef2b88a412d45eda53f02f8fe0aec9b18412137828ef6d85754b7b6a2e3d",
            ),
            (
                "components --m 1",
                "e65aee684ce5e43f0fe4a1b4c9975ad4cf85f3eb09085a22f006ea67bcfc7ac0",
            ),
        ],
    )
    def test_output_matches_the_recorded_digest(self, capsys, command, digest):
        argv = command.split()
        assert main(argv if "--m" in argv else [*argv, "--m", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRankEight:
    # gl(8|1): 3,438 ideals; digests recorded from the build that read every
    # member's ladder length through `frame`
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("aug-poset", "aa895eb02f46daa4b62b4c1fe664c45eeb1774f3f3b17b24ade424e3fdd61c8f"),
            ("components", "b2d3378c4adfc907d6716cfbd65c59eccc820e59d15ac4fd22b478af6fd1e101"),
        ],
    )
    def test_output_matches_the_recorded_digest(self, capsys, command, digest):
        assert main(["--kl-bound", "8", command, "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_enumeration_memory(self):
        # held as (lower, upper) pairs, the 218,258 strict inclusions took
        # the traced peak to 57.8 MiB; as rows it is about 34 MiB
        left_preorder(8, bound=8)  # the order is built outside the measure
        tracemalloc.start()
        try:
            poset = enumerate_X(8, bound=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(poset.classes) == 3438
        assert peak < 45 * 2**20, peak


class TestStrataChecks:
    def test_a_class_mixing_ladder_lengths_is_refused(self, posets, assignments):
        poset, assign = posets[4], assignments[4]
        x, y = next(
            (x, y)
            for x in poset.classes
            for y in poset.classes
            if x.i_index == y.i_index
            and assign[x.index].p_value != assign[y.index].p_value
        )
        merged = x._replace(members=x.members + y.members)
        classes = tuple(merged if c is x else c for c in poset.classes)
        doctored = IdealPoset(poset.m, classes, poset.down, poset.hasse, poset.order)
        with pytest.raises(InvariantError, match="ladder length not class-invariant"):
            strata(doctored)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_label_read_matches_frame_on_every_member(self, m):
        for c in enumerate_X(m).classes:
            for w in c.members:
                assert _ladder_length(w) == frame(w).p_value, w

    def test_label_read_picks_the_positions_frame_picks(self):
        # off the block too, every left part on labels 0..3 up to m = 5:
        # repeated labels above a, where the rightmost position left of the
        # last step is the one that counts (1,2,1,0|0 has p = 2, not 1)
        for m in range(1, 6):
            for left in product(range(4), repeat=m):
                for a in set(left):
                    w = SuperWeight(left, (a,))
                    assert _ladder_length(w) == frame(w).p_value, w

    def test_label_read_refuses_a_typical_weight(self):
        with pytest.raises(NotSinglyAtypicalError):
            _ladder_length(W("2,1,0|5"))

    def test_frame_disagreeing_with_the_label_read_is_refused(self, monkeypatch):
        import primspec.aug_poset as aug_poset

        real = aug_poset.frame
        monkeypatch.setattr(
            aug_poset, "frame", lambda w: real(w)._replace(p_value=real(w).p_value + 1)
        )
        with pytest.raises(InvariantError, match="frame gives"):
            enumerate_X(3)

    def test_frame_runs_once_per_class(self, monkeypatch):
        import primspec.aug_poset as aug_poset
        import primspec.super_inclusion as super_inclusion

        calls = []
        real = super_inclusion.frame

        def counted(w):
            calls.append(w)
            return real(w)

        for module in (aug_poset, super_inclusion):
            monkeypatch.setattr(module, "frame", counted)
        poset = enumerate_X(5)
        assignments = strata(poset)
        irreducible_components(poset, assignments)
        to_json_dict(poset, assignments)
        assert calls == [c.representative for c in poset.classes]


class TestInvariantGuards:
    """Each `InvariantError` of the poset pipeline fires on one doctored input."""

    def test_a_count_off_the_involution_identity_is_refused(self, monkeypatch):
        import primspec.aug_poset as aug_poset

        monkeypatch.setattr(aug_poset, "involution_count", lambda m: involution_count(m) + 2)
        with pytest.raises(InvariantError, match="enumerated 8 classes, counting identity gives 12"):
            enumerate_X(3)

    def test_a_descent_route_off_the_ladder_route_is_refused(self, posets, monkeypatch):
        import primspec.aug_poset as aug_poset

        monkeypatch.setattr(aug_poset, "tau_of_weight", lambda labels: frozenset())
        with pytest.raises(InvariantError, match="stratum disagreement on .*descent route gives 0, "
                                                 "ladder route gives [1-9]"):
            strata(posets[3])

    def test_a_stratum_window_off_the_up_set_is_refused(self, posets, assignments):
        poset, assign = posets[4], dict(assignments[4])
        c = next(c for c in poset.classes if assign[c.index].p_value)
        assign[c.index] = assign[c.index]._replace(z_set=(c.i_index,))  # off Z_{i+1}
        k = c.i_index + 1
        with pytest.raises(InvariantError, match=rf"component {k}: stratum window .* differs from up-set"):
            irreducible_components(poset, assign)

    def test_a_broken_raising_chain_is_refused(self, posets, assignments, monkeypatch):
        from primspec import crystal

        monkeypatch.setattr(crystal, "e_tilde", lambda w, i: None)
        with pytest.raises(InvariantError, match="raising chain broke at color 0 on "):
            irreducible_components(posets[3], assignments[3])

    def test_stratum_sizes_off_the_involution_number_are_refused(self, posets):
        poset = posets[3]
        moved = poset.classes[0]._replace(i_index=1)  # a stratum-0 class put in stratum 1
        classes = (moved, *poset.classes[1:])
        doctored = IdealPoset(poset.m, classes, poset.down, poset.hasse, poset.order)
        with pytest.raises(InvariantError, match=re.escape(
            "8 classes in strata {1: 3, 0: 3, 2: 2}, expected {0: 4, 1: 2, 2: 2}"
        )):
            counts(doctored)


class TestClassKeys:
    def test_cells_group_as_insertion_tableaux(self, posets):
        # reference grouping: each stratum's orbit, largest weight first,
        # split by the insertion tableau of the left labels
        for m in range(1, 7):
            expected = []
            for i in range(m):
                multiset = [*range(m - 1, 0, -1), i] if i else list(range(m))
                groups = {}
                for left in sorted(set(iperm(multiset)), reverse=True):
                    key = robinson_schensted(rank_word(left))[0]
                    groups.setdefault(key, []).append(SuperWeight(left, (i,)))
                expected.extend(tuple(g) for g in groups.values())
            assert [c.members for c in posets[m].classes] == expected

    @pytest.mark.parametrize("m", range(2, 8))
    def test_left_descent_picks_the_stratum_words(self, m):
        # stratum i keeps the words with rank m-i+1 left of rank m-i
        order = left_preorder(m)
        for i in range(1, m):
            for word, dl in zip(order.perms, order.left_descents):
                tied = word.index(m - i + 1) < word.index(m - i)
                assert bool(dl >> m - i - 1 & 1) == tied, (i, word)

    def test_own_nodes_are_the_members_nodes(self, monkeypatch):
        import primspec.aug_poset as aug_poset

        seen = []
        real = aug_poset._down_rows

        def spy(classes, keys, order):
            seen.append((classes, [node for _, node in keys], order))
            return real(classes, keys, order)

        monkeypatch.setattr(aug_poset, "_down_rows", spy)
        for m in range(2, 8):
            enumerate_X(m)
            classes, own, order = seen.pop()
            assert len(own) == len(classes)
            for c, node in zip(classes, own):
                assert all(_node(order, w) == node for w in c.members), c

    def test_rank_one_takes_the_general_path(self, monkeypatch):
        import primspec.aug_poset as aug_poset

        poset = enumerate_X(1)
        assert len(poset.classes) == 1 and poset.down == (0,)
        assert poset.order.class_count() == 1

        calls = []
        real = aug_poset.left_preorder
        monkeypatch.setattr(
            aug_poset, "left_preorder", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        with pytest.raises(BoundExceededError):
            enumerate_X(1, bound=0)
        assert calls == []  # the bound is refused before the order is fetched
        enumerate_X(1)
        assert calls == [(1,)]


class TestMinimalAndComponents:
    def test_minimal_elements(self, posets):
        for m in range(1, 6):
            mins = minimal_elements(posets[m])
            assert len(mins) == m  # one per stratum, settling the count
            for a in mins:
                for b in mins:
                    if a.index != b.index:
                        assert not inclusion(
                            a.representative, b.representative
                        ) and not inclusion(b.representative, a.representative)

    @pytest.mark.parametrize("k", range(4))
    def test_minimal_rows_off_their_weights_are_refused(self, posets, k):
        poset = posets[4]
        q = minimal_elements(poset)[k].index
        other = next(c.index for c in poset.classes if c.i_index == k and c.index != q)
        for moved in (True, False):  # q's zero row moved to `other`, or just lost
            down = list(poset.down)
            down[q] = 1 << other
            if moved:
                down[other] = 0
            doctored = IdealPoset(poset.m, poset.classes, tuple(down), poset.hasse, poset.order)
            with pytest.raises(InvariantError, match="not one per stratum"):
                minimal_elements(doctored)

    def test_minimal_elements_sit_in_dual_strata(self, posets, assignments):
        # the minimal ideal of stratum i lives in dual stratum m - i - 1
        for m in range(1, 6):
            for c in minimal_elements(posets[m]):
                assign = assignments[m][c.index]
                assert assign.j_index == m - assign.i_index - 1
                assert assign.p_value == 0

    def test_components(self, posets, assignments):
        for m in range(1, 6):
            reports = irreducible_components(posets[m], assignments[m])
            s_m = involution_count(m)
            for r in reports:
                assert len(r.class_indices) == s_m
                assert r.order_isomorphic
            # Z_0 is exactly the regular stratum
            z0 = {posets[m].classes[c].i_index for c in reports[0].class_indices}
            assert z0 == {0}

    def test_components_reuse_the_enumeration_order(self, tmp_path, monkeypatch):
        # the iso check reads the order enumerate_X fetched with the caller's
        # settings; fetching one with default settings would write a cache
        # file into $PRIMSPEC_CACHE
        from primspec import kl_classical

        poset = enumerate_X(4, cache_dir=tmp_path / "given")
        kl_classical._left_order.cache_clear()
        default = tmp_path / "default"
        default.mkdir()
        monkeypatch.setenv("PRIMSPEC_CACHE", str(default))
        reports = irreducible_components(poset, strata(poset))
        assert all(r.order_isomorphic for r in reports)
        assert list(default.iterdir()) == []

    def test_a_dropped_pair_breaks_only_the_components_holding_it(self, posets, assignments):
        # a lower end that is not minimal keeps every up-set check quiet, so
        # only the order-isomorphism check can see the missing pair
        poset, assign = posets[4], assignments[4]
        reports = irreducible_components(poset, assign)
        minimal = {c.index for c in minimal_elements(poset)}
        a, b = next(
            (a, b)
            for a, b in sorted(poset.strict)
            if a not in minimal
            and any({a, b} <= set(r.class_indices) for r in reports)
        )
        down = list(poset.down)
        down[b] &= ~(1 << a)
        broken = IdealPoset(poset.m, poset.classes, tuple(down), poset.hasse, poset.order)
        outcome = [r.order_isomorphic for r in irreducible_components(broken, assign)]
        assert outcome == [not {a, b} <= set(r.class_indices) for r in reports]
        assert False in outcome and True in outcome

    @pytest.mark.parametrize("onto", ["another orbit", "a taken cell"])
    def test_a_misplaced_image_breaks_only_its_components(
        self, posets, assignments, monkeypatch, onto
    ):
        # one class's raised image is moved: its labels shifted by one (same
        # cell, another orbit), or onto another member's image (two classes
        # on one cell); `down` is untouched, so only the image check can see it
        from primspec import crystal

        poset, assign = posets[4], assignments[4]
        reports = irreducible_components(poset, assign)
        # stratum i >= 1 and p = 0: raised through colors 0..i-1, on Z_i alone
        c = next(c for c in poset.classes if c.i_index and not assign[c.index].p_value)
        z = next(r.class_indices for r in reports if r.k == c.i_index)
        other = poset.classes[next(ci for ci in z if ci != c.index)]

        def image(cls):
            w = cls.representative
            for color in range(c.i_index):
                w = crystal.e_tilde(w, color)
            return w

        target = image(c)
        if onto == "another orbit":
            moved = SuperWeight(tuple(x + 1 for x in target.left), (target.right[0] + 1,))
        else:
            moved = image(other)
        real = crystal.e_tilde
        monkeypatch.setattr(
            crystal, "e_tilde", lambda w, i: moved if real(w, i) == target else real(w, i)
        )
        outcome = [r.order_isomorphic for r in irreducible_components(poset, assign)]
        assert outcome == [c.index not in r.class_indices for r in reports]
        assert False in outcome and True in outcome

    def test_union_identity(self, posets, assignments):
        # the union of the first s+1 strata equals the union of the first
        # s+1 components
        for m in range(2, 6):
            poset, assign = posets[m], assignments[m]
            reports = irreducible_components(poset, assign)
            for s in range(m):
                strata_union = {
                    c.index for c in poset.classes if c.i_index <= s
                }
                comp_union = set()
                for k in range(s + 1):
                    comp_union |= set(reports[k].class_indices)
                assert strata_union == comp_union

    def test_local_closure(self, posets, assignments):
        # X_k = Z_k minus (Z_{k-1} intersect Z_k)
        for m in range(2, 6):
            poset, assign = posets[m], assignments[m]
            reports = {r.k: set(r.class_indices) for r in irreducible_components(poset, assign)}
            for k in range(1, m):
                xk = {c.index for c in poset.classes if c.i_index == k}
                assert xk == reports[k] - (reports[k - 1] & reports[k])


def _shape_failures(poset, down):
    """The strict pairs (lower, upper) of the rows `down`, and those whose
    upper class's RS shape does not strictly dominate the lower's.  The
    shape is read off each representative's left rank word; a class is one
    left cell, so it is the shape of every member."""
    shape = [_shape(rank_word(c.representative.left)) for c in poset.classes]
    strict = [(a, b) for b, row in enumerate(down) for a in bits(row)]
    return len(strict), [(a, b) for a, b in strict if not _strictly_dominates(shape[b], shape[a])]


class TestOrderProperties:
    def test_strata_monotone_and_p_gap(self, posets, assignments):
        for m in range(2, 6):
            poset, assign = posets[m], assignments[m]
            for (lo, hi) in poset.strict:
                alo, ahi = assign[lo], assign[hi]
                assert alo.i_index >= ahi.i_index
                assert alo.j_index >= ahi.j_index
                assert ahi.p_value - alo.p_value >= alo.i_index - ahi.i_index >= 0

    def test_tau_grows_across_strata(self, posets, assignments):
        # crossing strata adds the wall of the lower stratum to the
        # invariant, the simple root of gamma-index i sitting at position m - i
        for m in range(2, 6):
            poset, assign = posets[m], assignments[m]
            for (lo, hi) in poset.strict:
                i_lo = assign[lo].i_index
                i_hi = assign[hi].i_index
                if i_lo > i_hi:
                    t_lo = tau_of_weight(poset.classes[lo].representative.left)
                    t_hi = tau_of_weight(poset.classes[hi].representative.left)
                    assert t_lo >= t_hi | {m - i_lo}

    @pytest.mark.parametrize(
        "m, pairs",
        [(2, 2), (3, 13), (4, 91), (5, 561), (6, 3936), (7, 27831),
         pytest.param(8, 218258, marks=pytest.mark.slow)],
    )
    def test_strict_pairs_climb_in_shape_dominance(self, posets, m, pairs):
        """J(lower) strictly inside J(upper) shrinks the associated variety,
        a nilpotent orbit closure fixed by the RS shape, so in the classical
        case the upper shape strictly dominates the lower (Borho-Brylinski
        1982; Joseph 1984).  Across orbits this is observed here, not
        proved: a necessary check that needs no canonical basis, not a
        certificate of the order."""
        poset = posets[m] if m in posets else enumerate_X(m, bound=8)
        assert _shape_failures(poset, poset.down) == (pairs, [])

    def test_a_doctored_down_row_breaks_shape_dominance(self, posets):
        poset = posets[4]
        lower, upper = min(poset.strict)
        down = list(poset.down)
        down[lower] |= 1 << upper  # the upper class put below the lower one
        assert _shape_failures(poset, down) == (92, [(upper, lower)])

    def test_readers_agree_with_the_rows(self, posets):
        for m in range(1, 6):
            poset = posets[m]
            n = len(poset.classes)
            pairs = {(a, b) for b in range(n) for a in range(n) if poset.down[b] >> a & 1}
            assert poset.strict == pairs
            for a in range(n):
                for b in range(n):
                    assert (a == b or bool(poset.down[b] >> a & 1)) == (a == b or (a, b) in pairs)
            assert set(poset.hasse) == {
                (a, b)
                for a, b in pairs
                if not any((a, c) in pairs and (c, b) in pairs for c in range(n))
            }

    def test_no_exceptional_coverings_small_ranks(self, posets, assignments):
        for m in range(1, 6):
            assert exceptional_coverings(posets[m], assignments[m]) == []

    def test_hasse_connected(self, posets):
        for m in range(2, 6):
            poset = posets[m]
            nodes = {c.index for c in poset.classes}
            reach = {0}
            frontier = [0]
            adj = {}
            for a, b in poset.hasse:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            while frontier:
                node = frontier.pop()
                for nxt in adj.get(node, ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            assert reach == nodes

    def test_nothing_outside_compares(self, posets):
        # neighbors from adjacent central characters never compare with
        # members of the component
        poset = posets[3]
        outsiders = [W("3,1,0|0"), W("2,1,0|1"), W("4,2,1|2"), W("3,2,1|3")]
        for out in outsiders:
            for c in poset.classes:
                rep = c.representative
                assert not inclusion(out, rep) and not inclusion(rep, out)

    def test_pointwise_covers_match_hasse(self, posets):
        # the covering decision (classical-side reduction) agrees with the
        # transitive reduction of the enumerated order
        for m in (2, 3, 4, 5):
            poset = posets[m]
            hasse = set(poset.hasse)
            for a in poset.classes:
                for b in poset.classes:
                    if a.index == b.index:
                        continue
                    expected = (b.index, a.index) in hasse
                    got = covers(a.representative, b.representative)
                    assert got == expected, (a.representative, b.representative)
        # rank 6: every Hasse edge covers, every 8th other strict pair does not
        poset = posets[6]
        reps = [c.representative for c in poset.classes]
        assert len(poset.hasse) == 695
        for lower, upper in poset.hasse:
            assert covers(reps[upper], reps[lower]), (reps[upper], reps[lower])
        for lower, upper in sorted(poset.strict - set(poset.hasse))[::8]:
            assert not covers(reps[upper], reps[lower]), (reps[upper], reps[lower])

    def test_strict_pairs_match_pairwise_inclusion(self, posets):
        # independent route: the ladder decision on every ordered class pair
        for m in (2, 3, 4, 5):
            classes = posets[m].classes
            pairwise = {
                (a.index, b.index)
                for a in classes
                for b in classes
                if a.index != b.index and inclusion(b.representative, a.representative)
            }
            assert posets[m].strict == pairwise

    def test_q_k_cross_orbit_cover(self, posets):
        # the only covering of a minimal ideal from the previous stratum
        for m in (3, 4, 5):
            for k in range(1, m):
                q_k = SuperWeight(
                    tuple(range(1, k)) + (k, k) + tuple(range(k + 1, m)), (k,)
                )
                labels = (
                    tuple(range(1, k)) + (k, k - 1) + tuple(range(k + 1, m))
                )
                predicted = SuperWeight(labels, (k - 1,))
                assert covers(predicted, q_k)
                # and it is the only cross-orbit cover from stratum k-1
                others = [
                    c.representative
                    for c in posets[m].classes
                    if c.i_index == k - 1 and covers(c.representative, q_k)
                ]
                from primspec.kl_classical import classical_equal

                assert all(classical_equal(o, predicted) for o in others)
                assert others


class TestOddReflections:
    def test_identity_between_d_and_p(self, posets):
        for m in range(1, 6):
            for c in posets[m].classes:
                for w in c.members:
                    result = odd_reflection_ad(w)
                    assert result.d_value + frame(w).p_value == m - 1

    def test_phi_index_matches_j(self, posets, assignments):
        for m in range(1, 6):
            for c in posets[m].classes:
                assign = assignments[m][c.index]
                for w in c.members:
                    assert odd_reflection_ad(w).phi_index == assign.j_index

    def test_unchanged_positions_match_ladder(self, posets):
        # the stationary walls of the walk are the left ladder positions
        for m in range(2, 6):
            for c in posets[m].classes:
                for w in c.members:
                    result = odd_reflection_ad(w)
                    ladder_left = {
                        p for p in frame(w).i_set if p <= w.m
                    }
                    assert set(result.unchanged_positions) == ladder_left

    def test_gl31_prose(self):
        result = odd_reflection_ad(W("1,2,0|0"))
        assert result.phi_index == 1
        assert str(result.ad_weight) == "1,1,0|-1"
        assert odd_reflection_ad(W("2,0,1|0")).phi_index == 2
        assert odd_reflection_ad(W("2,1,0|0")).phi_index == 0

    @pytest.mark.parametrize("text", ["5,0|5", "3,1,0|3"])
    def test_outside_the_block_is_refused(self, text):
        with pytest.raises(PreconditionError, match=re.escape(text)):
            odd_reflection_ad(W(text))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1,0|0,1", PreconditionError, "odd reflections implemented for gl(m|1) only"),
            (
                "2,1,0|5",
                NotSinglyAtypicalError,
                "weight 2,1,0|5 has atypicality degree 0, expected 1",
            ),
        ],
    )
    def test_a_weight_off_the_walk_is_refused(self, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            odd_reflection_ad(W(text))

    def test_antidominant_forces_full_walk(self):
        for m in (2, 3, 4):
            anti = SuperWeight(tuple(range(m)), (0,))
            result = odd_reflection_ad(anti)
            assert result.d_value == m - 1


class TestExport:
    def test_json_schema(self, posets, assignments):
        doc = to_json_dict(posets[3], assignments[3])
        assert set(doc) == {"m", "classes", "hasse"}
        assert all(set(c) == {"repr", "members", "i", "j", "z"} for c in doc["classes"])
        json.dumps(doc)

    def test_dot_deterministic_and_wellformed(self, posets):
        a = to_dot(posets[3])
        b = to_dot(posets[3])
        assert a == b
        assert a.startswith("graph ideals {") and a.endswith("}\n")
        assert a.count(" -- ") == len(posets[3].hasse)
        clustered = to_dot(posets[3], cluster="x")
        assert "cluster_x0" in clustered and "cluster_x2" in clustered

    def test_dot_clusters_place_every_node_once(self, posets):
        # four strata
        poset = posets[4]
        text = to_dot(poset, cluster="x")
        for c in poset.classes:
            assert text.count(f"  n{c.index} [label=") == 1
        assert text.count("subgraph") == 4

    def test_dot_unknown_cluster_refused(self, posets):
        # no "z": z_set[0] is always the stratum index, so it would redraw "x"
        for cluster in ("w", "z"):
            with pytest.raises(ValueError, match="cluster"):
                to_dot(posets[3], cluster=cluster)
