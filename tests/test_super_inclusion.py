import hashlib
import json
import random
import re
from itertools import permutations as iperm
from itertools import product

import pytest

from primspec import crystal, super_inclusion
from primspec.errors import (
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
    UnsupportedRegimeError,
)
from primspec.kl_classical import classical_relation
from primspec.super_inclusion import (
    _GL22_COVERED,
    _gl22_patterns,
    covers,
    decide,
    equal_ideal,
    frame,
    gamma_delta,
    gl22_component_classes,
    inclusion,
    reduction_trace,
    relation,
    theta_membership,
    theta_representative,
)
from primspec.posets import transitive_reduction
from primspec.weights import SuperWeight, atypicality_degree, central_character, orbit_equal
from oracles import active_colors, frame_by_positions, strict_tau

W = SuperWeight.parse
RUNNING = W("7,6,2,3,6,1,3,1|4,3,4,5")


def _frame_sample():
    """Every weight of gl(m|n), m+n <= 5, on labels 0..4, then seeded random
    weights up to m+n = 9 on label windows as wide as the weight."""
    for m in range(1, 5):
        for n in range(1, 6 - m):
            for labels in product(range(5), repeat=m + n):
                yield SuperWeight(labels[:m], labels[m:])
    rng = random.Random(41)
    for _ in range(4000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 9 - m)
        labels = [rng.randrange(m + n) for _ in range(m + n)]
        yield SuperWeight(labels[:m], labels[m:])


def _read_frame(fn, weight):
    """What a frame function gives for one weight: its four fields, or the
    degree it refuses with."""
    try:
        f = fn(weight)
    except NotSinglyAtypicalError as err:
        return err.degree
    return f.a_value, f.i_set, f.p_value, f.q_values


def _frame_mismatches(fn) -> tuple[int, list]:
    """How many sample weights are singly atypical with a ladder, and the
    weights where `fn` and the position-list reference disagree."""
    laddered, wrong = 0, []
    for w in _frame_sample():
        want = _read_frame(frame_by_positions, w)
        laddered += isinstance(want, tuple) and want[2] > 0
        if _read_frame(fn, w) != want:
            wrong.append(w)
    return laddered, wrong


class TestFrame:
    def test_running_example(self):
        f = frame(RUNNING)
        assert f.a_value == 3
        assert f.i_set == (10, 7, 11, 12, 5, 1)
        assert f.p_value == 4
        assert f.q_values == {10: 0, 7: 2, 11: 0, 12: 2, 5: 0, 1: 0}

    def test_short_ladder(self):
        f = frame(W("1,0|1"))
        assert (f.a_value, f.p_value) == (1, 0)

    def test_missing_next_value_stops_ladder(self):
        assert frame(W("5,0|0")).p_value == 0

    def test_rejects_wrong_degree(self):
        with pytest.raises(NotSinglyAtypicalError) as err:
            frame(W("1,0|0,1"))
        assert "degree 2" in str(err.value)

    @pytest.mark.parametrize("text, degree", [("3,1|0", 0), ("1,0|0,1", 2)])
    def test_refusal_carries_the_degree(self, text, degree):
        with pytest.raises(NotSinglyAtypicalError) as err:
            frame(W(text))
        assert err.value.degree == degree

    def test_frames_match_the_recorded_digest(self):
        # every singly atypical weight with m+n <= 5 on labels 0..3; the
        # digest was recorded from the takewhile-based frame it replaced
        rows = []
        for m in range(1, 5):
            for n in range(1, 6 - m):
                for labels in product(range(4), repeat=m + n):
                    w = SuperWeight(labels[:m], labels[m:])
                    if atypicality_degree(w) == 1:
                        f = frame(w)
                        rows.append((f.a_value, f.i_set, f.p_value, sorted(f.q_values.items())))
        assert len(rows) == 3028
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "40aac13ed3ca849bede7cca89e3e3d9405df67fa4a709a627d4c10846d308f1b"

    def test_matches_the_position_list_reference(self):
        laddered, wrong = _frame_mismatches(frame)
        assert wrong == []
        assert laddered > 1000

    def test_a_moved_ladder_position_is_caught(self):
        def doctored(weight):
            f = frame(weight)
            if f.p_value < 2:
                return f
            moved = f.i_set[-1] + (1 if f.i_set[-1] > weight.m else -1)
            q_values = {**f.q_values, moved: f.q_values[f.i_set[-1]]}
            del q_values[f.i_set[-1]]
            return f._replace(i_set=f.i_set[:-1] + (moved,), q_values=q_values)

        assert _frame_mismatches(doctored)[1] != []


class TestTheta:
    def test_shift_detection(self):
        assert theta_membership(W("2,3,1,2|2"), W("3,3,2,1|3")) == 1

    def test_same_weight(self):
        assert theta_membership(W("1,0|1"), W("1,0|1")) == 0

    def test_far_shift_detected_but_gated(self):
        # (5,0|5) shares the character of (1,0|1): the matched labels cancel
        # out of the count invariant, so the shift is found (p = 4) and the
        # ladder gate, not the character, refuses the inclusion.
        assert theta_membership(W("1,0|1"), W("5,0|5")) == 4
        assert not inclusion(W("1,0|1"), W("5,0|5"))

    def test_different_characters(self):
        assert theta_membership(W("1,0|1"), W("5,2|5")) is None

    def test_representative_stays_singly_atypical(self):
        for p in range(-1, 5):
            rep = theta_representative(RUNNING, p)
            assert atypicality_degree(rep) == 1

    # windows where a side repeats the atypical label, so that which copy
    # moves to a+p matters
    CORE_WINDOWS = [((2, 1), 0, 3), ((3, 1), 0, 3), ((2, 2), 0, 3), ((3, 2), 0, 2)]

    def test_ladder_core_test_is_the_shifted_orbit_test(self):
        # the ladder compares cores (each side's sorted labels less one copy of
        # the atypical label); the library route shifts alpha's pair to a+p
        # and compares orbits
        shifted = 0
        for (m, n), lo, hi in self.CORE_WINDOWS:
            weights = [SuperWeight(t[:m], t[m:]) for t in product(range(lo, hi + 1), repeat=m + n)]
            singly = [w for w in weights if atypicality_degree(w) == 1]
            records = {w: super_inclusion._crossed(w, super_inclusion._record(w)) for w in singly}
            for alpha in singly:
                p_alpha = frame(alpha).p_value
                for beta in singly:
                    p = theta_membership(alpha, beta)
                    expected = p is not None and 0 <= p <= p_alpha
                    found = super_inclusion._ladder(alpha, beta, records[alpha], records[beta])
                    assert (found is not None) == expected, (alpha, beta)
                    shifted += expected and p > 0
        assert shifted


class TestGammaDelta:
    def test_running_example_ladder_top(self):
        gamma, _ = gamma_delta(RUNNING, theta_representative(RUNNING, 4))
        assert gamma == W("7,5,1,2,6,0,5,0|3,3,4,7")

    def test_running_example_ladder_bottom(self):
        gamma, _ = gamma_delta(RUNNING, theta_representative(RUNNING, 0))
        assert gamma == W("7,6,1,2,6,0,3,0|4,3,4,5")

    def test_gl41_delta(self):
        gamma, delta = gamma_delta(W("2,3,1,2|2"), W("3,3,2,1|3"))
        assert gamma == W("1,3,0,2|3")
        assert delta == W("2,3,1,0|3")

    def test_rejects_out_of_range_shift(self):
        with pytest.raises(PreconditionError):
            gamma_delta(W("1,0|1"), W("2,0|2"))  # p=1 > p_alpha=0

    def test_rejects_weights_of_different_shapes(self):
        # both singly atypical, so only the shapes are wrong
        with pytest.raises(ValueError, match="different Z"):
            gamma_delta(W("1,0|0"), W("0|0"))
        with pytest.raises(ValueError, match="different Z"):
            reduction_trace(W("1,0|0"), W("0|0"))
        for check in (theta_membership, relation):
            with pytest.raises(ValueError, match=re.escape("weights live in different Z^(m|n)")):
                check(W("1,0|0"), W("0|0"))

    def test_rejects_a_weight_not_singly_atypical(self):
        with pytest.raises(NotSinglyAtypicalError, match=re.escape(
            "weight 1,0|0,1 has atypicality degree 2, expected 1"
        )):
            gamma_delta(W("1,0|0,1"), W("1,0|0,1"))


class TestReductionTrace:
    def test_running_example_chain(self):
        beta = theta_representative(RUNNING, 4)
        trace = reduction_trace(RUNNING, beta)
        alpha_steps = [s for s in trace.steps if s.side == "alpha"]
        assert [s.label for s in alpha_steps] == [
            "e~_0^2", "e~_1", "e~_2", "f~_3^2", "f~_4", "e~_5^2", "e~_6",
        ]
        visited = trace.weights("alpha")
        assert W("7,6,1,3,6,0,3,0|4,3,4,5") in visited  # double-prime stage
        assert visited[-1] == W("7,5,1,2,6,0,5,0|3,3,4,7")
        mids = {
            str(w) for w in visited
        }
        assert "7,6,1,2,6,0,4,0|3,3,4,5" in mids  # first ladder stage
        assert "7,6,1,2,6,0,5,0|3,3,4,5" in mids
        assert "7,5,1,2,6,0,5,0|3,3,4,6" in mids

    def test_a_trace_one_step_short_raises(self, monkeypatch):
        # the replayed chain must end at the closed formulas' (gamma, delta);
        # here the last ladder stage of the shift by 4 (color 6) applies one
        # operator fewer on both sides
        beta = theta_representative(RUNNING, 4)
        apply_power = super_inclusion._apply_power

        def doctored(side, op, color, power, start, steps):
            return apply_power(side, op, color, power - (color == 6), start, steps)

        reduction_trace(RUNNING, beta)
        monkeypatch.setattr(super_inclusion, "_apply_power", doctored)
        with pytest.raises(InvariantError, match="^reduction mismatch: trace ended at "):
            reduction_trace(RUNNING, beta)

    def test_zero_shift_has_single_ladder_step(self):
        beta = theta_representative(RUNNING, 0)
        trace = reduction_trace(RUNNING, beta)
        ladder_ops = [
            s for s in trace.steps if s.side == "alpha" and s.color >= frame(RUNNING).a_value - 1
        ]
        assert [s.label for s in ladder_ops] == ["e~_2"]

    def test_final_weights_share_orbit_and_tau(self):
        # tau here is the s-finiteness invariant (strict comparisons): that
        # is what the translation chain preserves step by step; the
        # longest-representative reading already differs from it on this
        # example's right factor.
        for p in range(5):
            beta = theta_representative(RUNNING, p)
            trace = reduction_trace(RUNNING, beta)
            gamma, delta = trace.final_gamma, trace.final_delta
            assert orbit_equal(gamma, delta)
            for pair in ((gamma, RUNNING), (delta, beta)):
                new, old = pair
                assert strict_tau(new.left) == strict_tau(old.left)
                assert strict_tau(new.right, "right") == strict_tau(
                    old.right, "right"
                )


class TestInclusion:
    def test_gl41_exhaustive(self):
        alpha = W("2,3,1,2|2")
        shifted = [
            "3,3,2,1|3", "3,2,3,1|3", "2,3,3,1|3", "3,3,1,2|3", "3,2,1,3|3",
            "2,3,1,3|3", "3,1,3,2|3", "3,1,2,3|3", "2,1,3,3|3", "1,3,3,2|3",
            "1,3,2,3|3", "1,2,3,3|3",
        ]
        below = [b for b in shifted if inclusion(alpha, W(b))]
        assert below == ["2,3,3,1|3", "2,3,1,3|3", "2,1,3,3|3", "1,2,3,3|3"]
        assert equal_ideal(W("2,3,3,1|3"), W("2,3,1,3|3"))
        assert equal_ideal(W("2,3,3,1|3"), W("2,1,3,3|3"))
        assert not equal_ideal(W("1,2,3,3|3"), W("2,3,3,1|3"))

    def test_gl22_augmentation_list(self):
        top = W("1,0|0,1")
        assert inclusion(top, W("1,1|1,1"))
        assert inclusion(top, W("2,1|2,1"))
        assert inclusion(top, W("1,2|1,2"))
        assert inclusion(top, W("1,2|2,1"))
        assert not inclusion(top, W("2,1|1,2"))
        assert not inclusion(top, W("2,2|2,2"))

    def test_reflexive(self):
        for text in ["1,0|0,1", "2,3,1,2|2", "0,0|0,0"]:
            assert inclusion(W(text), W(text))

    def test_antidominant_pairwise_incomparable(self):
        # distinct antidominant weights in one block never compare
        block = [
            theta_representative(W("0,1,2|0"), p) for p in range(3)
        ]
        antis = [
            SuperWeight(tuple(sorted(b.left)), b.right) for b in block
        ]
        for a in antis:
            for b in antis:
                if a != b:
                    assert not inclusion(a, b)
                    assert not inclusion(b, a)

    def test_nothing_below_doubled_zero(self):
        alpha = W("0,0|0,0")
        for beta in ["1,1|1,1", "1,0|0,1", "2,1|2,1", "1,2|2,1"]:
            assert not inclusion(alpha, W(beta))

    def test_unsupported_regime_is_loud(self):
        with pytest.raises(UnsupportedRegimeError):
            inclusion(W("2,1,0|0,1,2"), W("3,2,1|1,2,3"))

    def test_same_orbit_still_decidable_at_high_atypicality(self):
        assert inclusion(W("2,1,0|0,1,2"), W("0,1,2|0,1,2"))


class TestMonotonicityAndEquivariance:
    def _block(self):
        alpha = W("2,1,0|0")
        weights = set()
        for p in range(3):
            rep = theta_representative(alpha, p)
            for left in iperm(rep.left):
                weights.add(SuperWeight(left, rep.right))
        return sorted(weights, key=lambda w: w.labels)

    def test_statistics_monotone_under_inclusion(self):
        block = self._block()
        decided = 0
        for a in block:
            for b in block:
                if a != b and inclusion(a, b):
                    decided += 1
                    for i in active_colors(a):
                        assert crystal.epsilon(b, i) >= crystal.epsilon(a, i)
                        assert crystal.phi(b, i) >= crystal.phi(a, i)
        assert decided > 20

    def test_translation_equivariance(self):
        block = self._block()
        pairs = 0
        for a in block:
            for b in block:
                if a == b:
                    continue
                for i in active_colors(a):
                    ea, eb = crystal.epsilon(a, i), crystal.epsilon(b, i)
                    fa, fb = crystal.phi(a, i), crystal.phi(b, i)
                    if ea == eb > 0 and fa == fb:
                        ua, ub = crystal.e_tilde(a, i), crystal.e_tilde(b, i)
                        assert inclusion(a, b) == inclusion(ua, ub)
                        pairs += 1
        assert pairs > 20

    def test_antisymmetric_modulo_equality(self):
        block = self._block()
        for a in block:
            for b in block:
                if inclusion(a, b) and inclusion(b, a):
                    assert equal_ideal(a, b)
        # and across the doubly atypical gl(2|2) window
        classes, _ = gl22_component_classes(0, 2)
        reps = [cls[0] for cls in classes]
        for a in reps:
            for b in reps:
                if inclusion(a, b) and inclusion(b, a):
                    assert equal_ideal(a, b)

    def test_regular_target_forces_same_orbit(self):
        block = self._block()
        for a in block:
            for b in block:
                regular = len(set(b.left)) == b.m and len(set(b.right)) == b.n
                if a != b and regular and inclusion(a, b):
                    assert orbit_equal(a, b)


class TestCovers:
    def test_paper_edges(self):
        assert covers(W("2,1,0|0"), W("2,1,1|1"))
        assert covers(W("1,0|0,1"), W("1,1|1,1"))
        assert not covers(W("2,1,0|0"), W("2,1,0|0"))

    def test_equal_ideals_are_no_cover_where_covering_is_undecided(self):
        # doubly atypical gl(3|2): covering is unsupported there, but a pair
        # of equal ideals is answered before the regime is refused
        alpha, beta = W("0,1,0|0,0"), W("1,0,0|0,0")
        assert equal_ideal(alpha, beta) and not covers(alpha, beta)
        with pytest.raises(UnsupportedRegimeError):
            covers(W("0,0,1|0,1"), W("0,0,1|1,0"))

    def test_non_cover_with_intermediate(self):
        # (012|0) < (201|0) < (210|0), so the outer pair is not a cover
        assert inclusion(W("2,1,0|0"), W("0,1,2|0"))
        assert not covers(W("2,1,0|0"), W("0,1,2|0"))

    def test_matches_hasse_diagram_on_singly_atypical_blocks(self):
        # every singly atypical block with m + n <= 4 on labels 0..3; an ideal
        # between alpha and beta keeps the block's typical labels and has its
        # atypical value between theirs, so the window holds it
        blocks = pairs = 0
        for total in (2, 3, 4):
            for block in _singly_atypical_blocks(total, 0, 3):
                assert _covers_mismatches(block) == []
                blocks, pairs = blocks + 1, pairs + len(block) ** 2
        assert (blocks, pairs) == (41, 6824)  # gl(1|1) is one block of 4 weights


def _singly_atypical_blocks(total, lo, hi):
    """The weights of gl(m|n), m + n = total, with labels in [lo, hi], by
    singly atypical block."""
    blocks = {}
    for m in range(1, total):
        for labels in product(range(lo, hi + 1), repeat=total):
            weight = SuperWeight(labels[:m], labels[m:])
            if atypicality_degree(weight) == 1:
                blocks.setdefault((m, central_character(weight)), []).append(weight)
    return list(blocks.values())


def _covers_mismatches(block):
    """Ordered pairs where `covers` disagrees with the Hasse diagram of the
    strict order that `inclusion` and `equal_ideal` span on the block, and
    pairs where mutual inclusion disagrees with `equal_ideal`."""
    classes = []  # one representative per ideal
    class_of = {}
    for w in block:
        class_of[w] = next((i for i, rep in enumerate(classes) if equal_ideal(w, rep)), len(classes))
        if class_of[w] == len(classes):
            classes.append(w)
    down = [
        sum(1 << i for i, lower in enumerate(classes) if i != j and inclusion(upper, lower))
        for j, upper in enumerate(classes)
    ]
    hasse = set(transitive_reduction(down))
    bad = []
    for a in block:
        for b in block:
            mutual = inclusion(a, b) and inclusion(b, a)
            if mutual != (class_of[a] == class_of[b]):
                bad.append(("equal", a, b))
            if covers(a, b) != ((class_of[b], class_of[a]) in hasse):
                bad.append(("covers", a, b))
    return bad


def _neighborhood_covers(alpha, beta):
    """Reference for doubly atypical gl(2|2) covers: a strict inclusion with
    no doubly atypical weight of a label window two wider strictly between."""
    if not inclusion(alpha, beta) or equal_ideal(alpha, beta):
        return False
    lo, hi = min(alpha.labels) - 2, max(alpha.labels) + 2
    for a in range(lo, hi + 1):
        for b in range(a, hi + 1):
            sides = [(a, b)] if a == b else [(a, b), (b, a)]
            for left in sides:
                for right in sides:
                    kappa = SuperWeight(left, right)
                    if equal_ideal(kappa, alpha) or equal_ideal(kappa, beta):
                        continue
                    if inclusion(alpha, kappa) and inclusion(kappa, beta):
                        return False
    return True


def _gl22_doubly_atypical_weights(lo, hi):
    labels = range(lo, hi + 1)
    return [
        SuperWeight((a, b), right)
        for a in labels
        for b in labels
        for right in {(a, b), (b, a)}
    ]


def test_gl22_patterns_on_labels_0_to_4():
    weights = _gl22_doubly_atypical_weights(0, 4)
    hits = 0
    for alpha in weights:
        patterns = _gl22_patterns(alpha)
        assert len(patterns) in (0, 4)
        for beta in patterns:  # built unchecked: each equals its checked construction
            assert beta == SuperWeight(beta.left, beta.right)
        hits += sum(beta in patterns for beta in weights)
    # alpha = (c+1, c | c, c+1) for c = 0..3; only c = 3 loses patterns (3 of 4)
    assert hits == 4 * 4 - 3


class TestGl22Covers:
    def test_cover_table_is_the_classical_order_on_the_patterns(self):
        # alpha covers a pattern unless another pattern lies classically above it
        for c in range(-3, 7):
            alpha = SuperWeight((c + 1, c), (c, c + 1))
            patterns = _gl22_patterns(alpha)
            table = tuple(
                not any(classical_relation(beta, k) == "subset" for k in patterns)
                for beta in patterns
            )
            assert table == _GL22_COVERED, c
            assert tuple(covers(alpha, beta) for beta in patterns) == table, c

    def test_covers_match_component_hasse(self):
        classes, hasse = gl22_component_classes(-1, 4)
        reps = [cls[0] for cls in classes]
        assert len(reps) * (len(reps) - 1) == 600 and len(hasse) == 33
        edges = set(hasse)
        for upper, alpha in enumerate(reps):
            for lower, beta in enumerate(reps):
                if upper != lower:
                    assert covers(alpha, beta) == ((lower, upper) in edges), (alpha, beta)

    def test_covers_match_neighborhood_search(self):
        weights = _gl22_doubly_atypical_weights(-1, 4)
        assert len(weights) ** 2 == 4356
        assert all(atypicality_degree(w) == 2 for w in weights)
        for alpha in weights:
            for beta in weights:
                assert covers(alpha, beta) == _neighborhood_covers(alpha, beta), (alpha, beta)


class TestGl22Component:
    def test_window_classes_and_edges(self):
        classes, hasse = gl22_component_classes(0, 2)
        reps = {tuple(sorted(str(w) for w in cls)) for cls in classes}
        expected = {
            ("1,0|0,1",), ("0,1|0,1",), ("1,0|1,0",), ("0,1|1,0",),
            ("1,1|1,1",), ("2,1|2,1",), ("1,2|1,2",), ("1,2|2,1",),
            ("2,1|1,2",), ("2,2|2,2",),
        }
        assert reps == expected
        assert len(hasse) == 12

    def test_chain_does_not_terminate(self):
        # consecutive maximal ideals share a strict lower bound, so the
        # component keeps going in both directions through the window
        for k in range(-3, 3):
            top_k = SuperWeight((k + 1, k), (k, k + 1))
            top_next = SuperWeight((k + 2, k + 1), (k + 1, k + 2))
            shared = SuperWeight((k + 2, k + 1), (k + 2, k + 1))
            assert inclusion(top_k, shared)
            assert inclusion(top_next, shared)

    @pytest.mark.parametrize(
        "lo, hi, seed",
        [(0, 0, None), (3, 5, None), (2, 1, None), (0, 3, W("1,0|0,2"))],
    )
    def test_seed_outside_the_window_is_refused(self, lo, hi, seed):
        # the default seed is 1,0|0,1; 1,0|0,2 has the shape but one atypicality
        with pytest.raises(PreconditionError, match=rf"seed .*\[{lo}, {hi}\]"):
            gl22_component_classes(lo, hi, seed)

    @pytest.mark.parametrize("text", ["0|0", "1,0,0|0,1", "1,0|0"])
    def test_seed_of_another_shape_is_refused(self, text):
        with pytest.raises(PreconditionError, match=rf"seed {text} .*gl\(2\|2\)"):
            gl22_component_classes(0, 1, W(text))


class TestDecisionRecords:
    def test_relations(self):
        assert relation(W("1,2,3,3|3"), W("2,3,1,2|2")) == "subset"
        assert relation(W("2,3,1,2|2"), W("1,2,3,3|3")) == "superset"
        assert relation(W("1,0|0,1"), W("1,0|0,1")) == "equal"
        assert relation(W("1,1|1,1"), W("0,0|0,0")) == "incomparable"
        assert relation(W("2,1,0|0,1,2"), W("3,2,1|1,2,3")) == "unsupported"

    def test_json_shape(self):
        doc = decide(W("1,2,3,3|3"), W("2,3,1,2|2")).to_json_dict()
        assert set(doc) == {"alpha", "beta", "relation", "p", "gamma", "delta", "trace"}
        assert doc["relation"] == "subset"
        assert doc["p"] == 1
        assert doc["gamma"] == "1,3,0,2|3"
        assert doc["delta"] == "0,1,2,3|3"
        assert doc["trace"]
        json.dumps(doc)  # serializable
