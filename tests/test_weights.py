import re

import pytest
from hypothesis import given, strategies as st

from primspec.errors import WeightParseError
from primspec.weights import (
    SuperWeight,
    _weight,
    atypicality_degree,
    central_character,
    orbit_equal,
)

W = SuperWeight.parse


def small_weights(max_rank=3, lo=-2, hi=4):
    label = st.integers(min_value=lo, max_value=hi)
    return st.tuples(
        st.lists(label, min_size=1, max_size=max_rank),
        st.lists(label, min_size=0, max_size=max_rank),
    ).map(lambda t: SuperWeight(tuple(t[0]), tuple(t[1])))


class TestParsing:
    def test_round_trip(self):
        for text in ["7,6,2,3,6,1,3,1|4,3,4,5", "2,1,0|", "1|", "1,0|0,1", "-3|-3"]:
            assert str(W(text)) == text

    def test_spaces_allowed(self):
        assert W(" 1, 0 | 0, 1 ") == SuperWeight((1, 0), (0, 1))
        assert W("2,1,0| ") == SuperWeight((2, 1, 0), ())

    def test_rejects_garbage(self):
        for text in ["1,2,3", "1,x|2", "|1", "", "1,,2|3", ",1|2", "1,|2", "1|2,", "1|,",
                     "1_0|1_0", "\u0663|1", "(1,2|3", "1,2|3)"]:
            with pytest.raises(WeightParseError, match=re.escape(repr(text))):
                W(text)

    def test_sign_and_parentheses_allowed(self):
        assert W("+1,-2|+0") == SuperWeight((1, -2), (0,))
        assert W("(1,2|3)") == W(" ( 1, 2 | 3 ) ") == SuperWeight((1, 2), (3,))
        assert W("(1|)") == SuperWeight((1,), ())

    @given(small_weights(max_rank=8, lo=-10**6, hi=10**6))
    def test_parse_inverts_str(self, w):
        text = str(w)
        assert text == ",".join(map(str, w.left)) + "|" + ",".join(map(str, w.right))
        assert W(text) == w


class TestCentralCharacter:
    def test_balanced(self):
        assert dict(central_character(W("1,0|0,1"))) == {}

    def test_pure_even(self):
        assert dict(central_character(W("2,1,0|"))) == {2: 1, 1: 1, 0: 1}

    def test_running_example(self):
        got = dict(central_character(W("7,6,2,3,6,1,3,1|4,3,4,5")))
        assert got == {7: 1, 6: 2, 3: 1, 2: 1, 1: 2, 4: -2, 5: -1}

    def test_sum_rule(self):
        w = W("7,6,2,3,6,1,3,1|4,3,4,5")
        assert sum(dict(central_character(w)).values()) == w.m - w.n


class TestAtypicality:
    def test_examples(self):
        assert atypicality_degree(W("7,6,2,3,6,1,3,1|4,3,4,5")) == 1
        assert atypicality_degree(W("1,0|0,1")) == 2
        assert atypicality_degree(W("5,4|")) == 0


class TestPredicates:
    def test_orbit(self):
        assert orbit_equal(W("2,0,1|0"), W("0,2,1|0"))
        assert not orbit_equal(W("1,0|0,1"), W("1,1|1,1"))
        w = W("3,1|2")
        assert orbit_equal(w, w)

    def test_orbit_of_another_shape_is_refused(self):
        with pytest.raises(ValueError, match=re.escape("weights live in different Z^(m|n)")):
            orbit_equal(W("1,0|0"), W("1,0|0,1"))


@given(small_weights())
def test_private_constructor_builds_the_same_weight(w):
    # `_weight` skips the int coercion of `SuperWeight(left, right)` only
    built = _weight(w.left, w.right)
    assert type(built) is SuperWeight
    assert built == w and hash(built) == hash(w)
    assert str(built) == str(w) and repr(built) == repr(w)


@given(small_weights())
def test_invariants_constant_on_orbits(w):
    mate = SuperWeight(tuple(sorted(w.left, reverse=True)), tuple(sorted(w.right)))
    assert central_character(w) == central_character(mate)
    assert atypicality_degree(w) == atypicality_degree(mate)
    assert atypicality_degree(w) <= min(w.m, w.n)
