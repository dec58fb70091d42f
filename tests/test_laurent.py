from hypothesis import given, strategies as st

from primspec.laurent import ONE, Q, ZERO, LaurentPolynomial

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPolynomial)


def test_basic_arithmetic():
    p = LaurentPolynomial({0: 1, 1: 1})
    assert p * p == LaurentPolynomial({0: 1, 1: 2, 2: 1})
    assert p - p == ZERO
    assert p * 0 == ZERO
    assert (Q * Q).coeff(2) == 1
    assert str(LaurentPolynomial({-1: 1, 1: -1})) == "q^-1 - q"


def test_bar_and_negation():
    p = LaurentPolynomial({-2: 3, 1: 5})
    assert p.bar() == LaurentPolynomial({2: 3, -1: 5})
    assert p.bar().bar() == p


def test_coefficient_reads():
    p = LaurentPolynomial({1: 2, 3: 1, 2: 0})
    assert list(p.items()) == [(1, 2), (3, 1)]
    assert p.coeff(3) == 1 and p.coeff(2) == 0 and (p + ONE).coeff(0) == 1
    assert ZERO.is_zero() and not p.is_zero()


def test_serialization_round_trip():
    p = LaurentPolynomial({-3: 4, 0: -1, 5: 2})
    assert p.to_pairs() == [[-3, 4], [0, -1], [5, 2]]
    assert LaurentPolynomial(dict(p.to_pairs())) == p


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys)
def test_bar_is_multiplicative_involution(a):
    assert a.bar().bar() == a
    assert (a * Q).bar() == a.bar() * Q.bar()
