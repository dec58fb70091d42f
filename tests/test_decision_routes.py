"""`relation` and `decide` against their definitions, route by route.

`relation` and `decide` classify a pair once and read both directions off
that one record; here they are checked against the public pieces they
stand for (`equal_ideal`, `inclusion` both ways, `reduction_trace`), against
the canonical-basis order on sampled blocks, and for reading each weight's
invariants at most once (and not again once memoised).
"""

from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primspec import super_inclusion
from primspec.brundan_kl import kl_left_order
from primspec.errors import BoundExceededError, UnsupportedRegimeError
from primspec.super_inclusion import (
    decide,
    equal_ideal,
    inclusion,
    reduction_trace,
    relation,
    theta_membership,
)
from primspec.weights import SuperWeight, atypicality_degree, central_character, orbit_equal

W = SuperWeight.parse

# (shape, lo, hi): together these reach every route, gl(3|2) the unsupported one
WINDOWS = [((2, 1), 0, 3), ((1, 2), 0, 3), ((3, 1), 0, 2), ((2, 2), 0, 2), ((3, 2), 0, 1)]

# one pair per route of `inclusion`, each pair cross-orbit where the route allows
ROUTE_PAIRS = {
    "central_character": (W("1,0|1"), W("5,2|5")),
    "same_orbit": (W("2,0,1|0"), W("0,2,1|0")),
    "ladder": (W("1,2,2|2"), W("2,1,0|0")),  # strict, p = 2
    "gl22": (W("1,0|0,1"), W("1,1|1,1")),
    "unsupported": (W("1,0,5|0,1"), W("2,0,5|0,2")),
}


def _window(m, n, lo, hi):
    return [SuperWeight(labs[:m], labs[m:]) for labs in product(range(lo, hi + 1), repeat=m + n)]


def _composed(alpha, beta):
    """The relation spelled out through the public one-direction calls."""
    try:
        if equal_ideal(alpha, beta):
            return "equal"
        if inclusion(beta, alpha):
            return "subset"
        if inclusion(alpha, beta):
            return "superset"
    except UnsupportedRegimeError:
        return "unsupported"
    return "incomparable"


def _route(alpha, beta, rel):
    if rel == "unsupported":
        return rel
    if central_character(alpha) != central_character(beta):
        return "central_character"
    if orbit_equal(alpha, beta):
        return "same_orbit"
    return "ladder" if atypicality_degree(alpha) == 1 else "gl22"


def test_relation_and_decide_match_their_composition():
    routes = Counter()
    for (m, n), lo, hi in WINDOWS:
        weights = _window(m, n, lo, hi)
        for alpha in weights:
            for beta in weights:
                rel = relation(alpha, beta)
                assert rel == _composed(alpha, beta), (alpha, beta)
                record = decide(alpha, beta)
                assert record.relation == rel
                route = _route(alpha, beta, rel)
                routes[route] += 1
                got = (record.p, record.gamma, record.delta, record.trace)
                if route == "ladder" and rel in ("subset", "superset"):
                    big, small = (beta, alpha) if rel == "subset" else (alpha, beta)
                    trace = reduction_trace(big, small)
                    p = theta_membership(big, small)
                    assert got == (p, trace.final_gamma, trace.final_delta, trace), (alpha, beta)
                else:
                    assert got == (None, None, None, None), (alpha, beta)
    assert set(routes) == set(ROUTE_PAIRS)


def test_route_pairs_take_their_routes():
    for route, (alpha, beta) in ROUTE_PAIRS.items():
        assert _route(alpha, beta, relation(alpha, beta)) == route
    # the ladder pair is strict, so `decide` runs the trace on it
    assert decide(*ROUTE_PAIRS["ladder"]).trace is not None


def _count_reads(monkeypatch) -> Counter:
    """Count each call of the invariants `super_inclusion` reads, per weight."""
    reads = Counter()

    def counted(name, fn):
        def wrapper(weight):
            reads[name, weight] += 1
            return fn(weight)
        return wrapper

    for name in ("central_character", "atypicality_degree", "frame"):
        monkeypatch.setattr(super_inclusion, name, counted(name, getattr(super_inclusion, name)))
    return reads


def _clear_memos():
    for memo in super_inclusion._MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("call", [relation, decide])
@pytest.mark.parametrize("route", list(ROUTE_PAIRS))
def test_one_read_of_each_invariant_per_weight(monkeypatch, call, route):
    reads = _count_reads(monkeypatch)
    alpha, beta = ROUTE_PAIRS[route]
    for first, second in ((alpha, beta), (beta, alpha)):
        reads.clear()
        _clear_memos()
        call(first, second)
        assert max(reads.values(), default=0) <= 1, reads
        if route == "ladder":
            assert reads["frame", alpha] == reads["frame", beta] == 1


@pytest.mark.parametrize("call", [relation, decide])
@pytest.mark.parametrize("route", list(ROUTE_PAIRS))
def test_repeated_call_reads_no_invariant(monkeypatch, call, route):
    reads = _count_reads(monkeypatch)
    alpha, beta = ROUTE_PAIRS[route]
    _clear_memos()
    first = call(alpha, beta)
    reads.clear()
    assert call(alpha, beta) == first
    assert reads == Counter()


@pytest.mark.parametrize("pair", [
    ("2,1,0,7,8,9|0", "1,2,2,7,8,9|2"),  # ladder, the surrogates' left factor of rank 6
    ("2,0,1,7,8,9|0", "0,2,1,7,8,9|0"),  # same orbit
])
def test_bound_still_holds_once_memoised(pair):
    alpha, beta = map(W, pair)
    assert inclusion(alpha, beta)
    with pytest.raises(BoundExceededError):
        inclusion(alpha, beta, bound=5)


def _block(key, lo, hi):
    """Weights of one singly atypical central character, labels in [lo, hi]:
    the character's labels plus one atypical pair y|y, each side arranged."""
    left = [x for x, c in key if c > 0 for _ in range(c)]
    right = [x for x, c in key if c < 0 for _ in range(-c)]
    return {
        SuperWeight(l, r)
        for y in range(lo, hi + 1)
        for l in set(permutations(left + [y]))
        for r in set(permutations(right + [y]))
    }


@st.composite
def _singly_atypical(draw):
    m, n = draw(st.sampled_from([(4, 1), (3, 2)]))
    labels = draw(st.lists(st.integers(0, 3), min_size=m + n, max_size=m + n).filter(
        lambda labs: atypicality_degree(SuperWeight(labs[:m], labs[m:])) == 1
    ))
    return SuperWeight(labels[:m], labels[m:])


@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(_singly_atypical())
def test_relation_matches_canonical_order_on_sampled_blocks(weight):
    # the paper proves the canonical-basis order is the inclusion order on
    # singly atypical blocks, and a partial order on ideals
    key = central_character(weight)
    enlarged = sorted(_block(key, -2, 5), key=lambda w: w.labels)
    order = kl_left_order(enlarged, interval_bound=12)
    block = sorted(_block(key, 0, 3), key=lambda w: w.labels)
    for alpha in block:
        for beta in block:
            below, above = order.leq(alpha, beta), order.leq(beta, alpha)
            want = {
                (True, True): "equal", (True, False): "subset",
                (False, True): "superset", (False, False): "incomparable",
            }[below, above]
            assert relation(alpha, beta) == want, (alpha, beta)
            assert order.same_class(alpha, beta) == (want == "equal")
