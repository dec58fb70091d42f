"""`relation` and `decide` against their definitions, route by route.

`relation` and `decide` classify a pair once and read both directions off
that one record; here they are checked against the public pieces they
stand for (`equal_ideal`, `inclusion` both ways, `reduction_trace`), against
the canonical-basis order on sampled blocks, and for reading each weight's
invariants at most once (and not again once memoised).
"""

import hashlib
import json
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primspec import aug_poset, kl_classical, super_inclusion
from primspec.brundan_kl import canonical_basis, kl_left_order
from primspec.errors import BoundExceededError, UnsupportedRegimeError
from primspec.super_inclusion import (
    covers,
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
    super_inclusion._record.cache_clear()


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


def test_bound_is_checked_only_for_the_factors_read(monkeypatch):
    # each direction reads a factor's order only while the factors before it
    # leave that direction open, and equality reads no order at all
    ranks = []
    real = kl_classical.left_preorder

    def recorded(m, **kw):
        ranks.append(m)
        return real(m, **kw)

    monkeypatch.setattr(kl_classical, "left_preorder", recorded)
    # the rank-3 factors are incomparable, so the rank-4 factor is never read
    alpha, beta = W("0,2,1|5,6,7,8"), W("1,0,2|8,7,6,5")
    assert relation(alpha, beta, bound=3) == "incomparable"
    assert decide(alpha, beta, bound=3).relation == "incomparable"
    assert 4 not in ranks
    ranks.clear()
    alpha, beta = W("1,2,3,0|"), W("1,2,0,3|")
    assert relation(alpha, beta, bound=3) == "equal"
    assert ranks == []
    with pytest.raises(BoundExceededError):
        covers(alpha, beta, bound=3)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the same inputs must raise the same class
        return type(exc).__name__


def _sampled_window(m, n, lo, hi, count, seed):
    """`count` ordered pairs of one window, beta drawn from the weights that
    share alpha's central character (equal, same-orbit and ladder pairs)."""
    by_character = {}
    for w in _window(m, n, lo, hi):
        by_character.setdefault(central_character(w), []).append(w)
    rng = random.Random(seed)
    weights = [w for ws in by_character.values() for w in ws]
    pairs = []
    for _ in range(count):
        alpha = rng.choice(weights)
        pairs.append((alpha, rng.choice(by_character[central_character(alpha)])))
    return pairs


def _golden_pairs():
    for (m, n), lo, hi in WINDOWS:
        weights = _window(m, n, lo, hi)
        yield from product(weights, weights)
    yield from _sampled_window(4, 1, 0, 3, 600, 41)
    yield from _sampled_window(5, 1, 0, 3, 600, 51)


GOLDEN_DIGEST = "e74ae27c4b87e579848bc0d826261a8f8ade94ac4856e214bdbfb52c5473c57b"


def _golden_digest():
    digest = hashlib.sha256()
    for alpha, beta in _golden_pairs():
        record = _outcome(decide, alpha, beta)
        if not isinstance(record, str):
            record = json.dumps(record.to_json_dict(), sort_keys=True)
        line = (alpha, beta, _outcome(relation, alpha, beta), record, _outcome(covers, alpha, beta))
        digest.update(("\t".join(map(str, line)) + "\n").encode())
    return digest.hexdigest()


def test_answers_match_the_golden_digest():
    # relation, decide and covers (or the class of what they raise) on every
    # ordered pair of WINDOWS and on sampled gl(4|1) and gl(5|1) pairs,
    # recorded before `relation` read a same-orbit pair once
    assert _golden_digest() == GOLDEN_DIGEST


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
    order = kl_left_order(enlarged, canonical_basis(enlarged, interval_bound=12))
    block = sorted(_block(key, 0, 3), key=lambda w: w.labels)
    for alpha in block:
        for beta in block:
            below, above = order.leq(alpha, beta), order.leq(beta, alpha)
            want = {
                (True, True): "equal", (True, False): "subset",
                (False, True): "superset", (False, False): "incomparable",
            }[below, above]
            assert relation(alpha, beta) == want, (alpha, beta)
            assert (below and above) == (want == "equal")


# each call decides without fetching an order: different central characters,
# equal ideals, a one-weight window, a rank-1 poset
NO_ORDER_CALLS = {
    "inclusion": (super_inclusion.inclusion, (W("1,0|1"), W("5,2|5"))),
    "relation": (super_inclusion.relation, (W("2,0,1|0"), W("0,2,1|0"))),
    "decide": (super_inclusion.decide, (W("2,0,1|0"), W("0,2,1|0"))),
    "covers": (super_inclusion.covers, (W("1,0|1"), W("5,2|5"))),
    "gl22_component_classes": (super_inclusion.gl22_component_classes, (0, 0, W("0,0|0,0"))),
    "enumerate_X": (aug_poset.enumerate_X, (1,)),
    "classical_inclusion": (kl_classical.classical_inclusion, (W("1,0|1"), W("5,2|5"))),
    "classical_relation": (kl_classical.classical_relation, (W("2,0,1|0"), W("0,2,1|0"))),
    "classical_cover": (kl_classical.classical_cover, (W("1,0|1"), W("5,2|5"))),
}


@pytest.mark.parametrize("entry", sorted(NO_ORDER_CALLS))
def test_unknown_keyword_refused_on_a_pair_that_fetches_no_order(entry):
    fn, args = NO_ORDER_CALLS[entry]
    fn(*args, cache_dir=None, use_disk=False)  # the keywords `left_preorder` takes
    with pytest.raises(TypeError, match="'kl_bound'"):
        fn(*args, kl_bound=2)


# each call fetches the left order of the given rank: a same-orbit pair of
# distinct ideals, a gl(2|2) window, a rank-3 poset
_APART = (W("2,1,0|0"), W("0,1,2|0"))
ORDER_CALLS = {
    "inclusion": (super_inclusion.inclusion, _APART, 3),
    "relation": (super_inclusion.relation, _APART, 3),
    "decide": (super_inclusion.decide, _APART, 3),
    "covers": (super_inclusion.covers, _APART, 3),
    "gl22_component_classes": (super_inclusion.gl22_component_classes, (0, 1), 2),
    "enumerate_X": (aug_poset.enumerate_X, (3,), 3),
    "classical_inclusion": (kl_classical.classical_inclusion, _APART, 3),
    "classical_relation": (kl_classical.classical_relation, _APART, 3),
    "classical_cover": (kl_classical.classical_cover, _APART, 3),
}


@pytest.mark.parametrize("entry", sorted(ORDER_CALLS))
def test_smaller_bound_refused_once_the_order_is_cached(entry):
    fn, args, rank = ORDER_CALLS[entry]
    fn(*args, use_disk=False)
    cached = kl_classical._left_order
    hits = cached.cache_info().hits
    cached(rank, None, False)
    assert cached.cache_info().hits == hits + 1  # the call left its order cached
    with pytest.raises(BoundExceededError):
        fn(*args, bound=rank - 1, use_disk=False)
