import random

import pytest

from primspec.posets import transitive_closure, transitive_reduction


def _reduction_by_definition(n, strict):
    """The Hasse edges read straight off the definition: no c in between."""
    return sorted(
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in range(n))
    )


def _random_strict_order(rng, n, density):
    """A random DAG on a shuffled node order, transitively closed."""
    rank = list(range(n))
    rng.shuffle(rank)
    edges = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b] and rng.random() < density
    }
    reach = transitive_closure(n, edges)
    return {(a, b) for a in range(n) for b in range(n) if a != b and reach[a] >> b & 1}


@pytest.mark.parametrize("seed", range(6))
def test_transitive_reduction_matches_definition(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(0, 24)
        strict = _random_strict_order(rng, n, rng.choice((0.05, 0.15, 0.4)))
        assert transitive_reduction(n, strict) == _reduction_by_definition(n, strict)


def test_transitive_reduction_of_a_chain_and_an_antichain():
    chain = {(a, b) for a in range(5) for b in range(a + 1, 5)}
    assert transitive_reduction(5, chain) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert transitive_reduction(4, set()) == []
