import random

import pytest

from primspec.posets import (
    Preorder,
    bits,
    strongly_connected_components,
    topological_order,
    transitive_closure,
    transitive_reduction,
)


def _reduction_by_definition(n, strict):
    """The Hasse edges read straight off the definition: no c in between."""
    return sorted(
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in range(n))
    )


def _adjacency(n, edges):
    """The edges (a, b) as adjacency lists: b in adj[a], in sorted order."""
    adj = [[] for _ in range(n)]
    for a, b in sorted(edges):
        adj[a].append(b)
    return adj


def _rows(n, strict):
    """The pairs (a, b) as rows: bit a of rows[b]."""
    rows = [0] * n
    for a, b in strict:
        rows[b] |= 1 << a
    return rows


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
    reach = transitive_closure(n, _adjacency(n, edges))
    return {(a, b) for a in range(n) for b in range(n) if a != b and reach[a] >> b & 1}


@pytest.mark.parametrize("seed", range(6))
def test_transitive_reduction_matches_definition(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(0, 24)
        strict = _random_strict_order(rng, n, rng.choice((0.05, 0.15, 0.4)))
        assert transitive_reduction(_rows(n, strict)) == _reduction_by_definition(n, strict)


def test_transitive_reduction_of_a_chain_and_an_antichain():
    chain = {(a, b) for a in range(5) for b in range(a + 1, 5)}
    assert transitive_reduction(_rows(5, chain)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert transitive_reduction(_rows(4, set())) == []


@pytest.mark.parametrize(
    "row", [0, 1, 2, 5, 0b1011_0000, 255, 1 << 64, (1 << 64) - 1, 3 << 100 | 1 << 63 | 9]
)
def test_bits_match_a_naive_scan(row):
    assert list(bits(row)) == [i for i in range(row.bit_length()) if row >> i & 1]


def _reachability_by_warshall(n, edges):
    """reach[a][b]: b is reachable from a by zero or more edges."""
    reach = [[a == b or (a, b) in edges for b in range(n)] for a in range(n)]
    for c in range(n):
        for a in range(n):
            if reach[a][c]:
                for b in range(n):
                    reach[a][b] = reach[a][b] or reach[c][b]
    return reach


def _random_digraphs(seed):
    """Any edges at all: cycles, self-loops and, at low density, isolated nodes."""
    rng = random.Random(seed)
    for n in range(31):
        density = rng.choice((0.02, 0.06, 0.15, 0.4))
        yield n, {(a, b) for a in range(n) for b in range(n) if rng.random() < density}


@pytest.mark.parametrize("seed", range(4))
def test_components_are_mutual_reachability_classes(seed):
    for n, edges in _random_digraphs(seed):
        reach = _reachability_by_warshall(n, edges)
        comp = strongly_connected_components(n, _adjacency(n, edges))[0]
        assert sorted(set(comp)) == list(range(len(set(comp))))
        for a in range(n):
            for b in range(n):
                assert (comp[a] == comp[b]) == (reach[a][b] and reach[b][a])
        # ids follow a topological order of the quotient, sources first
        assert all(comp[a] <= comp[b] for a, b in edges)


@pytest.mark.parametrize("seed", range(4))
def test_the_quotient_is_each_edge_between_components_once(seed):
    for n, edges in _random_digraphs(seed):
        comp, quotient = strongly_connected_components(n, _adjacency(n, edges))
        assert len(quotient) == len(set(comp))
        pairs = [(c, d) for c, row in enumerate(quotient) for d in row]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {(comp[a], comp[b]) for a, b in edges if comp[a] != comp[b]}
        assert all(c < d for c, d in pairs)


def _kahn_by_least_node(n, edges):
    """Component ids by brute force: the components read off mutual
    reachability, then numbered by always taking, of those that no
    unnumbered component has an edge into, the one with the least node."""
    reach = _reachability_by_warshall(n, edges)
    least = [min(b for b in range(n) if reach[a][b] and reach[b][a]) for a in range(n)]
    left, ids = set(least), {}
    while left:  # each component is named by its least node
        entered = {least[b] for a, b in edges if least[a] in left and least[a] != least[b]}
        first = min(left - entered)
        ids[first] = len(ids)
        left.remove(first)
    return [ids[c] for c in least]


@pytest.mark.parametrize("seed", range(4))
def test_component_ids_follow_the_preorder_alone(seed):
    rng = random.Random(seed)
    for n, edges in _random_digraphs(seed):
        adj = _adjacency(n, edges)
        comp = strongly_connected_components(n, adj)[0]
        assert comp == _kahn_by_least_node(n, edges)
        for row in adj:
            rng.shuffle(row)
        assert strongly_connected_components(n, adj)[0] == comp
        assert list(map(Preorder(n, adj).class_id, range(n))) == comp


@pytest.mark.parametrize("seed", range(4))
def test_preorder_leq_is_reachability(seed):
    for n, edges in _random_digraphs(seed):
        reach = _reachability_by_warshall(n, edges)
        order = Preorder(n, _adjacency(n, edges))
        assert order.class_count() == len({order.class_id(a) for a in range(n)})
        for upper in range(n):
            for lower in range(n):
                assert order.leq(lower, upper) == reach[upper][lower]


@pytest.mark.parametrize("seed", range(4))
def test_below_is_the_class_row(seed):
    for n, edges in _random_digraphs(seed):
        order = Preorder(n, _adjacency(n, edges))
        classes = range(order.class_count())
        for c in classes:
            assert order.below(c) >> order.class_count() == 0
            for d in classes:
                assert bool(order.below(c) >> d & 1) == order.class_leq(d, c)


@pytest.mark.parametrize("seed", range(4))
def test_strict_pairs_are_below_and_not_equivalent(seed):
    for n, edges in _random_digraphs(seed):
        order = Preorder(n, _adjacency(n, edges))
        pairs = list(order.strict_pairs())
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (lower, upper)
            for upper in range(n)
            for lower in range(n)
            if order.leq(lower, upper) and not order.leq(upper, lower)
        }


def _least_ready_first(n, adj):
    """Kahn's order by brute force: each time, the least node not yet
    taken that no untaken node has an edge into."""
    left, order = set(range(n)), []
    while left:
        first = min(b for b in left if not any(b in adj[a] for a in left))
        order.append(first)
        left.remove(first)
    return order


@pytest.mark.parametrize("seed", range(4))
def test_topological_order_of_random_dags(seed):
    rng = random.Random(seed)
    for n in range(31):
        rank = list(range(n))
        rng.shuffle(rank)
        density = rng.choice((0.02, 0.1, 0.3))
        adj = [
            [b for b in range(n) if rank[a] < rank[b] and rng.random() < density]
            for a in range(n)
        ]
        order = topological_order(n, adj)
        assert sorted(order) == list(range(n))
        position = {node: pos for pos, node in enumerate(order)}
        assert all(position[a] < position[b] for a in range(n) for b in adj[a])
        assert order == _least_ready_first(n, adj)


@pytest.mark.parametrize(
    "adj",
    [
        [[1], [0]],  # a 2-cycle
        [[1], [2], [3], [1]],  # a longer cycle, entered from node 0
        [[], [1], []],  # a self-loop
        [[1, 2], [3], [3], [], [4]],  # a self-loop after a DAG part
        [[3], [2], [3], [1]],  # the cycle 1 -> 2 -> 3 -> 1, entered at 3
    ],
)
def test_topological_order_refuses_a_cycle(adj):
    with pytest.raises(ValueError, match="cycle"):
        topological_order(len(adj), adj)
