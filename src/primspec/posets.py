"""Small finite-poset helpers shared by the enumeration modules.

A graph on nodes 0..n-1 is held as adjacency lists: adj[a] lists each b with
an edge a -> b.  One iterative depth-first search, Tarjan's, serves every
graph walk: it finds the strongly connected components, sinks first, and on
a DAG it finishes the nodes in a reversed topological order.  The transitive
closure follows the topological order.

Component ids follow one rule of the preorder alone: they are the
topological order of the quotient, sources first, that breaks each tie
towards the component with the least node (Kahn's algorithm, its ready
components held as a bitset in least-node order).  So no edge order and no
set's iteration order shows in them.  Relations are held as bitset rows, one
per node, and `bits` lists a row's members.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "bits",
    "Preorder",
    "wall_edges",
    "topological_order",
    "transitive_closure",
    "transitive_reduction",
    "strongly_connected_components",
]


def bits(row: int) -> Iterator[int]:
    """The indices of the set bits of `row`, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class Preorder:
    """The preorder on nodes 0..n-1 generated by the edges adj[upper] -> lower.

    Equivalence classes are the strongly connected components, numbered by
    `strongly_connected_components`; the quotient poset is held as one
    reachability bitset per class.
    """

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        self._comp = comp = strongly_connected_components(n, adj)
        self._count = count = max(comp, default=-1) + 1
        self._closure = transitive_closure(count, _quotient(count, comp, adj))

    def class_id(self, node: int) -> int:
        return self._comp[node]

    def class_count(self) -> int:
        return self._count

    def below(self, c: int) -> int:
        """Class c's closure row: bit d is set when class d is below or equal to c."""
        return self._closure[c]

    def class_leq(self, lower: int, upper: int) -> bool:
        """Is class `lower` reachable from class `upper`?"""
        return bool(self._closure[upper] >> lower & 1)

    def leq(self, lower: int, upper: int) -> bool:
        """Is node `lower` below or equivalent to node `upper`?"""
        return self.class_leq(self._comp[lower], self._comp[upper])

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        """Every (lower, upper) node pair with `lower` strictly below `upper`."""
        members: list[list[int]] = [[] for _ in range(self._count)]
        for node, c in enumerate(self._comp):
            members[c].append(node)
        for upper_class, reach in enumerate(self._closure):
            for lower_class in bits(reach & ~(1 << upper_class)):
                for lower in members[lower_class]:
                    for upper in members[upper_class]:
                        yield lower, upper


def wall_edges(
    masks: Sequence[int], partners: Iterable[tuple[int, Iterable[int]]]
) -> list[list[int]]:
    """Generating edges of a left order as adjacency lists, adj[upper] -> lower.

    `partners` gives each node with nonzero Ext^1 together with the nodes it
    has it with, each unordered pair once.  A pair is an edge in each
    direction where the upper node's wall bitmask has a bit that the lower
    node's lacks, so no edge repeats.
    """
    adj: list[list[int]] = [[] for _ in masks]
    lacking = [~mask for mask in masks]
    for a, others in partners:
        mask_a, lacking_a, row_a = masks[a], lacking[a], adj[a]
        for b in others:
            if mask_a & lacking[b]:
                row_a.append(b)
            if masks[b] & lacking_a:
                adj[b].append(a)
    return adj


def _quotient(count: int, comp: Sequence[int], adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """The quotient graph's adjacency lists: each class d != c that some
    edge from class c enters, once."""
    targets: list[set[int]] = [set() for _ in range(count)]
    for c, row in zip(comp, adj):
        if row:
            targets[c].update(map(comp.__getitem__, row))
    for c, row in enumerate(targets):
        row.discard(c)
    return list(map(list, targets))


def transitive_closure(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Reachability bitsets of a DAG on nodes 0..n-1; bit j of result[i]
    means i -> j.

    Every node reaches itself.
    """
    reach = [1 << i for i in range(n)]
    for a in reversed(topological_order(n, adj)):
        acc = reach[a]
        for b in adj[a]:
            acc |= reach[b]
        reach[a] = acc
    return reach


def _tarjan(n: int, adj: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Tarjan's strongly connected components: each node's component id,
    numbered as the search completes them (so every edge a -> b has
    id(a) >= id(b)), and their count.  Roots are taken in node order and
    each adjacency list in its own order."""
    # order: 1 + the preorder number, 0 while unvisited and past every
    # number once the node's component is done; low: the least order that
    # the node's subtree reaches, while it is open
    order, low, found = [0] * n, [0] * n, [-1] * n
    path: list[int] = []  # visited nodes whose component is still open
    count = clock = 0
    done = n + 1
    for root in range(n):
        if order[root]:
            continue
        clock += 1
        order[root] = low[root] = clock
        path.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                seen = order[w]
                if not seen:
                    clock += 1
                    order[w] = low[w] = clock
                    path.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if seen < low[v]:
                    low[v] = seen
            else:
                stack.pop()
                if stack and low[v] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[v]
                if low[v] == order[v]:  # v is its component's root
                    while True:
                        w = path.pop()
                        found[w], order[w] = count, done
                        if w == v:
                            break
                    count += 1
    return found, count


def topological_order(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Nodes 0..n-1 with a before b for every b in adj[a] (ValueError on a cycle)."""
    found, _ = _tarjan(n, adj)
    # a cycle, self-loops included, puts both ends of an edge in one component
    if any(found[a] <= found[b] for a in range(n) for b in adj[a]):
        raise ValueError("cycle detected where a DAG was required")
    order = [0] * n
    for node, c in enumerate(found):
        order[n - 1 - c] = node
    return order


def transitive_reduction(down: Sequence[int]) -> list[tuple[int, int]]:
    """Hasse edges (a, b), sorted, of a strict partial order on nodes
    0..len(down)-1 given as rows (bit a of down[b]: a < b): the pairs with
    no node c such that a < c and c < b."""
    edges = []
    for b, row in enumerate(down):
        through = 0  # bit a: a < c for some c < b
        for c in bits(row):
            through |= down[c]
        edges.extend((a, b) for a in bits(row & ~through))
    return sorted(edges)


def strongly_connected_components(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Map each node 0..n-1 to the id of its strongly connected component.

    The ids are the topological order of the quotient, sources first, that
    breaks each tie towards the component with the least node: the order
    Kahn's algorithm gives when it always takes, of the components with no
    edge left into them, the one with the least node.  So every edge a -> b
    has id(a) <= id(b), and the ids depend only on the preorder the edges
    generate.
    """
    found, count = _tarjan(n, adj)
    by_least: list[int] = []  # the components, by least node
    place = [-1] * count  # each component's position in by_least
    for c in found:
        if place[c] < 0:
            place[c] = len(by_least)
            by_least.append(c)
    successors = _quotient(count, found, adj)
    indegree = [0] * count
    for row in successors:
        for d in row:
            indegree[d] += 1
    ready = sum(1 << place[c] for c in range(count) if not indegree[c])  # a bitset of places
    ids = [0] * count
    for k in range(count):
        first = ready & -ready
        ready ^= first
        c = by_least[first.bit_length() - 1]
        ids[c] = k
        for d in successors[c]:
            indegree[d] -= 1
            if not indegree[d]:
                ready |= 1 << place[d]
    return list(map(ids.__getitem__, found))
