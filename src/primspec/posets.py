"""Small finite-poset helpers shared by the enumeration modules.

A graph on nodes 0..n-1 is held as adjacency lists: adj[a] lists each b with
an edge a -> b.  Tarjan's iterative depth-first search finds the strongly
connected components, and does nothing else.  Every order comes from one
rule, Kahn's algorithm taking the least ready node first: the topological
order of a DAG, the component ids (that order on the quotient, each
component named by its least node) and the transitive closure's sweep.  So
no edge order and no set's iteration order shows in any of them.  Relations
are held as bitset rows, one per node, and `bits` lists a row's members.
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
        self._comp, quotient = strongly_connected_components(n, adj)
        self._count = len(quotient)
        self._closure = transitive_closure(self._count, quotient)

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
    in the order the search completes them, and their count."""
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
    """Nodes 0..n-1 with a before b for every b in adj[a]: Kahn's algorithm,
    taking the least node with no edge left into it each time.  A node that
    is never freed lies on or past a cycle (self-loops included), and
    raises ValueError."""
    indegree = [0] * n
    for row in adj:
        for b in row:
            indegree[b] += 1
    ready = sum(1 << a for a in range(n) if not indegree[a])  # a bitset of nodes
    order = []
    while ready:
        first = ready & -ready
        ready ^= first
        a = first.bit_length() - 1
        order.append(a)
        for b in adj[a]:
            indegree[b] -= 1
            if not indegree[b]:
                ready |= 1 << b
    if len(order) < n:
        raise ValueError("cycle detected where a DAG was required")
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


def strongly_connected_components(
    n: int, adj: Sequence[Sequence[int]]
) -> tuple[list[int], list[list[int]]]:
    """Each node's component id, and the quotient's adjacency lists on the ids.

    Tarjan's search finds the components.  Named by their least nodes, they
    are numbered in `topological_order` of the quotient: sources first, each
    tie going to the component with the least node.  So every edge a -> b
    has id(a) <= id(b), and the ids depend only on the preorder the edges
    generate.  The quotient has each edge between two components once.
    """
    found, count = _tarjan(n, adj)
    rank = dict(zip(dict.fromkeys(found), range(count)))  # components by least node
    least = list(map(rank.__getitem__, found))
    quotient = _quotient(count, least, adj)
    order = topological_order(count, quotient)
    ids = [0] * count
    for k, c in enumerate(order):
        ids[c] = k
    return [ids[c] for c in least], [[ids[d] for d in quotient[c]] for c in order]
