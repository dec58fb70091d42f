"""Small finite-poset helpers shared by the enumeration modules.

One iterative depth-first search serves every graph walk: the topological
order is its reversed finishing order, the strongly connected components are
Kosaraju's second search on the reversed graph, and the transitive closure
follows the topological order.  Relations are held as bitset rows, one per
node, and `bits` lists a row's members.
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
    """The preorder on nodes 0..n-1 generated by edges (upper, lower).

    Equivalence classes are the strongly connected components; the quotient
    poset is held as one reachability bitset per class.
    """

    def __init__(self, n: int, edges: set[tuple[int, int]]):
        comp = strongly_connected_components(n, edges)
        self._comp = comp
        comp_edges = {(comp[a], comp[b]) for a, b in edges if comp[a] != comp[b]}
        self._closure = transitive_closure(self.class_count(), comp_edges)

    def class_id(self, node: int) -> int:
        return self._comp[node]

    def class_count(self) -> int:
        return max(self._comp, default=-1) + 1

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
        members: list[list[int]] = [[] for _ in range(self.class_count())]
        for node, c in enumerate(self._comp):
            members[c].append(node)
        for upper_class, reach in enumerate(self._closure):
            for lower_class in bits(reach & ~(1 << upper_class)):
                for lower in members[lower_class]:
                    for upper in members[upper_class]:
                        yield lower, upper


def wall_edges(masks: Sequence[int], pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Generating edges (upper, lower) of a left order: each node pair with
    nonzero Ext^1, in each direction where the upper node's wall bitmask has
    a bit that the lower node's lacks."""
    return {
        (upper, lower)
        for a, b in pairs
        for upper, lower in ((a, b), (b, a))
        if masks[upper] & ~masks[lower]
    }


def transitive_closure(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Reachability bitsets over nodes 0..n-1; bit j of result[i] means i -> j.

    Every node reaches itself.
    """
    reach = [1 << i for i in range(n)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    order = topological_order(n, adj)
    for a in reversed(order):
        acc = reach[a]
        for b in adj[a]:
            acc |= reach[b]
        reach[a] = acc
    return reach


def _postorder(adj: Sequence[Sequence[int]], roots: Iterable[int], seen: list[bool]) -> list[int]:
    """The nodes reachable from `roots` and not yet `seen`, in depth-first
    finishing order; each one is marked seen."""
    order: list[int] = []
    stack = [(-1, iter(roots))]  # -1: a virtual parent of the roots
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(adj[nxt])))
                break
        else:
            order.append(node)
            stack.pop()
    order.pop()
    return order


def topological_order(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Nodes 0..n-1 with a before b for every b in adj[a] (ValueError on a cycle)."""
    order = _postorder(adj, range(n), [False] * n)[::-1]
    position = {node: pos for pos, node in enumerate(order)}
    # a cycle, self-loops included, leaves an edge pointing backwards
    if any(position[a] >= position[b] for a in range(n) for b in adj[a]):
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
    n: int, edges: Iterable[tuple[int, int]]
) -> list[int]:
    """Map each node 0..n-1 to an SCC id (Kosaraju); ids follow a
    topological order of the quotient, sources first."""
    adj: list[list[int]] = [[] for _ in range(n)]
    radj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        radj[b].append(a)
    finish = _postorder(adj, range(n), [False] * n)
    comp = [-1] * n
    seen = [False] * n
    count = 0
    for root in reversed(finish):
        if not seen[root]:
            for node in _postorder(radj, (root,), seen):
                comp[node] = count
            count += 1
    return comp
