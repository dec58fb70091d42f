"""Small finite-poset helpers shared by the enumeration modules."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "Preorder",
    "transitive_closure",
    "transitive_reduction",
    "strongly_connected_components",
]


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

    def class_leq(self, lower: int, upper: int) -> bool:
        """Is class `lower` reachable from class `upper`?"""
        return bool(self._closure[upper] >> lower & 1)

    def leq(self, lower: int, upper: int) -> bool:
        """Is node `lower` below or equivalent to node `upper`?"""
        return self.class_leq(self._comp[lower], self._comp[upper])


def transitive_closure(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Reachability bitsets over nodes 0..n-1; bit j of result[i] means i -> j.

    Every node reaches itself.
    """
    reach = [1 << i for i in range(n)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    order = _topological_order(n, adj)
    for a in reversed(order):
        acc = reach[a]
        for b in adj[a]:
            acc |= reach[b]
        reach[a] = acc
    return reach


def _topological_order(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    seen = [0] * n  # 0 unvisited, 1 on stack, 2 done
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(adj[root]))]
        seen[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if seen[nxt] == 1:
                    raise ValueError("cycle detected where a DAG was required")
                if seen[nxt] == 0:
                    seen[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                seen[node] = 2
                order.append(node)
                stack.pop()
    order.reverse()
    return order


def transitive_reduction(
    n: int, strict: set[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Hasse edges of a strict partial order given as ordered pairs (a < b)."""
    edges = []
    for a, b in strict:
        if not any((a, c) in strict and (c, b) in strict for c in range(n)):
            edges.append((a, b))
    return sorted(edges)


def strongly_connected_components(
    n: int, edges: Iterable[tuple[int, int]]
) -> list[int]:
    """Map each node 0..n-1 to an SCC id (Tarjan, iterative)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    counter = 1
    comp_count = 0
    stack: list[int] = []
    for root in range(n):
        if index[root]:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(pi, len(adj[node])):
                nxt = adj[node][k]
                if not index[nxt]:
                    work[-1] = (node, k + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = comp_count
                    if top == node:
                        break
                comp_count += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp
