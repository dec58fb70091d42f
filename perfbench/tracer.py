"""Spans around the public functions of the primspec layers, from outside.

``Tracer.install()`` replaces each target function by a wrapper in every
loaded ``primspec`` module namespace that holds it (``frame`` is looked up
both as ``super_inclusion.frame`` and as ``aug_poset.frame``), and methods
on their class.  While ``active`` is set, every call appends one span
(name, start, end, parent) to flat in-memory arrays; ``report()`` derives
calls, inclusive time and self time (duration minus the time covered by
child spans) per name.  ``LaurentPolynomial.__mul__`` is only counted:
it runs millions of times and one span each would dominate the run.

The weight-reuse share is taken over the calls that enter the
``super_inclusion`` layer from outside it (a job's ``inclusion`` call, a
query's ``decide``/``relation``/``covers``) with a pair of weights: the
fraction of them whose two weights an earlier such call already had.
Calls made inside one query (``relation`` trying both directions,
``covers`` deciding a neighbourhood) do not count.

Nothing here is imported by untraced runs.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# module -> functions and Class.method names that get a span
TARGETS = {
    "aug_poset": ["enumerate_X", "strata", "irreducible_components", "to_json_dict"],
    "super_inclusion": [
        "inclusion", "frame", "theta_membership", "gamma_delta",
        "decide", "relation", "reduction_trace", "covers",
    ],
    "weights": ["central_character", "atypicality_degree"],
    "kl_classical": [
        "kl_table", "left_preorder", "classical_inclusion",
        "KLTable.save", "KLTable.load", "LeftOrder.__init__",
    ],
    "tableaux": ["robinson_schensted"],
    "crystal": ["e_tilde", "f_tilde", "epsilon", "phi", "e_tilde_power", "f_tilde_power"],
    "brundan_kl": [
        "canonical_basis", "kl_left_order", "BarInvolution.psi", "BarInvolution.__init__",
    ],
    "posets": ["transitive_reduction", "strongly_connected_components", "transitive_closure"],
}
COUNTED = {"laurent": ["LaurentPolynomial.__mul__"]}

NESTED = 1 << 16  # flag in the name field: a span of the same name is open
NS = 1e-9


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[int] = []
        self.raised: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.seen_weights: set = set()
        self.entries = 0
        self.entries_reused = 0
        self._layer_depth = [0]  # open super_inclusion spans

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import primspec.cli  # noqa: F401  (loads every layer module)

        for module, targets in TARGETS.items():
            for target in targets:
                self._patch(module, target, self._span_wrapper)
        for module, targets in COUNTED.items():
            for target in targets:
                self._patch(module, target, self._count_wrapper)

    def _patch(self, module: str, target: str, make) -> None:
        mod = sys.modules[f"primspec.{module}"]
        name = f"{module}.{target}"
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__, name)))
            else:
                wrapped = make(raw, name)
                for other, value in list(vars(cls).items()):
                    if value is raw:  # e.g. __rmul__ = __mul__
                        setattr(cls, other, wrapped)
            return
        original = getattr(mod, target)
        wrapped = make(original, name)
        for key, loaded in list(sys.modules.items()):
            if key == "primspec" or key.startswith("primspec."):
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)

    def _count_wrapper(self, fn, name):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kw):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        depth = [0]
        raised = self.raised
        clock = time.perf_counter_ns
        tracer = self
        layer = self._layer_depth if name.startswith("super_inclusion.") else None
        observe = self._observe_entry

        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            if layer is not None:
                if not layer[0] and len(args) >= 2:
                    observe(args)
                layer[0] += 1
            idx = len(starts)
            d = depth[0]
            names.append(nid | (NESTED if d else 0))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            depth[0] = d + 1
            starts.append(clock())
            try:
                return fn(*args, **kw)
            except BaseException as exc:
                raised[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                depth[0] = d
                stack.pop()
                if layer is not None:
                    layer[0] -= 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe_entry(self, args) -> None:
        seen = self.seen_weights
        alpha, beta = args[0], args[1]
        self.entries += 1
        if alpha in seen and beta in seen:
            self.entries_reused += 1
        seen.add(alpha)
        seen.add(beta)

    # -- derived numbers ------------------------------------------------------

    def report(self) -> dict:
        """Per name: calls, inclusive seconds (outermost spans) and self seconds;
        plus the route each ``inclusion`` span took."""
        n = len(self.starts)
        child_ns = [0] * n
        child_names: list[set | None] = [None] * n
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.name_ids
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
                kids = child_names[p]
                if kids is None:
                    kids = child_names[p] = set()
                kids.add(ids[i] & ~NESTED)
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        routes: Counter = Counter()
        inclusion_id = self.names.index("super_inclusion.inclusion")
        for i in range(n):
            raw = ids[i]
            nid = raw & ~NESTED
            dur = ends[i] - starts[i]
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += (dur - child_ns[i]) * NS
            if not raw & NESTED:
                entry["total_s"] += dur * NS
            if nid == inclusion_id:
                routes[self._route(i, child_names[i] or set())] += 1
        for name, count in self.counts.items():
            stats[name] = {"calls": count, "total_s": 0.0, "self_s": 0.0}
        return {
            "layers": stats,
            "routes": dict(routes),
            "spans": n,
            "weight_reuse_share": self.entries_reused / self.entries if self.entries else 0.0,
            "pairs_decided": self._children_of("aug_poset.enumerate_X", inclusion_id),
        }

    def _route(self, i: int, kids: set) -> str:
        """The decision route of one inclusion span, read off its children."""
        if self.raised.get(i) == "UnsupportedRegimeError":
            return "unsupported"
        names = {self.names[k] for k in kids}
        if "super_inclusion.frame" in names:
            return "ladder"
        if "kl_classical.classical_inclusion" in names:
            return "same_orbit"
        if "weights.atypicality_degree" in names:
            return "gl22"
        if "weights.central_character" in names:
            return "central_character"
        return "equal"

    def _children_of(self, parent_name: str, child_id: int) -> int:
        parent_id = self.names.index(parent_name)
        ids, parents = self.name_ids, self.parents
        return sum(
            1
            for i in range(len(ids))
            if ids[i] & ~NESTED == child_id and parents[i] >= 0
            and ids[parents[i]] & ~NESTED == parent_id
        )

    def dump(self, path) -> None:
        """Write the raw spans: a names line, then the four int64 arrays."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            fh.write(f"{len(self.starts)}\n".encode())
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)
