"""The four benchmark workloads: inputs from a seed, the timed job and the
correctness checks.

Every workload is a class whose steps run inside one fresh worker process:

* the constructor is the set-up: it generates the inputs from the seed and
  builds the KL preorders the job needs, against an empty throwaway cache
  directory;
* ``job()`` is timed: it makes every public call of the job and returns
  the outputs.  A call that raises (other than the documented
  ``UnsupportedRegimeError`` answer) yields a ``Failed`` output in its
  place, and the job goes on;
* ``check(out)`` runs after the timing and compares the outputs with the
  reference, counting each operation as attempted and, if its output is a
  ``Failed`` or differs, as failed.

Outputs are compared with digests recorded by ``record.py`` at a fixed
commit.  The seed picks read and query chunks, translates label windows
and shuffles order; it leaves the amount of work nearly unchanged, so
run-to-run spread measures the machine rather than the sample.

Library calls go through module attributes (``aug_poset.enumerate_X``)
so that the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from itertools import product
from pathlib import Path

from primspec import aug_poset, brundan_kl, crystal, kl_classical, super_inclusion
from primspec.errors import UnsupportedRegimeError
from primspec.weights import SuperWeight

REFERENCE = Path(__file__).with_name("reference.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference() -> dict:
    return json.loads(REFERENCE.read_text())


class Failed:
    """The output of a call that raised; its text never matches a digest."""

    def __init__(self, what: str, exc: Exception):
        self.text = f"{what}: {type(exc).__name__}: {exc}"

    def __str__(self) -> str:
        return self.text


def attempt(what: str, fn, *args):
    """``fn(*args)``, or a ``Failed`` if it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return Failed(what, exc)


def _cc(left, right) -> tuple:
    counts = Counter(left)
    counts.subtract(right)
    return tuple(sorted((x, c) for x, c in counts.items() if c))


def _atypicality(left, right) -> int:
    right_counts = Counter(right)
    return sum(min(c, right_counts[x]) for x, c in Counter(left).items())


def _shift(weight: SuperWeight, t: int) -> SuperWeight:
    return SuperWeight(tuple(x + t for x in weight.left), tuple(x + t for x in weight.right))


def _shift_text(text: str, t: int) -> str:
    return str(_shift(SuperWeight.parse(text), t))


class Workload:
    """Base: a job and its checks, with shared bookkeeping."""

    name = ""
    # input property reported in the traced run (super-kl-sweep only)
    blocks_per_window = 0.0

    def __init__(self, seed: int, size: str, cache_dir: str):
        self.cache_dir = cache_dir
        self.ref = reference()[self.name][size]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []  # seconds per query (query-mix)

    def expect(self, ok: bool, what, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.errors) < 20:
                self.errors.append(str(what))

    def job(self):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def sizes(self, out) -> dict:
        """Size facts of the job's output, for the per-layer report."""
        return {}

    def check_records(self, what: str, outs: list, record, want: str) -> None:
        """One digest over a chunk of outputs: every output of the chunk is
        an operation, all failed if the digest differs."""
        text = "\n".join(str(o) if isinstance(o, Failed) else record(o) for o in outs)
        failure = next((o for o in outs if isinstance(o, Failed)), what)
        self.expect(digest(text) == want, failure, ops=len(outs))


# -- aug-poset-6 ------------------------------------------------------------


class AugPoset(Workload):
    """enumerate_X -> strata -> irreducible_components -> to_json_dict.
    Every weight recurs hundreds of times."""

    name = "aug-poset-6"
    SIZES = {"full": 6, "smoke": 4}

    def __init__(self, seed, size, cache_dir):
        super().__init__(seed, size, cache_dir)
        self.m = self.SIZES[size]
        kl_classical.left_preorder(self.m, cache_dir=cache_dir)

    def job(self):
        return attempt("aug-poset pipeline", self.pipeline)

    def pipeline(self):
        poset = aug_poset.enumerate_X(self.m, cache_dir=self.cache_dir)
        assignments = aug_poset.strata(poset)
        components = aug_poset.irreducible_components(poset, assignments)
        doc = aug_poset.to_json_dict(poset, assignments)
        return poset, components, doc

    @staticmethod
    def components_text(components) -> str:
        return json.dumps(
            [[r.k, list(r.class_indices), r.order_isomorphic] for r in components]
        )

    def check(self, out) -> None:
        if isinstance(out, Failed):
            self.expect(False, out)
            return
        poset, components, doc = out
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        ok = digest(text) == self.ref["json"]
        ok = ok and digest(self.components_text(components)) == self.ref["components"]
        self.expect(ok, "aug-poset JSON or components digest")

    def sizes(self, out) -> dict:
        if isinstance(out, Failed):
            return {}
        poset = out[0]
        return {"strict": len(poset.strict), "classes": len(poset.classes)}


# -- kl-6 -------------------------------------------------------------------


def kl_read_pairs(rank: int, chunk: int, per_chunk: int) -> list[tuple[tuple, tuple]]:
    """Deterministic permutation pairs of one read chunk; half are Bruhat
    comparable by construction (x is reached from y by sorting descents)."""
    rng = random.Random(rank * 1_000_003 + chunk)
    pairs = []
    for k in range(per_chunk):
        y = list(range(1, rank + 1))
        rng.shuffle(y)
        if k % 2:
            x = list(range(1, rank + 1))
            rng.shuffle(x)
        else:
            x = list(y)
            for _ in range(rng.randint(0, rank)):
                descents = [p for p in range(rank - 1) if x[p] > x[p + 1]]
                if not descents:
                    break
                p = rng.choice(descents)
                x[p], x[p + 1] = x[p + 1], x[p]
        pairs.append((tuple(x), tuple(y)))
    return pairs


def kl_read(table, x, y):
    return table.kl_polynomial(x, y), kl_classical.mu(x, y, table)


def kl_read_record(read) -> str:
    poly, mu = read
    return json.dumps([poly.to_pairs(), mu])


def kl_cli_text(stdout: str) -> str:
    doc = json.loads(stdout)
    doc.pop("cache_file")  # names the per-run temp dir
    return json.dumps(doc, sort_keys=True)


def left_classes_text(order) -> str:
    classes: dict[int, list] = {}
    for r in order.perms:
        classes.setdefault(order.class_id(r), []).append(list(r))
    return json.dumps(sorted(classes.values()))


class KL(Workload):
    """A cold in-memory ``kl_table`` and ``LeftOrder`` build, then seeded
    P/mu reads.  The command-line pair run by ``run.py`` shows whether the
    disk cache pays."""

    name = "kl-6"
    SIZES = {
        "full": {"rank": 6, "chunks": 100},
        "smoke": {"rank": 5, "chunks": 2},
    }
    POOL = 1024
    PER_CHUNK = 100

    def __init__(self, seed, size, cache_dir):
        super().__init__(seed, size, cache_dir)
        spec = self.SIZES[size]
        self.rank = spec["rank"]
        rng = random.Random(seed)
        self.chunks = rng.sample(range(self.POOL), spec["chunks"])
        self.reads = {c: kl_read_pairs(self.rank, c, self.PER_CHUNK) for c in self.chunks}

    def build(self):
        table = kl_classical.kl_table(self.rank, cache_dir=self.cache_dir, use_disk=False)
        return table, kl_classical.LeftOrder(table)

    def job(self):
        built = attempt("kl_table/LeftOrder", self.build)
        if isinstance(built, Failed):
            return built
        table, order = built
        reads = {
            c: [attempt(f"KL read {x} {y}", kl_read, table, x, y) for x, y in pairs]
            for c, pairs in self.reads.items()
        }
        return table, order, reads

    def check(self, out) -> None:
        if isinstance(out, Failed):
            self.expect(False, out)
            return
        table, order, reads = out
        ok = order.class_count() == self.ref["classes"]
        ok = ok and digest(left_classes_text(order)) == self.ref["classes_digest"]
        self.expect(ok, "left cells")
        for c, outs in reads.items():
            self.check_records(f"KL read chunk {c}", outs, kl_read_record, self.ref["chunks"][c])

    def sizes(self, out) -> dict:
        if isinstance(out, Failed):
            return {}
        table, order, _ = out
        return {"kl_pairs": len(table), "left_classes": order.class_count()}

    @staticmethod
    def check_cli(ref: dict, stdout: str) -> bool:
        try:
            return digest(kl_cli_text(stdout)) == ref["cli"]
        except (ValueError, KeyError):
            return False


# -- super-kl-sweep -----------------------------------------------------------

# (m, n, window length, blocks): fixed block structure, drawn once from the
# central characters of each window by a structure seed.  A run's seed only
# translates every window and shuffles the order, so each seed does the same
# amount of work and the outputs, translated back, have one digest.
SUPER_WINDOWS = [
    (2, 1, 8, 4),
    (1, 2, 8, 4),
    (3, 1, 8, 4),
    (1, 3, 7, 4),
    (2, 2, 6, 4),
    (4, 1, 6, 2),
    (1, 4, 6, 2),
    (3, 2, 6, 2),
]
SUPER_SMOKE = [(2, 1, 6, 1), (2, 2, 5, 1)]


def super_blocks(windows) -> list[tuple[int, int, int, SuperWeight]]:
    """(m, n, length, seed weight) per block on the window [0, length-1]:
    the window's largest weight space plus atypical ones drawn at random."""
    rng = random.Random(20030101)
    blocks = []
    for m, n, length, count in windows:
        spaces: dict[tuple, list] = {}
        for labels in product(range(length), repeat=m + n):
            spaces.setdefault(_cc(labels[:m], labels[m:]), []).append(labels)
        keys = sorted(spaces, key=lambda k: (-len(spaces[k]), k))
        atypical = [k for k in keys[1:] if _atypicality(spaces[k][0][:m], spaces[k][0][m:])]
        chosen = keys[:1] + rng.sample(atypical, count - 1)
        for key in chosen:
            labels = spaces[key][0]
            blocks.append((m, n, length, SuperWeight(labels[:m], labels[m:])))
    return blocks


def super_block_text(table, order, t: int) -> str:
    """Table and strict order of one block, translated back by t."""
    doc = table.to_json_dict()
    doc["interval"] = [x - t for x in doc["interval"]]
    doc["weights"] = [_shift_text(w, -t) for w in doc["weights"]]
    for e in doc["entries"]:
        e["alpha"], e["beta"] = _shift_text(e["alpha"], -t), _shift_text(e["beta"], -t)
    doc["order"] = sorted([str(_shift(b, -t)), str(_shift(a, -t))] for b, a in order.relations())
    return json.dumps(doc, sort_keys=True)


class SuperKL(Workload):
    """canonical_basis + kl_left_order over blocks sharing windows; on singly
    atypical blocks, pairs are cross-checked against the ladder ``inclusion``
    (the paper's own consistency check)."""

    name = "super-kl-sweep"

    def __init__(self, seed, size, cache_dir):
        super().__init__(seed, size, cache_dir)
        rng = random.Random(seed)
        # labels stay inside CPython's small-int cache (-5..256): outside it
        # every label operation allocates, which would make cost depend on t
        self.t = rng.randint(0, 40)
        windows = SUPER_WINDOWS if size == "full" else SUPER_SMOKE
        self.blocks = list(enumerate(super_blocks(windows)))
        by_window: dict[tuple, list] = {}
        for item in self.blocks:
            by_window.setdefault(item[1][:3], []).append(item)
        groups = list(by_window.values())
        rng.shuffle(groups)
        for g in groups:
            rng.shuffle(g)
        self.order = [item for g in groups for item in g]
        self.blocks_per_window = len(self.blocks) / len(groups)
        for rank in range(2, max(max(m, n) for m, n, _, _ in windows) + 1):
            kl_classical.left_preorder(rank, cache_dir=cache_dir)

    def block(self, weight, length):
        table = brundan_kl.canonical_basis([_shift(weight, self.t)], (self.t, self.t + length - 1))
        return table, brundan_kl.kl_left_order(table.weights, table)

    def include(self, a, b):
        return super_inclusion.inclusion(a, b, cache_dir=self.cache_dir)

    def job(self):
        outs = []
        for index, (m, n, length, weight) in self.order:
            built = attempt(f"block {index}", self.block, weight, length)
            ladder = []
            if not isinstance(built, Failed):
                ladder = [
                    (a, b, attempt(f"block {index}: inclusion({a}, {b})", self.include, a, b))
                    for a, b in cross_check_pairs(built[0].weights)
                ]
            outs.append((index, built, ladder))
        return outs

    def check(self, out) -> None:
        for index, built, ladder in out:
            if isinstance(built, Failed):
                self.expect(False, built)
                continue
            table, order = built
            text = super_block_text(table, order, self.t)
            self.expect(digest(text) == self.ref["blocks"][index], f"block {index} table/order")
            for a, b, got in ladder:
                want = order.leq(b, a)
                self.expect(
                    got == want,
                    got if isinstance(got, Failed)
                    else f"block {index}: inclusion({a}, {b}) = {got}, canonical order {want}",
                )

    def sizes(self, out) -> dict:
        return {
            "weight_space_dim": sum(
                len(built[0].weights) for _, built, _ in out if not isinstance(built, Failed)
            )
        }


def cross_check_pairs(weights, cap: int = 400) -> list:
    """Pairs of a singly atypical block checked against the ladder: all of
    them, or an evenly strided `cap` of them on large blocks."""
    if _atypicality(weights[0].left, weights[0].right) != 1:
        return []
    step = max(1, len(weights) ** 2 // cap)
    pairs = [(a, b) for a in weights for b in weights]
    return pairs[::step]


# -- query-mix ------------------------------------------------------------------

PAIR_SHAPES = [(m, n) for total in range(2, 8) for m in range(total - 1, 0, -1) for n in [total - m]]
UNSUPPORTED_SHAPES = [(m, n) for m, n in PAIR_SHAPES if m >= 2 and n >= 2 and (m, n) != (2, 2)]
# Shares of the stream per route and per operation.  Nothing records what
# real query traffic looks like, so every route and every operation gets an
# equal share: an assumption, not measured traffic.
QUERY_MIX = {
    route: 1 / 6
    for route in ("central_character", "same_orbit", "ladder", "gl22", "unsupported", "crystal")
}
PAIR_OPS = (("decide", 1 / 3), ("relation", 1 / 3), ("covers", 1 / 3))


def _random_labels(rng, count, lo, spread):
    return [lo + rng.randrange(spread) for _ in range(count)]


def _weight(left, right) -> SuperWeight:
    return SuperWeight(tuple(left), tuple(right))


def _shuffled(rng, seq):
    seq = list(seq)
    rng.shuffle(seq)
    return seq


def _singly_atypical(rng, m, n, base):
    while True:
        a = base + rng.randrange(m + n)
        left = [a] + _random_labels(rng, m - 1, base, m + n + 2)
        right = [a] + _random_labels(rng, n - 1, base, m + n + 2)
        if _atypicality(left, right) == 1:
            return left, right


def query_pair(rng, route, base):
    """One (alpha, beta) pair that takes the given decision route."""
    if route == "gl22":
        def doubly():
            x, y = base + rng.randrange(4), base + rng.randrange(4)
            return _shuffled(rng, [x, y]), _shuffled(rng, [x, y])

        left, right = doubly()
        alpha = _weight(left, right)
        if rng.random() < 0.5:
            c = base + rng.randrange(3)
            alpha = _weight([c + 1, c], [c, c + 1])
            l, r = rng.choice((((1, 1), (1, 1)), ((2, 1), (2, 1)), ((1, 2), (1, 2)), ((1, 2), (2, 1))))
            beta = _weight([x + c for x in l], [x + c for x in r])
        else:
            beta = _weight(*doubly())
        return alpha, beta
    if route == "unsupported":
        m, n = rng.choice(UNSUPPORTED_SHAPES)
        while True:
            x, y, x2, y2 = (base + rng.randrange(m + n + 2) for _ in range(4))
            rest_l = _random_labels(rng, m - 2, base, m + n + 2)
            rest_r = _random_labels(rng, n - 2, base, m + n + 2)
            la, ra = [x, y] + rest_l, [x, y] + rest_r
            lb, rb = [x2, y2] + rest_l, [x2, y2] + rest_r
            if (
                _atypicality(la, ra) == 2 and _atypicality(lb, rb) == 2
                and sorted(la) != sorted(lb)
            ):
                alpha = _weight(_shuffled(rng, la), _shuffled(rng, ra))
                return alpha, _weight(_shuffled(rng, lb), _shuffled(rng, rb))
    m, n = rng.choice(PAIR_SHAPES)
    if route == "central_character":
        while True:
            spread = m + n + 2
            la, ra = _random_labels(rng, m, base, spread), _random_labels(rng, n, base, spread)
            lb, rb = _random_labels(rng, m, base, spread), _random_labels(rng, n, base, spread)
            if _cc(la, ra) != _cc(lb, rb):
                return _weight(la, ra), _weight(lb, rb)
    if route == "same_orbit":
        la, ra = _random_labels(rng, m, base, m + n), _random_labels(rng, n, base, m + n)
        return _weight(la, ra), _weight(_shuffled(rng, la), _shuffled(rng, ra))
    # ladder: shift alpha's atypical pair by p and permute each side
    while True:
        left, right = _singly_atypical(rng, m, n, base)
        a = left[0]
        p = rng.randint(1, 3)
        lb, rb = [a + p] + left[1:], [a + p] + right[1:]
        if _atypicality(lb, rb) == 1:
            alpha = _weight(_shuffled(rng, left), _shuffled(rng, right))
            return alpha, _weight(_shuffled(rng, lb), _shuffled(rng, rb))


def query_slots(count: int) -> list[tuple[str, str | None]]:
    """(route, op) of every query of a chunk, in the fixed shares: each chunk
    has the same mix, so its cost does not depend on which chunks are drawn."""
    slots = []
    for route, share in QUERY_MIX.items():
        n = round(share * count)
        if route == "crystal":
            slots += [(route, None)] * n
        else:
            for op, op_share in PAIR_OPS:
                slots += [(route, op)] * round(op_share * n)
    return slots


def query_chunk(chunk: int, count: int) -> list[tuple]:
    """Deterministic queries of one chunk: (route, op, args).  Labels stay
    within CPython's small-int cache, like the labels users pass."""
    rng = random.Random(9_000_011 * chunk + 7)
    slots = query_slots(count)
    rng.shuffle(slots)
    out = []
    for route, op in slots:
        base = rng.randint(0, 240)
        if route == "crystal":
            m, n = rng.choice(PAIR_SHAPES)
            spread = m + n + 2
            w = _weight(_random_labels(rng, m, base, spread), _random_labels(rng, n, base, spread))
            color = rng.randint(min(w.labels) - 1, max(w.labels))
            out.append((route, rng.choice(("e", "f", "eps", "phi")), (w, color)))
        else:
            out.append((route, op, query_pair(rng, route, base)))
    return out


CRYSTAL_OPS = {"e": "e_tilde", "f": "f_tilde", "eps": "epsilon", "phi": "phi"}


def run_query(op, args, cache_dir):
    """One public call, the timed part of a query."""
    if op in CRYSTAL_OPS:
        return getattr(crystal, CRYSTAL_OPS[op])(*args)
    alpha, beta = args
    if op == "decide":
        return super_inclusion.decide(alpha, beta, cache_dir=cache_dir)
    if op == "relation":
        return super_inclusion.relation(alpha, beta, cache_dir=cache_dir)
    try:
        return super_inclusion.covers(alpha, beta, cache_dir=cache_dir)
    except UnsupportedRegimeError:
        return "unsupported"


def query_record(answer) -> str:
    """The text of one query's (op, result) that goes into the chunk digest."""
    op, result = answer
    if op == "decide":
        return json.dumps(result.to_json_dict(), sort_keys=True)
    return str(result)


class QueryMix(Workload):
    """Independent decide/covers/relation and crystal queries in equal route
    shares; the weights of one query rarely recur in another.  The stream
    is the job, and each query's latency is kept."""

    name = "query-mix"
    SIZES = {"full": 60, "smoke": 2}
    POOL = 512
    PER_CHUNK = 180

    def __init__(self, seed, size, cache_dir):
        super().__init__(seed, size, cache_dir)
        for rank in range(2, max(m for m, _ in PAIR_SHAPES) + 1):
            kl_classical.left_preorder(rank, cache_dir=cache_dir)
        rng = random.Random(seed)
        self.chunks = rng.sample(range(self.POOL), self.SIZES[size])
        self.stream = [(c, query_chunk(c, self.PER_CHUNK)) for c in self.chunks]

    def job(self):
        clock = time.perf_counter
        latencies = self.latencies
        cache_dir = self.cache_dir
        outs = []
        for c, queries in self.stream:
            results = []
            for _, op, args in queries:
                start = clock()
                try:
                    got = (op, run_query(op, args, cache_dir))
                except Exception as exc:
                    got = Failed(f"query chunk {c}: {op}{args}", exc)
                latencies.append(clock() - start)
                results.append(got)
            outs.append((c, results))
        return outs

    def check(self, out) -> None:
        for c, results in out:
            self.check_records(f"query chunk {c}", results, query_record, self.ref["chunks"][c])

    def sizes(self, out) -> dict:
        counts = Counter(route for _, queries in self.stream for route, _, _ in queries)
        total = sum(counts.values())
        return {f"mix.{route}": counts[route] / total for route in QUERY_MIX}


WORKLOADS = {cls.name: cls for cls in (AugPoset, KL, SuperKL, QueryMix)}
