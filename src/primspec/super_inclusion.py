"""Inclusion of primitive ideals J(beta) in J(alpha) for gl(m|n).

Decidable regimes and their routes:

* equal central character is necessary; different invariants mean
  incomparable;
* same orbit (in particular every typical case): the question transfers
  verbatim to gl(m)+gl(n) and is settled by the classical order;
* both weights singly atypical, different orbits: the ladder algorithm.
  The atypical pair of alpha extends to a maximal ladder of positions
  I_alpha carrying labels a, a+1, ..., a+p_alpha that zigzag monotonically
  on each side of the separator; beta must sit in the orbit obtained by
  shifting alpha's atypical pair by some p in [0, p_alpha], and the residual
  question is a classical inclusion between two explicitly transformed
  weights gamma and delta.  The transformation is realized by an explicit
  chain of crystal operator powers, exposed as a ReductionTrace;
* m = n = 2 with both weights doubly atypical: the classification of the
  component of the augmentation ideal.  Cross-orbit inclusions exist only
  into ideals labeled (c+1,c|c,c+1), from exactly four shifted patterns.
  No pattern has that form itself, so covers follow from the list: a
  same-orbit cover is a classical cover, and (c+1,c|c,c+1) covers a
  pattern unless another pattern of a different class lies classically
  above it.

Everything else raises UnsupportedRegimeError: a loud "cannot decide",
distinct from False.

`relation` and `decide` classify a pair first (`_classify`: central
characters, orbit, one atypicality degree) and read both directions off
that one classification.  Equal ideals share an orbit, so only a same-orbit
pair is tested for equality, by one `classical_relation` call that reads
the pair once.  `covers` enters through `inclusion`.  What the
classification and the ladder read of a weight is kept in two
`functools.lru_cache` memos of MEMO_SIZE entries each, shared across
pairs: `_invariants` (central character and sorted orbit key) and
`_atypical` (atypicality degree and, for a singly atypical weight, its
frame).  A miss calls `central_character`, `atypicality_degree` and
`frame` through this module's globals at call time, so whatever patches
those names sees every miss; a hit calls none of them.  The degree is read
only for cross-orbit pairs, and memoised frames, whose `q_values` is a
mutable dict, never leave the module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Literal, NamedTuple

from . import crystal
from .errors import (
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .kl_classical import (
    _check_keywords,
    classical_cover,
    classical_equal,
    classical_inclusion,
    classical_relation,
)
from .posets import strongly_connected_components, transitive_reduction
from .weights import (
    SuperWeight,
    _weight,
    atypicality_degree,
    central_character,
    orbit_equal,
)

__all__ = [
    "AtypicalityFrame",
    "TraceStep",
    "ReductionTrace",
    "Decision",
    "frame",
    "theta_membership",
    "theta_representative",
    "gamma_delta",
    "reduction_trace",
    "inclusion",
    "equal_ideal",
    "covers",
    "relation",
    "decide",
    "gl22_component_classes",
]


class AtypicalityFrame(NamedTuple):
    """The ladder attached to a singly atypical weight.

    ``i_set`` holds 1-based positions into the label tuple: first the two
    occurrences of the atypical value ``a_value`` nearest the separator
    (one per side), then the positions of a+1, ..., a+p_value, chosen
    maximal on the left side and minimal on the right side subject to the
    zigzag constraints.  ``q_values[i]`` counts the immediately following
    run of opposite-side positions.
    """

    a_value: int
    i_set: tuple[int, ...]
    p_value: int
    q_values: dict[int, int]


def frame(weight: SuperWeight) -> AtypicalityFrame:
    """Ladder data of a singly atypical weight.

    >>> f = frame(SuperWeight.parse("7,6,2,3,6,1,3,1|4,3,4,5"))
    >>> f.a_value, f.i_set, f.p_value
    (3, (10, 7, 11, 12, 5, 1), 4)
    >>> [f.q_values[i] for i in f.i_set]
    [0, 2, 0, 2, 0, 0]
    """
    m = weight.m
    left_positions: dict[int, list[int]] = {}  # label -> positions ascending (1-based)
    right_positions: dict[int, list[int]] = {}
    for pos, lab in enumerate(weight.left, start=1):
        left_positions.setdefault(lab, []).append(pos)
    for pos, lab in enumerate(weight.right, start=m + 1):
        right_positions.setdefault(lab, []).append(pos)
    degree = 0
    for x, here in left_positions.items():
        there = right_positions.get(x)
        if there:
            degree += min(len(here), len(there))
            a = x
    if degree != 1:
        raise NotSinglyAtypicalError(weight, degree)

    left_a = left_positions[a][-1]  # nearest the separator
    right_a = right_positions[a][0]

    # positions of a+1, a+2, ...: each value lives on one side only, and the
    # chain must decrease through left positions and increase through right
    # ones; extremal choices are optimal, so the walk is greedy.
    ladder: list[int] = []
    last_left, last_right = left_a, right_a
    target = a + 1
    while True:
        if target in left_positions:
            candidates = [p for p in left_positions[target] if p < last_left]
            if not candidates:
                break
            last_left = pick = candidates[-1]
        elif target in right_positions:
            candidates = [p for p in right_positions[target] if p > last_right]
            if not candidates:
                break
            last_right = pick = candidates[0]
        else:
            break
        ladder.append(pick)
        target += 1

    p_value = len(ladder)
    if p_value and ladder[0] <= m:
        first_two = (left_a, right_a)  # make pi(i_0) differ from pi(i_1)
    else:
        first_two = (right_a, left_a)
    i_set = first_two + tuple(ladder)

    # the runs sum to p_value: i_set[1] lies opposite i_set[2], so each ladder
    # position is in one run, after the last earlier i_set[1:] entry opposite it
    q_values = {i_set[0]: 0}
    for idx in range(1, len(i_set)):
        side, end = i_set[idx] <= m, idx + 1
        while end < len(i_set) and (i_set[end] <= m) != side:
            end += 1
        q_values[i_set[idx]] = end - idx - 1
    return AtypicalityFrame(a, i_set, p_value, q_values)


def _shifted(alpha: SuperWeight, fa: AtypicalityFrame, p: int) -> SuperWeight:
    """alpha with the atypical pair of its frame `fa` moved to a+p."""
    for pos in fa.i_set[:2]:
        alpha = alpha.replace(pos, fa.a_value + p)
    return alpha


def theta_representative(alpha: SuperWeight, p: int) -> SuperWeight:
    """The weight obtained by shifting alpha's atypical pair to a+p."""
    return _shifted(alpha, frame(alpha), p)


def theta_membership(alpha: SuperWeight, beta: SuperWeight) -> int | None:
    """The shift p with beta in the orbit of alpha's shifted pair, else None.

    Defined exactly when both weights are singly atypical; a returned p
    means the central characters agree.
    """
    if (alpha.m, alpha.n) != (beta.m, beta.n):
        raise ValueError("weights live in different Z^(m|n)")
    fa = frame(alpha)
    p = frame(beta).a_value - fa.a_value
    return p if orbit_equal(_shifted(alpha, fa, p), beta) else None


def _gamma(alpha: SuperWeight, fa: AtypicalityFrame, p: int) -> SuperWeight:
    """alpha's classical surrogate at shift p (`fa` is alpha's frame): labels
    up to a+p drop by one, except along the ladder, where they advance by
    their run lengths and saturate at a+p."""
    cap = fa.a_value + p
    labels = [
        lab if lab > cap
        else min(lab + fa.q_values[pos], cap) if pos in fa.q_values
        else lab - 1
        for pos, lab in enumerate(alpha.labels, start=1)
    ]
    return SuperWeight(tuple(labels[: alpha.m]), tuple(labels[alpha.m:]))


def _delta(beta: SuperWeight, fb: AtypicalityFrame) -> SuperWeight:
    """beta's classical surrogate (`fb` is beta's frame), the same for every
    alpha since a_alpha + p = a_beta: labels up to a_beta drop by one, except
    the atypical pair nearest the separator."""
    keep = fb.i_set[:2]
    labels = [
        lab - 1 if lab <= fb.a_value and pos not in keep else lab
        for pos, lab in enumerate(beta.labels, start=1)
    ]
    return SuperWeight(tuple(labels[: beta.m]), tuple(labels[beta.m:]))


# -- per-weight memos ----------------------------------------------------------

MEMO_SIZE = 128  # entries per memo: every weight of a cross-checked block (at most 108)


def _orbit_key(left, right) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(left)), tuple(sorted(right))


@lru_cache(maxsize=MEMO_SIZE)
def _invariants(weight: SuperWeight) -> tuple[tuple, tuple]:
    """Central character and orbit key."""
    return central_character(weight), _orbit_key(weight.left, weight.right)


@lru_cache(maxsize=MEMO_SIZE)
def _atypical(weight: SuperWeight) -> tuple[int, AtypicalityFrame | None]:
    """Atypicality degree, and the frame of a singly atypical weight."""
    degree = atypicality_degree(weight)
    return degree, frame(weight) if degree == 1 else None


def _singly(weight: SuperWeight) -> AtypicalityFrame:
    """The frame of a weight that must be singly atypical."""
    degree, fw = _atypical(weight)
    if fw is None:
        raise NotSinglyAtypicalError(weight, degree)
    return fw


def _ladder(alpha: SuperWeight, beta: SuperWeight) -> tuple[int, SuperWeight, SuperWeight] | None:
    """The ladder pass: (p, gamma, delta), or None unless beta lies in the
    orbit of alpha's atypical pair shifted by 0 <= p <= p_alpha."""
    fa, fb = _singly(alpha), _singly(beta)
    a, p = fa.a_value, fb.a_value - fa.a_value
    if not 0 <= p <= fa.p_value:
        return None
    # the orbit is blind to which copy of a moves to a+p
    left, right = list(alpha.left), list(alpha.right)
    left[left.index(a)] = a + p
    right[right.index(a)] = a + p
    if _orbit_key(left, right) != _invariants(beta)[1]:
        return None
    return p, _gamma(alpha, fa, p), _delta(beta, fb)


def _required_ladder(alpha: SuperWeight, beta: SuperWeight) -> tuple[int, SuperWeight, SuperWeight]:
    """The ladder pass, which must apply to the pair."""
    found = _ladder(alpha, beta)
    if found is None:
        if (alpha.m, alpha.n) != (beta.m, beta.n):
            raise ValueError("weights live in different Z^(m|n)")
        raise PreconditionError(
            f"{beta} is not in the shifted orbits of {alpha} "
            f"for 0 <= p <= {_singly(alpha).p_value}"
        )
    return found


def gamma_delta(alpha: SuperWeight, beta: SuperWeight) -> tuple[SuperWeight, SuperWeight]:
    """The classical surrogate pair (gamma for alpha, delta for beta).

    Requires beta in the shifted orbit of alpha with 0 <= p <= p_alpha.
    """
    return _required_ladder(alpha, beta)[1:]


class TraceStep(NamedTuple):
    """One crystal operator power applied during the reduction."""

    side: Literal["alpha", "beta"]
    op: Literal["e", "f"]
    color: int
    power: int
    before: SuperWeight
    after: SuperWeight

    @property
    def label(self) -> str:
        sup = f"^{self.power}" if self.power != 1 else ""
        return f"{self.op}~_{self.color}{sup}"


class ReductionTrace(NamedTuple):
    """The full operator chain taking (alpha, beta) to (gamma, delta)."""

    steps: tuple[TraceStep, ...]
    final_gamma: SuperWeight
    final_delta: SuperWeight

    def weights(self, side: Literal["alpha", "beta"]) -> list[SuperWeight]:
        """The visited weights on one side, initial weight first."""
        chain = [s for s in self.steps if s.side == side]
        if not chain:
            return []
        return [chain[0].before] + [s.after for s in chain]


def _apply_power(
    side: str, op: str, color: int, power: int, start: SuperWeight,
    steps: list[TraceStep],
) -> SuperWeight:
    if power == 0:
        return start
    fn = crystal.e_tilde_power if op == "e" else crystal.f_tilde_power
    after = fn(start, color, power)
    steps.append(TraceStep(side, op, color, power, start, after))
    return after


def reduction_trace(alpha: SuperWeight, beta: SuperWeight) -> ReductionTrace:
    """Replay the ladder reduction as explicit crystal operator powers.

    The two sides are normalized below the atypical value, the surplus
    copies of it are pushed down, and the ladder is climbed one value at a
    time; the final weights are cross-checked against the closed formulas.
    """
    return _trace(alpha, beta, _required_ladder(alpha, beta))


def _trace(alpha: SuperWeight, beta: SuperWeight, ladder: tuple) -> ReductionTrace:
    """The reduction trace of a ladder pair, given its ladder pass (p, gamma, delta)."""
    p, gamma, delta = ladder
    a = _singly(alpha).a_value
    steps: list[TraceStep] = []

    # crystal powers lowering every label below a by one, smallest first; those
    # labels agree between the two weights, so one op list serves both
    norm_ops = [
        ("e" if value in alpha.left else "f", value - 1, alpha.labels.count(value))
        for value in sorted({lab for lab in alpha.labels if lab < a})
    ]
    chains = {}
    for side, start in (("alpha", alpha), ("beta", beta)):
        current = start
        for op, color, power in norm_ops:
            current = _apply_power(side, op, color, power, current, steps)
        chains[side] = current
    # push alpha's surplus copies of a below, keeping the separator-nearest
    # pair; the same power applies on the beta side (a zero power adds no step)
    surplus = alpha.labels.count(a) - 2
    op = "e" if alpha.left.count(a) > 1 else "f"
    for side in ("alpha", "beta"):
        chains[side] = _apply_power(side, op, a - 1, surplus, chains[side], steps)

    for stage in range(1, p + 1):
        value = a + stage  # the ladder value being absorbed
        zeta = chains["alpha"]
        power = zeta.labels.count(value)
        op = "e" if value in zeta.left else "f"
        for side in ("alpha", "beta"):
            chains[side] = _apply_power(side, op, value - 1, power, chains[side], steps)

    if chains["alpha"] != gamma or chains["beta"] != delta:
        raise InvariantError(
            f"reduction mismatch: trace ended at ({chains['alpha']}, {chains['beta']}), "
            f"formulas give ({gamma}, {delta})"
        )
    return ReductionTrace(tuple(steps), gamma, delta)


# -- the decision procedure ---------------------------------------------------


# the four labels, less c, of each pattern of alpha = (c+1, c | c, c+1)
_GL22_OFFSETS = ((1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2), (1, 2, 2, 1))


def _gl22_patterns(alpha: SuperWeight) -> tuple[SuperWeight, ...]:
    """The four weights beta with J(beta) in J(alpha) across orbits, for
    doubly atypical gl(2|2): nonempty only for alpha = (c+1, c | c, c+1)."""
    c = alpha.left[1]
    if alpha.left != (c + 1, c) or alpha.right != (c, c + 1):
        return ()
    return tuple(_weight((c + a, c + b), (c + x, c + y)) for a, b, x, y in _GL22_OFFSETS)


def _classify(alpha: SuperWeight, beta: SuperWeight) -> str:
    """The route of two distinct weights, for both directions: 'central_character'
    (incomparable), 'same_orbit', 'ladder' or 'gl22'.  Equal central
    characters give equal atypicality degrees (m minus the positive counts),
    so one degree serves both weights."""
    m, n = len(alpha.left), len(alpha.right)
    if m != len(beta.left) or n != len(beta.right):
        raise ValueError("weights live in different Z^(m|n)")
    (character, orbit), (other_character, other_orbit) = _invariants(alpha), _invariants(beta)
    if character != other_character:
        return "central_character"
    if orbit == other_orbit:
        return "same_orbit"
    degree = _atypical(alpha)[0]
    if degree == 1:
        return "ladder"
    if degree == 2 and m == n == 2:
        return "gl22"
    raise UnsupportedRegimeError(
        f"cross-orbit inclusion undecidable here: atypicality degrees "
        f"({degree}, {degree}) for gl({m}|{n})"
    )


def _includes(route: str, alpha: SuperWeight, beta: SuperWeight, **kw):
    """J(beta) subseteq J(alpha) for a classified pair, in either direction:
    on the ladder route the ladder pass (p, gamma, delta) that proved it,
    else a bool."""
    if route == "same_orbit":
        return classical_inclusion(beta, alpha, **kw)
    if route == "ladder":
        found = _ladder(alpha, beta)
        return found is not None and classical_inclusion(found[2], found[1], **kw) and found
    return route == "gl22" and beta in _gl22_patterns(alpha)


def inclusion(alpha: SuperWeight, beta: SuperWeight, **kw) -> bool:
    """Decide J(beta) subseteq J(alpha).

    Raises UnsupportedRegimeError for cross-orbit pairs of atypicality
    degree >= 2 outside gl(2|2).
    """
    _check_keywords(kw)
    return alpha == beta or bool(_includes(_classify(alpha, beta), alpha, beta, **kw))


def equal_ideal(alpha: SuperWeight, beta: SuperWeight) -> bool:
    """J(alpha) == J(beta): same orbit and equal classical invariants."""
    return classical_equal(alpha, beta)


def _relate(alpha: SuperWeight, beta: SuperWeight, **kw) -> tuple[str, str | None, object]:
    """`relation` from one classification, with the route taken and, for a
    strict cross-orbit pair, what `_includes` returned; a same-orbit pair is
    read once, by `classical_relation`."""
    try:
        route = _classify(alpha, beta)
    except UnsupportedRegimeError:
        return "unsupported", None, None
    if route == "same_orbit":
        return classical_relation(alpha, beta, **kw), route, None
    # equal ideals share an orbit, so a cross-orbit pair is never equal
    for rel, big, small in (("subset", beta, alpha), ("superset", alpha, beta)):
        found = _includes(route, big, small, **kw)
        if found:
            return rel, route, found
    return "incomparable", route, None


def relation(alpha: SuperWeight, beta: SuperWeight, **kw) -> str:
    """One of 'equal', 'subset', 'superset', 'incomparable', 'unsupported'.

    'subset' means J(alpha) is strictly contained in J(beta).
    """
    _check_keywords(kw)
    return _relate(alpha, beta, **kw)[0]


class Decision(NamedTuple):
    """A decision record, serializable to the documented JSON shape."""

    alpha: SuperWeight
    beta: SuperWeight
    relation: str
    p: int | None = None
    gamma: SuperWeight | None = None
    delta: SuperWeight | None = None
    trace: ReductionTrace | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "relation": self.relation,
            "p": self.p,
            "gamma": str(self.gamma) if self.gamma else None,
            "delta": str(self.delta) if self.delta else None,
            "trace": [
                {**s._asdict(), "before": str(s.before), "after": str(s.after)}
                for s in (self.trace.steps if self.trace else ())
            ],
        }


def decide(alpha: SuperWeight, beta: SuperWeight, **kw) -> Decision:
    """Full decision record for the pair; relation of J(alpha) vs J(beta)."""
    _check_keywords(kw)
    rel, route, found = _relate(alpha, beta, **kw)
    if route != "ladder" or found is None:
        return Decision(alpha, beta, rel)
    big, small = (beta, alpha) if rel == "subset" else (alpha, beta)
    trace = _trace(big, small, found)
    return Decision(alpha, beta, rel, found[0], trace.final_gamma, trace.final_delta, trace)


def covers(alpha: SuperWeight, beta: SuperWeight, **kw) -> bool:
    """Does J(alpha) cover J(beta) (strict inclusion, nothing in between)?

    Doubly atypical gl(2|2) pairs are read off the classification.  No
    pattern has the form (d+1, d | d, d+1), so nothing outside a common
    orbit lies between two same-orbit weights: those pairs are classical
    covers.  Across orbits alpha is (c+1, c | c, c+1) and beta one of its
    patterns, and only another pattern in beta's orbit can lie between.
    """
    _check_keywords(kw)
    if not inclusion(alpha, beta, **kw):
        return False
    # one central character, so one degree serves both weights; equal ideals
    # share an orbit, and every left cell, so `classical_cover` refuses them
    same_orbit = _invariants(alpha)[1] == _invariants(beta)[1]
    degree = _atypical(alpha)[0]
    if same_orbit and (degree == 0 or (degree == 2 and len(alpha.left) == len(alpha.right) == 2)):
        return classical_cover(beta, alpha, **kw)
    if same_orbit and equal_ideal(alpha, beta):
        return False
    if degree == 1:
        # `inclusion` answers a bool, so the ladder pass runs again here
        _, gamma, delta = _required_ladder(alpha, beta)
        return classical_cover(delta, gamma, **kw)
    if not same_orbit:
        return not any(
            classical_relation(beta, kappa, **kw) == "subset" for kappa in _gl22_patterns(alpha)
        )
    raise UnsupportedRegimeError(
        f"covering undecidable at atypicality {degree} for gl({alpha.m}|{alpha.n})"
    )


def gl22_component_classes(
    lo: int, hi: int, seed: SuperWeight | None = None, **kw
) -> tuple[list[list[SuperWeight]], list[tuple[int, int]]]:
    """The connected component of J(seed) among gl(2|2) doubly atypical
    ideals with labels in [lo, hi]: equality classes and Hasse edges.

    The component of the augmentation ideal (seed (1,0|0,1)) is infinite;
    the window is the caller's truncation, and must hold the seed's class.
    Edges are covers within the window, as pairs of class indices (lower, upper).
    """
    _check_keywords(kw)
    if seed is None:
        seed = SuperWeight((1, 0), (0, 1))
    if (len(seed.left), len(seed.right)) != (2, 2):
        raise PreconditionError(f"seed {seed} is not a weight of gl(2|2)")
    # doubly atypical: both sides arrange the same two labels
    window = product(range(lo, hi + 1), repeat=2)
    weights = {SuperWeight(l, r) for l in window for r in (l, l[::-1])}
    classes: list[list[SuperWeight]] = []
    for w in sorted(weights, key=lambda x: x.labels):
        for cls in classes:
            if equal_ideal(w, cls[0]):
                cls.append(w)
                break
        else:
            classes.append([w])
    seed_class = next((i for i, cls in enumerate(classes) if equal_ideal(cls[0], seed)), None)
    if seed_class is None:
        raise PreconditionError(f"seed {seed} lies in no class of the window [{lo}, {hi}]")

    n = len(classes)
    down = [  # bit i of down[j]: J(class i) strictly inside J(class j)
        sum(1 << i for i in range(n) if i != j and inclusion(classes[j][0], classes[i][0], **kw))
        for j in range(n)
    ]
    hasse = transitive_reduction(down)
    # the seed's connected component (a finite order is connected through its
    # covers, symmetrized); its covers are the edges that start in it, renumbered
    linked: list[list[int]] = [[] for _ in range(n)]
    for i, j in hasse:
        linked[i].append(j)
        linked[j].append(i)
    comp = strongly_connected_components(n, linked)
    kept = [i for i in range(n) if comp[i] == comp[seed_class]]
    remap = {old: new for new, old in enumerate(kept)}
    return [classes[old] for old in kept], [(remap[i], remap[j]) for i, j in hasse if i in remap]
