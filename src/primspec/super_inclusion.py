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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from . import crystal
from .errors import (
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .kl_classical import classical_cover, classical_equal, classical_inclusion
from .posets import strongly_connected_components, transitive_reduction
from .weights import (
    SuperWeight,
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


@dataclass(frozen=True, slots=True)
class AtypicalityFrame:
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
    degree = atypicality_degree(weight)
    if degree != 1:
        raise NotSinglyAtypicalError(weight, degree)
    m = weight.m
    a = next(x for x in weight.left if x in set(weight.right))

    left_positions = {}  # label -> positions ascending (1-based)
    right_positions = {}
    for pos, lab in enumerate(weight.labels, start=1):
        (left_positions if pos <= m else right_positions).setdefault(lab, []).append(pos)

    left_a = max(left_positions[a])  # nearest the separator
    right_a = min(right_positions[a])

    # positions of a+1, a+2, ...: each value lives on one side only, and the
    # chain must decrease through left positions and increase through right
    # ones; extremal choices are optimal, so the walk is greedy.
    ladder: list[int] = []
    last_left, last_right = left_a, right_a
    j = 1
    while True:
        target = a + j
        if target in left_positions:
            candidates = [p for p in left_positions[target] if p < last_left]
            if not candidates:
                break
            pick = max(candidates)
            last_left = pick
        elif target in right_positions:
            candidates = [p for p in right_positions[target] if p > last_right]
            if not candidates:
                break
            pick = min(candidates)
            last_right = pick
        else:
            break
        ladder.append(pick)
        j += 1

    p_value = len(ladder)
    if p_value and ladder[0] <= m:
        first_two = (left_a, right_a)  # make pi(i_0) differ from pi(i_1)
    else:
        first_two = (right_a, left_a)
    i_set = first_two + tuple(ladder)

    q_values = {i_set[0]: 0}
    for idx in range(1, len(i_set)):
        side = i_set[idx] <= m
        run = 0
        for later in i_set[idx + 1:]:
            if (later <= m) != side:
                run += 1
            else:
                break
        q_values[i_set[idx]] = run
    if sum(q_values.values()) != p_value:
        raise InvariantError("ladder run lengths must sum to p")
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


def _ladder(
    alpha: SuperWeight, fa: AtypicalityFrame, beta: SuperWeight
) -> tuple[int, SuperWeight, SuperWeight] | None:
    """The ladder pass: (p, gamma, delta), or None unless beta lies in the
    orbit of alpha's atypical pair shifted by 0 <= p <= p_alpha (`fa` is
    alpha's frame)."""
    fb = frame(beta)
    p = fb.a_value - fa.a_value
    if not orbit_equal(_shifted(alpha, fa, p), beta) or not 0 <= p <= fa.p_value:
        return None
    return p, _gamma(alpha, fa, p), _delta(beta, fb)


def _required_ladder(
    alpha: SuperWeight, beta: SuperWeight
) -> tuple[AtypicalityFrame, int, SuperWeight, SuperWeight]:
    """alpha's frame and the ladder pass, which must apply to the pair."""
    fa = frame(alpha)
    found = _ladder(alpha, fa, beta)
    if found is None:
        raise PreconditionError(
            f"{beta} is not in the shifted orbits of {alpha} for 0 <= p <= {fa.p_value}"
        )
    return (fa, *found)


def gamma_delta(alpha: SuperWeight, beta: SuperWeight) -> tuple[SuperWeight, SuperWeight]:
    """The classical surrogate pair (gamma for alpha, delta for beta).

    Requires beta in the shifted orbit of alpha with 0 <= p <= p_alpha.
    """
    _, _, gamma, delta = _required_ladder(alpha, beta)
    return gamma, delta


@dataclass(frozen=True, slots=True)
class TraceStep:
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


@dataclass(frozen=True, slots=True)
class ReductionTrace:
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
    stat = crystal.epsilon if op == "e" else crystal.phi
    avail = stat(start, color)
    if avail < power:
        raise PreconditionError(
            f"{op}~_{color}^{power} undefined on {start} (statistic is {avail})"
        )
    after = fn(start, color, power)
    steps.append(TraceStep(side, op, color, power, start, after))
    return after


def _normalization_ops(weight: SuperWeight, a: int) -> list[tuple[str, int, int]]:
    """Crystal powers lowering every label below a by one, smallest first."""
    ops = []
    for value in sorted({lab for lab in weight.labels if lab < a}):
        on_left = value in weight.left
        count = weight.labels.count(value)
        ops.append(("e" if on_left else "f", value - 1, count))
    return ops


def reduction_trace(alpha: SuperWeight, beta: SuperWeight) -> ReductionTrace:
    """Replay the ladder reduction as explicit crystal operator powers.

    The two sides are normalized below the atypical value, the surplus
    copies of it are pushed down, and the ladder is climbed one value at a
    time; the final weights are cross-checked against the closed formulas.
    """
    return _trace(alpha, beta)[1]


def _trace(alpha: SuperWeight, beta: SuperWeight) -> tuple[int, ReductionTrace]:
    """The shift p and the reduction trace of a ladder pair."""
    fa, p, gamma, delta = _required_ladder(alpha, beta)
    a = fa.a_value
    steps: list[TraceStep] = []

    # labels below a agree between the two weights, so one op list serves both
    norm_ops = _normalization_ops(alpha, a)
    chains = {}
    for side, start in (("alpha", alpha), ("beta", beta)):
        current = start
        for op, color, power in norm_ops:
            current = _apply_power(side, op, color, power, current, steps)
        chains[side] = current
    # push alpha's surplus copies of a below, keeping the separator-nearest
    # pair; the same power applies on the beta side
    surplus = alpha.labels.count(a) - 2
    if surplus > 0:
        on_left = alpha.left.count(a) > 1
        for side in ("alpha", "beta"):
            chains[side] = _apply_power(
                side, "e" if on_left else "f", a - 1, surplus, chains[side], steps
            )

    for stage in range(1, p + 1):
        value = a + stage  # the ladder value being absorbed
        zeta = chains["alpha"]
        count = zeta.labels.count(value)
        on_left = value in zeta.left
        op = "e" if on_left else "f"
        for side in ("alpha", "beta"):
            chains[side] = _apply_power(side, op, value - 1, count, chains[side], steps)

    if chains["alpha"] != gamma or chains["beta"] != delta:
        raise InvariantError(
            f"reduction mismatch: trace ended at ({chains['alpha']}, {chains['beta']}), "
            f"formulas give ({gamma}, {delta})"
        )
    return p, ReductionTrace(tuple(steps), gamma, delta)


# -- the decision procedure ---------------------------------------------------


def _gl22_doubly_atypical(weight: SuperWeight) -> bool:
    return (
        weight.m == 2 and weight.n == 2 and atypicality_degree(weight) == 2
    )


def _gl22_patterns(alpha: SuperWeight) -> tuple[SuperWeight, ...]:
    """The four weights beta with J(beta) in J(alpha) across orbits, for
    doubly atypical gl(2|2): nonempty only for alpha = (c+1, c | c, c+1)."""
    c = alpha.left[1]
    if alpha != SuperWeight((c + 1, c), (c, c + 1)):
        return ()
    return tuple(
        SuperWeight((c + l0, c + l1), (c + r0, c + r1))
        for (l0, l1), (r0, r1) in (
            ((1, 1), (1, 1)),
            ((2, 1), (2, 1)),
            ((1, 2), (1, 2)),
            ((1, 2), (2, 1)),
        )
    )


def inclusion(alpha: SuperWeight, beta: SuperWeight, **kw) -> bool:
    """Decide J(beta) subseteq J(alpha).

    Raises UnsupportedRegimeError for cross-orbit pairs of atypicality
    degree >= 2 outside gl(2|2).
    """
    if (alpha.m, alpha.n) != (beta.m, beta.n):
        raise ValueError("weights live in different Z^(m|n)")
    if alpha == beta:
        return True
    if central_character(alpha) != central_character(beta):
        return False
    if orbit_equal(alpha, beta):
        return classical_inclusion(beta, alpha, **kw)
    da, db = atypicality_degree(alpha), atypicality_degree(beta)
    if da == 1 and db == 1:
        found = _ladder(alpha, frame(alpha), beta)
        if found is None:
            return False
        _, gamma, delta = found
        return classical_inclusion(delta, gamma, **kw)
    if _gl22_doubly_atypical(alpha) and _gl22_doubly_atypical(beta):
        return beta in _gl22_patterns(alpha)
    raise UnsupportedRegimeError(
        f"cross-orbit inclusion undecidable here: atypicality degrees "
        f"({da}, {db}) for gl({alpha.m}|{alpha.n})"
    )


def equal_ideal(alpha: SuperWeight, beta: SuperWeight) -> bool:
    """J(alpha) == J(beta): same orbit and equal classical invariants."""
    return classical_equal(alpha, beta)


def relation(alpha: SuperWeight, beta: SuperWeight, **kw) -> str:
    """One of 'equal', 'subset', 'superset', 'incomparable', 'unsupported'.

    'subset' means J(alpha) is strictly contained in J(beta).
    """
    try:
        if equal_ideal(alpha, beta):
            return "equal"
        if inclusion(beta, alpha, **kw):
            return "subset"
        if inclusion(alpha, beta, **kw):
            return "superset"
    except UnsupportedRegimeError:
        return "unsupported"
    return "incomparable"


@dataclass(frozen=True)
class Decision:
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
                {
                    "side": s.side,
                    "op": s.op,
                    "color": s.color,
                    "power": s.power,
                    "before": str(s.before),
                    "after": str(s.after),
                }
                for s in (self.trace.steps if self.trace else ())
            ],
        }


def decide(alpha: SuperWeight, beta: SuperWeight, **kw) -> Decision:
    """Full decision record for the pair; relation of J(alpha) vs J(beta)."""
    rel = relation(alpha, beta, **kw)
    p = gamma = delta = trace = None
    if rel in ("subset", "superset"):
        big, small = (beta, alpha) if rel == "subset" else (alpha, beta)
        if (
            not orbit_equal(big, small)
            and atypicality_degree(big) == 1
            and atypicality_degree(small) == 1
        ):
            p, trace = _trace(big, small)
            gamma, delta = trace.final_gamma, trace.final_delta
    return Decision(alpha, beta, rel, p, gamma, delta, trace)


def covers(alpha: SuperWeight, beta: SuperWeight, **kw) -> bool:
    """Does J(alpha) cover J(beta) (strict inclusion, nothing in between)?

    Doubly atypical gl(2|2) pairs are read off the classification.  No
    pattern has the form (d+1, d | d, d+1), so nothing outside a common
    orbit lies between two same-orbit weights: those pairs are classical
    covers.  Across orbits alpha is (c+1, c | c, c+1) and beta one of its
    patterns, and only another pattern in beta's orbit can lie between.
    """
    if not inclusion(alpha, beta, **kw) or equal_ideal(alpha, beta):
        return False
    da = atypicality_degree(alpha)
    if da == 1 and atypicality_degree(beta) == 1:
        _, _, gamma, delta = _required_ladder(alpha, beta)
        return classical_cover(delta, gamma, **kw)
    if not orbit_equal(alpha, beta):
        return not any(
            not equal_ideal(kappa, beta) and classical_inclusion(beta, kappa, **kw)
            for kappa in _gl22_patterns(alpha)
        )
    if da == 0 or _gl22_doubly_atypical(alpha):
        return classical_cover(beta, alpha, **kw)
    raise UnsupportedRegimeError(
        f"covering undecidable at atypicality {da} for gl({alpha.m}|{alpha.n})"
    )


def gl22_component_classes(
    lo: int, hi: int, seed: SuperWeight | None = None, **kw
) -> tuple[list[list[SuperWeight]], list[tuple[int, int]]]:
    """The connected component of J(seed) among gl(2|2) doubly atypical
    ideals with labels in [lo, hi]: equality classes and Hasse edges.

    The component of the augmentation ideal (seed (1,0|0,1)) is infinite;
    the window is the caller's truncation.  Edges are covers within the
    window, as pairs of class indices (lower, upper).
    """
    if seed is None:
        seed = SuperWeight((1, 0), (0, 1))
    weights = []
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            for l in {(a, b), (b, a)}:
                for r in {(a, b), (b, a)}:
                    w = SuperWeight(l, r)
                    if atypicality_degree(w) == 2:
                        weights.append(w)
    classes: list[list[SuperWeight]] = []
    for w in sorted(set(weights), key=lambda x: x.labels):
        for cls in classes:
            if equal_ideal(w, cls[0]):
                cls.append(w)
                break
        else:
            classes.append([w])

    n = len(classes)
    strict = set()
    for i in range(n):
        for j in range(n):
            if i != j and inclusion(classes[j][0], classes[i][0], **kw):
                strict.add((i, j))
    # connected component of the seed: strongly connected once symmetrized
    seed_class = next(i for i, cls in enumerate(classes) if equal_ideal(cls[0], seed))
    comp = strongly_connected_components(n, strict | {(j, i) for i, j in strict})
    kept = [i for i in range(n) if comp[i] == comp[seed_class]]
    remap = {old: new for new, old in enumerate(kept)}
    strict_kept = {(remap[i], remap[j]) for i, j in strict if i in remap and j in remap}
    hasse = transitive_reduction(len(kept), strict_kept)
    return [classes[old] for old in kept], hasse
