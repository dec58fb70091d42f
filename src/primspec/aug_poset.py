"""The poset of primitive ideals below the augmentation ideal of gl(m|1).

The augmentation ideal is the annihilator of the trivial module, labeled
(m-1,...,1,0|0).  The ideals below it form a connected component X of the
primitive spectrum, swept out by m orbits: the regular orbit of the label
tuple above (stratum 0), and for 1 <= i <= m-1 the singular orbit with i
duplicated on the left and i on the right (stratum i).

Each ideal carries three interacting indices: the orbit stratum i, the
dual stratum j read off the antidistinguished side through odd
reflections, and the ladder length p of any member weight.  They satisfy
i + j + p = m - 1; the i <= k <= i+p window records exactly which
irreducible components Z_k (up-sets of the minimal ideals Q_k) the ideal
lies on, and every Z_k is order-isomorphic to the classical poset of the
regular stratum through an explicit chain of crystal raising maps.

Enumeration is exact: equality classes are keyed by the stratum and the
left-cell id of the rank word, strict inclusions are decided by the ladder
algorithm from data computed once per class, and the Hasse diagram is the
transitive reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations as iperm

from . import crystal
from .errors import (
    BoundExceededError,
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
)
from .kl_classical import DEFAULT_KL_BOUND, LeftOrder, left_preorder
from .posets import transitive_reduction
from .super_inclusion import _delta, _gamma, frame
from .tableaux import involution_count, rank_word, tau_of_weight
from .weights import SuperWeight, atypicality_degree, dominant_representative

__all__ = [
    "IdealClass",
    "IdealPoset",
    "StratumAssignment",
    "ComponentReport",
    "OddReflectionResult",
    "enumerate_X",
    "strata",
    "irreducible_components",
    "minimal_elements",
    "exceptional_coverings",
    "counts",
    "odd_reflection_ad",
    "to_dot",
    "to_json_dict",
]


@dataclass(frozen=True, slots=True)
class IdealClass:
    """One primitive ideal: its stratum and all weights annihilating to it."""

    index: int
    i_index: int
    representative: SuperWeight
    members: tuple[SuperWeight, ...]


@dataclass(frozen=True)
class IdealPoset:
    """Equality classes with strict inclusions and their Hasse diagram."""

    m: int
    classes: tuple[IdealClass, ...]
    strict: frozenset[tuple[int, int]]  # (lower, upper) class indices
    hasse: tuple[tuple[int, int], ...]
    order: LeftOrder | None = field(compare=False, repr=False)  # None at m = 1

    def leq(self, lower: int, upper: int) -> bool:
        return lower == upper or (lower, upper) in self.strict


def _orbit_weights(m: int, i: int) -> list[SuperWeight]:
    if i == 0:
        left_multiset = tuple(range(m - 1, -1, -1))
    else:
        left_multiset = tuple(sorted(list(range(m - 1, 0, -1)) + [i], reverse=True))
    return [
        SuperWeight(left, (i,))
        for left in sorted(set(iperm(left_multiset)), reverse=True)
    ]


def enumerate_X(m: int, *, bound: int = DEFAULT_KL_BOUND, **kw) -> IdealPoset:
    """All primitive ideals below the augmentation ideal, fully ordered.

    Classes group each stratum by the left-cell id of the rank word (m = 1
    has one weight and needs no order) and are labeled by their
    lexicographically largest member.  The total count must be (m+1)/2
    times the involution number, which is asserted.
    """
    if m < 1:
        raise PreconditionError(f"the augmentation poset needs m >= 1, got {m}")
    if m > bound:
        raise BoundExceededError("augmentation poset rank", m, bound)
    order = left_preorder(m, bound=bound, **kw) if m > 1 else None
    classes: list[IdealClass] = []
    for i in range(m):
        groups: dict[int, list[SuperWeight]] = {}
        for w in _orbit_weights(m, i):
            cell = order.class_id(rank_word(w.left)) if order else 0
            groups.setdefault(cell, []).append(w)
        for members in sorted(groups.values(), key=lambda ws: ws[0].labels, reverse=True):
            classes.append(
                IdealClass(len(classes), i, members[0], tuple(members))
            )
    expected = (m + 1) * involution_count(m) // 2
    if len(classes) != expected:
        raise InvariantError(
            f"enumerated {len(classes)} classes, counting identity gives {expected}"
        )

    strict = _strict_pairs(classes, order)
    hasse = transitive_reduction(len(classes), strict)
    return IdealPoset(m, tuple(classes), frozenset(strict), tuple(hasse), order)


def _node(order: LeftOrder, weight: SuperWeight) -> tuple[SuperWeight, int]:
    """What `classical_inclusion` reads of a gl(m|1) weight: its orbit (the
    dominant representative) and the preorder class of its left factor.
    The one-label right factor never constrains."""
    return dominant_representative(weight), order.class_id(rank_word(weight.left))


def _node_leq(order: LeftOrder, lower: tuple, upper: tuple) -> bool:
    """`classical_inclusion` on two nodes: equal orbits and one closure bit."""
    return lower[0] == upper[0] and order.preorder.class_leq(lower[1], upper[1])


def _strict_pairs(classes: list[IdealClass], order: LeftOrder | None) -> set[tuple[int, int]]:
    """(lower, upper) with J(lower) strictly inside J(upper), as `inclusion`
    decides it, from data computed once per class.

    Only a lower class with atypical value a_upper + p, 0 <= p <= p_upper,
    can lie below: below upper itself at p = 0 (one orbit), or with delta(lower)
    below gamma(upper, p).  Each stratum is a single orbit, the one that upper's
    pair shifted by p lands in, so the ladder's orbit test always holds.
    """
    if order is None:
        return set()
    frames = [frame(c.representative) for c in classes]
    own = [_node(order, c.representative) for c in classes]
    delta = [_node(order, _delta(c.representative, f)) for c, f in zip(classes, frames)]
    by_a: dict[int, list[int]] = {}
    for c, f in zip(classes, frames):
        by_a.setdefault(f.a_value, []).append(c.index)

    strict: set[tuple[int, int]] = set()
    for hi, fa in enumerate(frames):
        alpha = classes[hi].representative
        for p in range(fa.p_value + 1):
            if p:
                top, below = _node(order, _gamma(alpha, fa, p)), delta
            else:
                top, below = own[hi], own
            for lo in by_a.get(fa.a_value + p, ()):
                if lo != hi and _node_leq(order, below[lo], top):
                    strict.add((lo, hi))
    return strict


@dataclass(frozen=True, slots=True)
class StratumAssignment:
    """Stratum data of one ideal: i + j + p = m - 1, z = [i, i+p]."""

    i_index: int
    j_index: int
    p_value: int
    z_set: tuple[int, ...]


def strata(poset: IdealPoset) -> dict[int, StratumAssignment]:
    """Both stratification indices per class, cross-checked two ways.

    j is computed from the descent set of the weight and from m-1-i-p;
    disagreement would mean a broken invariant and raises.
    """
    m = poset.m
    out: dict[int, StratumAssignment] = {}
    for cls in poset.classes:
        i = cls.i_index
        p_values = {frame(w).p_value for w in cls.members}
        if len(p_values) != 1:
            raise InvariantError(f"ladder length not class-invariant on {cls}")
        p = p_values.pop()
        tau_positions = tau_of_weight(cls.representative.left)
        j_tau = max(
            (k for k in range(1, m - i) if k in tau_positions), default=0
        )
        j = m - 1 - i - p
        if j_tau != j:
            raise InvariantError(
                f"stratum disagreement on {cls.representative}: descent route "
                f"gives {j_tau}, ladder route gives {j}"
            )
        out[cls.index] = StratumAssignment(i, j, p, tuple(range(i, i + p + 1)))
    return out


def minimal_elements(poset: IdealPoset) -> list[IdealClass]:
    """The minimal ideals; exactly one per stratum, pairwise incomparable."""
    above_some = {upper for _, upper in poset.strict}
    minimal = [c for c in poset.classes if c.index not in above_some]
    class_of = {w: c for c in poset.classes for w in c.members}
    expected = []
    m = poset.m
    for k in range(m):
        labels = list(range(1, k)) + [k, k] + list(range(k + 1, m)) if k else list(range(m))
        expected.append(class_of[SuperWeight(tuple(labels), (k,))])
    if sorted(c.index for c in minimal) != sorted(c.index for c in expected):
        raise InvariantError("the minimal ideals are not one per stratum")
    return minimal


@dataclass(frozen=True)
class ComponentReport:
    """One irreducible component: its classes and the classical model."""

    k: int
    class_indices: tuple[int, ...]
    order_isomorphic: bool


def irreducible_components(
    poset: IdealPoset, assignments: dict[int, StratumAssignment] | None = None
) -> list[ComponentReport]:
    """The up-sets Z_k of the minimal ideals, with both membership routes
    checked and the crystal order-isomorphism onto the regular stratum
    verified explicitly."""
    if assignments is None:
        assignments = strata(poset)
    m = poset.m
    reports = []
    minimal = {c.i_index: c for c in minimal_elements(poset)}
    for k in range(m):
        by_stratum = {c.index for c in poset.classes if k in assignments[c.index].z_set}
        q_k = minimal[k].index
        by_upset = {q_k} | {upper for lower, upper in poset.strict if lower == q_k}
        if by_stratum != by_upset:
            raise InvariantError(
                f"component {k}: stratum window {sorted(by_stratum)} differs from "
                f"up-set {sorted(by_upset)}"
            )
        members = sorted(by_stratum)

        # crystal chain e_{k-1} ... e_0 maps Z_k onto the regular-stratum model
        image_weights: dict[int, SuperWeight] = {}
        for ci in members:
            w = poset.classes[ci].representative
            for color in range(k):
                nxt = crystal.e_tilde(w, color)
                if nxt is None:
                    raise InvariantError(
                        f"raising chain broke at color {color} on {w}"
                    )
                w = nxt
            image_weights[ci] = w
        order = poset.order  # None at m = 1, where Z_0 is one class
        nodes = {ci: _node(order, w) for ci, w in image_weights.items()} if order else {}
        iso = len(set(nodes.values())) == len(nodes) and all(
            ((a, b) in poset.strict) == _node_leq(order, nodes[a], nodes[b])
            for a in nodes
            for b in nodes
            if a != b
        )
        reports.append(ComponentReport(k, tuple(members), iso))
    return reports


def exceptional_coverings(
    poset: IdealPoset, assignments: dict[int, StratumAssignment] | None = None
) -> list[tuple[int, int]]:
    """Hasse edges along which both stratification indices jump."""
    if assignments is None:
        assignments = strata(poset)
    out = []
    for lower, upper in poset.hasse:
        alo, aup = assignments[lower], assignments[upper]
        if alo.i_index != aup.i_index and alo.j_index != aup.j_index:
            out.append((lower, upper))
    return out


@dataclass(frozen=True, slots=True)
class CountsReport:
    m: int
    total: int
    involutions: int
    stratum_sizes: dict[int, int]


def counts(poset: IdealPoset) -> CountsReport:
    """Class counts: the total is (m+1) s_m / 2, stratum 0 has size s_m,
    and every other stratum has size s_m / 2 (asserted)."""
    m = poset.m
    sizes: dict[int, int] = {}
    for c in poset.classes:
        sizes[c.i_index] = sizes.get(c.i_index, 0) + 1
    s_m = involution_count(m)
    expected = {i: s_m if i == 0 else s_m // 2 for i in range(m)}
    total = len(poset.classes)
    if sizes != expected or total != (m + 1) * s_m // 2:
        raise InvariantError(f"{total} classes in strata {sizes}, expected {expected}")
    return CountsReport(m, total, s_m, sizes)


@dataclass(frozen=True, slots=True)
class OddReflectionResult:
    """Outcome of walking the odd-reflection chain to the dual Borel side."""

    ad_weight: SuperWeight
    d_value: int
    unchanged_positions: tuple[int, ...]
    phi_index: int


def odd_reflection_ad(alpha: SuperWeight) -> OddReflectionResult:
    """Walk the m odd reflections from the distinguished system to its dual.

    The weight is unchanged exactly at isotropic walls where its pairing
    vanishes; those positions reproduce the left part of the ladder
    position set, and the number of moving steps is m - 1 - p.
    """
    if alpha.n != 1:
        raise PreconditionError("odd reflections implemented for gl(m|1) only")
    degree = atypicality_degree(alpha)
    if degree != 1:
        raise NotSinglyAtypicalError(alpha, degree)
    m = alpha.m
    coeffs = [alpha.left[i] - (m - 1 - i) for i in range(m)]
    dual = -alpha.right[0]
    unchanged = []
    moves = 0
    for step in range(1, m + 1):
        pos = m - step + 1  # the isotropic root pairs coordinate pos with the dual line
        if coeffs[pos - 1] + dual == 0:
            unchanged.append(pos)
        else:
            coeffs[pos - 1] -= 1
            dual += 1
            moves += 1
    ad_left = tuple(coeffs[i] + (m - 1 - i) for i in range(m))
    ad_weight = SuperWeight(ad_left, (-dual,))

    # phi stratum: the dual-side orbit is pinned by the dual label
    phi_index = -ad_weight.right[0]
    mu_left_expected = sorted(
        (-1 if i < phi_index else 0) + (m - 1 - i) for i in range(m)
    )
    if sorted(ad_left) != mu_left_expected:
        raise PreconditionError(
            f"{alpha} is outside the augmentation block: its dual weight "
            f"{ad_weight} is not in the expected dual orbit {phi_index}"
        )
    return OddReflectionResult(ad_weight, moves, tuple(unchanged), phi_index)


# -- export -------------------------------------------------------------------


def to_json_dict(
    poset: IdealPoset, assignments: dict[int, StratumAssignment] | None = None
) -> dict:
    if assignments is None:
        assignments = strata(poset)
    return {
        "m": poset.m,
        "classes": [
            {
                "repr": str(c.representative),
                "members": [str(w) for w in c.members],
                "i": assignments[c.index].i_index,
                "j": assignments[c.index].j_index,
                "z": list(assignments[c.index].z_set),
            }
            for c in poset.classes
        ],
        "hasse": [[a, b] for a, b in poset.hasse],
    }


def to_dot(poset: IdealPoset, cluster: str | None = None) -> str:
    """Graphviz source; node and edge emission is sorted for byte stability.

    cluster may be "x" (group by stratum i, which each class carries).
    """
    if cluster not in (None, "x"):
        raise PreconditionError(f"cluster must be 'x' or None, got {cluster!r}")
    lines = ["graph ideals {", '  rankdir="BT";']
    node_lines = {}
    for c in poset.classes:
        label = " = ".join(str(w) for w in c.members)
        node_lines[c.index] = f'  n{c.index} [label="{label}"];'
    if cluster is None:
        lines.extend(node_lines[ci] for ci in sorted(node_lines))
    else:
        groups: dict[int, list[int]] = {}
        for c in poset.classes:
            groups.setdefault(c.i_index, []).append(c.index)
        for g in sorted(groups):
            lines.append(f"  subgraph cluster_x{g} {{")
            lines.append(f'    label="X_{g}";')
            lines.extend("  " + node_lines[ci] for ci in sorted(groups[g]))
            lines.append("  }")
    for lower, upper in sorted(poset.hasse):
        lines.append(f"  n{lower} -- n{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"
