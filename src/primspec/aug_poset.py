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
lies on, and every Z_k is order-isomorphic, through an explicit chain of
crystal raising maps, to the left-cell poset of one regular orbit.

Enumeration is exact: equality classes are keyed by the stratum and the
left-cell id of the members' rank words, which are generated, not read off
weights (a stratum's words are those of S_m with its two tied ranks in a
fixed order); strict inclusions are decided by the ladder algorithm from
data computed once per class and held as bitset rows; the Hasse diagram is
their transitive reduction.  `frame` runs once per class, in `enumerate_X`,
which checks its ladder length against the one read off the representative's
labels; `strata` checks that the label read gives one value per class.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from . import crystal
from .errors import (
    BoundExceededError,
    InvariantError,
    NotSinglyAtypicalError,
    PreconditionError,
)
from .kl_classical import DEFAULT_KL_BOUND, LeftOrder, _check_keywords, left_preorder
from .posets import bits, transitive_reduction
from .super_inclusion import AtypicalityFrame, _delta, _gamma, _orbit_key, frame
from .tableaux import involution_count, rank_word, tau_of_weight
from .weights import SuperWeight, _Frozen, _weight, atypicality_degree

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


class IdealClass(NamedTuple):
    """One primitive ideal: its stratum and all weights annihilating to it."""

    index: int
    i_index: int
    representative: SuperWeight
    members: tuple[SuperWeight, ...]


class IdealPoset(_Frozen):
    """Equality classes, numbered stratum by stratum, their strict inclusions
    as bitset rows (bit a of down[b]: class a lies strictly inside class b),
    the sorted Hasse diagram, and the rank-m left order."""

    _compared = ("m", "classes", "down", "hasse")  # the order follows from m
    __slots__ = _compared + ("order",)
    m: int
    classes: tuple[IdealClass, ...]
    down: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]
    order: LeftOrder

    def __init__(self, m, classes, down, hasse, order):
        for name, value in zip(self.__slots__, (m, classes, down, hasse, order)):
            object.__setattr__(self, name, value)

    @property
    def strict(self) -> frozenset[tuple[int, int]]:
        """The (lower, upper) class pairs of `down`, derived on each access."""
        return frozenset((a, b) for b, row in enumerate(self.down) for a in bits(row))


def enumerate_X(m: int, *, bound: int = DEFAULT_KL_BOUND, **kw) -> IdealPoset:
    """All primitive ideals below the augmentation ideal, fully ordered.

    Classes are keyed, within each stratum, by the left-cell id of the
    members' rank words (m = 1 too: its order has one cell), and numbered
    stratum by stratum.  No rank word is computed: stratum i's are the words
    in which rank m-i+1 stands left of rank m-i (its two labels i, ranked
    right to left), the words with left descent m-i-1, read in the order's
    lexicographic node order.  That lists the members from the largest left
    labels down, so each class is labeled by its first member, the
    lexicographically largest.  Asserted: the total count is (m+1)/2 times
    the involution number, and `frame` and the labels give each
    representative one ladder length.  The strict order is held as rows,
    `down`, and the Hasse diagram is read off them.
    """
    _check_keywords(kw)
    if m < 1:
        raise PreconditionError(f"the augmentation poset needs m >= 1, got {m}")
    if m > bound:
        raise BoundExceededError("augmentation poset rank", m, bound)
    order = left_preorder(m, bound=bound, **kw)
    cells = list(map(order.preorder.class_id, range(len(order.perms))))
    classes: list[IdealClass] = []
    keys: list[tuple[AtypicalityFrame, tuple]] = []  # frame and `_node` of each class
    for i in range(m):
        # the label of each rank: m-1, ..., i+1, then i twice, then i-1, ..., 1
        label = (None, *range(m - 1, i, -1), i, i, *range(i - 1, 0, -1))
        right = (i,)
        orbit = _orbit_key(label[1 : m + 1], right)
        tie = 1 << m - i - 1 if i else 0
        groups: dict[int, list[SuperWeight]] = {}  # first members in descending order
        for cell, word, dl in zip(cells, order.perms, order.left_descents):
            if tie & ~dl:
                continue
            left = tuple(map(label.__getitem__, word))
            groups.setdefault(cell, []).append(_weight(left, right))
        for cell, members in groups.items():
            rep, f = members[0], frame(members[0])
            if f.p_value != _ladder_length(rep):
                raise InvariantError(
                    f"ladder length of {rep}: frame gives {f.p_value}, "
                    f"its labels give {_ladder_length(rep)}"
                )
            classes.append(IdealClass(len(classes), i, rep, tuple(members)))
            keys.append((f, (orbit, cell)))  # a stratum is one orbit, a class one cell
    expected = (m + 1) * involution_count(m) // 2
    if len(classes) != expected:
        raise InvariantError(
            f"enumerated {len(classes)} classes, counting identity gives {expected}"
        )

    down = _down_rows(classes, keys, order)
    return IdealPoset(m, tuple(classes), tuple(down), tuple(transitive_reduction(down)), order)


def _node(order: LeftOrder, weight: SuperWeight) -> tuple[tuple, int]:
    """What `classical_inclusion` reads of a gl(m|1) weight: its orbit (the
    sorted labels of each side) and the preorder class of its left factor.
    The one-label right factor never constrains."""
    return _orbit_key(weight.left, weight.right), order.class_id(rank_word(weight.left))


def _down_rows(classes: list[IdealClass], keys: list[tuple], order: LeftOrder) -> list[int]:
    """One row per class upper: bit lower is set when J(lower) lies strictly
    inside J(upper), as `inclusion` decides it, from `keys`: each class's
    frame and own node (`_node` of its representative), computed once.

    Only a lower class with atypical value a_upper + p, 0 <= p <= p_upper,
    can lie below: below upper itself at p = 0 (one orbit), or with delta(lower)
    below gamma(upper, p).  Each stratum is a single orbit, the one that upper's
    pair shifted by p lands in, so the ladder's orbit test always holds.

    The lower candidates are grouped by (a-value, own node or delta node,
    orbit) into a bitset of their node's class ids, and within a group each
    class id keeps a bitset of its classes.  Each (upper, p) masks its top
    node's closure row with the group's ids and ORs in the classes of the hits.
    """
    cells: dict[tuple, dict[int, int]] = {}  # group -> class id -> bitset of classes
    for c, (f, node) in zip(classes, keys):
        delta = _node(order, _delta(c.representative, f))
        for kind, (orbit, cid) in ((False, node), (True, delta)):
            group = cells.setdefault((f.a_value, kind, orbit), {})
            group[cid] = group.get(cid, 0) | 1 << c.index
    ids = {key: sum(1 << cid for cid in group) for key, group in cells.items()}

    down = []
    for hi, (fa, own) in enumerate(keys):
        row = 0
        for p in range(fa.p_value + 1):
            orbit, cid = _node(order, _gamma(classes[hi].representative, fa, p)) if p else own
            key = fa.a_value + p, p > 0, orbit
            group = cells.get(key, {})
            for lo_cid in bits(order.preorder.below(cid) & ids.get(key, 0)):
                row |= group[lo_cid]
        down.append(row & ~(1 << hi))
    return down


class StratumAssignment(NamedTuple):
    """Stratum data of one ideal: i + j + p = m - 1, z = [i, i+p]."""

    i_index: int
    j_index: int
    p_value: int
    z_set: tuple[int, ...]


def _ladder_length(weight: SuperWeight) -> int:
    """`frame(weight).p_value` of a gl(m|1) weight whose right label a is
    also a left label, read off the left labels alone.

    The ladder is a+1, a+2, ..., each at the rightmost of its positions left
    of the previous step, starting from the a nearest the separator: the
    positions `frame` picks.  Counted from the right, each step is one
    `index` call on the reversed labels.
    """
    rev, (a,) = weight.left[::-1], weight.right
    if a not in rev:
        raise NotSinglyAtypicalError(weight, 0)
    at, p = rev.index(a), 0
    try:
        while True:
            at = rev.index(a + p + 1, at + 1)
            p += 1
    except ValueError:
        return p


def strata(poset: IdealPoset) -> dict[int, StratumAssignment]:
    """Both stratification indices per class, cross-checked two ways.

    The ladder length p is read off every member's left labels
    (`_ladder_length`) and must be one value per class; `enumerate_X` has
    already checked it against `frame` on the representative, so no frame
    runs here.  j is computed from the descent set of the representative
    and from m-1-i-p; any disagreement means a broken invariant and raises.
    """
    m = poset.m
    out: dict[int, StratumAssignment] = {}
    for cls in poset.classes:
        i = cls.i_index
        p_values = set(map(_ladder_length, cls.members))
        if len(p_values) != 1:
            raise InvariantError(f"ladder length not class-invariant on {cls}")
        (p,) = p_values
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
    """The minimal ideals (the zero rows); exactly one per stratum, pairwise
    incomparable.  Stratum k's holds the weight with left labels 0..m-1, k
    doubled and one 0 dropped, and right label k."""
    m = poset.m
    minimal = [c for c in poset.classes if not poset.down[c.index]]
    if len(minimal) != m or any(  # the k-th holds a weight of stratum k
        SuperWeight(tuple(sorted((*range(m), k)))[1:], (k,)) not in c.members
        for k, c in enumerate(minimal)
    ):
        raise InvariantError("the minimal ideals are not one per stratum")
    return minimal


class ComponentReport(NamedTuple):
    """One irreducible component: its classes and the classical model."""

    k: int
    class_indices: tuple[int, ...]
    order_isomorphic: bool


def irreducible_components(
    poset: IdealPoset, assignments: dict[int, StratumAssignment]
) -> list[ComponentReport]:
    """The up-sets Z_k of the minimal ideals, with both membership routes
    checked and the crystal order-isomorphism onto the left-cell poset of one
    regular orbit verified explicitly.  `assignments` is `strata(poset)`,
    computed once by the caller and shared with the other readers.

    Z_k is order-isomorphic when the raised images of its members lie in one
    orbit, exactly one on each of the order's cells, and each member's strict
    down-row inside Z_k equals the strict closure row of its image's cell,
    read back through the cell id -> member map."""
    m, down, order = poset.m, poset.down, poset.order
    below, cell_count = order.preorder.below, order.class_count()
    reports = []
    minimal = {c.i_index: c for c in minimal_elements(poset)}
    # e_{k-1} ... e_0 maps Z_k onto the regular-stratum model; a class lies on
    # Z_i, ..., Z_{i+p}, so its chain is extended, not rerun: class -> (k, image)
    raised: dict[int, tuple[int, SuperWeight]] = {}
    for k in range(m):
        by_stratum = {c.index for c in poset.classes if k in assignments[c.index].z_set}
        q_k = minimal[k].index
        by_upset = {q_k} | {b for b, row in enumerate(down) if row >> q_k & 1}
        if by_stratum != by_upset:
            raise InvariantError(
                f"component {k}: stratum window {sorted(by_stratum)} differs from "
                f"up-set {sorted(by_upset)}"
            )
        members = sorted(by_stratum)

        for ci in members:
            done, w = raised.get(ci, (0, poset.classes[ci].representative))
            for color in range(done, k):
                nxt = crystal.e_tilde(w, color)
                if nxt is None:
                    raise InvariantError(f"raising chain broke at color {color} on {w}")
                w = nxt
            raised[ci] = k, w
        images = [_node(order, raised[ci][1]) for ci in members]
        at = {cid: ci for ci, (_, cid) in zip(members, images)}  # cell id -> member
        inside = sum(1 << ci for ci in members)
        one_orbit = len({orbit for orbit, _ in images}) == 1
        iso = one_orbit and len(at) == len(members) == cell_count and all(
            down[ci] & inside == sum(1 << at[c] for c in bits(below(cid) & ~(1 << cid)))
            for ci, (_, cid) in zip(members, images)
        )
        reports.append(ComponentReport(k, tuple(members), iso))
    return reports


def exceptional_coverings(
    poset: IdealPoset, assignments: dict[int, StratumAssignment]
) -> list[tuple[int, int]]:
    """Hasse edges along which both indices of `assignments` (`strata(poset)`) jump."""
    out = []
    for lower, upper in poset.hasse:
        alo, aup = assignments[lower], assignments[upper]
        if alo.i_index != aup.i_index and alo.j_index != aup.j_index:
            out.append((lower, upper))
    return out


class CountsReport(NamedTuple):
    m: int
    total: int
    involutions: int
    stratum_sizes: dict[int, int]


def counts(poset: IdealPoset) -> CountsReport:
    """Class counts: stratum 0 has size s_m and every other stratum size
    s_m / 2 (asserted), so the total is (m+1) s_m / 2."""
    m = poset.m
    sizes: dict[int, int] = {}
    for c in poset.classes:
        sizes[c.i_index] = sizes.get(c.i_index, 0) + 1
    s_m = involution_count(m)
    expected = {i: s_m if i == 0 else s_m // 2 for i in range(m)}
    total = len(poset.classes)
    if sizes != expected:
        raise InvariantError(f"{total} classes in strata {sizes}, expected {expected}")
    return CountsReport(m, total, s_m, sizes)


class OddReflectionResult(NamedTuple):
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


def to_json_dict(poset: IdealPoset, assignments: dict[int, StratumAssignment]) -> dict:
    """The classes with their `strata(poset)` indices, and the Hasse edges.
    Each class's representative is its first member, so its text is reused."""
    classes = []
    for c in poset.classes:
        members, s = [str(w) for w in c.members], assignments[c.index]
        classes.append(
            {"repr": members[0], "members": members, "i": s.i_index, "j": s.j_index,
             "z": list(s.z_set)}
        )
    return {"m": poset.m, "classes": classes, "hasse": [[a, b] for a, b in poset.hasse]}


def to_dot(poset: IdealPoset, cluster: str | None = None) -> str:
    """Graphviz source, byte-stable: nodes in class order, then the Hasse
    edges as `poset.hasse` holds them (sorted).

    cluster may be "x": one subgraph per stratum i.  `enumerate_X` numbers
    the classes stratum by stratum, so each stratum is one run of classes.
    """
    if cluster not in (None, "x"):
        raise PreconditionError(f"cluster must be 'x' or None, got {cluster!r}")

    def nodes(classes, pad):
        return (f'{pad}n{c.index} [label="{" = ".join(map(str, c.members))}"];' for c in classes)

    lines = ["graph ideals {", '  rankdir="BT";']
    if cluster is None:
        lines.extend(nodes(poset.classes, "  "))
    else:
        for i, run in groupby(poset.classes, lambda c: c.i_index):
            lines += [f"  subgraph cluster_x{i} {{", f'    label="X_{i}";']
            lines += [*nodes(run, "    "), "  }"]
    lines.extend(f"  n{lower} -- n{upper};" for lower, upper in poset.hasse)
    return "\n".join(lines) + "\n}\n"
