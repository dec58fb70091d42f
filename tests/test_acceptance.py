"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test pins its tolerances inline; timings use generous desk-scale
budgets measured around the complete operation.
"""

import random
import time
from fractions import Fraction
from itertools import permutations as iperm
from itertools import product as iproduct

from primspec import crystal
from primspec.aug_poset import (
    counts,
    enumerate_X,
    exceptional_coverings,
    irreducible_components,
    strata,
)
from primspec.brundan_kl import canonical_basis, kl_left_order
from primspec.kl_classical import classical_equal, classical_inclusion, kl_table
from primspec.super_inclusion import (
    frame,
    gl22_component_classes,
    inclusion,
    reduction_trace,
    theta_representative,
)
from primspec.tableaux import (
    all_permutations,
    inverse,
    involution_count,
    robinson_schensted,
    tau,
)
from primspec.weights import (
    SuperWeight,
    atypicality_degree,
    central_character,
)
from oracles import active_colors
from test_tableaux import egf_series, row_of

W = SuperWeight.parse
RUNNING = W("7,6,2,3,6,1,3,1|4,3,4,5")


def report(number, ok, detail, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {verdict} - {detail} [{elapsed * 1000:.1f} ms]")
    assert ok, f"criterion {number}: {detail}"


def best_of(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def test_criterion_1_frame():
    f, elapsed = best_of(lambda: frame(RUNNING))
    ok = (
        f.a_value == 3
        and f.i_set == (10, 7, 11, 12, 5, 1)
        and f.p_value == 4
        and f.q_values == {10: 0, 7: 2, 11: 0, 12: 2, 5: 0, 1: 0}
        and elapsed < 0.001
    )
    report(1, ok, f"gl(8|4) ladder frame exact, {elapsed * 1e6:.0f} us", elapsed)


def test_criterion_2_reduction_pipeline():
    expected_stages = {
        0: "7,6,1,2,6,0,3,0|4,3,4,5",
        1: "7,6,1,2,6,0,4,0|3,3,4,5",
        2: "7,6,1,2,6,0,5,0|3,3,4,5",
        3: "7,5,1,2,6,0,5,0|3,3,4,6",
        4: "7,5,1,2,6,0,5,0|3,3,4,7",
    }
    double_prime = "7,6,1,3,6,0,3,0|4,3,4,5"

    def run():
        out = {}
        for p in range(5):
            trace = reduction_trace(RUNNING, theta_representative(RUNNING, p))
            out[p] = trace
        return out

    traces, elapsed = best_of(run)
    ok = elapsed < 0.010
    for p, trace in traces.items():
        visited = [str(w) for w in trace.weights("alpha")]
        ok = ok and double_prime in visited
        ok = ok and all(str(expected_stages[s]) in visited for s in range(p + 1))
        ok = ok and str(trace.final_gamma) == expected_stages[p]
    report(2, ok, "operator chains hit the reference stage weights byte-exactly", elapsed)


def test_criterion_3_classical_gl4():
    import primspec.kl_classical as kc

    kc._left_order.cache_clear()

    def run():
        table = kl_table(4, use_disk=False)
        gamma = SuperWeight((1, 3, 0, 2), ())
        candidates = [
            (2, 3, 1, 0), (2, 1, 3, 0), (1, 2, 3, 0), (2, 3, 0, 1), (2, 1, 0, 3),
            (1, 2, 0, 3), (2, 0, 3, 1), (2, 0, 1, 3), (1, 0, 2, 3), (0, 2, 3, 1),
            (0, 2, 1, 3), (0, 1, 2, 3),
        ]
        below = [
            d for d in candidates
            if classical_inclusion(SuperWeight(d, ()), gamma, use_disk=False)
        ]
        full = {
            d for d in iperm((0, 1, 2, 3))
            if classical_inclusion(SuperWeight(d, ()), gamma, use_disk=False)
        }
        return below, full

    (below, full), elapsed = best_of(run, repeats=1)
    # the worked example's scope: of its twelve candidate weights exactly
    # (0123) and the class of (1230) land below; over the whole orbit the
    # flip symmetry of the algebra adds the mirror class of (1230), which
    # the source never tested (ledgered deviation from the blanket wording)
    ok = below == [(1, 2, 3, 0), (1, 2, 0, 3), (1, 0, 2, 3), (0, 1, 2, 3)]
    ok = ok and full == {
        (1, 3, 0, 2), (1, 0, 3, 2),
        (1, 2, 3, 0), (1, 2, 0, 3), (1, 0, 2, 3),
        (0, 1, 3, 2), (0, 3, 1, 2), (3, 0, 1, 2),
        (0, 1, 2, 3),
    }
    ok = ok and classical_equal(W("1,2,3,0|"), W("1,2,0,3|"))
    ok = ok and elapsed < 1.0
    report(3, ok, "gl(4) down-set of I(1302) incl. cold table build", elapsed)


def test_criterion_4_gl41_query():
    def run():
        alpha = W("2,3,1,2|2")
        shifted = [
            "3,3,2,1|3", "3,2,3,1|3", "2,3,3,1|3", "3,3,1,2|3", "3,2,1,3|3",
            "2,3,1,3|3", "3,1,3,2|3", "3,1,2,3|3", "2,1,3,3|3", "1,3,3,2|3",
            "1,3,2,3|3", "1,2,3,3|3",
        ]
        return [b for b in shifted if inclusion(alpha, W(b))]

    below, elapsed = best_of(run, repeats=1)
    from primspec.super_inclusion import equal_ideal

    ok = below == ["2,3,3,1|3", "2,3,1,3|3", "2,1,3,3|3", "1,2,3,3|3"]
    ok = ok and equal_ideal(W("2,3,3,1|3"), W("2,3,1,3|3"))
    ok = ok and equal_ideal(W("2,3,1,3|3"), W("2,1,3,3|3"))
    ok = ok and not equal_ideal(W("1,2,3,3|3"), W("2,3,3,1|3"))
    ok = ok and elapsed < 1.0
    report(4, ok, "strict cross-orbit inclusions into J(2312|2) exact", elapsed)


def test_criterion_5_gl31_poset():
    def run():
        poset = enumerate_X(3)
        return poset, strata(poset)

    (poset, assign), elapsed = best_of(run, repeats=1)
    name = {c.index: str(c.representative) for c in poset.classes}
    edges = {(name[a], name[b]) for a, b in poset.hasse}
    ok = len(poset.classes) == 8 and elapsed < 5.0
    ok = ok and edges == {
        ("2,0,1|0", "2,1,0|0"), ("1,2,0|0", "2,1,0|0"),
        ("2,1,1|1", "2,1,0|0"), ("2,2,1|2", "2,1,0|0"),
        ("0,1,2|0", "2,0,1|0"), ("0,1,2|0", "1,2,0|0"),
        ("1,1,2|1", "1,2,0|0"), ("1,1,2|1", "2,1,1|1"),
        ("1,2,2|2", "2,1,1|1"), ("1,2,2|2", "2,2,1|2"),
    }
    pairs = {
        "2,0,1|0": ["0,2,1|0", "2,0,1|0"],
        "1,2,0|0": ["1,0,2|0", "1,2,0|0"],
        "2,1,1|1": ["1,2,1|1", "2,1,1|1"],
        "2,2,1|2": ["2,1,2|2", "2,2,1|2"],
    }
    for rep, members in pairs.items():
        cls = next(c for c in poset.classes if str(c.representative) == rep)
        ok = ok and sorted(str(w) for w in cls.members) == members
    for c in poset.classes:
        ok = ok and assign[c.index].i_index == c.representative.right[0]
    y_sets = {}
    for c in poset.classes:
        y_sets.setdefault(assign[c.index].j_index, set()).add(name[c.index])
    ok = ok and y_sets[0] == {"2,1,0|0", "2,1,1|1", "2,2,1|2", "1,2,2|2"}
    ok = ok and y_sets[1] == {"1,2,0|0", "1,1,2|1"}
    ok = ok and y_sets[2] == {"2,0,1|0", "0,1,2|0"}
    report(5, ok, "gl(3|1) poset: 8 classes, stated equalities, drawn edges, strata", elapsed)


def test_criterion_6_counting():
    def run():
        reports = {}
        for m in range(1, 6):
            reports[m] = counts(enumerate_X(m))
        return reports

    reports, elapsed = best_of(run, repeats=1)
    ok = elapsed < 60.0
    for m, report_m in reports.items():
        s_m = involution_count(m)
        ok = ok and report_m.total == (m + 1) * s_m // 2
        ok = ok and report_m.stratum_sizes[0] == s_m
        ok = ok and all(report_m.stratum_sizes[i] == s_m // 2 for i in range(1, m))
    # series identity through degree 10; the involution generating function
    # needs the x^2/2 term (the source display drops the half; s_2 = 2
    # already forces it, ledgered)
    series = egf_series(order=11)
    fact = 1
    for m in range(1, 11):
        fact *= m
        ok = ok and series[m] * fact == involution_count(m)
        g_m = series[m] + series[m - 1] + (series[m - 2] if m >= 2 else 0)
        ok = ok and Fraction(g_m, 2) * fact == (m + 1) * involution_count(m) // 2
    report(6, ok, "t_m = (m+1)s_m/2 by enumeration (m<=5) and series (m<=10)", elapsed)


def test_criterion_7_components():
    def run():
        out = {}
        for m in range(1, 6):
            poset = enumerate_X(m)
            assign = strata(poset)
            out[m] = (
                poset,
                assign,
                irreducible_components(poset, assign),
                exceptional_coverings(poset, assign),
            )
        return out

    data, elapsed = best_of(run, repeats=1)
    ok = True
    for m, (poset, assign, reports, exceptional) in data.items():
        ok = ok and exceptional == []
        for r in reports:
            ok = ok and r.order_isomorphic
            window = {
                c.index
                for c in poset.classes
                if assign[c.index].i_index
                <= r.k
                <= assign[c.index].i_index + assign[c.index].p_value
            }
            ok = ok and set(r.class_indices) == window
    report(7, ok, "Z_k up-sets = stratum windows, crystal isos, no exceptional covers", elapsed)


def test_criterion_8_gl22():
    def run():
        top = W("1,0|0,1")
        listed = all(
            inclusion(top, W(b))
            for b in ["1,1|1,1", "2,1|2,1", "1,2|1,2", "1,2|2,1"]
        )
        refused = not inclusion(top, W("2,1|1,2")) and not inclusion(
            top, W("3,2|2,3")
        )
        classes, hasse = gl22_component_classes(0, 2)
        chain = True
        for k in range(-3, 3):
            top_k = SuperWeight((k + 1, k), (k, k + 1))
            shared = SuperWeight((k + 2, k + 1), (k + 2, k + 1))
            top_next = SuperWeight((k + 2, k + 1), (k + 1, k + 2))
            chain = chain and inclusion(top_k, shared) and inclusion(top_next, shared)
        return listed, refused, classes, hasse, chain

    (listed, refused, classes, hasse, chain), elapsed = best_of(run, repeats=1)
    reps = {tuple(sorted(str(w) for w in cls)) for cls in classes}
    ok = listed and refused and chain
    ok = ok and reps == {
        ("1,0|0,1",), ("0,1|0,1",), ("1,0|1,0",), ("0,1|1,0",),
        ("1,1|1,1",), ("2,1|2,1",), ("1,2|1,2",), ("1,2|2,1",),
        ("2,1|1,2",), ("2,2|2,2",),
    }
    index_of = {str(cls[0]): i for i, cls in enumerate(classes)}
    expected_edges = {
        ("0,1|1,0", "0,1|0,1"), ("0,1|1,0", "1,0|1,0"),
        ("0,1|0,1", "1,0|0,1"), ("1,0|1,0", "1,0|0,1"),
        ("1,1|1,1", "1,0|0,1"), ("2,1|2,1", "1,0|0,1"), ("1,2|1,2", "1,0|0,1"),
        ("1,2|2,1", "2,1|2,1"), ("1,2|2,1", "1,2|1,2"),
        ("2,1|2,1", "2,1|1,2"), ("1,2|1,2", "2,1|1,2"), ("2,2|2,2", "2,1|1,2"),
    }
    got_edges = set()
    name = {i: min(str(w) for w in cls) for i, cls in enumerate(classes)}
    for a, b in hasse:
        got_edges.add((name[a], name[b]))
    ok = ok and got_edges == expected_edges
    report(8, ok, "gl(2|2) component: list, 10-class window diagram, unbroken chain", elapsed)


def test_criterion_9_brundan_kl():
    def run():
        table = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
        top = W("1,0|0,1")
        ext_ok = (
            table.mu(top, W("1,1|1,1")) == 1
            and table.mu(top, W("2,1|2,1")) == 1
            and table.mu(top, W("1,2|1,2")) == 1
        )

        pairs = mismatches = 0
        shapes = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]
        for m, n in shapes:
            blocks = {}
            for labs in iproduct(range(0, 4), repeat=m + n):
                w = SuperWeight(labs[:m], labs[m:])
                blocks.setdefault(central_character(w), []).append(w)
            for key, ws in blocks.items():
                if atypicality_degree(ws[0]) > 1:
                    continue
                enlarged = set(ws)
                for labs in iproduct(range(-2, 6), repeat=m + n):
                    w = SuperWeight(labs[:m], labs[m:])
                    if central_character(w) == key:
                        enlarged.add(w)
                block = sorted(enlarged, key=lambda x: x.labels)
                order = kl_left_order(block, canonical_basis(block, interval_bound=12))
                for a in ws:
                    for b in ws:
                        pairs += 1
                        if order.leq(b, a) != inclusion(a, b):
                            mismatches += 1

        window = []
        for a in range(-1, 3):
            for b in range(-1, 3):
                for l in {(a, b), (b, a)}:
                    for r in {(a, b), (b, a)}:
                        w = SuperWeight(l, r)
                        if atypicality_degree(w) == 2:
                            window.append(w)
        window = sorted(set(window), key=lambda x: x.labels)
        order22 = kl_left_order(window, canonical_basis(window, interval_bound=10))
        for a in window:
            for b in window:
                pairs += 1
                if order22.leq(b, a) != inclusion(a, b):
                    mismatches += 1
        return ext_ok, pairs, mismatches

    (ext_ok, pairs, mismatches), elapsed = best_of(run, repeats=1)
    ok = ext_ok and mismatches == 0 and pairs > 5000 and elapsed < 300.0
    report(
        9, ok,
        f"canonical-basis Ext values and order oracle agreement on {pairs} pairs",
        elapsed,
    )


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(1302)
    ok = True

    # crystal partial inverse, step laws, statistic sums: >= 1000 cases
    cases = 0
    while cases < 1200:
        m, n = rng.randint(1, 3), rng.randint(0, 3)
        w = SuperWeight(
            tuple(rng.randint(-2, 4) for _ in range(m)),
            tuple(rng.randint(-2, 4) for _ in range(n)),
        )
        colors = list(active_colors(w))
        ok = ok and sum(crystal.epsilon(w, i) for i in colors) == sum(
            crystal.phi(w, i) for i in colors
        )
        for i in colors:
            up = crystal.e_tilde(w, i)
            if up is not None:
                cases += 1
                ok = ok and crystal.f_tilde(up, i) == w
                ok = ok and crystal.epsilon(up, i) == crystal.epsilon(w, i) - 1
                ok = ok and crystal.phi(up, i) == crystal.phi(w, i) + 1

    # statistics monotone along decided inclusions; translation equivariance
    block = set()
    base = W("2,1,0|0")
    for p in range(3):
        rep = theta_representative(base, p)
        for left in iperm(rep.left):
            block.add(SuperWeight(left, rep.right))
    block = sorted(block, key=lambda w: w.labels)
    decided = equiv = 0
    for a in block:
        for b in block:
            if a == b:
                continue
            if inclusion(a, b):
                decided += 1
                for i in active_colors(a):
                    ok = ok and crystal.epsilon(b, i) >= crystal.epsilon(a, i)
                    ok = ok and crystal.phi(b, i) >= crystal.phi(a, i)
            for i in active_colors(a):
                ea, eb = crystal.epsilon(a, i), crystal.epsilon(b, i)
                fa, fb = crystal.phi(a, i), crystal.phi(b, i)
                if ea == eb > 0 and fa == fb:
                    equiv += 1
                    ok = ok and inclusion(a, b) == inclusion(
                        crystal.e_tilde(a, i), crystal.e_tilde(b, i)
                    )
    ok = ok and decided > 20 and equiv > 20

    # antidominant labels in one block never compare
    anti = [
        SuperWeight(tuple(sorted(theta_representative(base, p).left)), (p,))
        for p in range(3)
    ]
    for a in anti:
        for b in anti:
            if a != b:
                ok = ok and not inclusion(a, b) and not inclusion(b, a)

    # strata monotonicity and ladder gap over every enumerated inclusion
    for m in range(2, 6):
        poset = enumerate_X(m)
        assign = strata(poset)
        for lo, hi in poset.strict:
            alo, ahi = assign[lo], assign[hi]
            ok = ok and alo.i_index >= ahi.i_index and alo.j_index >= ahi.j_index
            ok = ok and ahi.p_value - alo.p_value >= alo.i_index - ahi.i_index >= 0

    # Robinson-Schensted bijectivity and the descent/row criterion, m <= 5
    for m in range(1, 6):
        seen = set()
        for w in all_permutations(m):
            a, b = robinson_schensted(w)
            seen.add((a, b))
            ai, bi = robinson_schensted(inverse(w))
            ok = ok and (ai, bi) == (b, a)
            for p in range(1, m):
                ok = ok and ((p in tau(w)) == (row_of(b, p + 1) > row_of(b, p)))
        import math

        ok = ok and len(seen) == math.factorial(m)

    elapsed = time.perf_counter() - t0
    report(10, ok, f"property suites ({cases} crystal cases, exhaustive RS m<=5)", elapsed)
