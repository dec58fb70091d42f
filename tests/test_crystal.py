import random
from itertools import product

import pytest

from primspec.crystal import (
    Signature,
    e_tilde,
    e_tilde_power,
    epsilon,
    f_tilde,
    f_tilde_power,
    i_signature,
    phi,
    reduce,
)
from primspec.errors import PreconditionError
from primspec.weights import SuperWeight, central_character
from oracles import active_colors

W = SuperWeight.parse


def all_weights(shapes, lo, hi):
    for m, n in shapes:
        for labels in product(range(lo, hi + 1), repeat=m + n):
            yield SuperWeight(labels[:m], labels[m:])


def sampled_weights(count, max_rank=3, lo=-2, hi=4, seed=20260810):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, max_rank)
        n = rng.randint(0, max_rank)
        out.append(
            SuperWeight(
                tuple(rng.randint(lo, hi) for _ in range(m)),
                tuple(rng.randint(lo, hi) for _ in range(n)),
            )
        )
    return out


class TestSignatures:
    def test_rule_both_sides(self):
        assert str(i_signature(W("1,0|0,1"), 1)) == "+0|0-"
        assert str(i_signature(W("1,1|1,1"), 1)) == "++|--"
        assert str(i_signature(W("0,0|"), 5)) == "00|"

    def test_reduce_cancels_minus_before_plus(self):
        assert str(reduce(Signature(("-", "+", "0", "+"), 2))) == "00|0+"
        # plus before minus never cancels
        assert str(reduce(i_signature(W("1,1|1,1"), 1))) == "++|--"
        zero = Signature(("0",) * 4, 2)
        assert reduce(zero) == zero

    def test_reduce_idempotent_on_samples(self):
        for w in sampled_weights(300):
            for i in active_colors(w):
                once = reduce(i_signature(w, i))
                assert reduce(once) == once
                symbols = [s for s in once.symbols if s != "0"]
                k = symbols.count("+")
                assert all(s == "+" for s in symbols[:k])


class TestOperators:
    def test_raising_example(self):
        assert e_tilde(W("1,0|0,1"), 1) == W("1,0|0,2")

    def test_raising_chain_to_shifted_orbit(self):
        m, k = 5, 3
        w = SuperWeight(tuple(range(m - 1, -1, -1)), (0,))
        for i in range(k):
            w = e_tilde(w, i)
        assert w == SuperWeight(tuple(range(m - 1, -1, -1)), (k,))

    def test_lowering_chain_to_antidominant(self):
        m, k = 5, 3
        w = SuperWeight(tuple(range(m)), (k,))
        for i in range(k - 1, -1, -1):
            w = f_tilde(w, i)
        expected = tuple(range(1, k)) + (k, k) + tuple(range(k + 1, m))
        assert w == SuperWeight(expected, (k,))

    def test_statistics_examples(self):
        a = W("1,0|0,1")
        assert (epsilon(a, 1), phi(a, 1)) == (1, 1)
        assert (epsilon(a, 0), phi(a, 0)) == (0, 0)
        assert (epsilon(a, -1), phi(a, -1)) == (0, 0)
        b = W("1,1|1,1")
        assert (epsilon(b, 1), phi(b, 1)) == (2, 2)
        assert (epsilon(b, 0), phi(b, 0)) == (0, 0)


class TestProperties:
    def test_partial_inverse_and_step_laws(self):
        checked = 0
        for w in sampled_weights(1200):
            for i in active_colors(w):
                up = e_tilde(w, i)
                if up is not None:
                    checked += 1
                    assert f_tilde(up, i) == w
                    assert epsilon(up, i) == epsilon(w, i) - 1
                    assert phi(up, i) == phi(w, i) + 1
                down = f_tilde(w, i)
                if down is not None:
                    assert e_tilde(down, i) == w
        assert checked > 1000

    def test_statistic_sums_agree(self):
        for w in sampled_weights(1200):
            eps_total = sum(epsilon(w, i) for i in active_colors(w))
            phi_total = sum(phi(w, i) for i in active_colors(w))
            assert eps_total == phi_total

    def test_epsilon_agrees_with_iteration_small_exhaustive(self):
        shapes = [(1, 1), (2, 1), (1, 2), (2, 2)]
        for w in all_weights(shapes, -2, 4):
            for i in active_colors(w):
                r = 0
                cur = w
                while (cur := e_tilde(cur, i)) is not None:
                    r += 1
                assert r == epsilon(w, i)

    def test_epsilon_agrees_with_iteration_sampled(self):
        for w in sampled_weights(1500):
            for i in active_colors(w):
                r, cur = 0, w
                while (cur := e_tilde(cur, i)) is not None:
                    r += 1
                s, cur = 0, w
                while (cur := f_tilde(cur, i)) is not None:
                    s += 1
                assert (r, s) == (epsilon(w, i), phi(w, i))

    def test_power_is_iterated_step_up_to_the_statistic(self):
        shapes = [(m, size - m) for size in range(1, 5) for m in range(1, size + 1)]
        ops = ((e_tilde_power, e_tilde, epsilon, "e"), (f_tilde_power, f_tilde, phi, "f"))
        for w in all_weights(shapes, -1, 3):
            for i in active_colors(w):
                for power, step, statistic, op in ops:
                    top, stepped = statistic(w, i), w
                    for k in range(top + 1):
                        assert power(w, i, k) == stepped
                        stepped = step(stepped, i)
                    assert stepped is None
                    with pytest.raises(PreconditionError) as refused:
                        power(w, i, top + 1)
                    assert str(refused.value) == (
                        f"{op}~_{i}^{top + 1} undefined on {w} (statistic is {top})"
                    )

    def test_no_weight_is_an_attribute_error(self):
        # the benchmark's failing-query check relies on this exception type
        with pytest.raises(AttributeError):
            e_tilde(None, 0)

    def test_central_character_compatibility(self):
        pool = [w for w in sampled_weights(600, max_rank=2, lo=0, hi=3)]
        by_char = {}
        for w in pool:
            by_char.setdefault(central_character(w), []).append(w)
        checked = 0
        for group in by_char.values():
            for a in group[:6]:
                for b in group[:6]:
                    for i in active_colors(a):
                        ua, ub = e_tilde(a, i), e_tilde(b, i)
                        if ua is not None and ub is not None:
                            checked += 1
                            assert central_character(ua) == central_character(ub)
        assert checked > 100

    def test_antidominant_closed_forms(self):
        for w in sampled_weights(800):
            anti = SuperWeight(
                tuple(sorted(w.left)), tuple(sorted(w.right, reverse=True))
            )
            counts0 = {x: anti.left.count(x) for x in set(anti.left)}
            counts1 = {x: anti.right.count(x) for x in set(anti.right)}
            for x in active_colors(anti):
                c0, c1 = counts0.get(x, 0), counts1.get(x, 0)
                c0n, c1n = counts0.get(x + 1, 0), counts1.get(x + 1, 0)
                assert phi(anti, x) == c0 + max(c1n - c0n, 0)
                assert epsilon(anti, x) == c1 + max(c0n - c1n, 0)
