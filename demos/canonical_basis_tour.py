"""Canonical bases of small blocks and the left order they generate.

Shows the dual-pair block where every canonical vector has exactly two
terms, the principal gl(2|2) block with its three Ext^1 pairings, and the
agreement of the generated order with the independent ladder algorithm.
"""

from primspec.brundan_kl import canonical_basis, kl_left_order, mu_super
from primspec.super_inclusion import inclusion
from primspec.weights import SuperWeight, atypicality_degree

W = SuperWeight.parse

print("gl(1|1) dual-pair block, interval [-1, 3]:")
table = canonical_basis([W("0|0")], interval=(-1, 3))
for b in table.weights:
    terms = [
        f"({table.d(a, b)}) v[{a}]"
        for a in table.weights
        if table.d(a, b) and a != b
    ]
    print(f"  b[{b}] = v[{b}]" + ("  +  " + "  +  ".join(terms) if terms else ""))

print("\ngl(2|2) principal block around the augmentation label (1,0|0,1):")
table22 = canonical_basis([W("1,0|0,1")], interval=(-1, 3))
top = W("1,0|0,1")
for text in ["1,1|1,1", "2,1|2,1", "1,2|1,2", "1,2|2,1", "2,1|1,2"]:
    print(f"  dim Ext^1(L({top}), L({text})) = {mu_super(top, W(text), table22)}")

window = sorted(
    {w for w in table22.weights if atypicality_degree(w) == 2},
    key=lambda w: w.labels,
)
order = kl_left_order(window, table22)
agree = all(
    order.leq(b, a) == inclusion(a, b) for a in window for b in window
)
print(f"\nleft order vs ladder algorithm on {len(window)} weights: agree = {agree}")
