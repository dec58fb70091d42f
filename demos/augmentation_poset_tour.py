"""Enumerate the augmentation-ideal poset of gl(m|1) and its structure.

Prints the class table with both stratification indices, the component
memberships, and writes a Graphviz file next to this script.
"""

from pathlib import Path

from primspec.aug_poset import (
    counts,
    enumerate_X,
    irreducible_components,
    minimal_elements,
    strata,
    to_dot,
)

M = 4
poset = enumerate_X(M)
assign = strata(poset)
report = counts(poset)

print(f"gl({M}|1): {report.total} ideals below the augmentation ideal")
print(f"stratum sizes {report.stratum_sizes} (involution count {report.involutions})")
print()
print(f"{'ideal':<14} {'members':<40} i  j  p  components")
for cls in poset.classes:
    a = assign[cls.index]
    members = " = ".join(str(w) for w in cls.members)
    print(
        f"{str(cls.representative):<14} {members:<40} {a.i_index}  {a.j_index}"
        f"  {a.p_value}  {list(a.z_set)}"
    )

print()
print("minimal ideals:", ", ".join(str(c.representative) for c in minimal_elements(poset)))
for r in irreducible_components(poset, assign):
    print(
        f"component Z_{r.k}: {len(r.class_indices)} ideals, "
        f"order-isomorphic to the regular stratum: {r.order_isomorphic}"
    )

target = Path(__file__).with_name(f"aug_poset_gl{M}1.gv")
target.write_text(to_dot(poset, cluster="x"))
print(f"\nwrote {target} (render with: dot -Tpng -O {target.name})")
