"""Cross-module invariants that don't belong to a single unit file."""

import ast
import doctest
import importlib
import pkgutil
import random
from pathlib import Path

import pytest

import primspec
import primspec.crystal
import primspec.kl_classical
import primspec.laurent
import primspec.tableaux
import primspec.weights
from primspec import crystal
from primspec.aug_poset import enumerate_X
from primspec.brundan_kl import canonical_basis, kl_left_order
from primspec.errors import InvariantError, PrimspecError
from primspec.super_inclusion import equal_ideal, frame, reduction_trace, theta_representative
from primspec.weights import SuperWeight, atypicality_degree

W = SuperWeight.parse


@pytest.mark.parametrize(
    "module",
    [
        primspec.laurent,
        primspec.weights,
        primspec.crystal,
        primspec.tableaux,
        primspec.kl_classical,
        primspec.super_inclusion,
    ],
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # python -O strips asserts; a result invariant raises InvariantError,
    # which code catching AssertionError still catches, and a bare
    # AssertionError is neither named nor a PrimspecError
    assert issubclass(InvariantError, PrimspecError)
    assert issubclass(InvariantError, AssertionError)
    package = Path(primspec.weights.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and _raises_assertion_error(node)
    ]
    assert found == []


def _dotted(node) -> str | None:
    """'a.b.c' for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _unused_imports(source: str) -> list[str]:
    """Names `source` imports and never reads (a bare name, or the dotted
    path of an `import a.b`) nor lists in `__all__`; `__future__` imports
    and lines marked `# noqa: F401` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {path for node in ast.walk(tree) if (path := _dotted(node)) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        if "# noqa: F401" not in "".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


def test_unused_import_check_sees_each_kind():
    source = "import os\nimport a.b\nimport c.d\nfrom x import y, z\nz(c.d.e)\n"
    assert _unused_imports(source) == ["os", "a.b", "y"]
    assert _unused_imports("from x import y  # noqa: F401\n") == []
    assert _unused_imports("from __future__ import annotations\n") == []
    assert _unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    root = Path(primspec.weights.__file__).parent
    paths = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(paths) > 25
    found = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for name in _unused_imports(path.read_text())
    ]
    assert found == []


def test_every_exported_name_resolves():
    # a deleted function or class must not leave its name behind in __all__
    modules = [primspec] + [
        importlib.import_module(f"primspec.{info.name}")
        for info in pkgutil.iter_modules(primspec.__path__)
    ]
    assert len(modules) > 10
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert stale == []


def _random_singly_atypical(rng, m, n):
    while True:
        w = SuperWeight(
            tuple(rng.randint(0, 5) for _ in range(m)),
            tuple(rng.randint(0, 5) for _ in range(n)),
        )
        if atypicality_degree(w) == 1:
            return w


def test_frame_zigzag_conditions():
    rng = random.Random(64)
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        w = _random_singly_atypical(rng, m, n)
        f = frame(w)
        labels = w.labels
        # the first two positions carry the atypical value, one per side
        first, second = f.i_set[:2]
        assert labels[first - 1] == labels[second - 1] == f.a_value
        assert (first <= m) != (second <= m)
        # ladder labels ascend one by one
        for j, pos in enumerate(f.i_set[2:], start=1):
            assert labels[pos - 1] == f.a_value + j
        # same-side positions zigzag monotonically
        lefts = [p for p in f.i_set if p <= m]
        rights = [p for p in f.i_set if p > m]
        assert lefts == sorted(lefts, reverse=True)
        assert rights == sorted(rights)
        assert sum(f.q_values.values()) == f.p_value


def test_trace_steps_replay():
    rng = random.Random(65)
    for _ in range(60):
        alpha = _random_singly_atypical(rng, rng.randint(2, 4), rng.randint(1, 2))
        p_max = frame(alpha).p_value
        for p in range(p_max + 1):
            beta = theta_representative(alpha, p)
            trace = reduction_trace(alpha, beta)
            for step in trace.steps:
                power_fn = (
                    crystal.e_tilde_power if step.op == "e" else crystal.f_tilde_power
                )
                assert power_fn(step.before, step.color, step.power) == step.after


def test_poset_order_axioms():
    for m in (2, 3, 4):
        poset = enumerate_X(m)
        n = len(poset.classes)
        for a, b in poset.strict:
            assert a != b
            assert (b, a) not in poset.strict
        for a, b in poset.strict:
            for c in range(n):
                if (b, c) in poset.strict:
                    assert (a, c) in poset.strict
        regenerated = set(poset.hasse)
        changed = True
        while changed:
            changed = False
            additions = set()
            for x, y in regenerated:
                for y2, z in regenerated:
                    if y2 == y and (x, z) not in regenerated:
                        additions.add((x, z))
            if additions:
                regenerated |= additions
                changed = True
        assert regenerated == set(poset.strict)


def test_super_order_classes_match_equal_ideal():
    from itertools import permutations as iperm

    base = W("2,1,0|0")
    block = set()
    for p in range(3):
        rep = theta_representative(base, p)
        for left in iperm(rep.left):
            block.add(SuperWeight(left, rep.right))
    block = sorted(block, key=lambda w: w.labels)
    order = kl_left_order(block, canonical_basis(block, interval_bound=10))
    for a in block:
        for b in block:
            assert (order.leq(a, b) and order.leq(b, a)) == equal_ideal(a, b)
