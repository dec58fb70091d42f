"""Value-record semantics, and what `import primspec.cli` loads.

The plain records are NamedTuples; SuperWeight, TensorWindow and IdealPoset
are slotted classes with hand-written equality, hashing and repr.  The
strings below were recorded from the dataclass versions they replaced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primspec.cli
from primspec.aug_poset import IdealPoset, enumerate_X
from primspec.brundan_kl import TensorWindow
from primspec.errors import WeightParseError
from primspec.kl_classical import left_preorder
from primspec.super_inclusion import decide
from primspec.weights import SuperWeight

W = SuperWeight.parse


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    src = str(Path(primspec.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, primspec.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSuperWeight:
    def test_hashes_as_its_field_pair_but_is_not_a_tuple(self):
        left, right = (7, 6, 2), (4, 3)
        w = SuperWeight(left, right)
        assert hash(w) == hash((left, right))
        assert w != (left, right)
        assert w == SuperWeight(list(left), iter(right))

    def test_labels_become_ints(self):
        w = SuperWeight(("2", 1.0), [True])
        assert w.left == (2, 1) and w.right == (1,)
        assert all(type(x) is int for x in w.labels)

    def test_is_immutable(self):
        w = W("1,0|0")
        with pytest.raises(AttributeError):
            w.left = (2, 0)
        with pytest.raises(AttributeError):
            w.other = 1
        with pytest.raises(AttributeError):
            del w.right

    def test_repr(self):
        assert repr(W("7,6,2|4,3")) == "SuperWeight(left=(7, 6, 2), right=(4, 3))"

    def test_empty_left_part_is_refused(self):
        with pytest.raises(WeightParseError):
            SuperWeight((), (1,))


def test_tensor_window_refuses_an_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        TensorWindow(3, 2, 1, 1)
    window = TensorWindow(0, 2, 1, 1)
    assert window == TensorWindow(0, 2, 1, 1) != TensorWindow(0, 3, 1, 1)
    assert hash(window) == hash((0, 2, 1, 1))
    assert repr(window) == "TensorWindow(lo=0, hi=2, m=1, n=1)"
    with pytest.raises(AttributeError):
        window.hi = 5


class TestIdealPoset:
    def test_repr(self):
        assert repr(enumerate_X(2)) == (
            "IdealPoset(m=2, classes=(IdealClass(index=0, i_index=0, representative="
            "SuperWeight(left=(1, 0), right=(0,)), members=(SuperWeight(left=(1, 0), "
            "right=(0,)),)), IdealClass(index=1, i_index=0, representative=SuperWeight("
            "left=(0, 1), right=(0,)), members=(SuperWeight(left=(0, 1), right=(0,)),)), "
            "IdealClass(index=2, i_index=1, representative=SuperWeight(left=(1, 1), "
            "right=(1,)), members=(SuperWeight(left=(1, 1), right=(1,)),))), "
            "down=(6, 0, 0), hasse=((1, 0), (2, 0)))"
        )

    def test_equality_ignores_the_order(self):
        poset = enumerate_X(3)
        # a second order object for the same rank: kept apart by use_disk
        other = IdealPoset(
            poset.m, poset.classes, poset.down, poset.hasse, left_preorder(3, use_disk=False)
        )
        assert other.order is not poset.order
        assert poset == other and hash(poset) == hash(other)
        empty = (0,) * len(poset.classes)
        assert poset != IdealPoset(poset.m, poset.classes, empty, poset.hasse, poset.order)
        with pytest.raises(AttributeError):
            poset.order = None


def test_recorded_decision_is_unchanged():
    decision = decide(W("1,2,2|2"), W("2,1,0|0"))
    assert json.dumps(decision.to_json_dict(), sort_keys=True) == (
        '{"alpha": "1,2,2|2", "beta": "2,1,0|0", "delta": "0,1,2|2", "gamma": "2,1,0|2", '
        '"p": 2, "relation": "subset", "trace": [{"after": "2,1,0|1", "before": "2,1,0|0", '
        '"color": 0, "op": "e", "power": 1, "side": "alpha"}, {"after": "0,2,2|2", '
        '"before": "1,2,2|2", "color": 0, "op": "e", "power": 1, "side": "beta"}, '
        '{"after": "2,1,0|2", "before": "2,1,0|1", "color": 1, "op": "e", "power": 1, '
        '"side": "alpha"}, {"after": "0,1,2|2", "before": "0,2,2|2", "color": 1, "op": "e", '
        '"power": 1, "side": "beta"}]}'
    )
    assert repr(decision).startswith(
        "Decision(alpha=SuperWeight(left=(1, 2, 2), right=(2,)), beta=SuperWeight("
        "left=(2, 1, 0), right=(0,)), relation='subset', p=2, gamma=SuperWeight("
        "left=(2, 1, 0), right=(2,)), delta=SuperWeight(left=(0, 1, 2), right=(2,)), "
        "trace=ReductionTrace(steps=(TraceStep(side='alpha', op='e', color=0, power=1, "
    )
