"""Every `raise InvariantError` in the package, keyed by its message, next
to the tier-1 test that fires it.

A message is the raise's string with each formatted field as ``{}``.  A site
whose message repeats lists one test per site.  The check reads source
only: a new site without a listed test fails here, and so does a listed
test that is gone, marked slow, or does not expect InvariantError.
"""

import ast
from collections import Counter
from pathlib import Path

import primspec

PACKAGE = Path(primspec.__file__).parent
TESTS = Path(__file__).parent

GUARDS = {
    ("aug_poset", "ladder length of {}: frame gives {}, its labels give {}"): [
        "test_aug_poset.py::TestStrataChecks::test_frame_disagreeing_with_the_label_read_is_refused",
    ],
    ("aug_poset", "enumerated {} classes, counting identity gives {}"): [
        "test_aug_poset.py::TestInvariantGuards::test_a_count_off_the_involution_identity_is_refused",
    ],
    ("aug_poset", "ladder length not class-invariant on {}"): [
        "test_aug_poset.py::TestStrataChecks::test_a_class_mixing_ladder_lengths_is_refused",
    ],
    ("aug_poset", "stratum disagreement on {}: descent route gives {}, ladder route gives {}"): [
        "test_aug_poset.py::TestInvariantGuards::test_a_descent_route_off_the_ladder_route_is_refused",
    ],
    ("aug_poset", "the minimal ideals are not one per stratum"): [
        "test_aug_poset.py::TestMinimalAndComponents::test_minimal_rows_off_their_weights_are_refused",
    ],
    ("aug_poset", "component {}: stratum window {} differs from up-set {}"): [
        "test_aug_poset.py::TestInvariantGuards::test_a_stratum_window_off_the_up_set_is_refused",
    ],
    ("aug_poset", "raising chain broke at color {} on {}"): [
        "test_aug_poset.py::TestInvariantGuards::test_a_broken_raising_chain_is_refused",
    ],
    ("aug_poset", "{} classes in strata {}, expected {}"): [
        "test_aug_poset.py::TestInvariantGuards::test_stratum_sizes_off_the_involution_number_are_refused",
    ],
    ("brundan_kl", "exponent below the packing offset"): [
        "test_brundan_kl.py::TestPacking::test_exponent_below_the_offset_raises",  # _down
        "test_brundan_kl.py::TestPacking::test_a_psi_term_below_the_offset_raises",  # psi
    ],
    ("brundan_kl", "a bar coefficient outgrew the packing headroom"): [
        "test_brundan_kl.py::TestPacking::test_a_stored_digit_past_the_headroom_raises",
    ],
    ("brundan_kl", "packed digits could overflow"): [
        "test_brundan_kl.py::TestPacking::test_a_chain_sum_that_could_overflow_raises",  # psi
        "test_brundan_kl.py::TestPacking::test_a_column_that_could_overflow_raises",  # solve
    ],
    ("brundan_kl", "bar involution must be unitriangular"): [
        "test_brundan_kl.py::TestPacking::test_a_bar_image_off_the_diagonal_is_refused",
    ],
    ("brundan_kl", "canonical correction failed"): [
        "test_brundan_kl.py::TestPacking::test_a_symmetric_correction_raises",
    ],
    ("brundan_kl", "bar involution is not triangular in the label order"): [
        "test_brundan_kl.py::TestPacking::test_a_psi_term_after_its_monomial_raises",
    ],
    ("brundan_kl", "the Hecke step's diagonal is not 1"): [
        "test_brundan_kl.py::TestPacking::test_a_hecke_step_off_the_diagonal_raises",
    ],
    ("brundan_kl", "a Hecke step's digits could overflow"): [
        "test_brundan_kl.py::TestPacking::test_a_hecke_step_that_could_overflow_raises",
    ],
    ("brundan_kl", "a constant term survives the Hecke step"): [
        "test_brundan_kl.py::TestPacking::test_a_constant_term_at_an_unsolved_column_raises",
    ],
    ("kl_classical", "packed h-polynomial {} is negative or has a slot of 2^15 or more"): [
        "test_kl_classical.py::TestPacking::test_oversized_slot_is_refused",
    ],
    ("kl_classical", "h-polynomial violates degree bounds"): [
        "test_kl_classical.py::TestPacking::test_unpack_reads_p_off_h",
    ],
    ("kl_classical", "KL polynomial must have constant term 1"): [
        "test_kl_classical.py::TestPacking::test_unpack_reads_p_off_h",
    ],
    ("kl_classical", "new-basis element is not unitriangular"): [
        "test_kl_classical.py::TestKLTable::test_a_diagonal_off_one_is_refused",
    ],
    ("super_inclusion", "reduction mismatch: trace ended at ({}, {}), formulas give ({}, {})"): [
        "test_super_inclusion.py::TestReductionTrace::test_a_trace_one_step_short_raises",
    ],
}


def _message(node: ast.expr) -> str:
    """A raise's message: the string, each formatted field read as {}."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)


def _sites() -> Counter:
    """(module, message) -> how many `raise InvariantError(...)` carry it."""
    return Counter(
        (path.stem, _message(node.exc.args[0]))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "InvariantError"
    )


def _is_slow(node) -> bool:
    return any(ast.unparse(d) == "pytest.mark.slow" for d in node.decorator_list)


def _test_problem(test_id: str) -> str | None:
    """Why `test_id` (file::[Class::]function) is no tier-1 test expecting
    InvariantError, or None."""
    file, *names = test_id.split("::")
    path = TESTS / file
    if not path.exists():
        return "no such file"
    scope = ast.parse(path.read_text())
    for name in names:
        found = [n for n in scope.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == name]
        if not found:
            return f"no {name}"
        scope = found[0]
        if _is_slow(scope):
            return f"{name} is marked slow"
    if "pytest.raises(InvariantError" not in ast.unparse(scope):
        return "does not expect InvariantError"
    return None


def test_every_site_is_listed():
    found = _sites()
    listed = Counter({key: len(tests) for key, tests in GUARDS.items()})
    assert found - listed == Counter(), "sites with no listed test"
    assert listed - found == Counter(), "listed sites that are gone"


def test_every_listed_test_expects_invariant_error():
    problems = {t: _test_problem(t) for tests in GUARDS.values() for t in tests}
    assert {t: p for t, p in problems.items() if p} == {}


def test_the_check_reads_messages_and_test_ids():
    assert _message(ast.parse('f"a {x} b {y!r}"').body[0].value) == "a {} b {}"
    assert _test_problem("test_guard_sites.py::test_no_such_test") == "no test_no_such_test"
    assert _test_problem("test_guard_sites.py::test_every_site_is_listed") == (
        "does not expect InvariantError"
    )
