"""Regenerate the committed golden outputs and compare field by field.

Statuses, iteration counts, verdicts, exit codes and success rates must
match exactly; floating-point fields to golden_cases.FLOAT_ATOL.
"""

import pytest

import golden_cases


@pytest.mark.parametrize("name", golden_cases.all_names())
def test_golden_output_unchanged(name):
    expected = golden_cases.load_fixture(name)
    diffs = golden_cases.differences(expected, golden_cases.run_case(name))
    assert not diffs, f"{name}: {len(diffs)} fields moved, first: " + "; ".join(diffs[:5])


def test_comparison_is_exact_on_ints_and_tolerant_on_floats():
    assert golden_cases.differences({"a": [1, 0.5, "x"]}, {"a": [1, 0.5 + 1e-12, "x"]}) == []
    assert golden_cases.differences({"it": 9}, {"it": 10})
    assert golden_cases.differences({"ok": True}, {"ok": 1})
    assert golden_cases.differences({"e": 0.5}, {"e": 0.5 + 1e-8})
    assert golden_cases.differences({"e": float("nan")}, {"e": float("nan")}) == []
    assert golden_cases.differences({"e": float("nan")}, {"e": 0.0})
