"""scripts/bitwise_diff.py lists every differing report, case by case."""

import importlib.util
import os

import numpy as np

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bitwise_diff.py")
_SPEC = importlib.util.spec_from_file_location("bitwise_diff", _PATH)
bitwise_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitwise_diff)


def _hex(values):
    return np.asarray(values, dtype=float).tobytes().hex()


def _record(case, status="Optimal", x=(1.0, 2.0)):
    fields = {"status": status, "iterations": 5, "x": _hex(x), "lam": _hex([0.5]),
              "primal_residual": _hex(0.0), "dual_residual": _hex(0.0),
              "complementarity_gap": _hex(0.0)}
    return {"case": case, "fields": fields}


def test_identical_panels_have_no_differences():
    panel = [_record("a"), _record("b"), _record("b")]
    assert bitwise_diff.differences(panel, panel) == ([], 0)


def test_every_differing_case_is_listed_with_its_first_field():
    old = [_record("a"), _record("b"), _record("c"), _record("d"), _record("d")]
    new = [_record("a"), _record("b", x=(1.0, 2.5)), _record("c", status="DualUnbounded", x=(0.0,)),
           _record("c"), _record("d"), _record("d", x=(1.0, -0.0))]
    lines, differing = bitwise_diff.differences(old, new)
    assert lines == [
        "b, report 0: field x differs, entry 1: 2.0 != 2.5 (x: 1 of 2 entries differ, max |delta| 0.5)",
        "c: report count 1 != 2",
        "c, report 0: field status differs, 'Optimal' != 'DualUnbounded' (x: length 2 != 1)",
        "d, report 1: field x differs, entry 1: 2.0 != -0.0 (x: 1 of 2 entries differ, max |delta| 2)",
    ]
    assert differing == 3


def test_every_differing_float_field_states_its_count_and_largest_delta():
    old = _record("a", x=(1.0, 2.0, 3.0, 0.0))
    new = _record("a", x=(1.0, 2.0 + 1e-12, 3.0 - 4e-12, -0.0))
    new["fields"]["lam"] = _hex([0.25])
    new["fields"]["dual_residual"] = _hex(1e-15)
    lines, differing = bitwise_diff.differences([old], [new])
    assert lines == [
        "a, report 0: field x differs, entry 1: 2.0 != 2.000000000001 (x: 3 of 4 entries differ, "
        "max |delta| 4e-12; lam: 1 of 1 entries differ, max |delta| 0.25; "
        "dual_residual: 1 of 1 entries differ, max |delta| 1e-15)",
    ]
    assert differing == 1


def test_a_case_missing_on_one_side_is_listed():
    lines, differing = bitwise_diff.differences([_record("a")], [_record("a"), _record("e")])
    assert lines == ["e: report count 0 != 1"] and differing == 1


def test_every_differing_cli_output_is_listed():
    old = [{"case": "fit", "exit": 0, "stdout": '{"a": 1.5}\n'},
           {"case": "certify", "exit": 0, "stdout": "{}\n"},
           {"case": "same", "exit": 0, "stdout": "x\n"},
           {"case": "gone", "exit": 0, "stdout": ""}]
    new = [{"case": "fit", "exit": 0, "stdout": '{"a": 1.25}\n'},
           {"case": "certify", "exit": 3, "stdout": ""},
           {"case": "same", "exit": 0, "stdout": "x\n"}]
    assert bitwise_diff.cli_differences(old, new) == [
        "fit: stdout differs from character 8: '5}\\n' != '25}\\n'",
        "certify: exit code 0 != 3",
        "gone: run by one tree only",
    ]
    assert bitwise_diff.cli_differences(old, old) == []


def test_gradient_descent_records_are_compared_by_their_own_fields():
    def gd(status="Converged", iters=105, w_hat=(0.5, -1.0)):
        fields = {"status": status, "iters_used": iters, "w_hat": _hex(w_hat),
                  "final_loss": _hex(1e-20), "step_size": _hex(0.01)}
        return {"case": "gd", "fields": fields}

    assert bitwise_diff.differences([gd()], [gd()]) == ([], 0)
    assert bitwise_diff.differences([gd(), gd()], [gd(iters=106), gd("Diverged", 2, (0.5, -1.5))]) == ([
        "gd, report 0: field iters_used differs, 105 != 106",
        "gd, report 1: field status differs, 'Converged' != 'Diverged' "
        "(w_hat: 1 of 2 entries differ, max |delta| 0.5)",
    ], 1)


def test_moved_statuses_and_iteration_counts_are_counted():
    old = [_record("a"), _record("b"), _record("b"), _record("c"), _record("d")]
    new = [_record("a", x=(1.0, 2.5)), _record("b", status="MaxIterations"), _record("b"),
           _record("c"), _record("d"), _record("e")]
    new[3]["fields"]["iterations"] = 6
    # a's x moved alone; b's report 0 moved its status, c its iterations;
    # e, on one side only, pairs with no report
    assert bitwise_diff.moved_reports(old, new) == 2
    assert bitwise_diff.moved_reports(old, old) == 0
    moved_both = _record("a", status="NumericalFailure")
    moved_both["fields"]["iterations"] = 9
    assert bitwise_diff.moved_reports([_record("a")], [moved_both]) == 1
