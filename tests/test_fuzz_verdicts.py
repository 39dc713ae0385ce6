"""The verdict panels of scripts/fuzz_verdicts.py, pinned in
tests/golden/fuzz_verdicts.json: a prefix of each panel and every
program the file lists outside "right" keep their column."""

import importlib.util
import json
import os

import pytest

from oracles import VERDICT_PANELS

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("fuzz_verdicts", os.path.join(_ROOT, "scripts", "fuzz_verdicts.py"))
fuzz_verdicts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz_verdicts)

with open(os.path.join(_ROOT, "tests", "golden", "fuzz_verdicts.json"), encoding="utf-8") as _f:
    PINNED = json.load(_f)

PREFIX = 300


@pytest.mark.parametrize("panel", list(VERDICT_PANELS))
def test_panel_prefix_keeps_its_pinned_verdicts(panel):
    pinned = PINNED[panel]
    listed_columns = fuzz_verdicts.COLUMNS[1:]
    listed = {i for column in listed_columns for i in pinned[column]}
    assert pinned["right"] + len(listed) == pinned["programs"]
    chosen = list(VERDICT_PANELS[panel](only=listed | set(range(PREFIX))))
    assert len(chosen) == len(listed | set(range(PREFIX)))
    # every listed program is solved, so each column must equal the file's
    table = fuzz_verdicts.run(chosen)
    assert {column: table[column] for column in listed_columns} == {column: pinned[column] for column in listed_columns}
    assert table["right"] == len(chosen) - len(listed)
