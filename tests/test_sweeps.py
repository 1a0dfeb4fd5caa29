"""The SweepTable CSV format, pinned to its text."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circadia.errors import ValidationError
from circadia.sweeps import SweepTable, float_rows


def test_csv_text_of_every_cell_kind(tmp_path):
    table = SweepTable(
        columns=["n", "x", "missing", "flag", "label"],
        rows=[(3, 0.1, math.nan, True, "a,b"),
              (-7, 2.5e-300, -math.inf, False, 'say "hi"'),
              (0, -0.0, 1.0, True, "two\nlines")],
        units="x in E_C units", meta={"z": 1, "a": [0.5, "s"]})
    path = tmp_path / "t.csv"
    table.to_csv(path)
    assert path.read_text() == (
        "# units: x in E_C units\n"
        '# meta: {"a":[0.5,"s"],"z":1}\n'
        "n,x,missing,flag,label\n"
        '3,0.1,nan,True,"a,b"\n'
        '-7,2.5e-300,-inf,False,"say ""hi"""\n'
        '0,-0.0,1.0,True,"two\nlines"\n')


def test_rows_from_a_generator_are_kept():
    col = np.array([1.0, 2.0, 3.0])
    table = SweepTable(columns=["a", "b"], rows=float_rows(col, 2 * col))
    assert table.rows == [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]


def test_row_width_is_checked():
    with pytest.raises(ValidationError, match="row width 1"):
        SweepTable(columns=["a", "b"], rows=[(1.0,)])
