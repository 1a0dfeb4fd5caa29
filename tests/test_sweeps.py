"""The package's CSV and JSON formats, pinned to their text."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circadia.errors import ValidationError
from circadia import SpectrumResult
from circadia.sweeps import SweepTable, float_rows, write_csv


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


def test_write_csv_streams_rows_and_omits_empty_meta(tmp_path):
    col = np.array([0.5, -1.0])
    path = tmp_path / "s.csv"
    write_csv(path, ("a", "b"), float_rows(col, 2 * col), "a, b in E_C",
              meta={})
    assert path.read_text() == (
        "# units: a, b in E_C\n"
        "a,b\n"
        "0.5,1.0\n"
        "-1.0,-2.0\n")


def test_sweep_table_json_text(tmp_path):
    table = SweepTable(columns=["k", "x"], rows=[(1, 0.25), (2, -3.5e-17)],
                       units="x in E_C units", meta={"b": None, "a": 1})
    path = tmp_path / "t.json"
    table.to_json(path)
    assert path.read_text() == (
        '{\n "columns": [\n  "k",\n  "x"\n ],\n'
        ' "meta": {\n  "a": 1,\n  "b": null\n },\n'
        ' "rows": [\n  [\n   1,\n   0.25\n  ],\n'
        '  [\n   2,\n   -3.5e-17\n  ]\n ],\n'
        ' "units": "x in E_C units"\n}\n')


def spectrum_result():
    return SpectrumResult(eigenvalues=np.array([-0.5, 1.0 / 3.0]), k=2,
                          residual_norms=np.array([1e-13, 2.5e-12]),
                          units="E_C units", meta={"n": 3, "h": 0.1})


def test_spectrum_result_csv_text(tmp_path):
    path = tmp_path / "r.csv"
    spectrum_result().to_csv(path)
    assert path.read_text() == (
        "# units: E_C units\n"
        '# meta: {"h":0.1,"n":3}\n'
        "level,eigenvalue,residual_norm\n"
        "0,-0.5,1e-13\n"
        "1,0.3333333333333333,2.5e-12\n")


def test_spectrum_result_json_text(tmp_path):
    path = tmp_path / "r.json"
    spectrum_result().to_json(path)
    assert path.read_text() == (
        '{\n "eigenvalues": [\n  -0.5,\n  0.3333333333333333\n ],\n'
        ' "k": 2,\n "meta": {\n  "h": 0.1,\n  "n": 3\n },\n'
        ' "residual_norms": [\n  1e-13,\n  2.5e-12\n ],\n'
        ' "units": "E_C units"\n}\n')
