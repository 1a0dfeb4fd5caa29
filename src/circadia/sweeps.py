"""The package's file formats (write_csv, write_json) and the sweep table.

Floats are written by repr and metadata keys sorted, with no clock data,
so reruns are byte-identical."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ValidationError


def write_json(path: str, payload: dict) -> None:
    """The one JSON file format of the package: sorted keys, indent 1 and a
    final newline, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


_ROW_CHUNK = 1024


def float_rows(*columns):
    """Rows of equal-length numpy columns as tuples of Python scalars.

    The columns are converted _ROW_CHUNK rows at a time with .tolist():
    much faster than iterating numpy scalars, and only one chunk's Python
    floats are alive at once, not those of whole columns."""
    for a in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(c[a:a + _ROW_CHUNK].tolist() for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    s = str(value)
    if "," in s or "\n" in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: str, columns, rows, units: str, meta=None) -> None:
    """Stream rows (any iterable of tuples) to the package's CSV format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# units: {units}\n")
        if meta:
            f.write("# meta: " + json.dumps(meta, sort_keys=True,
                                            separators=(",", ":")) + "\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(map(_fmt, row)) + "\n")


@dataclass
class SweepTable:
    """Rows of a parameter sweep with a units note and a metadata echo.

    Serialization is deterministic: repr-formatted floats, sorted metadata
    keys, no timestamps.
    """

    columns: list[str]
    rows: list[tuple]
    units: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a generator would be used up by the width check below
        self.rows = list(self.rows)
        ncol = len(self.columns)
        for row in self.rows:
            if len(row) != ncol:
                raise ValidationError(
                    f"row width {len(row)} does not match {ncol} columns")

    def to_csv(self, path: str) -> None:
        write_csv(path, self.columns, self.rows, self.units, self.meta)

    def to_json(self, path: str) -> None:
        payload = {
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "units": self.units,
            "meta": self.meta,
        }
        write_json(path, payload)
