"""The one CSV and JSON format of every file the package writes or reads.

A table is one header row plus data rows, written and read with Python's
``csv`` module. Float cells are written with 17 significant digits, so
they read back bit for bit. ``read_table`` streams a file: it checks each
data row's width, hands the row to its caller's parser and keeps nothing.
``read_floats``, the reader of every numeric table, converts each row with
``float()`` as it arrives and appends it to one float64 buffer, so a file
is never held as a table of Python strings; every numeric cell must be
finite. Readers report a malformed file as a ``ParseError`` naming the
1-based data row (the header is row 0) and, for a bad cell, the 0-based
column. Every other file is one JSON object with two-space indents and a
final newline; one that is not JSON, or not an object, reads as a
``ParseError`` naming the file. A JSON object that stands for a dataclass
(an experiment config, an estimator manifest) is read by the declared
type of each field, ``field_types``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from dataclasses import Field, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np

from .errors import ParseError


def write_table(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a table; float cells (numpy floats too) get round-trip text, others ``str``.

    ``csv`` writes each row with ``%.17g`` in its float cells (so it still
    quotes every other cell and ends the line), and one ``%`` call then
    formats all of the row's floats; ``%`` in other cells is escaped first.
    """
    line = io.StringIO()
    template = csv.writer(line)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            row = list(row)
            line.seek(0)
            line.truncate()
            template.writerow([
                "%.17g" if isinstance(c, float) else "" if c is None else str(c).replace("%", "%%")
                for c in row
            ])
            fh.write(line.getvalue() % tuple([c for c in row if isinstance(c, float)]))


def read_table(path: str | Path, parse_row, check_header=None) -> tuple[list[str], int]:
    """Stream ``path``'s data rows one at a time through ``parse_row(r, row)``.

    ``check_header(header)`` runs once the first data row has been read, so
    an empty or header-only file is reported as such whatever its header.
    Every data row must be as wide as the header; no row is kept here.
    Returns the header and the number of data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file", row=0)
        first = next(reader, None)
        if first is None:
            raise ParseError(f"{path}: no data rows", row=1)
        if check_header is not None:
            check_header(header)
        for r, row in enumerate(chain((first,), reader), start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(header)}", row=r
                )
            parse_row(r, row)
    return header, r


def read_cell(path: str | Path, r: int, c: int, text: str, kind=float):
    """``kind(text)``; ParseError naming row ``r`` and column ``c`` when it cannot be read."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(
            f"{path}: cannot read cell {text!r} at row {r}, column {c} as {kind.__name__}",
            row=r, col=c,
        ) from None


def read_finite(path: str | Path, r: int, c: int, text: str) -> float:
    """``read_cell`` of a float that must be finite; ParseError naming the cell otherwise."""
    value = read_cell(path, r, c, text)
    if not math.isfinite(value):
        raise ParseError(f"{path}: non-finite cell {text!r} at row {r}, column {c}", row=r, col=c)
    return value


def read_floats(
    path: str | Path,
    check_header=None,
    *,
    start: int = 0,
    ids: bool = False,
    check_row=None,
) -> tuple[list[str], np.ndarray | None, np.ndarray]:
    """(header, unit ids or None, float64 block of columns ``start:``) of a numeric table.

    Each row's cells are read with ``float()`` as the row streams past and
    appended to one float64 buffer, so the file never exists as a table of
    strings. Every cell of the block must be finite; with ``ids`` column 0
    must also read as ``int`` (checked first). ``check_row(r, row)``, when
    given, sees each row's text last.
    """
    values = array("d")
    unit_ids = array("q")

    def parse_row(r, row):
        if ids:
            try:
                unit_ids.append(read_cell(path, r, 0, row[0], int))
            except OverflowError:
                raise ParseError(
                    f"{path}: unit id {row[0]!r} at row {r}, column 0 is outside int64",
                    row=r, col=0,
                ) from None
        try:
            cells = list(map(float, row[start:]))
        except ValueError:
            for c in range(start, len(row)):
                read_cell(path, r, c, row[c])
            raise
        if not math.isfinite(sum(cells)):  # a sum can overflow; then look closer
            for c in range(start, len(row)):
                read_finite(path, r, c, row[c])
        if check_row is not None:
            check_row(r, row)
        values.extend(cells)

    header, n_rows = read_table(path, parse_row, check_header)
    block = np.frombuffer(values, dtype=np.float64).reshape(n_rows, len(header) - start)
    return header, np.frombuffer(unit_ids, dtype=np.int64) if ids else None, block


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON ending in a newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def read_json(path: str | Path, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``path``; ParseError unless it is one and has each of ``keys``."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path}: not JSON ({err})") from None
    if not isinstance(obj, dict):
        named = f" with {', '.join(map(repr, keys))}" if keys else ""
        raise ParseError(f"{path}: expected a JSON object{named}, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{path}: missing key {key!r}")
    return obj


def field_types(cls) -> list[tuple[Field, type]]:
    """Each field of dataclass ``cls`` with its declared type."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]
