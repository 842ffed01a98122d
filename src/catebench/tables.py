"""The one CSV and JSON format of every file the package writes or reads.

A table is one header row plus data rows, written and read with Python's
``csv`` module. Float cells are written with 17 significant digits, so
they read back bit for bit. Readers report a malformed file as a
``ParseError`` naming the 1-based data row (the header is row 0) and, for
a bad cell, the 0-based column. Every other file is one JSON object with
two-space indents and a final newline; one that is not JSON, or not an
object, reads as a ``ParseError`` naming the file.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable

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


def read_table(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """(header, data rows); every data row must be as wide as the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file", row=0)
    if len(rows) == 1:
        raise ParseError(f"{path}: no data rows", row=1)
    header, body = rows[0], rows[1:]
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}", row=r)
    return header, body


def parse_block(
    path: str | Path, rows: list[list[str]], start: int = 0, stop: int | None = None, kind=float
) -> np.ndarray:
    """Cells ``start:stop`` of every row as one 2-D array of ``kind``."""
    try:
        return np.array([[kind(c) for c in row[start:stop]] for row in rows], dtype=kind)
    except ValueError:
        for r, row in enumerate(rows, start=1):
            for c, cell in enumerate(row[start:stop], start=start):
                try:
                    kind(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: cannot read cell {cell!r} at row {r}, column {c} as "
                        f"{kind.__name__}", row=r, col=c
                    ) from None
        raise


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
