"""The CSV table format shared by every file the package writes or reads.

A table is one header row plus data rows, written and read with Python's
``csv`` module. Float cells are written with 17 significant digits, so
they read back bit for bit. Readers report a malformed file as a
``ParseError`` naming the 1-based data row (the header is row 0) and, for
a bad cell, the 0-based column.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ParseError


def write_table(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a table; float cells (numpy floats too) get round-trip text, others ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{c:.17g}" if isinstance(c, float) else c for c in row] for row in rows)


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
