"""The package's one CSV reader and one CSV writer.

`read_table` reads the numeric input tables: a fixed header, then rows of
finite numbers. A malformed table is a `DataError` naming `path:line`.

`write_csv` writes every CSV output a block of rows at a time: the
block's values become Python numbers with one `ndarray.tolist()`, fill a
%-row template repeated over the block with one `%`, and reach the file
in one `write`. Each section of a file has its own template, so that a
fixed text such as a strategy label sits in the template rather than in
every row. Templates carry their own line ends, and fields are quoted as
`csv.writer` quotes them (`literal`). Blocks stay small so that memory
does not grow with the export.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError

# Rows formatted per write; 336 is 8 paths of a 42-year panel.
BLOCK_ROWS = 336


def read_table(path, header) -> np.ndarray:
    """(rows, columns) floats of a CSV whose stripped header is `header`.

    Blank lines are skipped; every other row must hold one finite number
    per column, and there must be at least one.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = [c.strip() for c in next(reader, [])]
        if got != list(header):
            raise DataError(f"{path}:1: expected header {','.join(header)}, "
                            f"got {','.join(got)!r}")
        for row in reader:
            if not "".join(row).strip():
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: expected {len(header)} fields, "
                                f"got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise DataError(f"{where}: non-finite value")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows)


def literal(text: str) -> str:
    """`text` as a fixed field of a row template: quoted as `csv.writer`
    quotes a field that is not alone on its row, with `%` doubled."""
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text.replace("%", "%%")


def write_csv(path, header: str, sections) -> None:
    """Write the `header` line, then each (row, blocks) pair of `sections`:
    every (rows, fields) array that `blocks` yields, as the %-template
    `row` filled per row. `%d` takes integral floats as well."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for row, blocks in sections:
            for block in blocks:
                fh.write(row * len(block) % tuple(np.ravel(block).tolist()))
