"""Block-formatted CSV text for the large numeric exports.

The panel and utility writers produce the same bytes `csv.writer` would
(comma separated, CRLF line ends, minimal quoting), but format a block
of rows at a time: the block's values become Python numbers with one
`ndarray.tolist()`, fill a row template repeated over the block with one
`%`, and reach the file in one `write`. Blocks stay small so that memory
does not grow with the export.
"""

from __future__ import annotations

import numpy as np

# Rows formatted per write; 336 is 8 paths of a 42-year panel.
BLOCK_ROWS = 336


def quote_field(text: str) -> str:
    """`text` as `csv.writer` writes a field that is not alone on its row."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_blocks(fh, row: str, blocks) -> None:
    """Write each block, a (rows, fields) array, as `row` filled per row.

    `row` is a %-template for one row, CRLF included; `%d` fields
    take integral values even when the block's dtype is float.
    """
    for block in blocks:
        fh.write(row * len(block) % tuple(np.ravel(block).tolist()))
