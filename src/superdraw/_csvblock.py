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

Formatting is Python `%` work that holds the interpreter lock, so a file's
second part (`tail`) can be formatted by a forked helper process into an
unlinked temporary file while this process formats the first part, and is
then appended. Both processes run the same block loop, so the bytes are
those of writing every section in one process, which is what happens when
`os.fork` is missing or fewer than two CPUs are usable.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil
import signal
import tempfile
from pathlib import Path

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _write_rows(fh, sections) -> None:
    for row, blocks in sections:
        for block in blocks:
            fh.write(row * len(block) % tuple(np.ravel(block).tolist()))


@contextlib.contextmanager
def _helper(directory, sections):
    """Fork a process that writes `sections` into an unlinked temporary
    file in `directory`. Yields a function that reaps it and returns that
    file at offset 0; a helper not reaped by then is killed and reaped.

    Forking a process that has BLAS threads is safe here because the
    helper only slices arrays and formats text.
    """
    with tempfile.TemporaryFile(dir=directory) as tmp:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(tmp.fileno(), "w", newline="",
                          closefd=False) as out:
                    _write_rows(out, sections)
                status = 0
            except BaseException as exc:
                # The helper never returns into the caller's code; its
                # failure reaches the parent as the exit status.
                os.write(2, f"CSV helper process: {exc!r}\n".encode())
            finally:
                os._exit(status)
        running = True

        def reap():
            nonlocal running
            _, wait_status = os.waitpid(pid, 0)
            running = False
            code = os.waitstatus_to_exitcode(wait_status)
            if code:
                raise OSError(f"CSV helper process {pid} exited with "
                              f"status {code}")
            tmp.seek(0)
            return tmp

        try:
            yield reap
        finally:
            if running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write_csv(path, header: str, sections, tail=()) -> None:
    """Write the `header` line, then each (row, blocks) pair of `sections`
    and then of `tail`: every (rows, fields) array that `blocks` yields, as
    the %-template `row` filled per row. `%d` takes integral floats as well.

    With `os.fork` and two usable CPUs, `tail` is formatted by a helper
    process at the same time as `sections` and appended, byte for byte
    what one process writes. A failure on either side kills and reaps the
    helper and removes the partial file.
    """
    split = bool(tail) and hasattr(os, "fork") and _usable_cpus() >= 2
    fh = open(path, "w", newline="")
    try:
        with fh, _helper(Path(path).parent, tail) if split \
                else contextlib.nullcontext() as reap:
            fh.write(header)
            _write_rows(fh, sections)
            if split:
                fh.flush()
                shutil.copyfileobj(reap(), fh.buffer, 1 << 20)
            else:
                _write_rows(fh, tail)
    except BaseException:
        os.unlink(path)
        raise
