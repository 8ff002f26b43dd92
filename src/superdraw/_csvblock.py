"""The package's one CSV reader and one CSV writer.

`read_table` reads the numeric input tables: a fixed header, then rows of
finite numbers. A malformed table is a `DataError` naming `path:line`.

`write_csv` writes every CSV output a block of rows at a time, as the text
of a %-row template repeated over the block and filled with one `%`:
`row * len(block) % values`, which reaches the file in one `write`. Each
section of a file has its own template, so that a fixed text such as a
strategy label sits in the template rather than in every row. Templates
carry their own line ends, and fields are quoted as `csv.writer` quotes
them (`literal`). Blocks stay small so that memory does not grow with the
export.

A number kernel in NumPy writes the same bytes as `%` for a block of at
least `KERNEL_MIN_ROWS` rows whose template holds only `%d` and `%.10g`
fields between ASCII literals of at most 8 bytes, such as the scenario
panel's rows. Every other block, and every block of fewer rows, is
formatted by `%`, which stays the definition the tests compare against.
- `%.10g` of a finite x with 1e-4 <= |x| < 1e10: X = floor(log10 |x|) and
  y = |x| 10^(9 - X), with 10^(9 - X) exact, so y carries one rounding of
  less than 2^-20. If y >= 1e9, N = rint(y) < 1e10 and |y - N| is below
  0.5 - 2^-19, then N is the correctly rounded ten-digit significand and X
  the exponent that `%g` prints, so the text is fixed notation: N's digits
  with '.' after X + 1 of them, or "0." and -X - 1 zeros in front, without
  trailing zeros or a bare '.', and '-' for a set sign bit. 0.0 and -0.0
  are "0" and "-0".
- `%d` of an integral float with 0 <= x < 1e8.
- A row holding any other value (non-finite, printed with an exponent,
  within 2^-19 of a rounding tie, or a log10 off by one) is formatted by
  `%` and spliced into its place; `%d` of NaN raises `%`'s ValueError. If
  more than one row in eight would be, `%` formats the whole block.
The digits come from a table of 4-digit ASCII groups, held as two
little-endian uint64 lanes per number that table-driven masks and shifts
turn into the text. Each row then is a run of 8-byte stores into a byte
buffer at ascending addresses, each store's tail overwritten by the next.
The kernel's arrays are reused from block to block of one file.

Formatting holds the interpreter lock, so a file's second part (`tail`)
can be formatted by a forked helper process into an unlinked temporary
file while this process formats the first part, and is then appended.
Both processes run the same block loop, so the bytes are those of writing
every section in one process, which is what happens when `os.fork` is
missing or fewer than two CPUs are usable. The same fork, kill and reap
(`_helper`) also serve other work that one process can hand to a second
CPU, such as `evaluate`'s snapshot rollouts, which run BLAS matrix
products in the helper.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import re
import shutil
import signal
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

# Rows formatted per write; 2,688 is 64 paths of a 42-year panel.
BLOCK_ROWS = 2_688
# The number kernel takes blocks of at least this many rows. It costs about
# 0.2 ms a block whatever its size, so `%` is faster on smaller blocks.
KERNEL_MIN_ROWS = 1_024


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
    # The kernel's text is ASCII bytes; they go straight to the byte stream
    # when the file's encoding writes ASCII as itself.
    raw = _ASCII.encode(fh.encoding, "replace") == _ASCII.encode()
    scratch = _Scratch()
    for row, blocks in sections:
        for block in blocks:
            text = _block_text(row, block, scratch)
            if isinstance(text, str):
                fh.write(text)
            elif raw:
                fh.flush()
                fh.buffer.write(text)
            else:
                fh.write(str(text, "ascii"))


def _block_text(row: str, block, scratch):
    """The text of `row * len(block) % values`: a str, or ASCII bytes from
    the kernel (a memoryview into `scratch`, valid until its next use)."""
    plan = _plan(row)
    if (plan is not None and isinstance(block, np.ndarray)
            and block.dtype == np.float64 and block.ndim == 2
            and block.shape[0] >= KERNEL_MIN_ROWS
            and block.shape[1] == len(plan.is_g)):
        text = _kernel_text(row, plan, block, scratch)
        if text is not None:
            return text
    return row * len(block) % tuple(np.ravel(block).tolist())


# ------------------------------------------------------------ number kernel

_U = np.uint64
_ASCII = "".join(map(chr, range(128)))
_FIELD = re.compile(r"%d|%\.10g")


class _Scratch:
    """Arrays that the kernel reuses from block to block. Fresh arrays for
    every block would be mapped and faulted in anew by the allocator, which
    costs more than the formatting itself."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        a = self._arrays.get((name, dtype))
        if a is None or a.size < size:
            a = self._arrays[name, dtype] = np.empty(size, dtype)
        return a[:size].reshape(shape)


def _look(table, index, out):
    """`table[index]` into `out`; the indices are in range, and the clip
    mode skips NumPy's check of them."""
    return np.take(table, index, out=out, mode="clip")


def _lanes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Texts of up to 16 bytes as two arrays of little-endian uint64 lanes."""
    texts = [t.ljust(16, b"\0") for t in texts]
    return tuple(np.array([int.from_bytes(t[i:i + 8], "little")
                           for t in texts], _U) for i in (0, 8))


_N4 = np.arange(10_000)
# The four ASCII digits of 0..9999, zero-padded, first digit lowest.
_ASCII4 = sum(((48 + _N4 // 10 ** (3 - i) % 10).astype(_U) << _U(8 * i))
              for i in range(4))
# Their number of digits, for %d.
_DIGITS4 = 1 + sum((_N4 >= 10 ** i).astype(np.int64) for i in range(1, 4))
# Their trailing zeros.
_ZEROS4 = sum((_N4 % 10 ** i == 0).astype(np.intp) for i in range(1, 5))
# A ten-digit significand is 2 | 4 | 4-digit groups: the first two digits
# and the next four as they sit in the low lane; the last four with their
# trailing zeros in the top byte.
_TOP2 = _ASCII4 >> _U(16)
_MID4 = _ASCII4 << _U(16)
_LOW4 = _ASCII4 | _ZEROS4.astype(_U) << _U(56)
_POW10 = 10.0 ** np.arange(14)

# `%.10g` in fixed notation, by p = 9 - X for the exponent X = 9..-4.
_X = 9 - np.arange(14)
# '.' goes after the first X + 1 of the ten digits: those are kept and the
# rest move up a byte. X < 0 keeps all ten.
_KEEP_LO, _KEEP_HI = _lanes(b"\xff" * (x + 1 if x >= 0 else 16) for x in _X)
# Then a 128-bit shift makes room in front for the sign and, for X < 0,
# "0." and -X - 1 zeros. By 2 * p + sign: the shift in bits, and the bytes
# that then go in, '.' included.
_PREFIX = [(b"-" if neg else b"") + (b"0." + b"0" * (-x - 1) if x < 0 else b"")
           for x in _X for neg in (0, 1)]
_SHIFT = np.array([8 * len(t) for t in _PREFIX], _U)
_PRE_LO, _PRE_HI = _lanes(
    t + (b"\0" * (x + 1) + b"." if x >= 0 else b"")
    for t, x in zip(_PREFIX, np.repeat(_X, 2)))
# Text length without the sign, by 16 * p + trailing zeros of the digits.
_Z = np.arange(16)
_LENGTH = np.where(
    _X[:, None] >= 0,
    np.where(10 - _Z <= _X[:, None] + 1, _X[:, None] + 1, 11 - _Z),
    11 - _X[:, None] - _Z).ravel()


class _Plan(NamedTuple):
    is_g: np.ndarray      # (fields,) True for %.10g, False for %d
    lit: np.ndarray       # (fields + 1,) literals as uint64 lanes
    lit_len: np.ndarray   # (fields + 1,) their lengths in bytes


@functools.lru_cache(maxsize=64)
def _plan(row: str) -> _Plan | None:
    """The kernel's view of a row template, or None if `%` must format it:
    only `%d` and `%.10g` conversions, and ASCII literals of at most 8
    bytes."""
    convs = _FIELD.findall(row)
    lits = _FIELD.split(row)
    if not convs or any("%" in s or not s.isascii() or len(s) > 8
                        for s in lits):
        return None
    return _Plan(np.array([c != "%d" for c in convs]),
                 _lanes(s.encode() for s in lits)[0],
                 np.array([len(s) for s in lits]))


def _g10(x: np.ndarray, s: _Scratch):
    """`%.10g` of the values `x` as scratch arrays (lo, hi, length, exact):
    text lanes, text length, and whether that text is proven exact."""
    shape = x.shape
    a = np.abs(x, out=s("a", shape))
    y = s("y", shape)
    n = s("n", shape)
    p = s("p", shape, np.intp)
    b = s("b", shape, bool)
    exact = s("exact", shape, bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, inf, NaN
        np.log10(a, out=y)
        np.floor(y, out=y)
        np.subtract(9.0, y, out=y)
        np.fmax(y, 0.0, out=y)          # NaN and inf give p = 0
        np.fmin(y, 13.0, out=y)         # 0 gives p = 13
        np.copyto(p, y, casting="unsafe")
        _look(_POW10, p, out=y)
        np.multiply(a, y, out=y)        # one rounding: error below 2**-20
        np.rint(y, out=n)
        np.greater_equal(y, 1e9, out=exact)
        exact &= np.less(n, 1e10, out=b)
        np.subtract(y, n, out=y)
        exact &= np.less(np.abs(y, out=y), 0.5 - 2.0 ** -19, out=b)
        np.fmax(n, 1e9, out=n)          # any ten digits where not exact
        np.fmin(n, 9_999_999_999.0, out=n)
    # The digits in 2 | 4 | 4-digit groups, then as text lanes.
    low = s("low", shape, np.intp)
    mid = s("mid", shape, np.intp)
    top = s("top", shape, np.intp)
    t = s("t", shape, np.intp)
    np.copyto(low, n, casting="unsafe")
    np.floor_divide(low, 10_000, out=mid)
    low -= np.multiply(mid, 10_000, out=t)
    np.floor_divide(mid, 10_000, out=top)
    mid -= np.multiply(top, 10_000, out=t)
    lo = _look(_TOP2, top, out=s("lo", shape, _U))
    u = s("u", shape, _U)
    v = s("v", shape, _U)
    lo |= _look(_MID4, mid, out=u)
    w = _look(_LOW4, low, out=s("w", shape, _U))
    lo |= np.left_shift(w, 48, out=u)
    hi = np.right_shift(w, 16, out=s("hi", shape, _U))
    hi &= 0xFFFF
    # Trailing zeros of the ten digits, past the last group when it is 0.
    zeros = np.right_shift(w, 56, out=w).view(np.intp)
    ends = np.flatnonzero(np.equal(low, 0, out=b))
    if ends.size:
        mid_end = mid.reshape(-1)[ends]
        zeros.reshape(-1)[ends] += _ZEROS4[mid_end] + np.where(
            mid_end == 0, _ZEROS4[top.reshape(-1)[ends]], 0)
    neg = np.signbit(x, out=s("neg", shape, bool))
    zeros |= np.left_shift(p, 4, out=top)
    length = _look(_LENGTH, zeros, out=s("length", shape, np.intp))
    length += neg
    # '.' after X + 1 digits: the lanes' bytes from there move up one.
    _look(_KEEP_LO, p, out=u)
    u &= lo
    lo -= u
    np.right_shift(lo, 56, out=v)
    lo <<= 8
    lo |= u
    _look(_KEEP_HI, p, out=u)
    u &= hi
    hi -= u
    hi <<= 8
    hi |= u
    hi |= v
    # The prefix: a 128-bit shift by 0..48 bits, then its bytes. The bits
    # that cross lanes take two right shifts, as none may reach 64.
    np.left_shift(p, 1, out=t)
    t += neg
    shift = _look(_SHIFT, t, out=u)
    hi <<= shift
    np.right_shift(lo, 1, out=v)
    v >>= np.subtract(63, shift, out=s("back", shape, _U))
    hi |= v
    lo <<= shift
    lo |= _look(_PRE_LO, t, out=u)
    hi |= _look(_PRE_HI, t, out=u)
    zero = np.flatnonzero(np.equal(x, 0, out=b))     # "0" and "-0"
    if zero.size:
        sign = neg.reshape(-1)[zero]
        exact.reshape(-1)[zero] = True
        lo.reshape(-1)[zero] = np.where(sign, ord("-") | ord("0") << 8,
                                        ord("0"))
        length.reshape(-1)[zero] = 1 + sign
    return lo, hi, length, exact


def _d(x: np.ndarray, s: _Scratch):
    """`%d` of the values `x` as scratch arrays (lo, None, length, exact):
    exact for integral 0 <= x < 1e8, whose text fits in one lane."""
    shape = x.shape
    exact = np.greater_equal(x, 0, out=s("d_exact", shape, bool))
    b = s("d_b", shape, bool)
    exact &= np.less(x, 1e8, out=b)
    y = np.floor(x, out=s("d_y", shape))
    exact &= np.equal(y, x, out=b)
    np.copyto(y, 0.0, where=np.logical_not(exact, out=b))
    low = s("d_low", shape, np.intp)
    np.copyto(low, y, casting="unsafe")
    top = np.floor_divide(low, 10_000, out=s("d_top", shape, np.intp))
    t = s("d_t", shape, np.intp)
    low -= np.multiply(top, 10_000, out=t)
    length = _look(_DIGITS4, low, out=s("d_length", shape, np.intp))
    np.add(_look(_DIGITS4, top, out=t), 4, out=length,
           where=np.greater(top, 0, out=b))
    lo = _look(_ASCII4, top, out=s("d_lo", shape, _U))
    u = s("d_u", shape, _U)
    lo |= np.left_shift(_look(_ASCII4, low, out=u), 32, out=u)
    np.subtract(8, length, out=u, casting="unsafe")
    lo >>= np.left_shift(u, 3, out=u)              # drop leading zeros
    return lo, None, length, exact


def _kernel_text(row: str, plan: _Plan, values: np.ndarray,
                 s: _Scratch) -> memoryview | None:
    """`row * len(values) % values` as ASCII bytes, for a block the kernel
    takes, or None if more than one row in eight holds a value that the
    kernel cannot prove it formats exactly: `%` formats such a row by
    itself at several times the cost of a row in a whole block.

    Each row's text is a run of 8-byte stores into a buffer, at ascending
    addresses: per field its low lane, then its high lane (or the low lane
    again if the text fits in 8 bytes), then the literal after it. A
    store's bytes past its text are overwritten by the next store. A row
    holding a value whose text is not proven exact is formatted by `%` and
    copied into its place afterwards.
    """
    rows, fields = values.shape
    lo = s("row_lo", values.shape, _U)
    hi = s("row_hi", values.shape, _U)
    length = s("row_length", values.shape, np.intp)
    exact = s("row_exact", values.shape, bool)
    # Each kind of field is formatted over the run of columns from its
    # first to its last field, from a contiguous copy.
    for kind, fmt in ((True, _g10), (False, _d)):
        cols = np.flatnonzero(plan.is_g == kind)
        if cols.size:
            c0, c1 = cols[0], cols[-1] + 1
            x = s("x", (rows, c1 - c0))
            np.copyto(x, values[:, c0:c1])
            out = fmt(x, s)
            got = cols - c0
            if c1 - c0 == cols.size:            # slices copy faster
                cols, got = slice(c0, c1), slice(None)
            for dest, src in zip((lo, hi, length, exact), out):
                if src is not None:
                    dest[:, cols] = src[:, got]
    slow = np.flatnonzero(~exact.all(axis=1))
    if 8 * slow.size > rows:
        return None
    lead = plan.lit_len[0]
    texts = [(row % tuple(values[i].tolist())).encode() for i in slow]
    length[slow] = 0
    # A field and the literal after it; a slow row's text is all in its
    # last field, so every store of that row lands at the row's start.
    width = np.add(length, plan.lit_len[1:],
                   out=s("width", values.shape, np.intp))
    width[slow] = 0
    width[slow, -1] = [len(text) - lead for text in texts]
    end = s("end", values.shape, np.intp)
    np.cumsum(width.reshape(-1), out=end.reshape(-1))
    if lead:
        end += lead * np.arange(1, rows + 1)[:, None]
    total = int(end[-1, -1])
    at = np.subtract(end, width, out=width)
    long = np.greater(length, 8, out=s("long", values.shape, bool))
    first = int(lead > 0)
    where = s("where", (rows, first + 3 * fields), np.intp)
    what = s("what", (rows, first + 3 * fields), _U)
    if first:
        np.subtract(at[:, 0], lead, out=where[:, 0])
        what[:, 0] = plan.lit[0]
    where3 = where[:, first:].reshape(rows, fields, 3)
    what3 = what[:, first:].reshape(rows, fields, 3)
    where3[:, :, 0] = at
    np.multiply(long, 8, out=where3[:, :, 1])
    where3[:, :, 1] += at
    np.add(at, length, out=where3[:, :, 2])
    what3[:, :, 0] = lo
    what3[:, :, 1] = lo
    np.copyto(what3[:, :, 1], hi, where=long)
    what3[:, :, 2] = plan.lit[1:]
    buf = s("buf", (total + 16,), np.uint8)
    # Element i of this view is the 8 bytes at buf[i]; an assignment
    # stores in index order.
    np.ndarray((total + 9,), "<u8", buf, 0, (1,))[where.reshape(-1)] = \
        what.reshape(-1)
    text = memoryview(buf)
    for i, row_text in zip(slow, texts):
        start = at[i, 0] - lead
        text[start:start + len(row_text)] = row_text
    return text[:total]


@contextlib.contextmanager
def _helper(directory, fill):
    """Fork a process that runs `fill(tmp)`, writing into `tmp`, an
    unlinked binary temporary file in `directory`. Yields a function that
    reaps it and returns that file at offset 0; a helper that failed raises
    OSError there, and one not reaped by then is killed and reaped.

    Forking a process that has BLAS threads is safe: OpenBLAS stops its
    thread pool before a fork and starts it again when next needed. A
    helper that runs matrix products should keep them below OpenBLAS's
    threading limit (see `trainer.EVAL_BLOCK`), so that it and this process
    each keep to one CPU.
    """
    with tempfile.TemporaryFile(dir=directory) as tmp:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                fill(tmp)
                tmp.flush()
                status = 0
            except BaseException as exc:
                # The helper never returns into the caller's code; its
                # failure reaches the parent as the exit status.
                os.write(2, f"helper process: {exc!r}\n".encode())
            finally:
                os._exit(status)
        running = True

        def reap():
            nonlocal running
            _, wait_status = os.waitpid(pid, 0)
            running = False
            code = os.waitstatus_to_exitcode(wait_status)
            if code:
                raise OSError(f"helper process {pid} exited with "
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

    def fill(tmp):
        with open(tmp.fileno(), "w", newline="", closefd=False) as out:
            _write_rows(out, tail)

    fh = open(path, "w", newline="")
    try:
        with fh, _helper(Path(path).parent, fill) if split \
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
