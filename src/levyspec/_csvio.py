"""The CSV files levyspec reads and writes: the grammar, three readers and two writers.

Reading (``read_values_csv``, the ``--data`` file).  A file is UTF-8 text,
read line by line; a byte-order mark at its start is not data.  Blank lines
and lines starting with ``#`` are skipped anywhere, after stripping the
whitespace ``float()`` strips (``_BLANKS``).  Every other line holds 1 or 2
comma-separated cells and only the last is read, as ``float()`` reads it.
Lines whose last cell is not a number are headers until the first number and
errors after it; every number must be finite, and at least one is needed.
An error names the file and the line.  That is ``_data_rows``, the definition.

``read_values_csv`` opens the file once and runs ``_data_rows`` up to the
first number.  From that line on, a regular file goes to one of two fast
readers (``_read_values_fast``), which give the doubles of ``float()`` or
decline the file:

- ``read_last_cells`` of ``_kernels.c`` where the kernels load
  (``_native.library``): one scan per line, a last cell in the plain-decimal
  grammar that ``decimal()`` there states, with spaces or tabs around it,
  rounded in the same walk by the Eisel-Lemire algorithm (one or two 64x64-bit
  products against a table of 10^-342..10^308; past it, 0 or infinity) or by
  ``strtod`` for more than 19 significant digits;
- ``np.loadtxt`` where no compiler is found, for a file whose every line has
  the first one's 1 or 2 cells, all numbers, and no ``\\x1c``-``\\x1f`` byte,
  which ``np.loadtxt`` strips around a number and ``float()`` does not.

A file that neither takes, and a pipe, which can be read only once, are read
on by ``_data_rows`` from the row after the first number.

Writing (``write_rows``: the sample, density, ECF and chi files, and the chi
profile that ``levyspec calibrate`` prints).  ``# `` meta lines, a header,
then one row per index of equal-length columns, cells joined by commas: an
integer column's cells as ``%d`` and any other's as ``%.17g`` (the bytes of
``f"{v:.17g}"``).  Rows go out in blocks of ``_ROWS_PER_WRITE``; Python's ``%``
over a block's interleaved cells defines its text.  Where the kernels load,
``_native.format_rows`` writes the same bytes in C, with no locale, and
leaves to ``%`` a block holding a column or a cell it cannot decide.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np


def read_values_csv(path: str, difference: bool = False) -> np.ndarray:
    """The numbers of the CSV file at ``path``, or their differences with
    ``difference``, where the file holds levels."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:  # -sig: a BOM is not data
        rows = _data_rows(fh, path)
        lineno, value = next(rows, (None, None))
        if lineno is None:
            raise ValueError(f"{path}: no numeric rows found")
        data = _read_values_fast(path, lineno)
        if data is None:
            data = np.array([value, *(v for _, v in rows)])
    if difference and data.size < 2:
        raise ValueError(f"{path}: need at least 2 level observations to difference")
    return np.diff(data) if difference else data


def _read_values_fast(path: str, lineno: int) -> np.ndarray | None:
    """The last cells of line ``lineno``, the first numeric row, and the lines after
    it, read in C or by ``np.loadtxt``; None for a file left to ``_data_rows``."""
    if not os.path.isfile(path):  # a pipe: its head is already read
        return None
    from . import _native  # at the first read, not at import
    if _native.library() is not None:
        return _native.read_last_cells(path, lineno - 1)
    with open(path, "rb") as fh:  # np.loadtxt strips \x1c-\x1f around a number; float() does not
        raw = fh.read()
    if any(byte in raw for byte in b"\x1c\x1d\x1e\x1f"):
        return None
    try:  # np.loadtxt, also C, from the path in large chunks
        table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=lineno - 1,
                           encoding="utf-8-sig")
    except ValueError:
        return None
    # At least one row, with the 1 or 2 columns of the first: loadtxt raises on ragged rows.
    values = np.ascontiguousarray(table[:, -1])
    return values if np.isfinite(values).all() else None


# The whitespace float() strips: that of str.isspace() but for the ASCII separators
# \x1c-\x1f, which float() rejects, so a cell "0\x1f" is not a number.  A literal:
# scanning every code point for it would cost about 85 ms at import.
_BLANKS = ("\t\n\x0b\x0c\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
           "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _data_rows(fh, path: str):
    """Yield (line number, value) for each row from the first whose last cell is a
    number on, from a file opened with ``errors="surrogateescape"``.  Blank and #
    lines are skipped anywhere and rows before that one are headers.  A line that
    is not UTF-8 raises UnicodeDecodeError; a row of other than 1 or 2 cells, a
    non-numeric last cell after the first number and a non-finite one raise
    ValueError.  Each error names the line."""
    started = False
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():  # a byte that is not UTF-8 was read as a lone surrogate
            try:
                line.encode(errors="surrogateescape").decode()
            except UnicodeDecodeError as exc:
                exc.reason = f"{exc.reason} on line {lineno}"
                raise
        line = line.strip(_BLANKS)
        if not line or line[0] == "#":
            continue
        first, _, cell = line.rpartition(",")
        if "," in first:
            raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns, got {line.count(',') + 1}")
        try:
            value = float(cell)
        except ValueError:
            if started:
                raise ValueError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
            continue
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite cell {cell!r}")
        started = True
        yield lineno, value


_ROWS_PER_WRITE = 8192


def write_rows(path, meta_lines, header: str, *columns) -> None:
    """Write the rows of the equal-length ``columns`` under ``meta_lines`` and
    ``header`` to the file ``path``, or to ``path`` itself where it is a text stream."""
    from . import _native  # at the first write, not at import
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns of lengths {[len(column) for column in columns]} "
                         f"cannot be rows: they need one length")
    row_format = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "w") as fh:
        for line in meta_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{header}\n")
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            block = [column[start:start + _ROWS_PER_WRITE] for column in columns]
            text = _native.format_rows(block)
            if text is None:
                block = [column.tolist() for column in block]
                rows = [None] * (len(columns) * len(block[0]))
                for j, cells in enumerate(block):
                    rows[j::len(columns)] = cells
                text = (row_format * len(block[0])) % tuple(rows)
            fh.write(text)
