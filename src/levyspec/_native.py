"""The C kernels of ``_kernels.c``, compiled on first use and called through ctypes.

``library()`` builds the source once with ``cc -O3 -ffp-contract=off -fPIC
-shared`` (no ``-ffast-math``, no ``-march``) into ``$XDG_CACHE_HOME/levyspec``
(default ``~/.cache/levyspec``), under a name keyed by the CRC-32 of the
source and the command line, and loads it.  A build writes a temporary file
and renames it into place, so processes building at once all load a whole
library.  Nothing is built or loaded at import.  Without a compiler, with a
cache that cannot be made or written, or when a build or load fails,
``library()`` is None: the moment pass and the ECF's contraction run their
numpy definitions, the CSV reader ``np.loadtxt`` and the CSV writer Python's
``%``, with the same bytes.

The CSV reader takes the cells of the grammar in ``decimal()`` of
``_kernels.c`` and converts them by Eisel-Lemire against a table of the
leading 128 bits of 10^-342 .. 10^308, which ``_powers_of_ten`` builds from
Python integers at library load (about 1 ms, 10 KiB) and each call passes to
C; a cell of more than 19 significant digits goes to ``strtod``, with the
same bytes.  The CSV writer ``format_rows`` is its inverse: it writes signed
integer columns as ``'%d' %`` and float64 ones as ``'%.17g' %``, a double from
one product of its significand with the same table, digits by hand, so that no
locale reaches them, and leaves to ``%`` any other column and a block with a
cell that is not finite, lies below about 1e-292, or is undecidable.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import weakref
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMMAND = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared", "-x", "c", "-", "-lm")


def _address(array: np.ndarray) -> int:
    """The address of a C-contiguous array's data, through a ctypes view where the
    buffer is writable and nonempty: about a third of the cost of ``array.ctypes.data``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):  # read-only, or empty
        return array.ctypes.data


_TABLE_ADDRESSES: dict[int, int] = {}  # id of a read-only table -> its address, while it lives


def _table_address(table: np.ndarray) -> int:
    """The address of a read-only table read on every call, such as the ECF's cached
    weights, kept until the table is freed."""
    address = _TABLE_ADDRESSES.get(id(table))
    if address is None:
        address = _TABLE_ADDRESSES[id(table)] = table.ctypes.data
        weakref.finalize(table, _TABLE_ADDRESSES.pop, id(table), None)
    return address


def _cache_dir() -> str:
    return os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                        "levyspec")


def _build(source: bytes, target: str) -> None:
    """Compile ``source`` into a temporary file beside ``target``, then rename it
    there; any failure is an OSError."""
    import subprocess
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*_COMMAND, "-o", tmp], input=source, capture_output=True,
                                  timeout=120)
        except subprocess.SubprocessError as exc:  # a timeout
            raise OSError(f"cc failed: {exc}") from exc
        if proc.returncode != 0:
            raise OSError(f"cc exited with {proc.returncode}: {proc.stderr.decode()[-500:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _powers_of_ten() -> np.ndarray:
    """(651, 2) uint64: for q = -342 .. 308 the high and low words of the leading
    128 bits of 5^q, which are those of 10^q, as fast_float's table rounds them:
    truncated for q >= 0, the reciprocal floor(2^b / 5^-q) + 1 for q < 0, cut
    to 128 bits where 5^-q passes 2^64."""
    words = []
    for q in range(-342, 309):
        power = 5 ** abs(q)
        if q >= 0:
            lead = (power << 128) >> power.bit_length()
        else:
            bits = power.bit_length()
            lead = (1 << (bits + 127 if q >= -27 else 2 * bits + 128)) // power + 1
            lead >>= lead.bit_length() - 128
        words += (lead >> 64, lead & 0xFFFF_FFFF_FFFF_FFFF)
    return np.array(words, dtype=np.uint64).reshape(-1, 2)


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.read_last_cells.argtypes = (ctypes.c_char_p, i64, ptr, i64, ptr)
    lib.read_last_cells.restype = i64
    lib.powers_of_ten = _powers_of_ten()  # read_last_cells's table, held as long as lib
    lib.bin_moments.argtypes = (ptr, i64, i64, ctypes.c_double, i64, i64, ptr)
    lib.bin_moments.restype = ctypes.c_int
    lib.ecf_contract.argtypes = (ptr, i64, ptr, i64, i64, ctypes.c_double, ptr)
    lib.ecf_contract.restype = None
    lib.format_rows.argtypes = (ptr, ctypes.c_char_p, i64, i64, ptr, ptr)
    lib.format_rows.restype = i64
    return lib


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded kernels, built into the cache on the first call; None when they cannot be."""
    try:
        source = _SOURCE.read_bytes()
        # a CRC tells source versions apart; hashlib would map OpenSSL, 3.6 MB resident
        name = f"kernels-{zlib.crc32(source + ' '.join(_COMMAND).encode()):08x}.so"
        path = os.path.join(_cache_dir(), name)
        if not os.path.exists(path):
            if shutil.which(_COMMAND[0]) is None:
                return None
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _build(source, path)
        return _load(path)
    except OSError:
        return None


def read_last_cells(path: str, skip: int) -> np.ndarray | None:
    """The last cells of the lines after the first ``skip``, or None when the C
    reader is missing or leaves the file to the line loop."""
    lib = library()
    if lib is None:
        return None
    # At most one row per \n or \r, and one unterminated.  A bound from the byte
    # count would allocate about 13 times the values, and numpy asks for huge
    # pages for arrays past 4 MiB, so the written part would fault in 2 MiB at a time.
    cap, block = 1, np.empty(1 << 16, dtype=np.uint8)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            cap += np.count_nonzero(block[:size] == 10) + np.count_nonzero(block[:size] == 13)
    out = np.empty(cap)
    rows = lib.read_last_cells(os.fsencode(path), skip, out.ctypes.data, cap,
                               lib.powers_of_ten.ctypes.data)
    if rows <= 0:
        return None
    out.resize(rows, refcheck=False)  # drops the slots of the header lines, in place
    return out


_CELL_BYTES = 25  # the longest cell, "-1.2345678901234567e-308" or an int64, and its separator


def format_rows(columns) -> str | None:
    """The rows of the 1-d arrays ``columns`` as ``_csvio.write_rows`` writes them:
    ``'%d' %`` of a signed integer column and ``'%.17g' %`` of a float64 one,
    joined by commas, each row ended by a newline.  None for a column of another
    dtype, for columns of two lengths, when the kernels are missing, or when they
    leave a cell to Python."""
    kinds = "".join("d" if column.dtype.kind == "i" else "g" if column.dtype == np.float64
                    else "?" for column in columns)
    if "?" in kinds or any(column.ndim != 1 or column.size != columns[0].size
                           for column in columns):
        return None
    lib = library()
    if lib is None:
        return None
    columns = [np.ascontiguousarray(column, dtype=np.int64 if kind == "d" else np.float64)
               for kind, column in zip(kinds, columns)]
    out = np.empty(columns[0].size * len(columns) * _CELL_BYTES, dtype=np.uint8)
    addresses = (ctypes.c_void_p * len(columns))(*map(_address, columns))
    size = lib.format_rows(addresses, kinds.encode(), len(columns), columns[0].size,
                           _address(out), lib.powers_of_ten.ctypes.data)
    return None if size < 0 else str(out[:size].data, "ascii")


def bin_moments(values: np.ndarray, size: int, scale: float, terms: int,
                chunk: int) -> np.ndarray | None:
    """The (terms, size) moments of ``estimator._bin_moments_numpy``, or None."""
    lib = library()
    if lib is None:
        return None
    values = np.ascontiguousarray(values, dtype=float)
    moments = np.zeros((terms, size))
    if lib.bin_moments(_address(values), values.size, size, scale, terms, chunk,
                       _address(moments)) != 0:
        return None
    return moments


def ecf_contract(spectrum: np.ndarray, weights: np.ndarray, size: int,
                 n: int) -> np.ndarray | None:
    """The 2 count + 1 ECF values of ``estimator._ecf_contract_numpy``, or None."""
    lib = library()
    if lib is None:
        return None
    terms, count = weights.shape[0], weights.shape[1] - 1
    if not (spectrum.dtype == np.complex128 and spectrum.flags.c_contiguous
            and spectrum.shape == (terms, size // 2 + 1) and weights.dtype == np.float64
            and weights.flags.c_contiguous and 0 <= count < size):
        raise ValueError("ecf_contract needs C-contiguous (terms, size/2 + 1) complex "
                         "rows and (terms, count + 1) float weights, count < size")
    out = np.empty(2 * count + 1, dtype=np.complex128)
    lib.ecf_contract(_address(spectrum), size, _table_address(weights), terms, count, n,
                     _address(out))
    return out
