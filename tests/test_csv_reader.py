"""read_values_csv against the per-line loop that defines the CSV format.

Every file must give the same outcome from both readers: bit-equal arrays, or
a ValueError with the same text.  The loop is the oracle; the reader may only
differ from it in speed.
"""

import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import levyspec._native
import levyspec.cli
from levyspec import IncrementSample
from levyspec.cli import _read_values_fast, _read_values_loop, read_values_csv
from levyspec.sampling import write_increments_csv


def loop(path, difference=False):
    """The oracle: the per-line loop's values, differenced as the format says."""
    data = _read_values_loop(path)
    if difference and data.size < 2:
        raise ValueError(f"{path}: need at least 2 level observations to difference")
    return np.diff(data) if difference else data


def outcome(reader, path, difference):
    try:
        return reader(str(path), difference=difference)
    except ValueError as exc:
        return str(exc)


def assert_same_as_loop(path, difference=False):
    got = outcome(read_values_csv, path, difference)
    want = outcome(loop, path, difference)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    return want


def tokens_file(token):
    return f"index,value\n0,0.5\n1,{token}\n2,2.5\n"


# (file text, --difference, whether the C reader takes the file, whether the
# np.loadtxt path, which reads where the kernels do not load, takes it)
CASES = {
    "header": ("value\n1.0\n2.5\n", False, True, True),
    "header-rows": ("# levyspec sample\nindex,value\nunit,x\n0,1.0\n1,2.5\n", False, True, True),
    "comments-before": ("# a\n#b,c,d\n\n0.5\n1.5\n", False, True, True),
    "comment-after-data": ("0.5\n# note\n1.5\n", False, True, False),
    "comment-at-end": ("value\n0.5\n1.5\n# done\n", False, True, False),
    "indented-comment-after-data": ("0.5\n \t# note\n1.5\n", False, True, False),
    # a # line that the C scan refuses before it sees the # goes to the loop
    "comment-two-commas": ("0.5\n# a,b,c\n1.5\n", False, False, False),
    "comment-control-byte": ("0.5\n# a\x01b\n1.5\n", False, False, False),
    "comment-non-ascii": ("0.5\n# caf\u00e9\n1.5\n", False, False, False),
    "blank-lines": ("\n\nvalue\n\n0.5\n\n1.5\n\n", False, True, True),
    "whitespace-line": ("0.5\n   \n1.5\n", False, True, False),
    "crlf": ("index,value\r\n0,0.5\r\n1,1.5\r\n", False, True, True),
    "cr": ("# c\r\rindex,value\r0,0.5\r1,1.5\r", False, True, True),
    "one-column": ("0.5\n-1.5\n", False, True, True),
    "two-columns": ("0,0.5\n1,-1.5\n", False, True, True),
    "one-then-two-columns": ("0.5\n1,1.5\n", False, True, False),
    "text-first-column": ("a,0.5\nb,1.5\n", False, True, False),
    "ragged": ("0,1.5\n1,2.5,3\n2,4\n", False, False, False),
    "three-columns": ("0,1.5,2.0\n", False, False, False),
    "three-column-header": ("a,b,c\n1.5\n", False, False, False),
    "header-only": ("index,value\n", False, False, False),
    "empty": ("", False, False, False),
    "comments-only": ("# a\n\n# b\n", False, False, False),
    "header-after-data": ("value\n0.5\nvalue\n", False, False, False),
    "difference-1-row": ("value\n1.5\n", True, True, True),
    "difference-2-rows": ("value\n1.5\n4.0\n", True, True, True),
    "difference-2-columns": ("index,level\n0,1.5\n1,4.0\n2,3.0\n", True, True, True),
    "signed-zero-subnormal": (
        "-0.0\n5e-324\n1e-400\n-1.7976931348623157e308\n", False, True, True),
    "token-1_000": (tokens_file("1_000"), False, False, False),
    "token-1_000-first": ("value\n1_000\n0.5\n", False, False, False),
    "token-space-inf": (tokens_file(" inf"), False, False, False),
    "token-1e400": (tokens_file("1e400"), False, False, False),
    "token-nan": (tokens_file("nan"), False, False, False),
    "token-nan-first": ("value\nnan\n0.5\n", False, False, False),
    "token-1e": (tokens_file("1e"), False, False, False),
    "token-plus-minus": (tokens_file("+-1"), False, False, False),
    "token-hex": (tokens_file("0x1p3"), False, False, False),
    "token-trailing-comment": (tokens_file("1.0 # c"), False, False, False),
    "token-fullwidth-digit": (tokens_file("１"), False, False, False),
    "token-padded": (tokens_file("  1.25\t"), False, True, True),
    "token-unit-separator": (tokens_file("0\x1f"), False, False, False),
    "file-separator-header": ("value\n\x1c1.5\n0.5\n", False, True, False),
    "separator-line": ("value\n0.5\n\x1e\n1.5\n", False, False, False),
    "token-nbsp": (tokens_file("1.25\xa0"), False, False, True),
    "lone-cr-in-data": ("value\r0.5\r1.5\n2.5\r\n", False, True, True),
    "nul-byte": ("value\n0.5\n1\x00.5\n", False, False, False),
    "nul-byte-first-column": ("value\n0,0.5\n\x00,1.5\n", False, False, False),
    "no-trailing-newline": ("value\n0.5\n1.5", False, True, True),
    "400-digit-cell": ("value\n9007199254740993." + "0" * 383 + "1\n", False, True, True),
    "two-cells-after-data": ("value\n0.5\n1,2\n", False, True, False),
    # a UTF-8 byte-order mark, as spreadsheets' "CSV UTF-8" writes, is not part of the data
    "bom-number": ("\ufeff1.5\n2.5\n", False, False, False),
    "bom-header": ("\ufeffvalue\n1.5\n2.5\n", False, True, True),
}


@pytest.mark.parametrize("text, difference, c_reader, loadtxt", CASES.values(),
                         ids=CASES.keys())
def test_reader_matches_loop(text, difference, c_reader, loadtxt, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_as_loop(path, difference)
    taken = c_reader if levyspec._native.library() is not None else loadtxt
    assert (_read_values_fast(str(path)) is not None) == taken


@pytest.mark.parametrize("text, difference, loadtxt", [
    (text, difference, loadtxt) for text, difference, _, loadtxt in CASES.values()],
    ids=CASES.keys())
def test_reader_without_kernels_matches_loop(text, difference, loadtxt, tmp_path, monkeypatch):
    # np.loadtxt is the fast path then; the outcome must still be the loop's
    monkeypatch.setattr(levyspec._native, "library", lambda: None)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_as_loop(path, difference)
    assert (_read_values_fast(str(path)) is not None) == loadtxt


def test_a_byte_order_mark_does_not_hide_the_first_value(tmp_path):
    # float("\ufeff1.5") fails, so a mark read as text made the first number a header
    path = tmp_path / "data.csv"
    path.write_bytes("\ufeff1.5\n2.5\n".encode("utf-8"))
    assert read_values_csv(str(path)).tolist() == [1.5, 2.5]


SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


def parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("space", SPACES, ids=[f"U+{ord(c):04X}" for c in SPACES])
def test_rows_read_with_the_whitespace_float_strips(space, tmp_path):
    # The line's strip characters must be float()'s whitespace: all of str.isspace()
    # but the ASCII separators \x1c-\x1f, which float() rejects around a number.
    # The one-cell row, the # line and the blank line after the data see the strip
    # itself; the cell of the two-cell row is left for float() to strip.
    path = tmp_path / "data.csv"
    path.write_bytes(f"0,{space}1.5{space}\n{space}2.5{space}\n{space}#{space}\n{space}\n"
                     .encode("utf-8"))
    want = assert_same_as_loop(path)
    assert len(SPACES) == 29
    if parses(space + "1" + space):
        assert want.tolist() == [1.5, 2.5]
    else:
        assert "\x1c" <= space <= "\x1f"
        assert want == f"{path}: no numeric rows found"


PREAMBLE_LINES = ["", "   ", "# levyspec 0.1.0 sample", "#", "# a,b,c", "value",
                  "index,value", "x,y", " # indented"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=40),
       columns=st.sampled_from([1, 2]),
       fmt=st.sampled_from(["{:.17g}", "{!r}"]),
       preamble=st.lists(st.sampled_from(PREAMBLE_LINES), max_size=4))
def test_reader_bit_identical_on_random_finite_doubles(values, columns, fmt, preamble,
                                                       tmp_path):
    rows = [fmt.format(v) if columns == 1 else f"{i},{fmt.format(v)}"
            for i, v in enumerate(values)]
    path = tmp_path / "random.csv"
    path.write_text("\n".join(preamble + rows) + "\n")
    assert_same_as_loop(path)
    assert _read_values_fast(str(path)) is not None
    assert read_values_csv(str(path)).tobytes() == np.array(values, dtype=float).tobytes()


def test_written_increments_take_the_c_path(tmp_path, monkeypatch):
    # A silent fall-back to the loop would keep every result and lose the speed.
    def refuse(*args, **kwargs):
        raise AssertionError("the per-line loop parsed a file the C path should take")

    monkeypatch.setattr(levyspec.cli, "_read_values_loop", refuse)
    values = np.random.default_rng(5).standard_cauchy(1000)
    path = tmp_path / "inc.csv"
    write_increments_csv(IncrementSample(values), path,
                         ["levyspec 0.1.0 sample", "seed=5"])
    assert read_values_csv(str(path)).tobytes() == values.tobytes()
    assert read_values_csv(str(path), difference=True).tobytes() == np.diff(values).tobytes()


def test_written_increments_take_loadtxt_without_kernels(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the per-line loop parsed a file np.loadtxt should take")

    monkeypatch.setattr(levyspec._native, "library", lambda: None)
    monkeypatch.setattr(levyspec.cli, "_read_values_loop", refuse)
    values = np.random.default_rng(5).standard_cauchy(1000)
    path = tmp_path / "inc.csv"
    write_increments_csv(IncrementSample(values), path,
                         ["levyspec 0.1.0 sample", "seed=5"])
    assert read_values_csv(str(path)).tobytes() == values.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once():
    # `--data <(cat file)` names a pipe: opening it a second time would find it drained.
    values = np.random.default_rng(6).standard_cauchy(2000)
    text = "index,value\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(values))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode())  # under the 64 KiB pipe buffer
        os.close(write_end)
        assert read_values_csv(f"/dev/fd/{read_end}").tobytes() == values.tobytes()
    finally:
        os.close(read_end)


# ---------------------------------------------------------------------------
# decimal conversion: the C reader rounds by Eisel-Lemire and leaves cells of more
# than 19 significant digits to strtod; every cell must still be float()'s double

def read_cells(cells, tmp_path):
    """read_values_csv of a file of the cells under a header, and whether the fast
    path took it."""
    path = tmp_path / "cells.csv"
    path.write_text("value\n" + "\n".join(cells) + "\n")
    return read_values_csv(str(path)), _read_values_fast(str(path)) is not None


@st.composite
def decimals(draw):
    """[+-]digits[.digits][(e|E)[+-]digits]: 1-25 digits, leading zeros, the point
    between any two digits, exponents within +-400."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits) - 1))
    cell = draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 3)) + (
        digits[:point] + "." + digits[point:] if point else digits)
    if draw(st.booleans()):
        cell += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + \
            "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, 400)))
    return cell


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=st.lists(decimals(), min_size=1, max_size=30))
def test_every_decimal_cell_is_the_double_of_float(cells, tmp_path):
    want = [float(cell) for cell in cells]
    if not all(math.isfinite(v) for v in want):
        # a cell past the largest double reaches the line loop, which names its line
        line = next(i for i, v in enumerate(want) if not math.isfinite(v)) + 2
        with pytest.raises(ValueError, match=f":{line}: non-finite cell "):
            read_cells(cells, tmp_path)
        return
    got, fast = read_cells(cells, tmp_path)
    assert got.tobytes() == np.array(want).tobytes()
    assert fast


# (cell, whether the C reader takes it, whether the loop reads it): each way out
# of the C grammar's one walk, and cells just inside it
WALK_EXITS = [("1.5e-07", True, True), ("2.5E3", True, True), ("-0.0e0", True, True),
              ("1.:5", False, False), ("1.5:", False, False),
              ("1E+07", True, True), ("00.5e0", True, True),
              (".5", False, True), ("+.5", False, True), ("-.5e1", False, True),
              ("5.", False, True), ("0.", False, True), ("1.e5", False, True),
              ("1e+", False, False), ("1e-", False, False), ("1.5e", False, False),
              ("+", False, False), ("-", False, False), ("--1", False, False),
              ("1.5e+-3", False, False), ("1e5.", False, False)]


@pytest.mark.parametrize("cell, fast, reads", WALK_EXITS,
                         ids=[f"{cell}-{fast}" for cell, fast, _ in WALK_EXITS])
def test_one_fraction_digit_before_an_exponent_or_a_stray_byte(cell, fast, reads, tmp_path):
    # the grammar reads the byte after the point once: a cell like 1.5e-07 is a
    # plain decimal, and 1.:5 is not one, whatever follows its stray byte
    path = tmp_path / "data.csv"
    path.write_text(tokens_file(cell))
    assert isinstance(assert_same_as_loop(path), np.ndarray) == reads
    # without the kernels np.loadtxt reads the body: it takes each of these cells float() reads
    taken = fast if levyspec._native.library() is not None else reads
    assert (_read_values_fast(str(path)) is not None) == taken


HARD_CELLS = [
    # exact halfways between adjacent doubles, which round to the even one
    "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
    "18014398509481986", "18014398509481990", "1.8014398509481986e16",
    "1152921504606847104", "1152921504606847360", "9.007199254740993000e15",
    # just off a halfway, at 19 digits, and at 20 (left to strtod)
    "9007199254740992.999", "9007199254740993.001", "9007199254740993.0001",
    "1152921504606847103.9",
    # 2^53 - 1 and 2^53, and the largest 19-digit integer
    "9007199254740991", "9007199254740992", "9999999999999999999",
    # the smallest subnormal, the halfway below it on both sides, the largest
    # subnormal and the least normal
    "4.9406564584124654e-324", "5e-324", "2.4703282292062328e-324",
    "2.4703282292062327e-324", "2.2250738585072009e-308", "2.2250738585072011e-308",
    "2.2250738585072014e-308",
    # the largest normal, and just below the halfway to 2^1024
    "1.7976931348623157e308", "1.7976931348623158e308", "-1.7976931348623157e308",
    # signed zeros, far exponents, many zeros
    "-0.0", "-0", "+0.000", "0e999999", "-0e-999999", "1e-400", "-1e-343", "1e-342",
    "1e308", "0.000000000000000000000000000000001", "0000000000000000000000001.5",
    "1.00000000000000011102230246251565404236316680908203125",
]


def test_hard_cells_are_the_doubles_of_float(tmp_path):
    got, fast = read_cells(HARD_CELLS, tmp_path)
    assert got.tobytes() == np.array([float(c) for c in HARD_CELLS]).tobytes()
    assert fast
    assert math.copysign(1.0, got[HARD_CELLS.index("-0.0")]) == -1.0


@pytest.mark.parametrize("cell", ["1.7976931348623159e308", "-1.8e308", "1e309",
                                  "179769313486231581e291"])
def test_a_cell_that_rounds_to_infinity_is_named_by_its_line(cell, tmp_path):
    with pytest.raises(ValueError, match=f":3: non-finite cell {re.escape(repr(cell))}$"):
        read_cells(["0.5", cell, "1.5"], tmp_path)


def test_100000_formatted_doubles_are_those_of_float(tmp_path):
    # %.17g, %.15g and %.6e of doubles with random bits, a fifth of them subnormal
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 63, 100_000, dtype=np.uint64)
    bits[::5] &= np.uint64(2 ** 52 - 1)  # a zero exponent field: subnormal
    values = bits.view(float)
    values = np.where(np.isfinite(values), values, 1.0)
    values[1::2] *= -1
    formats = ["{:.17g}", "{:.15g}", "{:.6e}"]
    cells = [formats[i % 3].format(v) for i, v in enumerate(values)]
    got, fast = read_cells(cells, tmp_path)
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()
    assert fast
