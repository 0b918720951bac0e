"""read_values_csv against the per-line loop that defines the CSV format.

Every file must give the same outcome from both readers: bit-equal arrays, or
a ValueError with the same text.  The loop is the oracle; the reader may only
differ from it in speed.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import levyspec.cli
from levyspec import IncrementSample
from levyspec.cli import _read_values_fast, _read_values_loop, read_values_csv
from levyspec.sampling import write_increments_csv


def outcome(reader, path, difference):
    try:
        return reader(str(path), difference=difference)
    except ValueError as exc:
        return str(exc)


def assert_same_as_loop(path, difference=False):
    got = outcome(read_values_csv, path, difference)
    want = outcome(_read_values_loop, path, difference)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    return want


def tokens_file(token):
    return f"index,value\n0,0.5\n1,{token}\n2,2.5\n"


# (file text, --difference, whether the C reader accepts the file)
CASES = {
    "header": ("value\n1.0\n2.5\n", False, True),
    "header-rows": ("# levyspec sample\nindex,value\nunit,x\n0,1.0\n1,2.5\n", False, True),
    "comments-before": ("# a\n#b,c,d\n\n0.5\n1.5\n", False, True),
    "comment-after-data": ("0.5\n# note\n1.5\n", False, False),
    "comment-at-end": ("value\n0.5\n1.5\n# done\n", False, False),
    "blank-lines": ("\n\nvalue\n\n0.5\n\n1.5\n\n", False, True),
    "whitespace-line": ("0.5\n   \n1.5\n", False, False),
    "crlf": ("index,value\r\n0,0.5\r\n1,1.5\r\n", False, True),
    "cr": ("# c\r\rindex,value\r0,0.5\r1,1.5\r", False, True),
    "one-column": ("0.5\n-1.5\n", False, True),
    "two-columns": ("0,0.5\n1,-1.5\n", False, True),
    "one-then-two-columns": ("0.5\n1,1.5\n", False, False),
    "text-first-column": ("a,0.5\nb,1.5\n", False, False),
    "ragged": ("0,1.5\n1,2.5,3\n2,4\n", False, False),
    "three-columns": ("0,1.5,2.0\n", False, False),
    "three-column-header": ("a,b,c\n1.5\n", False, False),
    "header-only": ("index,value\n", False, False),
    "empty": ("", False, False),
    "comments-only": ("# a\n\n# b\n", False, False),
    "header-after-data": ("value\n0.5\nvalue\n", False, False),
    "difference-1-row": ("value\n1.5\n", True, True),
    "difference-2-rows": ("value\n1.5\n4.0\n", True, True),
    "difference-2-columns": ("index,level\n0,1.5\n1,4.0\n2,3.0\n", True, True),
    "signed-zero-subnormal": ("-0.0\n5e-324\n1e-400\n-1.7976931348623157e308\n", False, True),
    "token-1_000": (tokens_file("1_000"), False, False),
    "token-1_000-first": ("value\n1_000\n0.5\n", False, False),
    "token-space-inf": (tokens_file(" inf"), False, False),
    "token-1e400": (tokens_file("1e400"), False, False),
    "token-nan": (tokens_file("nan"), False, False),
    "token-nan-first": ("value\nnan\n0.5\n", False, False),
    "token-1e": (tokens_file("1e"), False, False),
    "token-plus-minus": (tokens_file("+-1"), False, False),
    "token-hex": (tokens_file("0x1p3"), False, False),
    "token-trailing-comment": (tokens_file("1.0 # c"), False, False),
    "token-fullwidth-digit": (tokens_file("１"), False, False),
    "token-padded": (tokens_file("  1.25\t"), False, True),
}


@pytest.mark.parametrize("text, difference, fast", CASES.values(), ids=CASES.keys())
def test_reader_matches_loop(text, difference, fast, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_as_loop(path, difference)
    assert (_read_values_fast(str(path)) is not None) == fast


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
    write_increments_csv(IncrementSample(1.0, values, values.size), path,
                         ["levyspec 0.1.0 sample", "seed=5"])
    assert read_values_csv(str(path)).tobytes() == values.tobytes()
    assert read_values_csv(str(path), difference=True).tobytes() == np.diff(values).tobytes()


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
