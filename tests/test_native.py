"""The C kernels of ``_kernels.c`` against their Python definitions.

The moment pass must give the bytes of ``_bin_moments_numpy``, the ECF's
contraction those of ``_ecf_contract_numpy``, the CSV reader those of
the per-line loop and the CSV writer those of Python's ``%``; with no
kernels the moment pass and the contraction fall back to their numpy
definitions, the reader to ``np.loadtxt`` and the writer to ``%``, with the
same bytes.  Where a C compiler is on PATH the kernels must load, so that a
silent fall-back cannot pass.
"""

import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from unittest import mock
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyspec import (ECFGrid, IncrementSample, SpectralEstimate, UGrid, _csvio, _native, ecf,
                      write_ecf_csv, write_estimate_csv, write_increments_csv)
from levyspec._csvio import read_values_csv, write_rows
from levyspec.calibration import write_chi_csv
from levyspec.estimator import (_ECF_CHUNK, _TERMS, _bin_moments, _bin_moments_numpy,
                                _ecf_bins, _ecf_contract_numpy, _ecf_half, _ecf_weights)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def kernels():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH: the Python definitions run")
    lib = _native.library()
    assert lib is not None, "a C compiler is on PATH but the kernels did not load"
    return lib


def _fast(path):
    """What read_values_csv's fast reader gives for ``path`` from its first numeric row."""
    with open(path, encoding="utf-8-sig") as fh:
        lineno, _ = next(_csvio._data_rows(fh, str(path)))
    return _csvio._read_values_fast(str(path), lineno)


def _loop(path):
    """read_values_csv with its fast path off: the per-line loop's values."""
    with mock.patch.object(_csvio, "_read_values_fast", lambda path, lineno: None):
        return read_values_csv(str(path))


def test_kernels_load_where_a_compiler_is_on_path(kernels):
    assert Path(kernels._name).name.startswith("kernels-")


def _sample(kind, n, rng):
    if kind == "cauchy":
        return rng.standard_cauchy(n)
    if kind == "narrow":
        return rng.normal(0.0, 1e-3, n)
    if kind == "tied":
        return np.full(n, 0.3)
    if kind == "huge":
        return rng.standard_cauchy(n) * 1e300
    if kind == "signed-zero":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "subnormal":
        return rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
    if kind == "past-clip":  # q past 2^1000 and overflowing to inf, mixed with the bulk
        return np.where(rng.random(n) < 0.3, np.sign(rng.random(n) - 0.5) * 2.0 ** 1023,
                        rng.standard_cauchy(n))
    if kind == "half-integers":  # q on the rint ties
        return rng.integers(-50, 50, n) + 0.5
    raise ValueError(kind)


KINDS = ["cauchy", "narrow", "tied", "huge", "signed-zero", "subnormal", "past-clip",
         "half-integers"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("count", [160, 200, 1000, 4000])
def test_c_moments_are_the_bytes_of_the_numpy_pass(kernels, count, kind):
    rng = np.random.default_rng(count)
    size = _ecf_bins(count)
    for n in (1, 2, 7, 8, 9, 129, 500, 16384, 16385, 40000):
        values = _sample(kind, n, rng)
        # the step of the tie case puts q = x exactly on the half-integers
        step = 2.0 * np.pi / size if kind == "half-integers" else 0.1
        scale = step * size / (2.0 * np.pi)
        want = _bin_moments_numpy(values, size, scale)
        got = _native.bin_moments(values, size, scale, _TERMS, _ECF_CHUNK)
        assert got.tobytes() == want.tobytes(), (n, kind)


def test_c_moments_at_200000_samples(kernels):
    values = np.random.default_rng(2).standard_cauchy(200_000)
    size = _ecf_bins(200)
    scale = 0.1 * size / (2.0 * np.pi)
    assert _bin_moments(values, size, scale).tobytes() == \
        _bin_moments_numpy(values, size, scale).tobytes()


def test_c_moments_of_a_strided_view(kernels):
    values = np.random.default_rng(3).standard_cauchy(3001)[::3]
    size = _ecf_bins(200)
    assert _bin_moments(values, size, 4.0).tobytes() == \
        _bin_moments_numpy(values, size, 4.0).tobytes()


@pytest.mark.parametrize("kind", ["cauchy", "tied", "signed-zero", "huge"])
@pytest.mark.parametrize("count", [1, 3, 63, 160, 200, 255, 256, 1000, 4000])
def test_c_contraction_is_the_bytes_of_the_numpy_definition(kernels, monkeypatch, count,
                                                            kind):
    # counts below size / 2 read only conjugated bins, counts past it mirrored ones too
    rng = np.random.default_rng(count)
    size, step = _ecf_bins(count), 0.1
    weights = _ecf_weights(count, size)
    samples = [_sample(kind, n, rng) for n in (1, 2, 500, 10_000)]
    grid = UGrid(count * step, step)
    native = [_ecf_half(values, count, step).tobytes() for values in samples]
    for values, got in zip(samples, native):
        moments = _bin_moments(values, size, step * size / (2.0 * np.pi))
        spectrum = np.fft.rfft(moments, axis=1)
        want = _ecf_contract_numpy(spectrum, weights, size, values.size).tobytes()
        assert _native.ecf_contract(spectrum, weights, size, values.size).tobytes() == want
        assert got == want, (values.size, kind)
        if kind == "huge":  # eps * u_max * mean|x| is far past 1/sqrt(n): ecf refuses it
            with pytest.raises(ArithmeticError, match="the ECF is rounding noise"):
                ecf(IncrementSample(values), grid)
        else:
            assert ecf(IncrementSample(values), grid).values.tobytes() == got
    monkeypatch.setattr(_native, "library", lambda: None)
    assert [_ecf_half(values, count, step).tobytes() for values in samples] == native


def test_warm_ecf_allocates_no_full_size_complex_temporaries(kernels):
    # The moments, their rFFT rows and the output are the arrays an ECF needs; with
    # the numpy contraction's (P, K + 1) complex terms and their copies the peak is
    # 889 KiB at this size, 2.1 times this bound.
    count, n = 1000, 10_000
    size = _ecf_bins(count)
    bound = _TERMS * size * 8 + _TERMS * (size // 2 + 1) * 16 + (2 * count + 1) * 16
    sample, grid = IncrementSample(np.random.default_rng(7).standard_cauchy(n)), UGrid(100.0, 0.1)
    assert grid.half_count == count
    ecf(sample, grid)  # fills the weight cache
    tracemalloc.start()
    try:
        ecf(sample, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_without_kernels_the_ecf_and_the_reader_give_the_same_bytes(tmp_path, monkeypatch):
    values = np.random.default_rng(4).standard_cauchy(20_000)
    path = tmp_path / "inc.csv"
    path.write_text("# levyspec\nindex,value\n"
                    + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values)))
    grids = [UGrid(10.0, 0.05), UGrid(100.0, 0.1)]
    sample = IncrementSample(values)
    native = [ecf(sample, g).values.tobytes() for g in grids]
    native_csv = read_values_csv(str(path)).tobytes()
    monkeypatch.setattr(_native, "library", lambda: None)
    assert _fast(path).tobytes() == values.tobytes()  # by np.loadtxt
    assert [ecf(sample, g).values.tobytes() for g in grids] == native
    assert read_values_csv(str(path)).tobytes() == native_csv == values.tobytes()


def _mixed_endings(values, rng):
    endings = rng.choice(["\n", "\r", "\r\n", "\n\n", " \t\r\n"], len(values))
    return "".join(f"{float(v)!r}{e}" for v, e in zip(values, endings))


def test_reader_across_its_buffer_with_mixed_line_endings(kernels, tmp_path):
    # a 100 KB preamble is skipped over two buffers, and 40000 rows of mixed
    # endings put \r\n pairs across buffer edges
    rng = np.random.default_rng(5)
    values = rng.standard_cauchy(40_000)
    preamble = "".join(f"# {'x' * int(k)}\r\n" if k % 2 else f"#{'y' * int(k)}\r"
                       for k in rng.integers(0, 200, 1000))
    path = tmp_path / "mixed.csv"
    path.write_bytes((preamble + "value\r\n" + _mixed_endings(values, rng)).encode())
    assert _fast(path).tobytes() == values.tobytes()
    assert _loop(path).tobytes() == values.tobytes()


def test_reader_leaves_a_line_longer_than_its_buffer_to_the_loop(kernels, tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("value\n0.5\n1." + "5" * 70_000 + "\n2.5\n")
    assert _fast(path) is None
    assert read_values_csv(str(path)).tobytes() == _loop(path).tobytes()


@pytest.mark.parametrize("head", ["", "# c\n"], ids=["bare", "comment"])
def test_a_leading_byte_order_mark_takes_the_fast_readers(head, tmp_path, monkeypatch):
    # each fast reader takes the file and gives the loop's bytes
    values = np.random.default_rng(9).standard_cauchy(2000)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (head + "".join(f"{v!r}\n" for v in values.tolist()))
                     .encode())
    assert _loop(path).tobytes() == values.tobytes()
    if shutil.which("cc") is not None:  # the C reader
        assert _native.library() is not None
        assert _fast(path).tobytes() == values.tobytes()
    monkeypatch.setattr(_native, "library", lambda: None)  # np.loadtxt
    assert _fast(path).tobytes() == values.tobytes()


def _python(code: str, cache: Path, **env):
    return subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache), **env})


CHECK_KERNELS = """
import numpy as np
from levyspec import _native
from levyspec.estimator import _bin_moments_numpy
lib = _native.library()
values = np.random.default_rng(6).standard_cauchy(5000)
got = _native.bin_moments(values, 256, 4.0, 24, 16384)
assert got.tobytes() == _bin_moments_numpy(values, 256, 4.0).tobytes()
print(lib._name)
"""


def test_two_processes_building_into_one_empty_cache_both_load(kernels, tmp_path):
    procs = [_python(CHECK_KERNELS, tmp_path) for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert Path(out.strip()).parent == tmp_path / "levyspec"
    assert [p.suffix for p in (tmp_path / "levyspec").iterdir()] == [".so"]


CHECK_NO_CACHE = """
import numpy as np
from levyspec import IncrementSample, UGrid, _native, ecf
assert _native.library() is None
sample = IncrementSample(np.random.default_rng(8).standard_cauchy(5000))
print(ecf(sample, UGrid(10.0, 0.05)).values.tobytes().hex())
"""


def test_a_cache_that_cannot_be_made_runs_no_compiler_and_gives_numpys_bytes(tmp_path,
                                                                             monkeypatch):
    # XDG_CACHE_HOME names a regular file, so its levyspec directory cannot be
    # made: library() is None before any compiler runs, and the numpy definitions
    # run.  The cc on PATH only marks that it ran
    blocker = tmp_path / "cache-file"
    blocker.write_bytes(b"blocks")
    tools, ran = tmp_path / "bin", tmp_path / "cc-ran"
    tools.mkdir()
    (tools / "cc").write_text(f"#!/bin/sh\n: > '{ran}'\nexit 1\n")
    (tools / "cc").chmod(0o755)
    out, err = _python(CHECK_NO_CACHE, blocker,
                       PATH=f"{tools}{os.pathsep}{os.environ['PATH']}").communicate(timeout=120)
    assert err == ""
    assert not ran.exists()
    assert blocker.read_bytes() == b"blocks"
    monkeypatch.setattr(_native, "library", lambda: None)
    sample = IncrementSample(np.random.default_rng(8).standard_cauchy(5000))
    assert bytes.fromhex(out.strip()) == ecf(sample, UGrid(10.0, 0.05)).values.tobytes()


def test_without_a_compiler_library_is_none_and_the_ecf_runs(tmp_path):
    code = ("import numpy as np\n"
            "from levyspec import _native, ecf, IncrementSample, UGrid\n"
            "assert _native.library() is None\n"
            "print(ecf(IncrementSample(np.arange(5.0)), UGrid(10.0, 0.05)).values[1])\n")
    out, err = _python(code, tmp_path, PATH="").communicate(timeout=120)
    assert err == ""
    assert complex(out) == ecf(IncrementSample(np.arange(5.0)), UGrid(10.0, 0.05)).values[1]
    assert not (tmp_path / "levyspec").exists()


def test_reader_counts_a_crlf_across_its_buffer_edge_as_one_line(kernels, tmp_path):
    # the \r of the first line is the last byte of the first 65536-byte read
    path = tmp_path / "edge.csv"
    path.write_bytes(b"#" + b"x" * 65534 + b"\r\nvalue\n1.5\n2.5\n")
    assert _fast(path).tobytes() == np.array([1.5, 2.5]).tobytes()


KERNELS = Path(_native.__file__).with_name("_kernels.c")


def test_kernels_compile_without_a_warning():
    # CI's compile check, so a warning fails here too
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    proc = subprocess.run(["cc", "-std=c99", "-pedantic", "-O3", "-ffp-contract=off", "-Wall",
                           "-Wextra", "-Werror", "-fsyntax-only", str(KERNELS)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TILE = int(re.search(r"#define TILE (\d+)", KERNELS.read_text()).group(1))


def _binned(counts, rng, size=1024):
    """Values at scale 1 whose bins, from -size / 2 on, hold the counts in turn,
    in a shuffled order; q = x, so each bin is rint(x) mod size."""
    bins = np.repeat(np.arange(len(counts)) - size // 2, counts)
    return rng.permutation(bins + rng.uniform(-0.45, 0.45, bins.size))


def _tile_edge_cases():
    """Inputs whose runs fall on the edges of the C pass: the serial sums of up to 8
    values, pairwise's 8-wide and 128-value leaves, tiles of whole bins filled to
    TILE - 1, TILE and TILE + 1, one bin of three tiles, and a bin whose samples
    cross the edge between two chunks."""
    rng = np.random.default_rng(28)
    chunk_edge = np.concatenate([rng.uniform(-500.0, 500.0, _ECF_CHUNK - 6000),
                                 np.full(20_000, 7.25), rng.uniform(-500.0, 500.0, 3000)])
    return {
        "runs-1-9": _binned(list(range(1, 10)) * 20, rng),
        "runs-127-130": _binned([127, 128, 129, 130] * 3, rng),
        "tile-edges": _binned([TILE - 1, 1, TILE, TILE + 1, 1, TILE - 1, 2, TILE - 2, 1], rng),
        "three-tiles": _binned([3, 3 * TILE, 3], rng),
        "mixed": _binned(rng.integers(1, 300, 200), rng),
        "chunk-edge": chunk_edge,
    }


@pytest.mark.parametrize("case", sorted(_tile_edge_cases()))
def test_c_moments_at_the_edges_of_tiles_and_runs(kernels, case):
    values = _tile_edge_cases()[case]
    for size in (256, 1024):
        assert _native.bin_moments(values, size, 1.0, _TERMS, _ECF_CHUNK).tobytes() == \
            _bin_moments_numpy(values, size, 1.0).tobytes(), (case, size)


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 23])
def test_c_moments_of_fewer_terms_are_the_leading_rows(kernels, terms):
    # an odd count ends on a single-term sweep
    values = _tile_edge_cases()["mixed"]
    want = _bin_moments_numpy(values, 1024, 1.0)[:terms]
    assert _native.bin_moments(values, 1024, 1.0, terms, _ECF_CHUNK).tobytes() == want.tobytes()


def test_c_moments_refuse_a_bin_count_that_is_no_power_of_two(kernels):
    # m * (1 / size) is m / size exactly only for a power of 2
    assert _native.bin_moments(np.arange(10.0), 48, 1.0, _TERMS, _ECF_CHUNK) is None


def test_c_moments_of_read_only_and_sliced_samples(kernels):
    values = _tile_edge_cases()["mixed"]
    frozen = values.copy()
    frozen.flags.writeable = False
    want = _bin_moments_numpy(values, 1024, 1.0).tobytes()
    assert _bin_moments(frozen, 1024, 1.0).tobytes() == want
    assert _bin_moments(values[:0], 1024, 1.0).tobytes() == np.zeros((_TERMS, 1024)).tobytes()
    assert _bin_moments(values[7:], 1024, 1.0).tobytes() == \
        _bin_moments_numpy(values[7:], 1024, 1.0).tobytes()


def test_a_read_only_table_keeps_its_address_until_it_is_freed(kernels):
    table = np.arange(6.0)
    table.flags.writeable = False
    key = id(table)
    assert _native._table_address(table) == table.ctypes.data
    assert _native._TABLE_ADDRESSES[key] == table.ctypes.data
    del table
    assert key not in _native._TABLE_ADDRESSES


CHECK_BUILD = """
import sys
import numpy as np
from levyspec import _native
from levyspec.estimator import (_ECF_CHUNK, _TERMS, _bin_moments_numpy, _ecf_contract_numpy,
                                _ecf_weights)
lib = _native._load(sys.argv[1])
_native.library = lambda: lib
cells = np.load(sys.argv[3])
for name in cells.files:
    values = cells[name]
    ints = np.arange(values.size, dtype=np.int64) * 1_000_003 - 2 ** 62
    got = _native.format_rows([ints, values])
    assert got == "".join("%d,%.17g\\n" % row for row in zip(ints.tolist(), values.tolist())), name
cases = np.load(sys.argv[2])
for name in cases.files:
    values = cases[name]
    for size in (256, 1024):
        moments = _bin_moments_numpy(values, size, 1.0)
        got = _native.bin_moments(values, size, 1.0, _TERMS, _ECF_CHUNK)
        assert got.tobytes() == moments.tobytes(), ("moments", name, size)
        spectrum = np.fft.rfft(moments, axis=1)
        for count in (1, size // 2 - 1, size // 2, size - 1):
            weights = _ecf_weights(count, size)
            got = _native.ecf_contract(spectrum, weights, size, values.size)
            want = _ecf_contract_numpy(spectrum, weights, size, values.size)
            assert got.tobytes() == want.tobytes(), ("contraction", name, size, count)
print(len(cases.files))
"""


@pytest.mark.parametrize("flags", [["-O0"], ["-O1", "-fsanitize=undefined",
                                             "-fno-sanitize-recover=all"]],
                         ids=["O0", "O1-ubsan"])
def test_other_builds_of_the_kernels_give_the_bytes_of_numpy(flags, tmp_path):
    # a wrong restrict, or undefined behaviour that only -O3 exploits, shows as a
    # difference between builds; UBSan aborts the child on the first fault.  The
    # writer's cells are checked against Python's % in the same child
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    library = tmp_path / "kernels.so"
    proc = subprocess.run(["cc", *flags, "-ffp-contract=off", "-fPIC", "-shared", "-o",
                           str(library), str(KERNELS), "-lm"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 and "ubsan" in proc.stderr:
        pytest.skip(f"cc cannot link the UBSan runtime: {proc.stderr.strip()[-200:]}")
    assert proc.returncode == 0, proc.stderr
    np.savez(tmp_path / "cases.npz", **_tile_edge_cases())
    np.savez(tmp_path / "cells.npz", **{name: _decided(values)
                                        for name, values in _writer_families().items()})
    out, err = subprocess.Popen(
        [sys.executable, "-c", CHECK_BUILD, str(library), str(tmp_path / "cases.npz"),
         str(tmp_path / "cells.npz")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}).communicate(timeout=300)
    assert err == "" and out.strip() == str(len(_tile_edge_cases())), err


def _writer_families() -> dict:
    """Doubles of each kind the CSV writer meets, by name: random bit patterns,
    Cauchy and normal draws, subnormals, every power of two, the powers of ten and
    their neighbours (13 of which round up to the next power at the 17th digit),
    and ties at the 17th digit, m 2^-k of exactly 18 significant digits."""
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tied = np.ldexp(rng.integers(2 ** 52, 2 ** 53, 40_000).astype(float),
                    -rng.integers(1, 25, 40_000))
    ties = [v for v in tied.tolist() if len(Decimal(v).normalize().as_tuple().digits) == 18]
    signs = np.where(rng.random(len(ties)) < 0.5, -1.0, 1.0)
    return {
        "bits": bits[np.isfinite(bits)],
        "cauchy": rng.standard_cauchy(20_000),
        "normal": rng.standard_normal(20_000),
        "subnormal": rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64),
        "two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "ten": np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]),
        "tie": np.array(ties) * signs,
        "zero": np.array([0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17, -1e17, 123456789012345678.0]),
    }


def _decided(values: np.ndarray) -> np.ndarray:
    """The values the C writer decides itself: 0 and the finite ones of magnitude
    at least 1e-291, whose 10^s lies in the table."""
    return values[(values == 0) | (np.abs(values) >= 1e-291) & np.isfinite(values)]


def _percent(row_format: str, *columns) -> str:
    """The rows of ``row_format`` over the columns by Python's ``%``: the definition."""
    return "".join(row_format % row for row in zip(*(np.asarray(c).tolist() for c in columns)))


@pytest.mark.parametrize("family", sorted(_writer_families()))
def test_c_writer_gives_the_bytes_of_percent_on_each_family(kernels, family):
    values = _writer_families()[family]
    if family == "tie":
        assert values.size > 500
    decided = _decided(values)
    assert decided.size == values.size or family in ("bits", "subnormal", "two", "ten")
    assert _native.format_rows([decided]) == _percent("%.17g\n", decided)
    assert _native.format_rows([-decided]) == _percent("%.17g\n", -decided)


def test_c_writer_gives_the_bytes_of_percent_on_integer_columns(kernels):
    ints = np.array([-2 ** 63, -2 ** 63 + 1, -10, -9, -1, 0, 1, 9, 10, 99, 100, 2 ** 53 + 1,
                     2 ** 63 - 1], dtype=np.int64)
    values = np.linspace(-3.0, 3.0, ints.size)
    assert _native.format_rows([ints]) == _percent("%d\n", ints)
    small = np.array([-2 ** 31, -1, 0, 2 ** 31 - 1], dtype=np.int32)
    assert _native.format_rows([small, values[:4]]) == _percent("%d,%.17g\n", small, values[:4])
    assert _native.format_rows([values, ints, ints]) == \
        _percent("%.17g,%d,%d\n", values, ints, ints)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_c_writer_gives_the_bytes_of_percent_for_any_bit_pattern(kernels, patterns):
    # a cell is left to Python only when it is not finite or too small for the table
    for value in np.array(patterns, dtype=np.uint64).view(np.float64):
        got = _native.format_rows([np.array([value])])
        if got is None:
            assert not math.isfinite(value) or 0.0 < abs(value) < 1e-291
        else:
            assert got == "%.17g\n" % value


def test_every_writer_of_the_package_gives_the_bytes_of_percent(tmp_path, monkeypatch):
    # each row format the package writes, over every family, subnormals included,
    # with the kernels where they load and then without them
    values = np.concatenate(list(_writer_families().values()))
    chis = np.arange(values.size) % 7 - 3
    grid = UGrid.make(8.192, 0.001)
    cf = values[:grid.points.size] + 1j * values[-grid.points.size:]
    writers = {
        "inc.csv": (lambda p: write_increments_csv(IncrementSample(values), p, ["a=1"]),
                    "# a=1\nindex,value\n" + _percent("%d,%.17g\n", np.arange(values.size),
                                                      values)),
        "est.csv": (lambda p: write_estimate_csv(SpectralEstimate(values, values[::-1]), p),
                    "x,f_hat\n" + _percent("%.17g,%.17g\n", values, values[::-1])),
        "ecf.csv": (lambda p: write_ecf_csv(ECFGrid(grid, cf, 1), p),
                    "u,re,im\n" + _percent("%.17g,%.17g,%.17g\n", grid.points, cf.real,
                                            cf.imag)),
        "chi.csv": (lambda p: write_chi_csv(values, chis, p),
                    "kappa,chi\n" + _percent("%.17g,%d\n", values, chis)),
    }
    for name, (write, want) in writers.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == want.encode(), name
    monkeypatch.setattr(_native, "library", lambda: None)
    for name, (write, want) in writers.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == want.encode(), name


def _undecidable_table(lib) -> np.ndarray:
    """The kernels' table with the entry of 5^-44 moved so that 2^200 lies exactly
    on a half at its 17th digit.  2^200, about 1.6e60, has s = 16 - 60 = -44, and
    the product of its significand 2^63 with the 128-bit entry leaves the entry's
    low 74 bits as the fraction of N; an entry past 5^55 is not exact, so a
    fraction of 2^73 of them must be left to Python."""
    table = lib.powers_of_ten.copy()
    lead = int(table[342 - 44, 0]) << 64 | int(table[342 - 44, 1])
    lead = lead >> 74 << 74 | 1 << 73
    table[342 - 44] = lead >> 64, lead & (2 ** 64 - 1)
    return table


@pytest.mark.parametrize("bad", ["nan", "1e-300", "undecidable"])
def test_a_block_with_a_cell_the_c_writer_leaves_is_written_by_percent(kernels, bad, tmp_path,
                                                                      monkeypatch):
    values = np.random.default_rng(34).standard_cauchy(3 * 8192 + 5)
    values[8192 + 17] = 2.0 ** 200 if bad == "undecidable" else float(bad)
    blocks = [values[i:i + 8192] for i in range(0, values.size, 8192)]
    assert _native.format_rows([np.array([2.0 ** 200])]) == "%.17g\n" % 2.0 ** 200
    if bad == "undecidable":
        monkeypatch.setattr(kernels, "powers_of_ten", _undecidable_table(kernels))
    assert [_native.format_rows([block]) is None for block in blocks] == \
        [False, True, False, False]
    write_rows(tmp_path / "rows.csv", ["m"], "i,v", np.arange(values.size), values)
    want = "# m\ni,v\n" + _percent("%d,%.17g\n", np.arange(values.size), values)
    assert (tmp_path / "rows.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("columns", [
    [np.arange(3, dtype=np.uint64)],  # an unsigned column, written as %d
    [np.arange(3, dtype=np.float32) / 3],  # a float32 column, written as %.17g
    [np.arange(3.0), np.arange(4.0)],  # columns of two lengths
], ids=["uint", "float32", "lengths"])
def test_other_columns_are_left_to_percent(kernels, columns, tmp_path):
    assert _native.format_rows(columns) is None
    if len({c.size for c in columns}) == 1:
        write_rows(tmp_path / "rows.csv", [], "h", *columns)
        row_format = "%d\n" if columns[0].dtype.kind == "u" else "%.17g\n"
        assert (tmp_path / "rows.csv").read_text() == "h\n" + _percent(row_format, *columns)


def test_columns_of_two_lengths_are_refused_before_a_file_is_made(tmp_path):
    # numpy's "attempt to assign sequence of size 4 to extended slice of size 3" left a
    # file that held only the header
    path = tmp_path / "est.csv"
    with pytest.raises(ValueError, match=r"columns of lengths \[3, 4\]"):
        write_estimate_csv(SpectralEstimate(np.arange(3.0), np.arange(4.0)), path)
    assert not path.exists()


def test_rows_written_to_a_stream_are_the_file_bytes(tmp_path):
    values = np.random.default_rng(35).standard_cauchy(3 * 8192 + 5)
    stream = io.StringIO()
    write_rows(stream, ["m"], "i,v", np.arange(values.size), values)
    write_rows(tmp_path / "rows.csv", ["m"], "i,v", np.arange(values.size), values)
    assert stream.getvalue() == (tmp_path / "rows.csv").read_text()
