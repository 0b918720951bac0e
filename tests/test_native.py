"""The C kernels of ``_kernels.c`` against their Python definitions.

The moment pass must give the bytes of ``_bin_moments_numpy``, the ECF's
contraction those of ``_ecf_contract_numpy``, and the CSV reader those of
``_read_values_loop``; with no kernels the moment pass and the contraction
fall back to their numpy definitions and the reader to ``np.loadtxt``, with
the same bytes.  Where a C compiler is on PATH the kernels must load, so that
a silent fall-back cannot pass.
"""

import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levyspec import IncrementSample, UGrid, _native, ecf
from levyspec.cli import _read_values_fast, _read_values_loop, read_values_csv
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
    assert _read_values_fast(str(path)).tobytes() == values.tobytes()  # by np.loadtxt
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
    assert _read_values_fast(str(path)).tobytes() == values.tobytes()
    assert _read_values_loop(str(path)).tobytes() == values.tobytes()


def test_reader_leaves_a_line_longer_than_its_buffer_to_the_loop(kernels, tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("value\n0.5\n1." + "5" * 70_000 + "\n2.5\n")
    assert _read_values_fast(str(path)) is None
    assert read_values_csv(str(path)).tobytes() == _read_values_loop(str(path)).tobytes()


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


CHECK_PRIVATE_BUILD = """
import os
import re
import numpy as np
from levyspec import IncrementSample, UGrid, _native, ecf
lib = _native.library()
assert lib is not None, "the kernels did not load"
sample = IncrementSample(np.random.default_rng(8).standard_cauchy(5000))
grids = [UGrid(10.0, 0.05), UGrid(100.0, 0.1)]
native = [ecf(sample, g).values.tobytes() for g in grids]
_native.library = lambda: None
assert [ecf(sample, g).values.tobytes() for g in grids] == native
assert not os.path.exists(lib._name)  # the private directory is gone, the library loaded
print(lib._name)
"""


def test_kernels_build_privately_where_the_cache_cannot_be_made(kernels, tmp_path):
    # XDG_CACHE_HOME names a regular file, so its levyspec directory cannot be
    # made: library() builds into a temporary directory of the process instead
    blocker = tmp_path / "cache-file"
    blocker.write_bytes(b"")
    proc = _python(CHECK_PRIVATE_BUILD, blocker)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert Path(out.strip()).name.startswith("kernels-")
    assert not out.strip().startswith(str(blocker))
    assert blocker.read_bytes() == b""


def test_without_a_compiler_library_is_none_and_the_ecf_runs(tmp_path):
    code = ("import numpy as np\n"
            "from levyspec import _native, ecf, IncrementSample, UGrid\n"
            "assert _native.library() is None\n"
            "print(ecf(IncrementSample(np.arange(5.0)), UGrid(10.0, 0.05)).values[1])\n")
    out, err = _python(code, tmp_path, PATH="").communicate(timeout=120)
    assert err == ""
    assert complex(out) == ecf(IncrementSample(np.arange(5.0)), UGrid(10.0, 0.05)).values[1]
    assert not (tmp_path / "levyspec").exists() or not any((tmp_path / "levyspec").iterdir())


def test_reader_counts_a_crlf_across_its_buffer_edge_as_one_line(kernels, tmp_path):
    # the \r of the first line is the last byte of the first 65536-byte read
    path = tmp_path / "edge.csv"
    path.write_bytes(b"#" + b"x" * 65534 + b"\r\nvalue\n1.5\n2.5\n")
    assert _read_values_fast(str(path)).tobytes() == np.array([1.5, 2.5]).tobytes()


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
    # difference between builds; UBSan aborts the child on the first fault
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
    out, err = subprocess.Popen(
        [sys.executable, "-c", CHECK_BUILD, str(library), str(tmp_path / "cases.npz")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}).communicate(timeout=300)
    assert err == "" and out.strip() == str(len(_tile_edge_cases())), err
