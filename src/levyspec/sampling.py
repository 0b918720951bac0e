"""Increment sampling for Gaussian, stable and mixed Levy triplets.

Stable variates use the Chambers-Mallows-Stuck transform (Chambers, Mallows &
Stuck 1976; Weron 1996) in the one-parameterization, which is exact: no
discretization bias enters the Monte-Carlo benchmarks.  For the symmetric
Cauchy law (alpha = 1, beta = 0) the transform reduces to tan U, so that law
draws no exponential variate and computes no cos or log; its samples are the
bytes the full transform gives (see ``_cms_standard``).

Randomness comes from counter-based Philox streams (Salmon et al., SC'11)
keyed by (master_seed, trial_index, substream), so trials are reproducible
independently of execution order.  A stream's 128-bit Philox key is numpy's
``SeedSequence(master_seed, spawn_key=(trial_index, substream))
.generate_state(2, uint64)``: the seed_seq_fe hash (O'Neill, PCG 2014), which
``_spawn_state`` computes for the 64 trials of an aligned block at once, and a
small cache keeps the latest blocks.  The streams are therefore numpy's, byte
for byte, with no SeedSequence built per trial; the generator's ``seed_seq``
stands in for that SeedSequence, which it builds only when asked for anything
but the key (``spawn`` included).  ``numpy.random`` is imported at the first
generator, not with the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_rows
from .errors import (_require_between, _require_count, _require_finite, _require_finite_entries,
                     _require_positive)
from .models import LevyTriplet, StableLaw, _increment_parts

__all__ = ["SeedSpec", "IncrementSample", "stable_sample", "sample_increments",
           "derive_seed", "write_increments_csv"]

_GAUSSIAN_STREAM = 0
_STABLE_STREAM = 1
# The most values a request may sample, refused past it before any array exists:
# sampling peaks at about 100 bytes per value, so n = 10^7 stays near 1 GB.
_MAX_N = 10 ** 7


def _require_seed(name: str, value):
    """A master seed: an integer in [0, 2^64), named in an error as ``name``, the
    parameter, flag or variable it came from."""
    if _require_count(name, value, 0) >= 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return value


# numpy's SeedSequence hash (bit_generator.pyx) at its default pool of 4 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of an integer >= 0, as numpy's SeedSequence
    reads it: 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _constants(start: int, mult: int, count: int) -> np.ndarray:
    """start, start mult, ..., start mult^(count - 1), mod 2^32, as a uint32 column."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _spawn_state(master_seed: int, spawn_words, n_words: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(n_words)``, for
    n_words <= 4, as the rows of an (n_words, lanes) uint32 array, for the key's
    32-bit words ``spawn_words``: each an int or a uint32 row of one word per lane.

    The master seed's words, zero-filled to the pool's 4, fill and mix the pool
    once, in Python ints.  Every later hashmix constant is fixed by its
    position, so each spawn-key word mixes into the 4 pool rows as whole rows.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return out ^ out >> 16

    words = _words(master_seed)
    pool = [hashmix(w) for w in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    pool = np.array(pool, np.uint32)[:, None]
    for word in spawn_words:
        consts = _constants(const, _MULT_A, 5)
        const = int(consts[4, 0])
        hashed = (word ^ consts[:4]) * consts[1:]
        hashed ^= hashed >> 16
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        pool ^= pool >> 16
    consts = _constants(_INIT_B, _MULT_B, n_words + 1)
    state = (pool[:n_words] ^ consts[:-1]) * consts[1:]
    state ^= state >> 16
    return state


_BLOCK = 64  # trials per cached block of keys; 2^32 is a multiple, so a block has one word count


@functools.lru_cache(maxsize=16)
def _key_block(master_seed: int, substream: int, block: int) -> np.ndarray:
    """The Philox keys of trials 64 block ... 64 block + 63 on ``substream``:
    a read-only (64, 2) uint64 array, row t holding
    ``SeedSequence(master_seed, spawn_key=(64 block + t, substream)).generate_state(2, uint64)``."""
    first = block * _BLOCK
    low = np.arange(first & _MASK32, (first & _MASK32) + _BLOCK, dtype=np.uint32)
    state = _spawn_state(master_seed, [low, *_words(first)[1:], *_words(substream)], 4)
    keys = np.ascontiguousarray(state.T, "<u4").view("<u8")
    keys.flags.writeable = False
    return keys


class _Key:
    """The seed sequence of one trial's Philox, in numpy's ISpawnableSeedSequence
    interface: it returns the trial's cached key when Philox asks for it, and
    hands every other request to ``SeedSequence(master_seed,
    spawn_key=(trial_index, substream))``, built at the first one."""

    __slots__ = ("_key", "_spawn", "_real")

    def __init__(self, key: np.ndarray, master_seed: int, spawn_key: tuple):
        self._key, self._spawn, self._real = key, (master_seed, spawn_key), None

    def seed_sequence(self):
        if self._real is None:
            self._real = np.random.SeedSequence(self._spawn[0], spawn_key=self._spawn[1])
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 2 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self._key.astype(np.uint64)
        return self.seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_sequence().spawn(n_children)

    def __getattr__(self, name):  # entropy, spawn_key, pool, state, n_children_spawned
        return getattr(self.seed_sequence(), name)

    def __repr__(self):
        return repr(self.seed_sequence())

    def __reduce__(self):  # a pickled generator holds the SeedSequence
        return self.seed_sequence().__reduce__()


_ZERO_COUNTER = np.zeros(4, np.uint64)  # Philox's default counter, 0, which it reads faster as an array
_ZERO_COUNTER.flags.writeable = False


@functools.cache
def _philox():
    """numpy's Generator and Philox, imported at the first generator."""
    from numpy.random import Generator, Philox, bit_generator
    bit_generator.ISpawnableSeedSequence.register(_Key)
    return Generator, Philox


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream: (master_seed, trial_index)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        _require_seed("master_seed", self.master_seed)
        _require_count("trial_index", self.trial_index, 0)

    def generator(self, substream: int = 0) -> np.random.Generator:
        """The Philox stream of ``SeedSequence(master_seed, spawn_key=(trial_index,
        substream))``, keyed from the cached block of its trial."""
        substream = int(_require_count("substream", substream, 0))
        seed, trial = int(self.master_seed), int(self.trial_index)
        key = _key_block(seed, substream, trial // _BLOCK)[trial % _BLOCK]
        generator, philox = _philox()
        return generator(philox(_Key(key, seed, (trial, substream)), counter=_ZERO_COUNTER))


def derive_seed(master_seed: int, *lane: int) -> int:
    """Derive a 64-bit sub-master seed, e.g. one per experiment cell:
    ``SeedSequence(master_seed, spawn_key=lane).generate_state(1, uint64)``."""
    _require_seed("master_seed", master_seed)
    words = [word for i, value in enumerate(lane)
             for word in _words(int(_require_count(f"lane[{i}]", value, 0)))]
    low, high = _spawn_state(int(master_seed), words, 2)[:, 0].tolist()
    return low | high << 32


@dataclass(frozen=True, eq=False)
class IncrementSample:
    """n i.i.d. increments, all finite."""

    values: np.ndarray

    def __post_init__(self):
        _require_finite_entries("increments", self.values)

    @property
    def n(self) -> int:
        return len(self.values)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard stable variates (gamma=1, delta=0) via Chambers-Mallows-Stuck.

    At alpha = 1 and beta == 0 (either sign of zero) the transform is
    (2/pi) ((pi/2) tan U), computed in place with no exponential W drawn.
    These are the bytes of the general alpha = 1 formula: its log term is
    finite (for W > 0) times a zero, so it subtracts a signed zero from values
    that are never -0.0 (U is never -0.0, since U = (r - 0.5) pi is +0.0 at
    r = 0.5); and W would be the last draw on a generator made for this call,
    so skipping it moves no other draw.
    """
    U = rng.random(n)
    U -= 0.5
    U *= math.pi
    half_pi = math.pi / 2.0
    if alpha == 1.0 and beta == 0.0:
        np.tan(U, out=U)
        U *= half_pi
        U *= 2.0 / math.pi
        return U
    W = rng.exponential(1.0, n)
    if alpha == 1.0:
        return (2.0 / math.pi) * ((half_pi + beta * U) * np.tan(U)
                                  - beta * np.log((half_pi * W * np.cos(U))
                                                  / (half_pi + beta * U)))
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha
    s = (np.sin(alpha * (U + theta0))
         / (math.cos(alpha * theta0) * np.cos(U)) ** (1.0 / alpha))
    t = (np.cos(alpha * theta0 + (alpha - 1.0) * U) / W) ** ((1.0 - alpha) / alpha)
    return s * t


def _cms(law: StableLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    # a non-finite variate is raised by _stable_sample, so numpy need not warn of it
    with np.errstate(all="ignore"):
        z = _cms_standard(law.alpha, law.beta, rng, n)
        z *= law.gamma
        if law.alpha == 1.0:
            # the one-parameterization scales with an extra beta*gamma*log(gamma) shift
            z += (2.0 / math.pi) * law.beta * law.gamma * math.log(law.gamma)
        z += law.delta
    return z


def _stable_sample(values: np.ndarray, law: StableLaw) -> IncrementSample:
    """``IncrementSample(values)`` for variates of a valid ``law``: a non-finite
    one is the sampler's numeric failure, an ArithmeticError naming alpha, beta
    and its index, not the ValueError of bad input."""
    try:
        return IncrementSample(values)
    except ValueError:
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ArithmeticError(
            f"sampling the stable law alpha={law.alpha!r}, beta={law.beta!r} gave the "
            f"non-finite variate {float(values[bad])!r} at index {bad}") from None


def stable_sample(law: StableLaw, n: int, seed: SeedSpec) -> IncrementSample:
    """n i.i.d. variates with characteristic function ``stable_cf(law, .)``."""
    _require_count("n", n, 1, _MAX_N)
    _require_between("alpha", law.alpha, 0, 2, "lie in (0, 2) for the sampler")
    return _stable_sample(_cms(law, seed.generator(_STABLE_STREAM), n), law)


def sample_increments(triplet: LevyTriplet, delta_t: float, n: int,
                      seed: SeedSpec) -> IncrementSample:
    """Sample X_{i dt} - X_{(i-1) dt} for a triplet with stable or no jumps.

    The Gaussian and jump parts are independent, drawn from separate
    substreams of the same seed.  Each value is (b dt + Gaussian) + jump,
    summed in place in that order.
    """
    _require_positive("delta_t", delta_t)
    _require_count("n", n, 1, _MAX_N)
    variance, law = _increment_parts(triplet, delta_t)
    drift = _require_finite("the increment's drift b * delta_t", triplet.b * delta_t)
    if triplet.sigma2 > 0:
        values = seed.generator(_GAUSSIAN_STREAM).standard_normal(n)
        values *= math.sqrt(variance)
        values += drift
        if law is not None:
            values += _cms(law, seed.generator(_STABLE_STREAM), n)
    else:  # a triplet without a Gaussian part has stable jumps
        values = _cms(law, seed.generator(_STABLE_STREAM), n)
        values += drift  # also when 0.0: it turns a -0.0 into +0.0, as 0.0 + x does
    return IncrementSample(values) if law is None else _stable_sample(values, law)


def write_increments_csv(sample: IncrementSample, path, meta_lines=()) -> None:
    """Dump increments as CSV with header ``index,value``, one ``%d,%.17g`` row each."""
    write_rows(path, meta_lines, "index,value", np.arange(sample.n), sample.values)
