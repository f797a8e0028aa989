"""Counter-based deterministic RNG.

Every draw is a pure function of (seed, counter): the generator mixes the
counter into the seed with the splitmix64 finalizer, so replaying from the
same state always yields the same sequence, and independent streams are
cheap to fork. Uniform and integer draws are exact integer arithmetic and
therefore bit-identical everywhere; a scalar uniform or integer draw
computes its one word in Python ints, which gives the same value as the
array path. Normal draws go through Box-Muller and inherit the platform
libm's rounding of log/cos (identical in practice); a scalar normal draw
runs the array path, so it uses numpy's log/cos too, and a block of
successive normal draws taken in one call (`normals`) gives the same bits
as the separate calls.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _u64(v: int) -> np.ndarray:
    # a read-only 0-d array: a ufunc takes it faster than an np.uint64 scalar
    a = np.array(v, dtype=np.uint64)
    a.flags.writeable = False
    return a


_U_GOLDEN, _U_MIX1, _U_MIX2 = _u64(_GOLDEN), _u64(_MIX1), _u64(_MIX2)
_U11, _U27, _U30, _U31 = _u64(11), _u64(27), _u64(30), _u64(31)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_TWO_NEG53 = 2.0 ** -53
# 2*pi * 2^-53 is exact, so one multiply by it rounds as the two did
_TWO_PI_NEG53 = 2.0 * np.pi * _TWO_NEG53


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a plain Python integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place (wraps mod 2^64)."""
    t = z >> _U30
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def _count(size) -> int:
    """Number of elements of a numpy-style size: an integer or a sequence.
    As in numpy, a non-integer extent raises TypeError and a negative one
    ValueError, here before any draw moves the counter."""
    dims = size if isinstance(size, (tuple, list)) else (size,)
    for extent in dims:
        if operator.index(extent) < 0:
            raise ValueError(f"negative dimensions are not allowed, got size {size}")
    return int(math.prod(dims))


def _box_muller(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Standard normals from two equal-shape arrays of raw words shifted
    right by 11: u1 from w1 and u2 from w2. Returns a fresh array."""
    # u1 in (0, 1] so the log is finite
    z = w1.astype(np.float64)
    z += 1.0
    z *= _TWO_NEG53
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    u2 = w2.astype(np.float64)
    u2 *= _TWO_PI_NEG53
    z *= np.cos(u2, out=u2)
    return z


@dataclass
class RngState:
    """Deterministic stream state: a seed in [0, 2^64) and a draw counter."""

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK:  # reduced mod 2^64, it would alias another seed
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; advances the counter by n."""
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= _U_GOLDEN
        z += np.uint64(self.seed)
        return _mix_array(z)

    def _word(self) -> int:
        """Next raw 64-bit word as a Python int; advances the counter by 1."""
        self.counter += 1
        return _mix_int(self.seed + self.counter * _GOLDEN)

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws in [0, 1) with 53 random bits each."""
        if size is None:
            return (self._word() >> 11) * _TWO_NEG53
        raw = self._raw(_count(size))
        raw >>= _U11
        u = raw.astype(np.float64)
        u *= _TWO_NEG53
        return u.reshape(size)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normal draws via Box-Muller; two raw words per draw."""
        n = 1 if size is None else _count(size)
        raw = self._raw(2 * n)
        raw >>= _U11
        z = _box_muller(raw[:n], raw[n:])
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def normals(self, count: int, size) -> np.ndarray:
        """`count` successive normal(size) draws as one (count, *size) array:
        the same bits, and the same counter, as `count` separate calls."""
        m, blocks = _count(size), _count(count)
        # block j's 2m words: its u1 words, then its u2 words, as in normal()
        raw = self._raw(2 * m * blocks).reshape(blocks, 2, m)
        raw >>= _U11
        z = _box_muller(raw[:, 0], raw[:, 1])
        return z.reshape((blocks, *size) if isinstance(size, (tuple, list)) else (blocks, size))

    def integers(self, low: int, high: int, size=None) -> np.ndarray | int:
        """Integer draws in [low, high). Modulo reduction; span << 2^64.

        The range must be nonempty and within int64, where the scalar draw
        in Python ints and the int64 array draw give the same values.
        """
        if not _INT64_MIN <= low < high <= _INT64_MAX:
            raise ValueError(f"range [{low}, {high}) is empty or outside int64")
        if size is None:
            return int(low) + self._word() % int(high - low)
        raw = self._raw(_count(size))
        raw %= np.uint64(high - low)
        out = raw.view(np.int64)
        out += low
        return out.reshape(size)

    def fork(self, key: int) -> "RngState":
        """Independent child stream; deterministic in (seed, key)."""
        child = _mix_int(_mix_int(self.seed) ^ _mix_int((key + 1) * _GOLDEN))
        return RngState(seed=child, counter=0)
