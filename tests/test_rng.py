import numpy as np
import pytest

from modiff.rng import RngState

# Reference splitmix64 sequence for state 0, computed with the scalar
# reference recurrence (state += golden; output = finalizer(state)).
# First value agrees with the widely published test vector.
SPLITMIX_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]

_M = (1 << 64) - 1


def _reference_splitmix(seed, n):
    """Pure-python oracle, independent of the vectorized implementation."""
    state = seed & _M
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_reference_vector():
    rng = RngState(seed=0)
    raw = rng._raw(5)
    assert [int(v) for v in raw] == SPLITMIX_SEED0


def test_raw_stream_matches_oracle_for_other_seeds():
    for seed in [1, 42, 123456789, 2**63 + 17]:
        assert [int(v) for v in RngState(seed)._raw(64)] == _reference_splitmix(seed, 64)


def test_same_state_same_sequence():
    a = RngState(seed=7, counter=100)
    b = RngState(seed=7, counter=100)
    assert np.array_equal(a.normal(size=32), b.normal(size=32))
    assert a.counter == b.counter == 100 + 64  # two words per normal


def test_counter_advances_and_splits_consistently():
    whole = RngState(seed=3).uniform(size=10)
    rng = RngState(seed=3)
    parts = np.concatenate([rng.uniform(size=4), rng.uniform(size=6)])
    assert np.array_equal(whole, parts)
    assert rng.counter == 10


def test_uniform_bounds_and_moments():
    u = RngState(seed=11).uniform(size=100_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(np.mean(u) - 0.5) < 5e-3
    assert abs(np.var(u) - 1.0 / 12.0) < 5e-3


def test_normal_moments():
    z = RngState(seed=12).normal(size=100_000)
    assert np.all(np.isfinite(z))
    assert abs(np.mean(z)) < 0.02
    assert abs(np.std(z) - 1.0) < 0.02


def test_integers_range_and_determinism():
    rng = RngState(seed=5)
    v = rng.integers(1, 101, size=10_000)
    assert v.min() >= 1 and v.max() <= 100
    assert set(np.unique(v)) == set(range(1, 101))
    assert np.array_equal(v, RngState(seed=5).integers(1, 101, size=10_000))


def test_fork_streams_are_independent_and_stable():
    root = RngState(seed=99)
    a = root.fork(0)
    b = root.fork(1)
    assert a.seed != b.seed
    assert a.seed == root.fork(0).seed  # fork is a pure function of (seed, key)
    assert root.counter == 0  # forking does not consume parent draws
    za, zb = a.normal(size=100), b.normal(size=100)
    # distinct streams should be decorrelated
    assert abs(np.corrcoef(za, zb)[0, 1]) < 0.2


# --- the draws against the plain formulas ------------------------------------
# The draw path mixes its words in place and computes scalar uniform and
# integer draws in Python ints. The oracle below is the straightforward
# numpy formulation, one temporary per operation; every comparison is on
# bytes and return types, never a tolerance.

_O_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _OracleRng:
    def __init__(self, seed, counter):
        self.seed, self.counter = seed, counter

    def _raw(self, n):
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z = np.uint64(self.seed & _M) + ks * _O_GOLDEN
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return float(u[0]) if size is None else u.reshape(size)

    def normal(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        raw = self._raw(2 * n)
        u1 = ((raw[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        u2 = (raw[n:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return float(z[0]) if size is None else z.reshape(size)

    def integers(self, low, high, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = (self._raw(n) % np.uint64(high - low)).astype(np.int64) + low
        return int(out[0]) if size is None else out.reshape(size)


DRAW_SEEDS = [0, 1, 2**63 + 17, 2**64 - 1]
DRAW_SIZES = [None, 0, 1, 7, np.int64(5), (), (16, 2), (3, 0)]
DRAW_RANGES = [(4, 1025), (1, 2), (-7, 3), (0, 2**40 + 3), (-(2**63), 2**63 - 1)]


def _assert_same_draw(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:  # a float or an int: repr round-trips exactly
        assert repr(got) == repr(want)


@pytest.mark.parametrize("start", [0, 12_345, 2**40 + 7])
@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draws_match_the_oracle_bit_for_bit(seed, start):
    rng, oracle = RngState(seed, counter=start), _OracleRng(seed, start)
    for size in DRAW_SIZES:
        draws = [("uniform", ()), ("normal", ())]
        draws += [("integers", bounds) for bounds in DRAW_RANGES]
        for method, args in draws:
            got = getattr(rng, method)(*args, size=size)
            want = getattr(oracle, method)(*args, size=size)
            _assert_same_draw(got, want)
            assert rng.counter == oracle.counter


# reduced mod 2^64, each of these would alias the stream of an in-range seed
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64) + 1])
def test_seed_outside_the_stream_range_is_refused(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        RngState(seed)


@pytest.mark.parametrize("low,high", [(5, 5), (6, 5), (2**63, 2**63 + 5), (-(2**63) - 1, 0)])
@pytest.mark.parametrize("size", [None, 3])
def test_integers_rejects_an_empty_or_non_int64_range(low, high, size):
    rng = RngState(1)
    with pytest.raises(ValueError, match="empty or outside int64"):
        rng.integers(low, high, size=size)
    assert rng.counter == 0
