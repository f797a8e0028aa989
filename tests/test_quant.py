import math

import numpy as np
import pytest

from modiff.quant import (
    QuantConfig,
    QuantParams,
    bits_for_contraction,
    contraction_ratio,
    dequantize,
    error_bound,
    fake_quant,
    fit_params,
    quantize,
)
from modiff.rng import RngState


def _scalar_fake_quant(values, bits, rounding):
    """Element-at-a-time reference path, plain Python floats only."""
    mn, mx = min(values), max(values)
    if mx == mn:
        return list(values), 0.0, 0
    s = (mx - mn) / (2**bits - 1)
    rnd = math.floor if rounding == "floor" else lambda v: round(v)  # banker's, like rint
    z = rnd(-mn / s)
    out = []
    for v in values:
        q = rnd(v / s) + z
        q = min(max(q, 0), 2**bits - 1)
        out.append(s * (q - z))
    return out, s, z


def _random_tensor(rng, kind, d):
    if kind == "uniform":
        return rng.uniform(size=d) * 4.0 - 2.0
    if kind == "gaussian":
        return rng.normal(size=d)
    # long-tailed, strictly positive; exercises the unclamped zero point
    return np.exp(rng.normal(size=d))


# --- fitted parameters --------------------------------------------------


def test_fit_unit_interval_one_bit():
    p = fit_params(np.array([0.0, 1.0]), QuantConfig(bits=1))
    assert float(p.scale) == 1.0
    assert int(p.zero_point) == 0


def test_fit_and_round_trip_four_values_two_bits():
    x = np.array([0.0, 0.3, 0.7, 1.0])
    cfg = QuantConfig(bits=2, rounding="floor")
    p = fit_params(x, cfg)
    assert float(p.scale) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert int(p.zero_point) == 0
    q = quantize(x, p, cfg.rounding)
    assert q.ints.dtype == np.int32
    assert list(q.ints) == [0, 0, 2, 3]
    assert dequantize(q) == pytest.approx([0.0, 0.0, 2.0 / 3.0, 1.0], rel=1e-12, abs=1e-15)


def test_fit_constant_tensor_is_degenerate_and_exact():
    x = np.array([5.0, 5.0, 5.0])
    p = fit_params(x, QuantConfig(bits=8))
    assert float(p.scale) == 0.0
    assert int(p.zero_point) == 0
    assert p.is_degenerate
    assert np.array_equal(fake_quant(x, QuantConfig(bits=8)), x)


def test_quantize_clamps_out_of_range_inputs():
    p = fit_params(np.array([0.0, 1.0, 0.5]), QuantConfig(bits=2))
    q = quantize(np.array([-1.0, 2.0]), p, "floor")
    assert q.ints.min() >= 0 and q.ints.max() <= 3
    assert list(q.ints) == [0, 3]


def test_dequantize_endpoint_with_manual_params():
    p = QuantParams(
        scale=np.asarray(0.1), zero_point=np.asarray(3, dtype=np.int64), bits=2
    )
    q = quantize(np.array([0.0]), p, "floor")
    # int 0 with z = 2^b - 1 lands at -s * z
    out = 0.1 * (0 - 3)
    assert dequantize(
        type(q)(ints=np.array([0], dtype=np.int32), params=p)
    ) == pytest.approx([out], rel=1e-15)


def test_sixteen_bit_round_trip_within_one_step():
    rng = RngState(seed=301)
    x = rng.normal(size=256) * 3.0
    cfg = QuantConfig(bits=16)
    p = fit_params(x, cfg)
    assert np.max(np.abs(x - fake_quant(x, cfg))) <= float(p.scale) * (1 + 1e-12)


def test_matches_scalar_reference_path():
    rng = RngState(seed=302)
    for bits in (1, 2, 4, 8):
        for rounding in ("floor", "nearest"):
            x = rng.normal(size=33)
            got = fake_quant(x, QuantConfig(bits=bits, rounding=rounding))
            want, _, _ = _scalar_fake_quant([float(v) for v in x], bits, rounding)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_identity_config_passes_through():
    rng = RngState(seed=303)
    x = rng.normal(size=(4, 5))
    cfg = QuantConfig(bits=None)
    assert cfg.is_identity
    y = fake_quant(x, cfg)
    assert np.array_equal(x, y) and y is not x
    with pytest.raises(ValueError):
        fit_params(x, cfg)


def test_zero_bits_config_allowed_but_never_fit():
    cfg = QuantConfig(bits=0)  # reserved for the skip rule
    with pytest.raises(ValueError):
        fit_params(np.ones(4), cfg)


# --- error bound --------------------------------------------------------


def test_error_bound_values():
    assert error_bound(np.array([0.0, 1.0] * 50), 1) == 100.0
    x = np.linspace(-1.0, 1.0, 100)
    assert error_bound(x, 3) == pytest.approx(4.0 * 100 / 49.0, rel=1e-15)
    assert error_bound(x, 3, "nearest") == pytest.approx(100.0 / 49.0, rel=1e-15)
    assert error_bound(np.full(10, 2.5), 8) == 0.0


def test_error_bound_suite_floor_and_nearest():
    # randomized mini version of the full acceptance sweep
    rng = RngState(seed=304)
    for trial in range(500):
        kind = ("uniform", "gaussian", "lognormal")[trial % 3]
        d = int(rng.integers(4, 1025))
        bits = int(rng.integers(1, 9))
        x = _random_tensor(rng, kind, d)
        for rounding in ("floor", "nearest"):
            err = float(np.sum((x - fake_quant(x, QuantConfig(bits=bits, rounding=rounding))) ** 2))
            assert err <= error_bound(x, bits, rounding) * (1 + 1e-12), (trial, kind, d, bits)


def test_floor_mode_clipping_is_at_most_one_step_at_the_bottom():
    # The bottom element can land one step below zero before the clamp
    # whenever min/s is fractional; the top edge never clips, and the
    # per-element error stays below s either way.
    rng = RngState(seed=305)
    saw_bottom_clip = False
    for _ in range(200):
        x = rng.normal(size=64)
        bits = int(rng.integers(1, 9))
        cfg = QuantConfig(bits=bits, rounding="floor")
        p = fit_params(x, cfg)
        pre = np.floor(x / float(p.scale)) + int(p.zero_point)
        assert pre.max() <= (1 << bits) - 1
        assert pre.min() >= -1
        saw_bottom_clip |= pre.min() == -1
        err = np.abs(x - fake_quant(x, cfg))
        assert np.max(err) <= float(p.scale) * (1 + 1e-12)
    assert saw_bottom_clip  # the edge case is real, not hypothetical


def test_nearest_mode_never_clips_on_its_own_fit():
    rng = RngState(seed=306)
    for _ in range(200):
        x = rng.normal(size=64)
        bits = int(rng.integers(1, 9))
        p = fit_params(x, QuantConfig(bits=bits, rounding="nearest"))
        pre = np.rint(x / float(p.scale)) + int(p.zero_point)
        assert pre.min() >= 0 and pre.max() <= (1 << bits) - 1
        assert np.max(np.abs(x - fake_quant(x, QuantConfig(bits=bits, rounding="nearest")))) <= float(
            p.scale
        ) / 2 * (1 + 1e-12)


def test_zero_point_in_range_for_sign_straddling_inputs():
    rng = RngState(seed=307)
    for _ in range(100):
        x = rng.normal(size=32)
        x -= (x.min() + x.max()) / 2  # force min <= 0 <= max
        for rounding in ("floor", "nearest"):
            bits = int(rng.integers(1, 9))
            p = fit_params(x, QuantConfig(bits=bits, rounding=rounding))
            assert 0 <= int(p.zero_point) <= (1 << bits) - 1


def test_shifted_positive_inputs_still_reconstruct():
    # all-positive data forces a negative zero point; error stays below s
    rng = RngState(seed=308)
    x = np.exp(rng.normal(size=128)) + 50.0
    cfg = QuantConfig(bits=6)
    p = fit_params(x, cfg)
    assert int(p.zero_point) < 0
    assert np.max(np.abs(x - fake_quant(x, cfg))) <= float(p.scale) * (1 + 1e-12)


def test_more_bits_do_not_hurt_on_random_tensors():
    # Monotone improvement holds for b >= 2 in floor mode and for all b in
    # nearest mode, on the seeded trial family (dims >= 16). It is a
    # statistical property, not a pointwise guarantee: crafted lattice-aligned
    # inputs can violate it, and floor mode inverts at the 1 -> 2 bit
    # transition on centered data (see the companion test below).
    rng = RngState(seed=309)
    for _ in range(300):
        x = rng.normal(size=int(rng.integers(16, 257)))
        for rounding, b_lo in (("floor", 2), ("nearest", 1)):
            errs = [
                float(np.sum((x - fake_quant(x, QuantConfig(bits=b, rounding=rounding))) ** 2))
                for b in range(b_lo, 9)
            ]
            assert all(lo <= hi * (1 + 1e-9) for lo, hi in zip(errs[1:], errs[:-1]))


def test_floor_mode_one_bit_inversion_is_real():
    # At b=1 the floor fit on centered data collapses every element to one
    # level near zero (error ~ sum x^2), while b=2 reconstructs with a
    # downward bias of up to s = range/3, which is worse in expectation.
    rng = RngState(seed=312)
    inversions = 0
    for _ in range(100):
        x = rng.normal(size=128)
        e1 = float(np.sum((x - fake_quant(x, QuantConfig(bits=1))) ** 2))
        e2 = float(np.sum((x - fake_quant(x, QuantConfig(bits=2))) ** 2))
        inversions += e2 > e1
    assert inversions > 10


# --- channel-wise -------------------------------------------------------


def test_channel_params_shapes_and_error_vs_tensor_wise():
    rng = RngState(seed=310)
    for _ in range(100):
        x = rng.normal(size=(24, 6)) * np.array([0.1, 1.0, 10.0, 0.5, 2.0, 5.0])
        cfg_c = QuantConfig(bits=4, granularity="channel")
        p = fit_params(x, cfg_c)
        assert p.scale.shape == (6,)
        assert p.zero_point.shape == (6,)
        err_c = float(np.sum((x - fake_quant(x, cfg_c)) ** 2))
        err_t = float(np.sum((x - fake_quant(x, QuantConfig(bits=4))) ** 2))
        assert err_c <= err_t * (1 + 1e-9)


def test_channel_wise_matches_per_slice_tensor_wise():
    rng = RngState(seed=311)
    x = rng.normal(size=(16, 3))
    got = fake_quant(x, QuantConfig(bits=3, granularity="channel"))
    for j in range(3):
        want = fake_quant(x[:, j], QuantConfig(bits=3))
        assert got[:, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_channel_wise_handles_one_constant_slice():
    x = np.column_stack([np.full(8, 2.0), np.linspace(0, 1, 8)])
    out = fake_quant(x, QuantConfig(bits=4, granularity="channel"))
    assert np.array_equal(out[:, 0], x[:, 0])
    assert np.max(np.abs(out[:, 1] - x[:, 1])) <= 1.0 / 15.0


@pytest.mark.parametrize("shape", [(8,), (4, 5, 3)], ids=["1d", "3d"])
def test_channel_fit_needs_a_2d_tensor(shape):
    x = RngState(seed=313).normal(size=shape)
    cfg = QuantConfig(bits=4, granularity="channel")
    with pytest.raises(ValueError, match="2-D"):
        fit_params(x, cfg)
    with pytest.raises(ValueError, match="2-D"):
        fake_quant(x, cfg)


# --- contraction ratio --------------------------------------------------


def test_contraction_ratio_basics():
    x = np.array([1.0, 1.0])
    assert contraction_ratio(x, x - x) == 0.0
    assert contraction_ratio(np.zeros(3), np.zeros(3)) == 0.0
    assert contraction_ratio(x, x - np.zeros(2)) == 1.0


def test_width_rule_is_at_least_one_bit():
    assert bits_for_contraction(16, 0.25) == 5
    # sqrt(4 d / c) below one ulp of 1.0 would round the width down to 0
    assert bits_for_contraction(16, 1e300) == 1
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            bits_for_contraction(16, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        QuantConfig(bits=17)
    with pytest.raises(ValueError):
        QuantConfig(bits=-1)
    with pytest.raises(ValueError):
        QuantConfig(granularity="row")
    with pytest.raises(ValueError):
        QuantConfig(rounding="trunc")
    with pytest.raises(ValueError):
        QuantConfig(skip_threshold=-0.5)
    QuantConfig(skip_threshold=math.inf)  # "always skip" is legal
