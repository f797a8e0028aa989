"""Bit-identity of the in-place hot path against the plain formulas it replaced.

The quantizer, the SiLU and the time embedding do their floating-point
operations in place and skip work that gives nothing back. The oracles
below are the straightforward formulas, one temporary per operation;
every comparison is np.array_equal or equal bytes, never a tolerance,
except for the measured contraction: its squared norms are dot products,
whose summation order differs from a pairwise sum in the last ulps.
"""

import math

import numpy as np
import pytest

from modiff import modulated
from modiff.diffusion import (
    EMBED_FREQ_HI,
    EMBED_FREQ_LO,
    apply_activation,
    make_denoiser,
    make_schedule,
    sample,
    time_embedding,
)
from modiff.modulated import (
    LinearLayer,
    ModulatedLayerState,
    forward_ec,
    forward_modulated,
    warmup,
)
from modiff.quant import QuantConfig, QuantizedTensor, dequantize, fake_quant, fit_params, quantize
from modiff.rng import RngState

# --- oracles --------------------------------------------------------------


def _oracle_round(rounding):
    return np.floor if rounding == "floor" else np.rint


def _oracle_fit(x, cfg):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if cfg.granularity == "channel":
        mn, mx = np.min(x, axis=0), np.max(x, axis=0)
    else:
        mn, mx = np.asarray(np.min(x)), np.asarray(np.max(x))
    scale = (mx - mn) / ((1 << cfg.bits) - 1)
    safe = np.where(scale > 0.0, scale, 1.0)
    z = np.where(scale > 0.0, _oracle_round(cfg.rounding)(-mn / safe), 0.0)
    return scale, z.astype(np.int64), mn


def _oracle_quantize(x, scale, z, bits, rounding):
    x = np.ascontiguousarray(x, dtype=np.float64)
    safe = np.where(scale > 0.0, scale, 1.0)
    ints = np.clip(_oracle_round(rounding)(x / safe) + z, 0, (1 << bits) - 1)
    ints = np.where(scale > 0.0, ints, z)
    return ints.astype(np.int32)


def _oracle_dequantize(ints, scale, z, mn):
    out = scale * (ints.astype(np.float64) - z.astype(np.float64))
    if np.any(scale == 0.0):
        out = np.where(scale > 0.0, out, mn)
    return out


def _oracle_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# --- the input family -------------------------------------------------------


def _family():
    """(id, x) pairs: 1-D and 2-D, shifted and scaled, constant columns,
    fully constant tensors, and list inputs. (256, 82) and (256, 64) are the
    layer inputs of a wide sample, whose contiguous loops the benchmark times;
    they draw from their own generator, so the other cases keep their data."""
    rng = np.random.default_rng(8)
    cases = []
    for i, shape in enumerate([(16, 18), (37,), (256,), (8, 3), (1, 1), (64, 32), (5,)]):
        x = rng.standard_normal(shape) * 10.0 ** (i - 3)
        cases.append((f"plain{shape}", x))
        cases.append((f"shifted{shape}", x + 10.0 ** i))
        cases.append((f"constant{shape}", np.full(shape, -0.75 * i)))
    with_const = rng.standard_normal((12, 5))
    with_const[:, 1] = 2.5
    with_const[:, 3] = 0.0
    cases.append(("constant-columns", with_const))
    cases.append(("list-2d", rng.standard_normal((6, 4)).tolist()))
    cases.append(("list-1d", rng.standard_normal(9).tolist()))
    wide = np.random.default_rng(9)
    for i, shape in enumerate([(256, 82), (256, 64)], start=7):
        x = wide.standard_normal(shape) * 10.0 ** (i - 3)
        cases.append((f"plain{shape}", x))
        cases.append((f"shifted{shape}", x + 10.0 ** i))
        cases.append((f"constant{shape}", np.full(shape, -0.75 * i)))
    return cases


FAMILY = _family()
CONFIGS = [(b, r, g) for b in range(1, 17) for r in ("floor", "nearest")
           for g in ("tensor", "channel")]


@pytest.mark.parametrize("name,x", FAMILY, ids=[name for name, _ in FAMILY])
def test_quantizer_matches_the_oracle_bit_for_bit(name, x):
    arr = np.asarray(x, dtype=np.float64)
    for bits, rounding, granularity in CONFIGS:
        if granularity == "channel" and arr.ndim != 2:
            continue
        cfg = QuantConfig(bits=bits, rounding=rounding, granularity=granularity)
        scale, z, mn = _oracle_fit(x, cfg)
        p = fit_params(x, cfg)
        for got, want in ((p.scale, scale), (p.zero_point, z), (p.min_val, mn)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        ints = _oracle_quantize(x, scale, z, bits, rounding)
        q = quantize(x, p, rounding)
        assert q.ints.dtype == np.int32 and np.array_equal(q.ints, ints)
        # clamping: inputs beyond the fitted range, on both sides
        wide = arr * 3.0 - 1.0
        assert np.array_equal(quantize(wide, p, rounding).ints,
                              _oracle_quantize(wide, scale, z, bits, rounding))
        want = _oracle_dequantize(ints, scale, z, mn)
        assert dequantize(q).tobytes() == want.tobytes()
        got = fake_quant(x, cfg)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_dequantize_of_given_ints_matches_the_oracle():
    # ints that quantize would not produce, against params with a constant column
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 4))
    x[:, 2] = 1.25
    p = fit_params(x, QuantConfig(bits=3, granularity="channel"))
    ints = rng.integers(-3, 12, size=(10, 4)).astype(np.int32)
    got = dequantize(QuantizedTensor(ints=ints, params=p))
    want = _oracle_dequantize(ints, p.scale, p.zero_point, p.min_val)
    assert got.tobytes() == want.tobytes()


def test_silu_matches_z_times_sigmoid_bit_for_bit():
    rng = np.random.default_rng(10)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        z = rng.standard_normal((256, 64)) * scale
        kept = z.copy()
        assert apply_activation(z, "silu").tobytes() == (z * _oracle_sigmoid(z)).tobytes()
        assert np.array_equal(z, kept)  # the input is not written to
    edges = np.array([0.0, -0.0, 1e-320, -1e-320, 709.0, -709.0, 1e300, -1e300])
    assert apply_activation(edges, "silu").tobytes() == (edges * _oracle_sigmoid(edges)).tobytes()


@pytest.mark.parametrize("width", [0, 2, 4, 16])
@pytest.mark.parametrize("t", [7, np.arange(1, 41)], ids=["scalar", "array"])
def test_time_embedding_matches_geomspace_bit_for_bit(width, t):
    freqs = np.geomspace(EMBED_FREQ_HI, EMBED_FREQ_LO, width // 2)
    args = np.asarray(t, dtype=np.float64)[..., None] * freqs
    want = np.concatenate([np.sin(args), np.cos(args)], axis=-1)
    got = time_embedding(t, width)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got[...] = 123.0  # the caller owns what it gets back
    assert time_embedding(t, width).tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [0, 8])
@pytest.mark.parametrize("t", [7, np.int64(7), np.arange(1, 6)], ids=["int", "int64", "array"])
def test_input_features_match_the_concatenated_embedding(width, t):
    net = make_denoiser(RngState(3), hidden=(4,), time_embed=width)
    x = np.random.default_rng(5).standard_normal((5, net.data_dim))
    emb = np.broadcast_to(time_embedding(t, width), (5, width))
    want = np.concatenate([x, emb], axis=1)
    got = net.input_features(x, t)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.owndata
    got[...] = 123.0  # a fresh array each call: writing it changes no later result
    again = net.input_features(x, t)
    assert again is not got and again.tobytes() == want.tobytes()


# --- step diagnostics -------------------------------------------------------


def _block_norm(x):
    """||x||_2 from the dot products of 8,192-element blocks, summed left to
    right: at most 8,192 elements, one BLAS dot, whatever its thread count."""
    v = x.ravel()
    blocks = [v[i : i + 8192] for i in range(0, v.size, 8192)]
    return math.sqrt(sum(float(np.dot(b, b)) for b in blocks))


@pytest.mark.parametrize("shape", [(16, 18), (256, 64)])
def test_step_error_norm_and_contraction_match_the_plain_formulas(shape):
    rng = np.random.default_rng(11)
    for bits in (2, 4, 8):
        for scale in (1e-6, 1.0, 1e3):
            x = rng.standard_normal(shape) * scale
            q = fake_quant(x, QuantConfig(bits=bits))
            d = modulated.step_diagnostics(float(x.max() - x.min()), x, q, bits=bits)
            err = x - q
            assert d.quant_error_l2 == _block_norm(err)  # bit for bit
            if err.size <= 8192:
                assert d.quant_error_l2 == float(np.linalg.norm(err))
            plain = float((err * err).sum()) / float((x * x).sum())
            assert abs(d.contraction - plain) <= 1e-12 * plain


@pytest.mark.parametrize("forward", [forward_modulated, forward_ec])
def test_a_skipped_step_is_its_own_error_without_a_copy(monkeypatch, forward):
    norms, seen = [], []
    real_norm, real_ratio = modulated.sq_norm, modulated.contraction_ratio

    def norm_spy(x):
        norms.append((x, real_norm(x)))
        return norms[-1][1]

    def ratio_spy(x_sq, err_sq):
        seen.append((x_sq, err_sq))
        return real_ratio(x_sq, err_sq)

    monkeypatch.setattr(modulated, "sq_norm", norm_spy)
    monkeypatch.setattr(modulated, "contraction_ratio", ratio_spy)
    layer = LinearLayer(weight=np.random.default_rng(12).standard_normal((6, 3)))
    a = np.random.default_rng(13).standard_normal((5, 6))
    mode = "ec" if forward is forward_ec else "modulated"
    for a_next, want in ((a + 0.01 * a[::-1], 1.0), (a.copy(), 0.0)):
        state = ModulatedLayerState(mode, QuantConfig(bits=4, skip_threshold=np.inf))
        warmup(state, layer, a)
        norms.clear()
        seen.clear()
        _, d = forward(state, layer, a_next)
        assert d.skipped and d.contraction == want
        # one squared norm, of the residual, passed as its own error's
        ((x, x_sq),) = norms
        assert np.array_equal(x, a_next - a)
        assert seen == [(x_sq, x_sq)] and seen[0][1] is seen[0][0]
        assert d.quant_error_l2 == float(np.linalg.norm(x))


@pytest.mark.parametrize("warmup_k", [0, 2])
@pytest.mark.parametrize("mode", ["direct", "modulated", "ec"])
def test_a_channel_fit_samples_as_without_the_step_bounds(monkeypatch, mode, warmup_k):
    # every layer step passes its tensor's bounds to the quantizer; a channel
    # fit ignores them, so each step is the fit the quantizer makes unaided
    net = make_denoiser(RngState(4), hidden=(8, 8), time_embed=4)
    sched = make_schedule(5)
    cfg = QuantConfig(bits=3, granularity="channel", skip_threshold=0.05)

    def run():
        return sample(net, sched, quant_mode=mode, cfg=cfg, n=6, rng=RngState(7),
                      warmup_k=warmup_k)

    got = run()
    real = modulated.fake_quant
    monkeypatch.setattr(modulated, "fake_quant", lambda x, cfg, bounds=None: real(x, cfg))
    want = run()
    assert [s.tobytes() for s in got.states] == [s.tobytes() for s in want.states]
    assert [[o.tobytes() for o in outs] for outs in got.layer_outputs] == \
        [[o.tobytes() for o in outs] for outs in want.layer_outputs]
    assert np.array_equal(got.diags, want.diags)
    tensor_wise = sample(net, sched, quant_mode=mode, cfg=QuantConfig(bits=3, skip_threshold=0.05),
                         n=6, rng=RngState(7), warmup_k=warmup_k)
    assert got.states[-1].tobytes() != tensor_wise.states[-1].tobytes()
