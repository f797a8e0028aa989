import json
import math

import numpy as np
import pytest

from modiff import analysis, diffusion
from modiff.diffusion import (
    DenoiserNetwork,
    DiffusionSchedule,
    cache_reuse_sample,
    ddim_step,
    ddpm_step,
    load_denoiser,
    make_denoiser,
    make_schedule,
    sample,
    save_denoiser,
    time_embedding,
)
from modiff.errors import ConfigError, NonFiniteError
from modiff.modulated import (
    DIAG_DTYPE,
    OP_COUNTERS,
    LinearLayer,
    ModulatedLayerState,
    forward_direct,
    forward_ec,
    forward_fp,
    forward_modulated,
    warmup,
)
from modiff.quant import QuantConfig
from modiff.rng import RngState
from modiff.tensorops import relative_l2


def _net(seed=501, hidden=(16, 16), time_embed=8):
    return make_denoiser(RngState(seed), hidden=hidden, time_embed=time_embed)


# --- schedule -----------------------------------------------------------


def test_make_schedule_two_steps():
    s = make_schedule(2, 0.1, 0.1)
    assert np.allclose(s.beta, [0.1, 0.1])
    assert s.alpha_bar[0] == pytest.approx(0.9, rel=1e-15)
    assert s.alpha_bar[1] == pytest.approx(0.81, rel=1e-15)


def test_make_schedule_matches_scalar_product_oracle():
    s = make_schedule(100)
    acc = 1.0
    for i in range(100):
        acc *= 1.0 - (1e-4 + (0.02 - 1e-4) * i / 99.0)
        assert s.alpha_bar[i] == pytest.approx(acc, rel=1e-12)
    # the recurrence itself, in order: the same bits as the explicit product of s.beta
    acc, explicit = 1.0, []
    for b in s.beta:
        acc *= 1.0 - b
        explicit.append(acc)
    assert s.alpha_bar.tobytes() == np.array(explicit).tobytes()
    assert np.all(np.diff(s.beta) >= 0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert 0.0 < s.alpha_bar[-1] < s.alpha_bar[0] < 1.0


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(0)
    with pytest.raises(ValueError):
        make_schedule(10, 0.02, 0.01)  # decreasing band
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.01)


# --- sampler steps ------------------------------------------------------


def test_ddpm_step_scalar_oracle():
    sched = DiffusionSchedule(
        timesteps=1,
        beta=np.array([0.02]),
        alpha_bar=np.array([0.5]),
    )
    x, eps = np.array([[1.0]]), np.array([[0.5]])
    out = ddpm_step(x, eps, 1, sched, np.zeros_like(x))
    assert out[0, 0] == pytest.approx(0.9958668302664965, rel=1e-15)
    out_z = ddpm_step(x, eps, 1, sched, np.ones_like(x))
    assert out_z[0, 0] == pytest.approx(1.137288186503806, rel=1e-15)


def test_ddpm_step_zero_eps_zero_noise_rescales_only():
    sched = DiffusionSchedule(
        timesteps=1, beta=np.array([0.02]), alpha_bar=np.array([0.5])
    )
    x = np.array([[1.0]])
    out = ddpm_step(x, np.zeros_like(x), 1, sched, np.zeros_like(x))
    assert out[0, 0] == pytest.approx(1.0101525445522106, rel=1e-15)


def test_ddpm_step_degenerate_schedule_is_identity():
    sched = DiffusionSchedule(
        timesteps=1, beta=np.array([0.0]), alpha_bar=np.array([0.5])
    )
    x = RngState(502).normal(size=(3, 2))
    out = ddpm_step(x, np.ones_like(x), 1, sched, np.zeros_like(x))
    assert np.allclose(out, x, rtol=0, atol=0)


def test_ddim_step_consistency_identity():
    # if x_t was mixed from (x0, eps), stepping with that eps lands exactly
    # on the t-1 mixture of the same pair
    sched = make_schedule(50)
    rng = RngState(503)
    x0, eps = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    for t in (1, 2, 25, 50):
        ab_t = sched.alpha_bar_at(t)
        ab_prev = sched.alpha_bar_at(t - 1)
        x_t = math.sqrt(ab_t) * x0 + math.sqrt(1.0 - ab_t) * eps
        want = math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * eps
        assert relative_l2(ddim_step(x_t, eps, t, sched), want) <= 1e-12


def test_ddim_step_flat_schedule_is_identity():
    sched = DiffusionSchedule(
        timesteps=2,
        beta=np.array([0.1, 0.1]),
        alpha_bar=np.array([0.7, 0.7]),  # no change between t=2 and t=1
    )
    x = RngState(504).normal(size=(3, 2))
    eps = RngState(505).normal(size=(3, 2))
    assert relative_l2(ddim_step(x, eps, 2, sched), x) <= 1e-12


def test_step_bounds_checked():
    sched = make_schedule(10)
    x = np.zeros((1, 2))
    with pytest.raises(ValueError):
        ddpm_step(x, x, 0, sched, x)
    with pytest.raises(ValueError):
        ddim_step(x, x, 11, sched)


# --- time embedding and network -----------------------------------------


def test_time_embedding_shape_and_determinism():
    e = time_embedding(10, 16)
    assert e.shape == (16,)
    assert np.array_equal(e, time_embedding(10, 16))
    batch = time_embedding(np.array([1, 2, 3]), 16)
    assert batch.shape == (3, 16)
    assert np.array_equal(batch[1], time_embedding(2, 16))
    assert time_embedding(5, 0).shape == (0,)
    with pytest.raises(ValueError):
        time_embedding(5, 7)


def test_time_embedding_is_smooth_and_discriminative():
    # adjacent steps stay close (delta paths rely on this), far steps differ
    embs = time_embedding(np.arange(1, 101), 16)
    diffs = np.linalg.norm(np.diff(embs, axis=0), axis=1)
    assert diffs.max() < 1.0
    assert np.linalg.norm(embs[0] - embs[-1]) > 1.0
    assert not np.allclose(embs[0], embs[1])


def test_network_forward_shapes_and_chaining():
    net = _net()
    assert net.data_dim == 2
    x = RngState(506).normal(size=(5, 2))
    eps = net.forward(x, 10)
    assert eps.shape == (5, 2)
    with pytest.raises(ValueError):
        DenoiserNetwork(
            layers=[
                LinearLayer(weight=np.zeros((10, 4))),
                LinearLayer(weight=np.zeros((5, 2))),
            ],
            time_embed=8,
        )
    with pytest.raises(ValueError, match="nonzero width"):
        DenoiserNetwork(
            layers=[LinearLayer(weight=np.zeros((10, 0))), LinearLayer(weight=np.zeros((0, 2)))],
            time_embed=8,
        )
    for width in (1, 3):  # the noise prediction must be the data width, 10 - 8
        with pytest.raises(ValueError, match="must be 2 wide, the data width"):
            DenoiserNetwork(
                layers=[LinearLayer(weight=np.zeros((10, 4))),
                        LinearLayer(weight=np.zeros((4, width)))],
                time_embed=8,
            )


# --- end-to-end sampling ------------------------------------------------


def test_sample_trajectory_bookkeeping():
    net = _net()
    sched = make_schedule(20)
    traj = sample(net, sched, rng=RngState(507), n=6)
    assert len(traj.states) == 21
    assert traj.num_steps == 20 and traj.num_layers == 3
    assert traj.states[0].shape == (6, 2)
    assert all(np.all(np.isfinite(s)) for s in traj.states)


def test_sample_bitwise_deterministic():
    net = _net()
    sched = make_schedule(15)
    a = sample(net, sched, rng=RngState(508), n=4)
    b = sample(net, sched, rng=RngState(508), n=4)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)


def test_sample_modes_share_noise_with_paired_seed():
    net = _net()
    sched = make_schedule(15)
    fp = sample(net, sched, rng=RngState(509), n=4)
    ec = sample(net, sched, quant_mode="ec", cfg=QuantConfig(bits=8), rng=RngState(509), n=4)
    assert np.array_equal(fp.states[0], ec.states[0])  # same starting noise


def test_sample_ec_sixteen_bits_tracks_full_precision():
    net = _net()
    sched = make_schedule(100)
    cfg = QuantConfig(bits=16, rounding="nearest")
    fp = sample(net, sched, rng=RngState(510), n=8)
    ec = sample(net, sched, quant_mode="ec", cfg=cfg, rng=RngState(510), n=8)
    assert relative_l2(ec.states[-1], fp.states[-1]) <= 1e-4


def test_sample_ec_beats_direct_at_low_bits():
    net = _net()
    sched = make_schedule(50)
    cfg = QuantConfig(bits=3)
    wins = 0
    for seed in range(6):
        fp = sample(net, sched, rng=RngState(600 + seed), n=4)
        ec = sample(net, sched, quant_mode="ec", cfg=cfg, rng=RngState(600 + seed), n=4)
        dr = sample(net, sched, quant_mode="direct", cfg=cfg, rng=RngState(600 + seed), n=4)
        e_ec = relative_l2(ec.states[-1], fp.states[-1])
        e_dr = relative_l2(dr.states[-1], fp.states[-1])
        wins += e_ec < e_dr
    assert wins >= 5


def test_sample_ddim_consumes_no_per_step_noise():
    net = _net()
    sched = make_schedule(10)
    a = sample(net, sched, sampler="ddim", rng=RngState(511), n=3)
    b = sample(net, sched, sampler="ddim", rng=RngState(511), n=3)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("mode", ["modulated", "ec"])
def test_repeated_warmup_row_counts_every_pass(mode):
    net = _net()
    sched = make_schedule(3)
    cfg = QuantConfig(bits=4)

    def run(k):
        return sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(7), n=4, warmup_k=k)

    one, three = run(1), run(3)
    for layer, d1, d3 in zip(net.layers, one.diags[0], three.diags[0]):
        for counter in ("quant_calls", "dequant_calls", "matmuls", "bops"):
            assert d3[counter] == 3 * d1[counter] > 0
        assert d3["adds"] == d1["adds"] + 2 * 3  # each EC pass adds residual, a^ and output
    # the error fields are the last pass's
    _, passes = warmup(ModulatedLayerState(mode, cfg), net.layers[0], three.layer_inputs[0][0], k=3)
    d3 = three.diags[0, 0]
    for name in ("act_range", "residual_range", "quant_error_l2", "contraction", "skipped"):
        assert d3[name] == getattr(passes[-1], name)


@pytest.mark.parametrize("mode", ["fp", "direct", "modulated", "ec", "cache"])
def test_the_diagnostics_table_holds_the_layer_steps_records(monkeypatch, mode):
    net, T = _net(), 7
    sched = make_schedule(T)
    seen = {}  # seen[t]: the records step t's layer steps returned, by layer
    real = diffusion._forward_layers

    def spy(net, x, t, layer_step, *args, **kwargs):
        def step(i, layer, a):
            o, d = layer_step(i, layer, a)
            seen.setdefault(t, []).append(d)
            return o, d
        return real(net, x, t, step, *args, **kwargs)

    monkeypatch.setattr(diffusion, "_forward_layers", spy)
    if mode == "cache":
        traj = cache_reuse_sample(net, sched, 3, RngState(5), n=4)
    else:
        cfg = None if mode == "fp" else QuantConfig(bits=3, skip_threshold=0.05)
        traj = sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(5), n=4, warmup_k=2)
    assert traj.diags.dtype == DIAG_DTYPE and traj.diags.shape == (T, len(net.layers))
    N = 3 if mode == "cache" else 1
    assert sorted(seen, reverse=True) == [T - k for k in range(0, T, N)]
    for k in range(T):
        row = traj.diags[k].tolist()
        if k % N == 0:
            assert row == [tuple(d) for d in seen[T - k]]
        else:  # stale: zero but for the pass's act_range, and skipped
            assert row == [(d.act_range, 0.0, 0.0, 0.0, True, 0, 0, 0, 0, 0)
                           for d in seen[T - k + k % N]]


@pytest.mark.parametrize("mode", ["modulated", "ec"])
def test_the_step_T_row_sums_the_counters_of_every_warmup_pass(monkeypatch, mode):
    net, sched = _net(), make_schedule(4)
    passes = []  # each layer's warm-up records
    real = diffusion.warmup

    def spy(state, layer, a, k=0):
        o, diags = real(state, layer, a, k=k)
        passes.append(diags)
        return o, diags

    monkeypatch.setattr(diffusion, "warmup", spy)
    traj = sample(net, sched, quant_mode=mode, cfg=QuantConfig(bits=4), rng=RngState(5), n=4,
                  warmup_k=2)
    assert [len(p) for p in passes] == [2] * len(net.layers)
    for row, diags in zip(traj.diags[0], passes):
        for name in DIAG_DTYPE.names:
            if name in OP_COUNTERS:
                assert row[name] == sum(getattr(d, name) for d in diags) > 0
            else:  # the errors and ranges are the last pass's
                assert row[name] == getattr(diags[-1], name)


def test_op_totals_and_overhead_are_python_ints():
    net, sched, cfg = _net(), make_schedule(4), QuantConfig(bits=4)
    direct, ec = (sample(net, sched, quant_mode=m, cfg=cfg, rng=RngState(5), n=4)
                  for m in ("direct", "ec"))
    for counts in (analysis.op_totals(ec), analysis.per_step_overhead(direct, ec)):
        assert list(counts) == list(OP_COUNTERS)
        assert all(type(v) is int for v in counts.values())
        json.dumps(counts)  # the benchmark prints the totals as JSON


def test_sample_validation():
    net = _net()
    sched = make_schedule(5)
    with pytest.raises(ValueError):
        sample(net, sched, quant_mode="ec", rng=RngState(1))  # missing cfg
    with pytest.raises(ValueError):
        sample(net, sched, quant_mode="int8", rng=RngState(1))
    with pytest.raises(ValueError):
        sample(net, sched, sampler="euler", rng=RngState(1))
    with pytest.raises(TypeError):
        sample(net, sched)  # rng is mandatory


@pytest.mark.parametrize("n", [0, -1, 2.0, True, "3", None])
def test_sample_refuses_a_batch_size_that_is_not_a_positive_int(n):
    net, sched = _net(), make_schedule(5)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
        sample(net, sched, rng=RngState(1), n=n)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
        cache_reuse_sample(net, sched, 2, RngState(1), n=n)


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("mode", ["fp", "ec", "cache"])
def test_ddpm_states_rebuild_from_the_eps_and_one_noise_draw_per_step(mode, n):
    net, sched, seed = _net(), make_schedule(12), 41
    if mode == "cache":
        traj = cache_reuse_sample(net, sched, 3, RngState(seed), n=n)
    else:
        cfg = None if mode == "fp" else QuantConfig(bits=4)
        traj = sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(seed), n=n)
    noise = RngState(seed).fork(0)
    x = noise.normal(size=(n, net.data_dim))
    assert traj.states[0].tobytes() == x.tobytes()
    for k, t in enumerate(range(sched.timesteps, 0, -1)):
        z = noise.normal(size=x.shape) if t > 1 else np.zeros_like(x)
        x = ddpm_step(x, traj.layer_outputs[k][-1], t, sched, z)
        assert traj.states[k + 1].tobytes() == x.tobytes()


@pytest.mark.parametrize("mode", ["fp", "ec", "cache"])
def test_sample_raises_at_the_first_non_finite_layer_output(mode):
    net = _net()
    net.layers[0].weight[:] = 1e308  # finite, but layer 0 overflows at its first step
    sched = make_schedule(5)
    with pytest.raises(NonFiniteError) as info:
        if mode == "cache":
            cache_reuse_sample(net, sched, 3, RngState(1), n=4)
        else:
            cfg = None if mode == "fp" else QuantConfig(bits=4)
            sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(1), n=4)
    assert (info.value.t, info.value.layer, info.value.mode) == (5, 0, mode)
    assert str(info.value) == f"non-finite output at t=5, layer 0, mode {mode}"


def test_sample_raises_at_the_first_non_finite_diagnostic():
    net = _net()
    net.layers[0].weight *= 1e158  # every output stays finite; layer 1's error norm overflows
    with pytest.raises(NonFiniteError) as info:
        sample(net, make_schedule(5), quant_mode="direct", cfg=QuantConfig(bits=4),
               rng=RngState(1), n=4)
    assert (info.value.t, info.value.layer, info.value.mode) == (5, 1, "direct")
    assert str(info.value) == "non-finite quant_error_l2 at t=5, layer 1, mode direct"


# --- recorded tensors ---------------------------------------------------


def _spy_forward_layers(monkeypatch):
    """Record, per denoiser pass, the array _forward_layers feeds each layer."""
    passes = []
    real = diffusion._forward_layers

    def spy(net, x, t, layer_step, *args, **kwargs):
        fed = []
        passes.append(fed)

        def step(i, layer, a):
            fed.append(a.copy())
            return layer_step(i, layer, a)

        return real(net, x, t, step, *args, **kwargs)

    monkeypatch.setattr(diffusion, "_forward_layers", spy)
    return passes


def test_analysis_keeps_the_cache_baseline_name():
    # the benchmark harness calls and traces analysis.cache_reuse_sample
    assert analysis.cache_reuse_sample is diffusion.cache_reuse_sample


# the cache baseline's reuse interval N per test mode
_CACHE_N = {"cache": 3, "cache-1": 1, "cache-2": 2, "cache-inf": math.inf}


@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
@pytest.mark.parametrize("mode", ["fp", "direct", "modulated", "ec", *_CACHE_N])
def test_derived_layer_inputs_are_the_bits_each_layer_was_fed(monkeypatch, mode, sampler):
    sched = make_schedule(8)
    passes = _spy_forward_layers(monkeypatch)
    for net in (_net(), _net(time_embed=0)):
        passes.clear()
        if mode in _CACHE_N:
            N = _CACHE_N[mode]
            traj = cache_reuse_sample(net, sched, N, RngState(5), sampler=sampler, n=4)
            # stale steps reuse the inputs of the last recomputed step with its outputs
            fed = [passes[0 if N == math.inf else k // N] for k in range(sched.timesteps)]
            assert len(passes) == (1 if N == math.inf else math.ceil(sched.timesteps / N))
        else:
            cfg = None if mode == "fp" else QuantConfig(bits=4)
            traj = sample(net, sched, sampler=sampler, quant_mode=mode, cfg=cfg,
                          rng=RngState(5), n=4)
            fed = list(passes)  # reading layer_inputs replays each pass through the spy
        assert len(traj.layer_inputs) == len(fed) == traj.num_steps == 8
        for got_step, want_step in zip(traj.layer_inputs, fed):
            assert len(got_step) == len(want_step) == traj.num_layers == 3
            for got, want in zip(got_step, want_step):
                assert np.array_equal(got, want)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # steps that reuse one pass share one layer-0 input, and one whole input list
        ran = len({id(step) for step in fed})
        assert len({id(step[0]) for step in traj.layer_inputs}) == ran
        assert len({id(step) for step in traj.layer_inputs}) == ran


@pytest.mark.parametrize("mode", ["fp", "ec"])
def test_sample_records_each_tensor_once(mode):
    net = _net()
    n, T = 8, 5
    cfg = None if mode == "fp" else QuantConfig(bits=4)
    traj = sample(net, make_schedule(T), quant_mode=mode, cfg=cfg, rng=RngState(3), n=n)
    assert "layer_inputs" not in vars(traj)  # derived only when read
    buffers = {}
    for arr in (*traj.states, *(o for s in traj.layer_outputs for o in s)):
        while arr.base is not None:  # count the buffer a view keeps alive
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    widths = sum(layer.out_dim for layer in net.layers)
    want = 8 * n * ((T + 1) * net.data_dim + T * widths)
    assert sum(buffers.values()) == want
    assert len(traj.layer_inputs) == T and "layer_inputs" in vars(traj)


@pytest.mark.parametrize("activation", ["relu", "silu"])
@pytest.mark.parametrize("mode", ["fp", "direct", "modulated", "ec", "cache"])
def test_recorded_tensors_are_fresh_and_repeat_bit_for_bit(monkeypatch, mode, activation):
    net = make_denoiser(RngState(503), hidden=(16, 16), time_embed=8, activation=activation)
    sched = make_schedule(6)
    returned = []  # each layer output and its bytes when its step returned it
    real = diffusion._forward_layers

    def spy(net, x, t, layer_step, *args, **kwargs):
        def step(i, layer, a):
            o, d = layer_step(i, layer, a)
            returned.append((o, o.tobytes()))
            return o, d
        return real(net, x, t, step, *args, **kwargs)

    monkeypatch.setattr(diffusion, "_forward_layers", spy)

    cfg = None if mode in ("fp", "cache") else QuantConfig(bits=3, skip_threshold=0.05)

    def run():
        if mode == "cache":
            return cache_reuse_sample(net, sched, 2, RngState(6), n=4)
        return sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(6), n=4, warmup_k=2)

    one = run()
    assert all(o.tobytes() == b for o, b in returned)  # no later step wrote into one
    if mode != "cache":  # the public layer steps over the replayed inputs, each a fresh array
        if mode in ("modulated", "ec"):
            states = [ModulatedLayerState(mode, cfg) for _ in net.layers]
        for k, (ins, outs) in enumerate(zip(one.layer_inputs, one.layer_outputs)):
            for i, (layer, a, o) in enumerate(zip(net.layers, ins, outs)):
                if mode == "fp":
                    want = forward_fp(layer, a)
                elif mode == "direct":
                    want = forward_direct(layer, a, cfg)
                elif k == 0:
                    want = warmup(states[i], layer, a, k=2)
                else:
                    want = (forward_ec if mode == "ec" else forward_modulated)(states[i], layer, a)
                assert want[0].tobytes() == o.tobytes()
    # the cache baseline's stale steps re-record their pass's list, and a
    # skipped delta step its previous output; any two other recorded arrays
    # share no memory
    recorded = list({id(a): a for a in (*one.states, *(o for s in one.layer_outputs for o in s))
                     }.values())
    for i, a in enumerate(recorded):
        assert not any(np.shares_memory(a, b) for b in recorded[i + 1:])
    two = run()
    assert [s.tobytes() for s in one.states] == [s.tobytes() for s in two.states]
    assert ([[o.tobytes() for o in s] for s in one.layer_outputs]
            == [[o.tobytes() for o in s] for s in two.layer_outputs])
    assert one.diags.tobytes() == two.diags.tobytes()


# --- weight bundles -----------------------------------------------------


def test_denoiser_bundle_round_trip(tmp_path):
    net = _net(512)
    p = tmp_path / "bundle"
    save_denoiser(p, net)
    again = load_denoiser(p)
    assert again.activation == net.activation
    assert again.time_embed == net.time_embed
    for a, b in zip(net.layers, again.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_denoiser_bundle_save_is_byte_stable(tmp_path):
    net = _net(513)
    p1, p2 = tmp_path / "one", tmp_path / "two"
    save_denoiser(p1, net)
    save_denoiser(p2, net)
    for name in ("manifest.json", "w0.mdtn", "b2.mdtn"):
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes()


def test_denoiser_bundle_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_denoiser(tmp_path / "missing")
    net = _net(514)
    p = tmp_path / "bundle"
    save_denoiser(p, net)
    manifest = (p / "manifest.json").read_text()
    (p / "manifest.json").write_text(manifest.replace('"in": 10', '"in": 11'))
    with pytest.raises(ConfigError, match="does not match manifest"):
        load_denoiser(p)
    (p / "manifest.json").write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_denoiser(p)
