import math

import numpy as np
import pytest

from modiff.analysis import carried_tensor_count, op_totals, per_step_overhead
from modiff.diffusion import DenoiserNetwork, apply_activation, make_schedule, sample
from modiff.errors import ShapeError, StateError
from modiff.modulated import (
    LinearLayer,
    ModulatedLayerState,
    forward_direct,
    forward_ec,
    forward_fp,
    forward_modulated,
    step_diagnostics,
    warmup,
)
from modiff.quant import QuantConfig, fake_quant
from modiff.rng import RngState
from modiff.tensorops import operator_norm, relative_l2, value_range


def _layer(seed, din=24, dout=16, bias=True):
    rng = RngState(seed)
    w = rng.normal(size=(din, dout)) / math.sqrt(din)
    b = 0.1 * rng.normal(size=dout) if bias else None
    return LinearLayer(weight=w, bias=b)


def _drift_inputs(seed, steps, batch=4, d=24, scale=0.15):
    """Random-walk input sequence: a_T first, then slowly drifting."""
    rng = RngState(seed)
    seq = [rng.normal(size=(batch, d))]
    for _ in range(steps - 1):
        seq.append(seq[-1] + scale * rng.normal(size=(batch, d)))
    return seq


# --- direct path --------------------------------------------------------


def test_forward_direct_is_quantize_then_apply():
    layer = _layer(401)
    a = RngState(402).normal(size=(3, 24))
    cfg = QuantConfig(bits=4)
    o, diag = forward_direct(layer, a, cfg)
    want = fake_quant(a, cfg) @ layer.weight + layer.bias
    assert relative_l2(o, want) <= 1e-12
    assert diag.quant_error_l2 > 0 and not diag.skipped


def test_forward_direct_sixteen_bits_close_to_full_precision():
    layer = _layer(403)
    a = RngState(404).normal(size=(5, 24))
    o, _ = forward_direct(layer, a, QuantConfig(bits=16))
    assert relative_l2(o, layer.apply(a)) <= 1e-3


def test_forward_direct_constant_activation_is_exact():
    layer = _layer(405)
    a = np.full((2, 24), 1.7)
    o, diag = forward_direct(layer, a, QuantConfig(bits=8))
    assert np.array_equal(o, layer.apply(a))
    assert diag.quant_error_l2 == 0.0


# --- warm-up ------------------------------------------------------------


def test_full_warmup_stores_exact_input_and_output():
    layer = _layer(406)
    a = RngState(407).normal(size=(4, 24))
    state = ModulatedLayerState("ec", QuantConfig(bits=4))
    o, diags = warmup(state, layer, a)
    assert np.array_equal(state.ref, a)
    assert np.array_equal(o, layer.apply(a))
    assert len(diags) == 1 and diags[0].quant_error_l2 == 0.0
    # next residual is then the pure temporal difference
    a_next = a + 0.1
    _, diag = forward_ec(state, layer, a_next)
    assert diag.residual_range == pytest.approx(0.0, abs=1e-12)


def test_repeated_warmup_k1_is_the_quantized_start():
    layer = _layer(408)
    a = RngState(409).normal(size=(4, 24))
    cfg = QuantConfig(bits=4)
    state = ModulatedLayerState("ec", cfg)
    o, diags = warmup(state, layer, a, k=1)
    q = fake_quant(a, cfg)
    assert np.array_equal(state.ref, q)
    assert relative_l2(o, layer.apply(q)) <= 1e-12
    assert len(diags) == 1


def test_repeated_warmup_contracts_geometrically():
    layer = _layer(410, din=64, dout=32)
    a = RngState(411).normal(size=(4, 64))
    cfg = QuantConfig(bits=4)
    k = 6
    state = ModulatedLayerState("ec", cfg)
    _, diags = warmup(state, layer, a, k=k)
    assert len(diags) == k
    c_max = max(d.contraction for d in diags)
    assert 0.0 < c_max < 1.0
    err = float(np.linalg.norm(a - state.ref))
    assert err <= c_max ** (k / 2) * float(np.linalg.norm(a)) * (1 + 1e-12)
    # and the carried output is consistent with the carried input
    assert relative_l2(state.out, layer.apply(state.ref)) <= 1e-9


def test_repeated_warmup_errors_shrink_with_k():
    layer = _layer(412, din=64, dout=32)
    a = RngState(413).normal(size=(4, 64))
    errs = []
    for k in (1, 2, 4):
        state = ModulatedLayerState("ec", QuantConfig(bits=4))
        warmup(state, layer, a, k=k)
        errs.append(float(np.linalg.norm(a - state.ref)))
    assert errs[2] < errs[1] < errs[0]


def test_warmup_guards():
    layer = _layer(414)
    a = np.zeros((2, 24))
    state = ModulatedLayerState("ec", QuantConfig(bits=4))
    warmup(state, layer, a + 1.0)
    with pytest.raises(StateError):
        warmup(state, layer, a)  # already warmed
    with pytest.raises(ValueError):
        warmup(ModulatedLayerState("ec", QuantConfig(bits=4)), layer, a, k=-1)
    with pytest.raises(ValueError):
        ModulatedLayerState("direct", QuantConfig(bits=4))  # the direct path keeps no state


def _hand_repeated_warmup(state, layer, a, k):
    """Repeated warm-up written out as one loop: the oracle that the direct
    step plus k-1 EC steps must match bit for bit."""
    rng_a = value_range(a)
    a_cur = fake_quant(a, state.cfg)
    o = layer.apply(a_cur)
    diags = [step_diagnostics(rng_a, a, a_cur)]
    for _ in range(k - 1):
        residual = a - a_cur
        r = fake_quant(residual, state.cfg)
        a_cur = a_cur + r
        o = o + layer.apply_linear(r)
        diags.append(step_diagnostics(rng_a, residual, r, x_range=value_range(residual)))
    state.ref = a.copy() if state.mode == "modulated" else a_cur
    state.out = o
    return o, diags


@pytest.mark.parametrize("mode", ["modulated", "ec"])
@pytest.mark.parametrize("bias", [True, False])
def test_repeated_warmup_matches_the_hand_loop_bit_for_bit(mode, bias):
    layer = _layer(415, din=12, dout=6, bias=bias)
    a, a_next = _drift_inputs(416, steps=2, d=12)
    step = forward_ec if mode == "ec" else forward_modulated
    for bits in (1, 2, 3, 4, 8):
        for rounding in ("floor", "nearest"):
            for skip in (0.0, 0.05, 10.0):
                cfg = QuantConfig(bits=bits, rounding=rounding, skip_threshold=skip)
                for k in (1, 2, 3, 5):
                    got, want = ModulatedLayerState(mode, cfg), ModulatedLayerState(mode, cfg)
                    o, diags = warmup(got, layer, a, k=k)
                    o_want, diags_want = _hand_repeated_warmup(want, layer, a, k)
                    where = (bits, rounding, skip, k)
                    assert o.tobytes() == o_want.tobytes(), where
                    assert repr(diags) == repr(diags_want), where
                    assert got.ref.tobytes() == want.ref.tobytes(), where
                    assert got.out.tobytes() == want.out.tobytes(), where
                    o, diag = step(got, layer, a_next)
                    o_want, diag_want = step(want, layer, a_next)
                    assert o.tobytes() == o_want.tobytes(), where
                    assert repr(diag) == repr(diag_want), where
                    assert got.ref.tobytes() == want.ref.tobytes(), where


def test_warmup_of_a_modulated_state_keeps_a_copy_of_the_input():
    layer = _layer(417)
    a = RngState(418).normal(size=(3, 24))
    for k in (0, 1, 3):
        state = ModulatedLayerState("modulated", QuantConfig(bits=4))
        warmup(state, layer, a, k=k)
        assert np.array_equal(state.ref, a) and not np.shares_memory(state.ref, a)


# --- no-EC recurrence ---------------------------------------------------


def test_modulated_identity_quantizer_telescopes_to_full_precision():
    layer = _layer(415)
    seq = _drift_inputs(416, steps=100)
    state = ModulatedLayerState("modulated", QuantConfig(bits=None))
    o, _ = warmup(state, layer, seq[0])
    assert relative_l2(o, layer.apply(seq[0])) <= 1e-12
    for a in seq[1:]:
        o, _ = forward_modulated(state, layer, a)
        assert relative_l2(o, layer.apply(a)) <= 1e-5  # pure IEEE accumulation


def test_modulated_sixteen_bits_stays_close():
    layer = _layer(417)
    seq = _drift_inputs(418, steps=100)
    state = ModulatedLayerState("modulated", QuantConfig(bits=16, rounding="nearest"))
    warmup(state, layer, seq[0])
    for a in seq[1:]:
        o, _ = forward_modulated(state, layer, a)
    assert relative_l2(o, layer.apply(seq[-1])) <= 1e-3


def test_modulated_unchanged_input_leaves_output_unchanged():
    layer = _layer(419)
    a = RngState(420).normal(size=(3, 24))
    state = ModulatedLayerState("modulated", QuantConfig(bits=3))
    o0, _ = warmup(state, layer, a)
    o1, diag = forward_modulated(state, layer, a.copy())
    assert np.array_equal(o0, o1)
    assert diag.residual_range == 0.0
    assert not diag.skipped  # threshold 0 means never skip
    # with a positive threshold the same call is a skip
    state2 = ModulatedLayerState("modulated", QuantConfig(bits=3, skip_threshold=1e-9))
    warmup(state2, layer, a)
    _, diag2 = forward_modulated(state2, layer, a.copy())
    assert diag2.skipped


# --- EC recurrence ------------------------------------------------------


@pytest.mark.parametrize("bits", [2, 3, 4, 6, 8])
def test_ec_structural_identities(bits):
    layer = _layer(421)
    cfg = QuantConfig(bits=bits)
    seq = _drift_inputs(422 + bits, steps=40)
    state = ModulatedLayerState("ec", cfg)
    warmup(state, layer, seq[0])
    for a in seq[1:]:
        resid = a - state.ref
        e_expected = resid - fake_quant(resid, cfg)
        o, _ = forward_ec(state, layer, a)
        # carried output equals layer(carried input) including the bias
        assert relative_l2(o, layer.apply(state.ref)) <= 1e-9
        # tracking error equals this step's own quantization error
        gap = np.linalg.norm((a - state.ref) - e_expected)
        assert gap <= 1e-10 * max(np.linalg.norm(e_expected), 1e-6)


def test_ec_per_step_bound_with_measured_contraction():
    layer = _layer(423)
    sigma = operator_norm(layer.weight)
    for bits in (2, 3, 4, 6, 8):
        cfg = QuantConfig(bits=bits)
        seq = _drift_inputs(424 + bits, steps=50)
        state = ModulatedLayerState("ec", cfg)
        warmup(state, layer, seq[0])
        for a in seq[1:]:
            resid_norm = float(np.linalg.norm(a - state.ref))
            o, diag = forward_ec(state, layer, a)
            lhs = float(np.linalg.norm(layer.apply(a) - o))
            rhs = math.sqrt(diag.contraction) * sigma * (1 + 1e-6) * resid_norm
            assert lhs <= rhs + 1e-12 * (1.0 + resid_norm)


def test_ec_identity_quantizer_matches_biased_full_precision():
    layer = _layer(425)
    seq = _drift_inputs(426, steps=60)
    state = ModulatedLayerState("ec", QuantConfig(bits=None))
    warmup(state, layer, seq[0])
    for a in seq[1:]:
        o, diag = forward_ec(state, layer, a)
        assert relative_l2(o, layer.apply(a)) <= 1e-9
        assert diag.quant_error_l2 == 0.0


def test_ec_does_not_accumulate_but_modulated_does():
    layer = _layer(427)
    seq = _drift_inputs(428, steps=200, scale=0.2)
    cfg = QuantConfig(bits=3)
    ec, mod = ModulatedLayerState("ec", cfg), ModulatedLayerState("modulated", cfg)
    warmup(ec, layer, seq[0])
    warmup(mod, layer, seq[0])
    for a in seq[1:]:
        o_ec, _ = forward_ec(ec, layer, a)
        o_mod, _ = forward_modulated(mod, layer, a)
    ref = layer.apply(seq[-1])
    assert relative_l2(o_ec, ref) < relative_l2(o_mod, ref)


def test_ec_skip_threshold_infinite_freezes_output():
    layer = _layer(429)
    seq = _drift_inputs(430, steps=20)
    state = ModulatedLayerState("ec", QuantConfig(bits=4, skip_threshold=math.inf))
    o0, _ = warmup(state, layer, seq[0])
    for a in seq[1:]:
        o, diag = forward_ec(state, layer, a)
        assert diag.skipped
        assert o is state.out
    assert np.array_equal(o, o0)
    assert np.array_equal(state.ref, seq[0])  # carried tensors untouched


@pytest.mark.parametrize("mode", ["modulated", "ec"])
def test_skipped_step_reference_per_mode(mode):
    # after a skip, modulated differences against the skipped input itself,
    # EC against its unchanged reconstruction
    layer = _layer(443)
    a0, a1, a2 = _drift_inputs(444, steps=3)
    forward = forward_modulated if mode == "modulated" else forward_ec
    state = ModulatedLayerState(mode, QuantConfig(bits=4, skip_threshold=math.inf))
    warmup(state, layer, a0)
    assert forward(state, layer, a1)[1].skipped
    _, diag = forward(state, layer, a2)
    ref = a1 if mode == "modulated" else a0
    assert value_range(a2 - a1) != value_range(a2 - a0)
    assert diag.residual_range == value_range(a2 - ref)
    assert np.array_equal(state.ref, a2 if mode == "modulated" else a0)
    assert carried_tensor_count(state) == 2


def test_infinite_threshold_always_skips():
    layer = _layer(431)
    seq = _drift_inputs(432, steps=5)
    state = ModulatedLayerState("ec", QuantConfig(bits=4, skip_threshold=math.inf))
    o0, _ = warmup(state, layer, seq[0])
    for a in seq[1:]:
        o, diag = forward_ec(state, layer, a)
        assert diag.skipped
    assert np.array_equal(o, o0)


def test_skip_rule_strictness_at_zero_threshold():
    # range(residual) < 0 is never true, so threshold 0 quantizes even a
    # zero residual (which the degenerate-constant path makes exact)
    layer = _layer(433)
    a = RngState(434).normal(size=(2, 24))
    state = ModulatedLayerState("ec", QuantConfig(bits=4))
    o0, _ = warmup(state, layer, a)
    o1, diag = forward_ec(state, layer, a.copy())
    assert not diag.skipped
    assert np.allclose(o0, o1, rtol=0, atol=1e-15)


# --- counters, state discipline -----------------------------------------


def _one_layer_run(layer, mode, cfg, T, n):
    """A trajectory of a denoiser that is `layer` alone (no time embedding)."""
    net = DenoiserNetwork([layer], time_embed=0)
    return sample(net, make_schedule(T), quant_mode=mode, cfg=cfg, n=n, rng=RngState(436))


def test_ec_costs_two_adds_and_one_dequant_over_direct():
    # the cost model's per layer-step difference, at every step past the warm-up
    layer, cfg = _layer(435, din=16), QuantConfig(bits=8)
    direct, ec = (_one_layer_run(layer, mode, cfg, 10, 3) for mode in ("direct", "ec"))
    assert per_step_overhead(direct, ec) == dict(adds=2, quant_calls=0, dequant_calls=1,
                                                 matmuls=0, bops=0)


def test_bops_accounting_per_step():
    layer = _layer(437, din=2, dout=2)
    for cfg, b_a in ((QuantConfig(bits=8), 8), (QuantConfig(bits=None), 32)):
        traj = _one_layer_run(layer, "direct", cfg, 1, 1)
        assert op_totals(traj)["bops"] == 1 * 2 * 2 * 8 * b_a


def test_interleaved_states_do_not_leak():
    layer = _layer(440)
    seq = _drift_inputs(441, steps=15)
    solo = ModulatedLayerState("ec", QuantConfig(bits=4))
    inter = ModulatedLayerState("ec", QuantConfig(bits=4))
    other = ModulatedLayerState("ec", QuantConfig(bits=2))

    warmup(solo, layer, seq[0])
    warmup(inter, layer, seq[0])
    warmup(other, layer, seq[0])
    for a in seq[1:]:
        o_solo, _ = forward_ec(solo, layer, a)
        forward_ec(other, layer, a)  # interleaved traffic on another state
        o_inter, _ = forward_ec(inter, layer, a)
        assert np.array_equal(o_solo, o_inter)


def test_state_misuse_raises():
    layer = _layer(442)
    a = np.ones((2, 24))
    with pytest.raises(StateError):
        forward_ec(ModulatedLayerState("ec", QuantConfig(bits=4)), layer, a)
    with pytest.raises(StateError):
        forward_modulated(ModulatedLayerState("modulated", QuantConfig(bits=4)), layer, a)
    ec_state = ModulatedLayerState("ec", QuantConfig(bits=4))
    warmup(ec_state, layer, a)
    with pytest.raises(StateError):
        forward_modulated(ec_state, layer, a)
    with pytest.raises(ValueError):
        ModulatedLayerState(mode="blended", cfg=QuantConfig(bits=4))


@pytest.mark.parametrize("mode", ["modulated", "ec"])
@pytest.mark.parametrize("stepped", [False, True])
def test_a_delta_step_refuses_another_batch_shape(mode, stepped):
    # it used to broadcast: ec returned a (5, 3) output for a (1, 4) input,
    # and modulated rebound its ref to (1, 4)
    layer = _layer(443, din=4, dout=3)
    forward = forward_ec if mode == "ec" else forward_modulated
    state = ModulatedLayerState(mode, QuantConfig(bits=4))
    warmup(state, layer, RngState(444).normal(size=(5, 4)))
    if stepped:  # the step's scratch exists
        forward(state, layer, RngState(445).normal(size=(5, 4)))
    ref, out = state.ref, state.out
    kept = ref.tobytes(), out.tobytes()
    with pytest.raises(ShapeError, match=r"\(1, 4\).*\(5, 4\)"):
        forward(state, layer, np.ones((1, 4)))
    assert state.ref is ref and state.out is out
    assert (ref.tobytes(), out.tobytes()) == kept


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_public_layer_steps_write_into_no_input(activation):
    layer = _layer(446)
    cfg = QuantConfig(bits=3, skip_threshold=1e-9)
    # hidden-layer inputs, activated from read-only pre-activations and read-only
    # themselves; the last input repeats, so modulated skips
    seq = [_read_only(apply_activation(_read_only(z), activation))
           for z in _drift_inputs(447, steps=5)]
    seq.append(seq[-1])
    kept = [a.tobytes() for a in seq]
    returned = []  # (output, its bytes when returned)

    def took(o):
        assert not any(np.shares_memory(o, a) for a in seq)
        returned.append((o, o.tobytes()))
        return o

    for a in seq:
        took(forward_fp(layer, a)[0])
        took(forward_direct(layer, a, cfg)[0])
        q = _read_only(fake_quant(a, cfg))
        step_diagnostics(value_range(a), a, q)
        step_diagnostics(value_range(a), a)
    for mode, forward in (("modulated", forward_modulated), ("ec", forward_ec)):
        for k in (0, 1, 3):
            state = ModulatedLayerState(mode, cfg)
            o, _ = warmup(state, layer, seq[0], k=k)
            took(o)
            for a in seq[1:]:
                took(forward(state, layer, a)[0])
                assert not any(np.shares_memory(state.ref, b) for b in seq)
    assert [a.tobytes() for a in seq] == kept
    assert all(o.tobytes() == b for o, b in returned)
