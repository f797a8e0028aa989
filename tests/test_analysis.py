"""Analysis-module tests: cost model, drift series, stats, reuse baseline."""

import csv
import io
import math

import numpy as np
import pytest

from modiff.analysis import (
    CSV_COLUMNS,
    ActivationStats,
    MetricsRecord,
    activation_stats,
    bops_count,
    cache_reuse_sample,
    carried_tensor_count,
    collect_metrics,
    macs_for_net,
    op_totals,
    per_step_overhead,
    state_drift,
    state_memory_bytes,
    temporal_concentration,
    trend_nondecreasing,
    write_metrics_csv,
)
from modiff import diffusion, modulated
from modiff.diffusion import SampleTrajectory, make_denoiser, make_schedule, sample
from modiff.errors import NonFiniteError, ShapeError
from modiff.modulated import make_state, warmup
from modiff.quant import QuantConfig
from modiff.rng import RngState
from modiff.tensorops import value_range


def _net(seed=0, hidden=(8,), time_embed=4):
    return make_denoiser(
        RngState(seed), data_dim=2, hidden=hidden, time_embed=time_embed
    )


# --- bops cost model ----------------------------------------------------


def test_bops_single_layer_formula():
    # one 2x3 dense layer at batch 1, 8-bit weights and activations
    assert bops_count((6,), weight_bits=8, act_bits=8) == 6 * 64


def test_bops_full_precision_counts_32():
    assert bops_count((10, 20), weight_bits=8, act_bits=None) == (
        30 * 8 * 32
    )


def test_bops_exactly_linear_in_bits():
    macs = (123, 457, 89)
    base = bops_count(macs, weight_bits=8, act_bits=8)
    assert bops_count(macs, weight_bits=4, act_bits=8) * 2 == base
    assert bops_count(macs, weight_bits=8, act_bits=4) * 2 == base
    assert bops_count(macs, weight_bits=8, act_bits=2) * 4 == base


def test_bops_ratios_match_published_table():
    macs = macs_for_net(_net(), batch=16)
    fp = bops_count(macs, 8, None)
    w8a8 = bops_count(macs, 8, 8)
    w8a4 = bops_count(macs, 8, 4)
    w8a3 = bops_count(macs, 8, 3)
    # reference ratios come from rounded integer entries, hence 0.5% slack
    assert abs(w8a8 / fp - 409 / 1636) < 0.005 * (409 / 1636)
    assert abs(w8a4 / w8a8 - 205 / 409) < 0.005 * (205 / 409)
    assert abs(w8a3 / w8a8 - 153 / 409) < 0.005 * (153 / 409)


def test_macs_for_net_dims():
    net = _net(hidden=(5, 4))  # layers 6->5, 5->4, 4->2
    assert macs_for_net(net, batch=3) == (90, 60, 24)


def test_bops_model_validation():
    with pytest.raises(ValueError):
        bops_count(())
    with pytest.raises(ValueError):
        bops_count((0,))
    with pytest.raises(ValueError):
        bops_count((6,), weight_bits=0)
    with pytest.raises(ValueError):
        bops_count((6,), act_bits=0)


# --- drift series -------------------------------------------------------


def test_state_drift_identical_and_length():
    net = _net()
    sched = make_schedule(9)
    a = sample(net, sched, rng=RngState(3), n=4)
    b = sample(net, sched, rng=RngState(3), n=4)
    series = state_drift(a, b)
    assert series.shape == (10,)  # x_T .. x_0
    assert np.all(series == 0.0)


def test_trend_nondecreasing():
    assert trend_nondecreasing([1.0, 2.0, 3.0, 4.0])
    assert not trend_nondecreasing([4.0, 3.0, 2.0, 1.0])
    assert trend_nondecreasing([2.0, 2.0, 2.0, 2.0])
    assert trend_nondecreasing([5.0])


# --- metrics records and CSV --------------------------------------------


def test_collect_metrics_fp_conventions():
    net = _net()
    sched = make_schedule(7)
    fp = sample(net, sched, rng=RngState(4), n=4)
    recs = collect_metrics(fp, fp)
    assert len(recs) == 7 * len(net.layers)
    assert {r.act_bits for r in recs} == {32}
    assert all(r.drift == 0.0 for r in recs)
    assert all(r.bops > 0 for r in recs)
    assert sorted({r.step for r in recs}) == list(range(1, 8))


def test_collect_metrics_quantized_bits_column():
    net = _net()
    sched = make_schedule(5)
    fp = sample(net, sched, rng=RngState(4), n=4)
    q = sample(
        net, sched, quant_mode="direct", cfg=QuantConfig(bits=5), rng=RngState(4), n=4,
        weight_bits=6,
    )
    recs = collect_metrics(fp, q)
    assert {r.act_bits for r in recs} == {5}
    assert {r.weight_bits for r in recs} == {6}
    macs = macs_for_net(net, batch=4)
    assert all(r.bops == macs[r.layer] * 6 * 5 for r in recs)
    assert all(r.drift >= 0.0 for r in recs)


def test_collect_metrics_raises_at_a_non_finite_drift():
    net = _net()
    sched = make_schedule(5)
    fp = sample(net, sched, rng=RngState(4), n=4)
    q = sample(net, sched, quant_mode="ec", cfg=QuantConfig(bits=4), rng=RngState(4), n=4)
    # finite outputs whose squared distance to fp overflows at step t=4, layer 1
    q.layer_outputs[1][1] = q.layer_outputs[1][1] * 1e306
    with pytest.raises(NonFiniteError) as info:
        collect_metrics(fp, q)
    assert (info.value.t, info.value.layer, info.value.mode) == (4, 1, "ec")
    assert str(info.value) == "non-finite drift at t=4, layer 1, mode ec"


def test_collect_metrics_refuses_a_mismatched_pair():
    net = _net()
    sched = make_schedule(4)
    cfg = QuantConfig(bits=4)
    fp = sample(net, sched, rng=RngState(1), n=4)
    for ref, run, message in [
        # a DDPM seed-1 reference and a DDIM seed-2 run used to give rows labelled seed 2
        (fp, sample(net, sched, "ddim", "ec", cfg, rng=RngState(2), n=4),
         "seeds differ: reference 1, run 2"),
        (fp, sample(net, sched, "ddim", "ec", cfg, rng=RngState(1), n=4),
         "samplers differ: reference 'ddpm', run 'ddim'"),
        (sample(net, sched, quant_mode="direct", cfg=cfg, rng=RngState(1), n=4), fp,
         "the reference must be an fp run, got mode 'direct'"),
    ]:
        with pytest.raises(ValueError, match=message):
            collect_metrics(ref, run)
    with pytest.raises(ShapeError, match="trajectory lengths differ: 4 vs 5"):
        collect_metrics(fp, sample(net, make_schedule(5), rng=RngState(1), n=4))


def test_csv_header_sorting_and_determinism():
    net = _net()
    sched = make_schedule(4)
    fp = sample(net, sched, rng=RngState(6), n=4)
    q = sample(
        net, sched, quant_mode="ec", cfg=QuantConfig(bits=4), rng=RngState(6), n=4
    )
    recs = collect_metrics(fp, fp) + collect_metrics(fp, q)

    buf1, buf2 = io.StringIO(), io.StringIO()
    write_metrics_csv(buf1, recs)
    write_metrics_csv(buf2, list(reversed(recs)))  # order of input must not matter
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(recs) + 1  # header + rows + trailing newline
    assert "\r" not in text
    # fp block sorts before ec at equal seed
    first_modes = [ln.split(",")[1] for ln in lines[1:-1]]
    assert first_modes == sorted(first_modes, key=("fp", "ec").index)


def test_csv_floats_roundtrip_exactly():
    net = _net()
    sched = make_schedule(3)
    fp = sample(net, sched, rng=RngState(8), n=4)
    q = sample(
        net, sched, quant_mode="direct", cfg=QuantConfig(bits=3), rng=RngState(8), n=4
    )
    recs = collect_metrics(fp, q)
    buf = io.StringIO()
    write_metrics_csv(buf, recs)
    rows = buf.getvalue().strip().split("\n")[1:]
    by_key = {
        (int(r.split(",")[4]), int(r.split(",")[5])): r.split(",") for r in rows
    }
    for rec in recs:
        cells = by_key[(rec.step, rec.layer)]
        assert float(cells[6]) == rec.drift
        assert float(cells[9]) == rec.quant_err


def test_csv_cells_match_the_csv_module():
    # numpy floats print as plain floats, flags as 0/1, and a text cell is quoted only if it must be
    mode = 'a,"b"\nc'
    rec = MetricsRecord(seed=0, mode=mode, weight_bits=8, act_bits=4, step=1, layer=0,
                        drift=0.5, act_range=1.0, diff_range=np.float64(0.25), quant_err=0.0,
                        skipped=True, bops=7)
    got, want = io.StringIO(), io.StringIO()
    write_metrics_csv(got, [rec])
    csv.writer(want, lineterminator="\n").writerows(
        [CSV_COLUMNS, [0, mode, 8, 4, 1, 0, "0.5", "1.0", "0.25", "0.0", 1, 7]])
    assert got.getvalue() == want.getvalue()
    assert list(csv.reader(io.StringIO(got.getvalue())))[1][1] == mode


# --- activation statistics ----------------------------------------------


def _hand_trajectory(steps, layers, make_input):
    traj = SampleTrajectory(mode="fp", bits=None, sampler="ddim", seed=0, states=[])
    # assigning layer_inputs overrides the view SampleTrajectory derives from
    # states and layer_outputs, so these inputs need not chain
    traj.layer_inputs = [[make_input(k, l) for l in range(layers)] for k in range(steps)]
    for k in range(steps):
        traj.layer_outputs.append([make_input(k, l) for l in range(layers)])
        traj.diags.append([None] * layers)
    return traj


def test_activation_stats_counts_and_boundary():
    net = _net()
    sched = make_schedule(6)
    traj = sample(net, sched, rng=RngState(9), n=4)
    stats = activation_stats(traj)
    assert len(stats) == 6 * len(net.layers)
    for s in stats:
        if s.step == 6:  # first sampling step has no predecessor
            assert s.diff_min is None and s.diff_range is None
        else:
            assert s.diff_min is not None
            assert s.diff_range >= 0.0


def test_activation_stats_five_point_summary():
    arr = np.array([[0.0, 1.0], [2.0, 10.0]])
    traj = _hand_trajectory(1, 1, lambda k, l: arr)
    (s,) = activation_stats(traj)
    assert (s.act_min, s.act_max) == (0.0, 10.0)
    assert s.act_q50 == pytest.approx(np.median(arr))
    assert s.act_q25 == pytest.approx(np.quantile(arr, 0.25))
    assert s.act_q75 == pytest.approx(np.quantile(arr, 0.75))
    assert s.act_range == 10.0


def test_constant_inputs_have_zero_difference_range():
    base = np.linspace(0.0, 1.0, 8).reshape(2, 4)
    traj = _hand_trajectory(5, 2, lambda k, l: base)
    for s in activation_stats(traj):
        if s.diff_range is not None:
            assert s.diff_range == 0.0
    conc = temporal_concentration(activation_stats(traj))
    for med_diff, med_act, ratio in conc.values():
        assert med_diff == 0.0
        assert med_act == 1.0
        assert ratio == 0.0


def test_temporal_concentration_needs_difference_records():
    stats = activation_stats(_hand_trajectory(1, 2, lambda k, l: np.ones((2, 3))))
    with pytest.raises(ValueError, match="layer 0 has no difference records"):
        temporal_concentration(stats)


def test_temporal_concentration_small_steps():
    rng = RngState(12)
    base = [rng.normal(size=(3, 5)) for _ in range(2)]
    bump = [rng.normal(size=(3, 5)) for _ in range(2)]

    def make_input(k, l):
        return base[l] + 0.01 * k * bump[l]

    conc = temporal_concentration(activation_stats(_hand_trajectory(10, 2, make_input)))
    for med_diff, med_act, ratio in conc.values():
        assert ratio < 0.05
        assert med_diff == pytest.approx(0.01 * np.ptp(bump[0]), rel=1.0)


# --- stale-activation reuse baseline ------------------------------------


@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
def test_reuse_interval_one_is_plain_sampling(sampler):
    net = _net()
    sched = make_schedule(15)
    fp = sample(net, sched, sampler=sampler, rng=RngState(21), n=4)
    cached = cache_reuse_sample(net, sched, 1, RngState(21), sampler=sampler, n=4)
    assert len(fp.states) == len(cached.states)
    for a, b in zip(fp.states, cached.states):
        assert np.array_equal(a, b)
    for k in range(fp.num_steps):
        for l in range(fp.num_layers):
            assert np.array_equal(fp.layer_outputs[k][l], cached.layer_outputs[k][l])
    assert not any(d.skipped for dgs in cached.diags for d in dgs)


def test_reuse_defaults_match_sample_defaults():
    # both default to the same sampler (and n), so a pair built at defaults compares like with like
    net = _net()
    sched = make_schedule(6)
    fp = sample(net, sched, rng=RngState(22))
    cached = cache_reuse_sample(net, sched, 1, RngState(22))
    assert len(fp.states) == len(cached.states)
    for a, b in zip(fp.states, cached.states):
        assert np.array_equal(a, b)


def test_never_updating_equals_ec_with_infinite_skip():
    net = _net()
    sched = make_schedule(20)
    frozen = cache_reuse_sample(net, sched, math.inf, RngState(33), sampler="ddim", n=4)
    ec = sample(
        net,
        sched,
        sampler="ddim",
        quant_mode="ec",
        cfg=QuantConfig(bits=8, skip_threshold=math.inf),
        rng=RngState(33),
        n=4,
        warmup_k=0,
    )
    for a, b in zip(frozen.states, ec.states):
        assert np.array_equal(a, b)
    # inf is the one spelling of "never recompute"
    with pytest.raises(ValueError):
        cache_reuse_sample(net, sched, None, RngState(33), sampler="ddim", n=4)


def test_stale_steps_reuse_the_recomputed_ranges(monkeypatch):
    net = _net()
    sched = make_schedule(10)
    measured = []

    def counting_range(x):
        measured.append(x)
        return value_range(x)

    monkeypatch.setattr(modulated, "value_range", counting_range)  # the fp layer step's
    monkeypatch.setattr(diffusion, "value_range", counting_range, raising=False)
    traj = cache_reuse_sample(net, sched, 3, RngState(2), n=4)
    # only the recomputed steps 0, 3, 6 and 9 measure their inputs
    assert len(measured) == 4 * traj.num_layers
    for k in range(10):
        for stale, fresh in zip(traj.diags[k], traj.diags[k - k % 3]):
            assert stale.act_range == fresh.act_range


def test_reuse_recompute_pattern_and_costs():
    net = _net()
    sched = make_schedule(10)
    for N in (1, 3, math.inf):
        traj = cache_reuse_sample(net, sched, N, RngState(2), n=4)
        for k in range(10):
            expected_skip = k % N != 0  # at N = inf, every step after the first
            for d in traj.diags[k]:
                assert d.skipped == expected_skip
                assert (d.bops == 0) == expected_skip
                assert (d.matmuls == 0) == expected_skip


def test_longer_reuse_drifts_further():
    net = _net(seed=3, hidden=(16, 16))
    sched = make_schedule(40)
    drifts = {}
    for N in (2, 5):
        finals = []
        for seed in range(5):
            fp = sample(net, sched, sampler="ddim", rng=RngState(seed), n=8)
            q = cache_reuse_sample(net, sched, N, RngState(seed), sampler="ddim", n=8)
            finals.append(state_drift(fp, q)[-1])
        drifts[N] = float(np.median(finals))
    assert drifts[5] > drifts[2] > 0.0


def test_reuse_validation():
    net = _net()
    sched = make_schedule(5)
    with pytest.raises(ValueError):
        cache_reuse_sample(net, sched, 0, RngState(0))
    with pytest.raises(ValueError):
        cache_reuse_sample(net, sched, 2.5, RngState(0))
    with pytest.raises(ValueError):
        cache_reuse_sample(net, sched, 2, RngState(0), sampler="euler")


# --- operation and memory accounting ------------------------------------


def test_op_totals_full_precision_run():
    net = _net()  # biased layers: 6->8, 8->2
    sched = make_schedule(5)
    traj = sample(net, sched, rng=RngState(7), n=4)
    totals = op_totals(traj)
    assert totals["adds"] == 5 * 2          # one bias add per layer-step
    assert totals["matmuls"] == 5 * 2
    assert totals["quant_calls"] == 0
    assert totals["dequant_calls"] == 0
    assert totals["bops"] == 5 * (4 * 6 * 8 + 4 * 8 * 2) * 8 * 32


def test_per_step_overhead_ec_vs_direct():
    net = _net()
    sched = make_schedule(20)
    cfg = QuantConfig(bits=4)
    direct = sample(
        net, sched, quant_mode="direct", cfg=cfg, rng=RngState(13), n=4
    )
    ec = sample(
        net, sched, quant_mode="ec", cfg=cfg, rng=RngState(13), n=4,
        warmup_k=0,
    )
    diff = per_step_overhead(direct, ec)
    assert diff == dict(adds=2, quant_calls=0, dequant_calls=1, matmuls=0, bops=0)


def test_state_memory_two_tensors():
    net = _net(hidden=(8,))
    layer = net.layers[0]  # 6 -> 8
    a = RngState(1).normal(size=(2, layer.in_dim))

    ec = make_state("ec", QuantConfig(bits=4))
    warmup(ec, layer, a)
    assert carried_tensor_count(ec) == 2
    assert state_memory_bytes(ec) == 16 * (layer.in_dim + layer.out_dim)

    mod = make_state("modulated", QuantConfig(bits=4))
    warmup(mod, layer, a)
    assert carried_tensor_count(mod) == 2
    assert state_memory_bytes(mod) == 16 * (layer.in_dim + layer.out_dim)
