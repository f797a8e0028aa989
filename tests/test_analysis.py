"""Analysis-module tests: cost model, drift series, stats, reuse baseline."""

import csv
import io
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from modiff.analysis import (
    CSV_COLUMNS,
    MODE_ORDER,
    WEIGHT_BITS,
    MetricsCell,
    activation_stats,
    bops_count,
    cache_reuse_sample,
    carried_tensor_count,
    collect_metrics,
    macs_for_net,
    op_totals,
    per_step_overhead,
    save_metrics_csv,
    state_drift,
    state_memory_bytes,
    temporal_concentration,
    trend_nondecreasing,
)
from modiff import diffusion, modulated, quant, tensorops
from modiff.diffusion import SampleTrajectory, make_denoiser, make_schedule, sample
from modiff.errors import NonFiniteError, ShapeError
from modiff.modulated import (DIAG_DTYPE, LinearLayer, ModulatedLayerState, StepDiagnostics,
                              warmup)
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
    for macs in ((0,), (math.inf,), (float("nan"),), (True,), ("6",)):
        with pytest.raises(ValueError, match="^macs must be positive integers: "):
            bops_count(macs)
    for weight_bits in (0, True, 4.0, np.float64(8.0), "8"):
        with pytest.raises(ValueError, match="^weight_bits must be "):
            bops_count((6,), weight_bits=weight_bits)
    assert bops_count((6,), weight_bits=np.int64(4)) == bops_count((6,), weight_bits=4)
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


def _rows(cell):
    """The cell's CSV rows, split into cells."""
    return [row.split(",") for row in cell.csv_rows().splitlines()]


def test_collect_metrics_fp_conventions():
    net = _net()
    sched = make_schedule(7)
    fp = sample(net, sched, rng=RngState(4), n=4)
    cell = collect_metrics(fp, fp)
    rows = _rows(cell)
    assert len(cell) == 7 * len(net.layers) == len(rows)
    assert cell.act_bits == 32 and {r[3] for r in rows} == {"32"}
    assert cell.drift.shape == (7, len(net.layers)) and (cell.drift == 0.0).all()
    assert all(int(r[11]) > 0 for r in rows)
    assert sorted({int(r[4]) for r in rows}) == list(range(1, 8))


def test_collect_metrics_quantized_bits_column():
    net = _net()
    sched = make_schedule(5)
    fp = sample(net, sched, rng=RngState(4), n=4)
    q = sample(net, sched, quant_mode="direct", cfg=QuantConfig(bits=5), rng=RngState(4), n=4)
    cell = collect_metrics(fp, q)
    rows = _rows(cell)
    assert cell.act_bits == 5 and {r[3] for r in rows} == {"5"}
    assert {r[2] for r in rows} == {str(WEIGHT_BITS)}
    macs = macs_for_net(net, batch=4)
    assert all(int(r[11]) == macs[int(r[5])] * WEIGHT_BITS * 5 for r in rows)
    assert (cell.drift >= 0.0).all()


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


def _saved_csv(path, cells) -> str:
    """The sweep CSV save_metrics_csv writes for `cells` as one seed block, read back raw."""
    save_metrics_csv(path, ["".join(cell.csv_rows() for cell in cells)])
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_csv_header_sorting_and_determinism(tmp_path):
    net = _net()
    sched = make_schedule(4)
    fp = sample(net, sched, rng=RngState(6), n=4)
    q = sample(
        net, sched, quant_mode="ec", cfg=QuantConfig(bits=4), rng=RngState(6), n=4
    )
    cells = [collect_metrics(fp, fp), collect_metrics(fp, q)]

    text = _saved_csv(tmp_path / "one.csv", cells)
    # a fresh collection of the same pairs writes the same bytes
    assert text == _saved_csv(tmp_path / "two.csv",
                              [collect_metrics(fp, fp), collect_metrics(fp, q)])
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + sum(map(len, cells)) + 1  # header + rows + trailing newline
    assert "\r" not in text
    # each cell's rows are its steps ascending, then its layers
    per_cell = 4 * len(net.layers)
    for block in (lines[1:1 + per_cell], lines[1 + per_cell:-1]):
        keys = [(int(c[4]), int(c[5])) for c in (ln.split(",") for ln in block)]
        assert keys == sorted(set(keys)) and len(keys) == per_cell
    assert [ln.split(",")[1] for ln in lines[1:-1]] == ["fp"] * per_cell + ["ec"] * per_cell


def test_csv_is_its_seed_blocks_in_ascending_seed_order():
    net = _net()
    sched = make_schedule(3)
    blocks = {}
    for seed in (5, 1, 3):
        fp = sample(net, sched, rng=RngState(seed), n=4)
        q = [sample(net, sched, quant_mode="ec", cfg=QuantConfig(bits=b),
                    rng=RngState(seed), n=4) for b in (3, 4)]
        # fp rows written once per bits entry, as in a sweep
        blocks[seed] = "".join(row * 2 for row in collect_metrics(fp, fp).csv_rows()
                               .splitlines(keepends=True)) + "".join(
            collect_metrics(fp, qb).csv_rows() for qb in q)
    rows = list(csv.reader(io.StringIO("".join(blocks[seed] for seed in (1, 3, 5)))))
    assert len(rows) == 3 * 4 * 3 * len(net.layers)

    # the blocks in ascending seed order are the rows in the order of the key
    # (seed, mode, b_a, step, layer), each row repeated in place
    def key(r):
        return int(r[0]), MODE_ORDER.index(r[1]), int(r[3]), int(r[4]), int(r[5])

    assert rows == sorted(rows, key=key)
    fp_rows = [r for r in rows if r[1] == "fp"]
    assert fp_rows[0::2] == fp_rows[1::2]
    assert len({tuple(r) for r in rows}) == len(rows) - len(fp_rows) // 2
    empty = MetricsCell(1, "fp", 32, np.empty((0, 3)), np.zeros((0, 3), DIAG_DTYPE),
                        np.zeros((0, 3), int))
    assert empty.csv_rows() == ""


def test_csv_floats_roundtrip_exactly():
    net = _net()
    sched = make_schedule(3)
    fp = sample(net, sched, rng=RngState(8), n=4)
    q = sample(
        net, sched, quant_mode="direct", cfg=QuantConfig(bits=3), rng=RngState(8), n=4
    )
    cell = collect_metrics(fp, q)
    rows = _rows(cell)
    assert len(rows) == len(cell)
    for cells in rows:
        k, l = 3 - int(cells[4]), int(cells[5])
        assert float(cells[6]) == cell.drift[k, l]
        assert float(cells[9]) == cell.diags[k, l]["quant_error_l2"]


def test_csv_cells_match_the_csv_module(tmp_path):
    # numpy floats print as plain floats, flags as 0/1, and a text cell is quoted only if it must be
    mode = 'a,"b"\nc'
    diag = StepDiagnostics(act_range=1.0, residual_range=np.float64(0.25), quant_error_l2=0.0,
                           contraction=0.0, skipped=True)
    cell = MetricsCell(seed=0, mode=mode, act_bits=4, drift=np.array([[0.5]]),
                       diags=np.array([[diag]], DIAG_DTYPE), bops=np.array([[7]]))
    got, want = _saved_csv(tmp_path / "one.csv", [cell]), io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [CSV_COLUMNS, [0, mode, 8, 4, 1, 0, "0.5", "1.0", "0.25", "0.0", 1, 7]])
    assert got == want.getvalue()
    assert list(csv.reader(io.StringIO(got)))[1][1] == mode


# --- activation statistics ----------------------------------------------


def _hand_trajectory(steps, layers, make_input):
    traj = SampleTrajectory(mode="fp", bits=None, sampler="ddim", seed=0, states=[])
    # assigning layer_inputs overrides the view SampleTrajectory derives from
    # states and layer_outputs, so these inputs need not chain
    traj.layer_inputs = [[make_input(k, l) for l in range(layers)] for k in range(steps)]
    for k in range(steps):
        traj.layer_outputs.append([make_input(k, l) for l in range(layers)])
    return traj


def _ranges(table):
    """max - min of each five-point summary in an activation_stats table."""
    return table[..., 4] - table[..., 0]


def test_activation_stats_counts_and_boundary():
    net = _net()
    sched = make_schedule(6)
    traj = sample(net, sched, rng=RngState(9), n=4)
    act, diff = activation_stats(traj)
    assert act.shape == (6, len(net.layers), 5)
    # the first sampling step (t = 6) has no predecessor, so no difference row
    assert diff.shape == (5, len(net.layers), 5)
    assert np.isfinite(diff).all()
    assert (_ranges(diff) >= 0.0).all()


def test_activation_stats_five_point_summary():
    arr = np.array([[0.0, 1.0], [2.0, 10.0]])
    traj = _hand_trajectory(1, 1, lambda k, l: arr)
    act, diff = activation_stats(traj)
    assert act.shape == (1, 1, 5) and diff.shape == (0, 1, 5)
    act_min, act_q25, act_q50, act_q75, act_max = act[0, 0]
    assert (act_min, act_max) == (0.0, 10.0)
    assert act_q50 == pytest.approx(np.median(arr))
    assert act_q25 == pytest.approx(np.quantile(arr, 0.25))
    assert act_q75 == pytest.approx(np.quantile(arr, 0.75))
    assert _ranges(act)[0, 0] == 10.0


def test_constant_inputs_have_zero_difference_range():
    base = np.linspace(0.0, 1.0, 8).reshape(2, 4)
    traj = _hand_trajectory(5, 2, lambda k, l: base)
    act, diff = activation_stats(traj)
    assert (_ranges(diff) == 0.0).all()
    conc = temporal_concentration(act, diff)
    for med_diff, med_act, ratio in conc.values():
        assert med_diff == 0.0
        assert med_act == 1.0
        assert ratio == 0.0


def test_temporal_concentration_needs_difference_records():
    act, diff = activation_stats(_hand_trajectory(1, 2, lambda k, l: np.ones((2, 3))))
    with pytest.raises(ValueError, match="layer 0 has no difference records"):
        temporal_concentration(act, diff)


def test_temporal_concentration_small_steps():
    rng = RngState(12)
    base = [rng.normal(size=(3, 5)) for _ in range(2)]
    bump = [rng.normal(size=(3, 5)) for _ in range(2)]

    def make_input(k, l):
        return base[l] + 0.01 * k * bump[l]

    conc = temporal_concentration(*activation_stats(_hand_trajectory(10, 2, make_input)))
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
    assert not cached.diags["skipped"].any()


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
    act_range = traj.diags["act_range"]
    for k in range(10):
        assert np.array_equal(act_range[k], act_range[k - k % 3])


def test_reuse_recompute_pattern_and_costs():
    net = _net()
    sched = make_schedule(10)
    fp_step = bops_count(macs_for_net(net, batch=4))  # one full-precision pass, all layers
    for N in (1, 3, math.inf):
        traj = cache_reuse_sample(net, sched, N, RngState(2), n=4)
        for k in range(10):
            expected_skip = k % N != 0  # at N = inf, every step after the first
            assert (traj.diags[k]["skipped"] == expected_skip).all()
        # only the recomputed steps cost anything: their matmuls and bias adds
        passes, L = sum(k % N == 0 for k in range(10)), len(net.layers)
        assert op_totals(traj) == dict(adds=passes * L, quant_calls=0, dequant_calls=0,
                                       matmuls=passes * L, bops=passes * fp_step)


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
    # neither -inf nor nan has an int(), and a bool is no interval
    for N in (-math.inf, float("nan"), True):
        with pytest.raises(ValueError, match="^reuse interval must be a positive integer or inf"):
            cache_reuse_sample(net, sched, N, RngState(0))
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


_COUNTED_CASES = [("fp", 0, 0.0), ("direct", 0, 0.0), ("cache", 0, 0.0),
                  *((m, k, 0.0) for m in ("modulated", "ec") for k in (0, 1, 3)),
                  ("modulated", 1, 0.2), ("ec", 1, 0.2), ("ec", 3, 0.2)]


@pytest.mark.parametrize("mode, warmup_k, skip_threshold", _COUNTED_CASES)
def test_op_totals_match_the_quantizer_and_matmul_calls_that_ran(monkeypatch, mode, warmup_k,
                                                                 skip_threshold):
    # the cost model's quant_calls and matmuls are the fake_quant and matmul
    # calls the run makes; dequant_calls and adds are the integer pipeline's,
    # which is not run (EC declares 2 dequantizes a step and runs one
    # fake_quant), so they are not compared here
    net = _net(hidden=(8, 8))
    net.layers[1] = LinearLayer(net.layers[1].weight)  # bias-free among biased layers
    calls = {"fake_quant": 0, "matmul": 0}
    for name, real in (("fake_quant", quant.fake_quant), ("matmul", tensorops.matmul)):
        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "modiff"]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    sched = make_schedule(6)
    if mode == "cache":
        traj = cache_reuse_sample(net, sched, 3, RngState(5), n=4)
    else:
        cfg = None if mode == "fp" else QuantConfig(bits=3, skip_threshold=skip_threshold)
        traj = sample(net, sched, quant_mode=mode, cfg=cfg, rng=RngState(5), n=4,
                      warmup_k=warmup_k)
    if skip_threshold:  # the rule fires on some steps, not on all
        assert 0 < traj.diags["skipped"].sum() < traj.diags["skipped"][1:].size
    totals = op_totals(traj)
    assert (totals["quant_calls"], totals["matmuls"]) == (calls["fake_quant"], calls["matmul"])
    assert totals["matmuls"] > 0


def test_op_totals_need_the_net():
    traj = sample(_net(), make_schedule(3), rng=RngState(7), n=4)
    by_hand = SampleTrajectory(mode="fp", bits=None, sampler=traj.sampler, seed=traj.seed,
                               states=traj.states, layer_outputs=traj.layer_outputs,
                               diags=traj.diags)
    with pytest.raises(ValueError, match="need the net"):
        op_totals(by_hand)


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


def test_per_step_overhead_names_the_first_uneven_step():
    net = _net()
    direct, ec = (sample(net, make_schedule(6), quant_mode=m, cfg=QuantConfig(bits=4),
                         rng=RngState(13), n=4) for m in ("direct", "ec"))
    assert not ec.diags["skipped"].any()

    def skipping(*cells):
        other = replace(ec, diags=ec.diags.copy())
        for k, l in cells:
            other.diags["skipped"][k, l] = True
        return other

    even = dict(adds=2, quant_calls=0, dequant_calls=1, matmuls=0, bops=0)
    # the first step, a warm-up in the delta modes, is not compared
    assert per_step_overhead(direct, skipping((0, 0), (0, 1))) == even
    # a skipped EC step forms its residual only; layer 1 is 8 -> 2 at n = 4, 4 bits
    skipped = dict(adds=0, quant_calls=-1, dequant_calls=-1, matmuls=-1, bops=-4 * 8 * 2 * 8 * 4)
    want = f"overhead is not uniform: step 3 layer 1 gives {skipped}, earlier steps gave {even}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        per_step_overhead(direct, skipping((4, 0), (3, 1)))
    one = sample(net, make_schedule(1), quant_mode="direct", cfg=QuantConfig(bits=4),
                 rng=RngState(13), n=4)
    assert per_step_overhead(one, one) is None


def test_state_memory_two_tensors():
    net = _net(hidden=(8,))
    layer = net.layers[0]  # 6 -> 8
    a = RngState(1).normal(size=(2, layer.in_dim))

    ec = ModulatedLayerState("ec", QuantConfig(bits=4))
    warmup(ec, layer, a)
    assert carried_tensor_count(ec) == 2
    assert state_memory_bytes(ec) == 16 * (layer.in_dim + layer.out_dim)

    mod = ModulatedLayerState("modulated", QuantConfig(bits=4))
    warmup(mod, layer, a)
    assert carried_tensor_count(mod) == 2
    assert state_memory_bytes(mod) == 16 * (layer.in_dim + layer.out_dim)
