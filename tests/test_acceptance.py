"""Acceptance suite: one test per numbered criterion, each ending with a
single recorded status line (printed by conftest at the end of the run).

Tolerances and trial counts are pinned here on purpose; loosening them is
a behaviour change, not a test fix. The trained model used by criteria
5-7 is the frozen reference configuration from the training tests.
"""

import time

import numpy as np
import pytest

from modiff.analysis import (
    activation_stats,
    bops_count,
    cache_reuse_sample,
    carried_tensor_count,
    macs_for_net,
    per_step_overhead,
    state_drift,
    state_memory_bytes,
    temporal_concentration,
    trend_nondecreasing,
)
from modiff.diffusion import make_denoiser, make_schedule, sample
from modiff.modulated import ModulatedLayerState, forward_ec, warmup
from modiff.quant import QuantConfig
from modiff.rng import RngState
from modiff.train import TrainConfig, loss_and_grads_at, train_denoiser
from modiff.verify import (
    check_width_rule,
    check_ec_identities,
    check_error_bound,
    check_per_step_bound,
    check_reformulation_exactness,
)

# Reference trained model: frozen alongside the training tests, which
# measure loss ratios 0.31..0.45 across seeds for this configuration.
REF_SCHED_KWARGS = dict(timesteps=100, beta_end=0.05)
REF_CFG_KWARGS = dict(lr=1e-2, batch=64, epochs=200)

_train_seconds = 0.0


@pytest.fixture(scope="module")
def ref_sched():
    return make_schedule(**REF_SCHED_KWARGS)


@pytest.fixture(scope="module")
def trained_net(ref_sched):
    global _train_seconds
    t0 = time.perf_counter()
    net = train_denoiser(TrainConfig(seed=0, **REF_CFG_KWARGS), ref_sched)
    _train_seconds = time.perf_counter() - t0
    return net


def test_criterion_01_quantizer_error_bound(record_property):
    t0 = time.perf_counter()
    report = check_error_bound(trials=10_000, seed=2024)
    elapsed = time.perf_counter() - t0
    assert report.violations == 0, report.line()
    assert report.trials == 10_000
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    record_property(
        "criterion",
        f"[PASS] criterion 1: floor/nearest error bound, 10000 trials, "
        f"0 violations, worst margin {report.worst:.3e}, {elapsed:.1f} s",
    )


def test_criterion_02_identity_reformulation_exact(record_property):
    t0 = time.perf_counter()
    report = check_reformulation_exactness(seeds=20, steps=100)
    elapsed = time.perf_counter() - t0
    assert report.violations == 0, report.line()
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    record_property(
        "criterion",
        f"[PASS] criterion 2: identity-quantizer reformulation within 1e-5 "
        f"over 20 seeds x 100 steps, worst {report.worst:.3e}, {elapsed:.1f} s",
    )


def test_criterion_03_compensated_identities(record_property):
    report = check_ec_identities(seeds=6, steps=60, bits=(2, 3, 4, 6, 8))
    assert report.violations == 0, report.line()
    record_property(
        "criterion",
        f"[PASS] criterion 3: compensated-path identities (1e-9 output, "
        f"1e-10 carrier) over b in {{2,3,4,6,8}}, worst {report.worst:.3e}",
    )


def test_criterion_04_per_step_bound(record_property):
    report = check_per_step_bound(seeds=6, steps=60, bits=(2, 3, 4, 6, 8))
    assert report.violations == 0, report.line()
    record_property(
        "criterion",
        f"[PASS] criterion 4: per-step compensated error bound, 0 violations, "
        f"worst margin {report.worst:.3e}",
    )


def test_criterion_05_error_ordering(trained_net, ref_sched, record_property):
    t0 = time.perf_counter()
    bits = (3, 4, 6)
    n_seeds = 20
    wins = {b: 0 for b in bits}
    noec_series = {b: [] for b in bits}
    # deterministic sampler: fresh per-step noise would inflate the
    # temporal differences that modulation feeds on
    for seed in range(n_seeds):
        fp = sample(
            trained_net, ref_sched, sampler="ddim", quant_mode="fp",
            rng=RngState(seed),
        )
        finals = {}
        for b in bits:
            cfg = QuantConfig(bits=b)
            for mode in ("direct", "modulated", "ec"):
                q = sample(
                    trained_net, ref_sched, sampler="ddim", quant_mode=mode,
                    cfg=cfg, rng=RngState(seed),
                )
                drift = state_drift(fp, q)
                finals[mode] = drift[-1]
                if mode == "modulated":
                    noec_series[b].append(drift)
            if finals["ec"] <= finals["modulated"] <= finals["direct"]:
                wins[b] += 1
    elapsed = time.perf_counter() - t0
    total = _train_seconds + elapsed

    for b in bits:
        assert wins[b] >= 19, f"b={b}: ordering held in only {wins[b]}/20 seeds"
        mean_series = np.mean(np.stack(noec_series[b]), axis=0)
        assert trend_nondecreasing(mean_series), f"b={b}: drift trend decreased"
    assert total < 120.0, f"took {total:.1f} s including training"
    record_property(
        "criterion",
        f"[PASS] criterion 5: final-drift ordering ec<=modulated<=direct in "
        f"{min(wins.values())}/20 seeds (worst width), trend non-decreasing, "
        f"{total:.1f} s incl. training",
    )


def test_criterion_06_difference_concentration(trained_net, ref_sched, record_property):
    traj = sample(
        trained_net, ref_sched, sampler="ddim", quant_mode="fp", rng=RngState(0)
    )
    conc = temporal_concentration(activation_stats(traj))
    hidden = {ly: v for ly, v in conc.items() if ly >= 1}
    assert hidden, "expected at least one hidden layer"
    for ly, (med_diff, med_act, _ratio) in hidden.items():
        assert med_diff < med_act, (
            f"layer {ly}: diff range {med_diff:.4f} not below act range {med_act:.4f}"
        )
    shrink = {ly: med_act / med_diff for ly, (med_diff, med_act, _r) in hidden.items()}
    noted = ", ".join(f"layer {ly}: {s:.1f}x" for ly, s in sorted(shrink.items()))
    record_property(
        "criterion",
        f"[PASS] criterion 6: step-difference ranges below activation ranges "
        f"on every hidden layer ({noted}; large-model reference >10x, "
        f"not asserted at toy scale)",
    )


def test_criterion_07_cache_baseline_monotone(trained_net, ref_sched, record_property):
    intervals = (1, 2, 3, 5)
    n_seeds = 20
    medians = []
    for N in intervals:
        finals = []
        for seed in range(n_seeds):
            fp = sample(
                trained_net, ref_sched, sampler="ddim", quant_mode="fp",
                rng=RngState(seed),
            )
            cached = cache_reuse_sample(
                trained_net, ref_sched, N, RngState(seed), sampler="ddim"
            )
            finals.append(state_drift(fp, cached)[-1])
        medians.append(float(np.median(finals)))
        if N == 1:
            assert all(f == 0.0 for f in finals), "N=1 must reproduce the run exactly"
    for lo, hi in zip(medians, medians[1:]):
        assert lo <= hi, f"medians not monotone: {medians}"
    record_property(
        "criterion",
        "[PASS] criterion 7: cache-reuse drift monotone in N, medians "
        + ", ".join(f"N={n}: {m:.3f}" for n, m in zip(intervals, medians)),
    )


def test_criterion_08_bops_ratios(trained_net, record_property):
    macs = macs_for_net(trained_net, batch=16)

    def bops(a_bits):
        return bops_count(macs, weight_bits=8, act_bits=a_bits)

    checks = (
        ("8/8 vs 8/32", bops(8) / bops(None), 409 / 1636),
        ("8/4 vs 8/8", bops(4) / bops(8), 205 / 409),
        ("8/3 vs 8/8", bops(3) / bops(8), 153 / 409),
    )
    for label, got, want in checks:
        assert abs(got / want - 1.0) < 5e-3, f"{label}: {got:.4f} vs {want:.4f}"
    record_property(
        "criterion",
        "[PASS] criterion 8: cost ratios "
        + ", ".join(f"{lbl} = {got:.4f} (ref {want:.4f})" for lbl, got, want in checks)
        + ", each within 0.5%",
    )


def test_criterion_09_prescribed_width_contracts(record_property):
    report = check_width_rule(c=0.25, dims=(16, 64, 256), trials_per_dim=1000)
    assert report.violations == 0, report.line()
    record_property(
        "criterion",
        f"[PASS] criterion 9: prescribed widths ({report.detail}) keep the "
        f"measured contraction <= 0.25 on 1000 inputs per width",
    )


def test_criterion_10_gradient_check(record_property):
    net = make_denoiser(RngState(42).fork(1), hidden=(8, 6), time_embed=4)
    rng = RngState(4242)
    x_t = rng.normal(size=(5, 2))
    t_batch = rng.integers(1, 101, size=5)
    eps = rng.normal(size=(5, 2))
    _, grads = loss_and_grads_at(net, x_t, t_batch, eps)

    params = []
    for li, layer in enumerate(net.layers):
        params.append((li, "weight", layer.weight))
        if layer.bias is not None:
            params.append((li, "bias", layer.bias))
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 100:
        li, kind, arr = params[int(rng.integers(0, len(params)))]
        flat = int(rng.integers(0, arr.size))
        orig = arr.flat[flat]
        arr.flat[flat] = orig + h
        up, _ = loss_and_grads_at(net, x_t, t_batch, eps)
        arr.flat[flat] = orig - h
        down, _ = loss_and_grads_at(net, x_t, t_batch, eps)
        arr.flat[flat] = orig
        fd = (up - down) / (2 * h)
        analytic = grads[li][0 if kind == "weight" else 1].flat[flat]
        rel = abs(analytic - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-4, f"layer {li} {kind}[{flat}]: {analytic} vs {fd}"
        checked += 1
    record_property(
        "criterion",
        f"[PASS] criterion 10: analytic gradients match central differences on "
        f"{checked} coordinates, worst relative gap {worst:.2e}",
    )


def test_criterion_11_overhead_accounting(trained_net, ref_sched, record_property):
    cfg = QuantConfig(bits=4)
    direct = sample(
        trained_net, ref_sched, quant_mode="direct", cfg=cfg, rng=RngState(0)
    )
    ec = sample(trained_net, ref_sched, quant_mode="ec", cfg=cfg, rng=RngState(0))
    extra = per_step_overhead(direct, ec)
    assert extra == dict(adds=2, quant_calls=0, dequant_calls=1, matmuls=0, bops=0), extra

    per_layer = []
    for layer in trained_net.layers:
        st = ModulatedLayerState("ec", cfg)
        a = RngState(7).normal(size=(16, layer.in_dim))
        warmup(st, layer, a)
        forward_ec(st, layer, a + 0.01)
        assert carried_tensor_count(st) == 2
        per_layer.append(state_memory_bytes(st))
    record_property(
        "criterion",
        f"[PASS] criterion 11: compensated path costs +2 adds +1 dequantize per "
        f"layer-step over direct, carries exactly 2 tensors per layer "
        f"({sum(per_layer)} bytes total at batch 16)",
    )
