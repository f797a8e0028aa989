"""Randomized verification suites for the quantizer and modulation bounds.

Each suite draws seeded trials, measures every quantity it needs (per-call
contraction ratios, operator norms, raw deltas) and checks the claimed
inequality with a pinned floating-point slack. A suite never assumes a
contraction regime — it measures and reports it. The error-bound suite
accepts an injectable quantizer so a deliberately broken implementation
can demonstrate that the check actually bites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulated import (
    LinearLayer,
    forward_ec,
    forward_modulated,
    make_state,
    warmup,
)
from .quant import (
    QuantConfig,
    QuantizedTensor,
    bits_for_contraction,
    contraction_ratio,
    dequantize,
    error_bound,
    fake_quant,
    fit_params,
    quantize,
)
from .rng import RngState
from .tensorops import operator_norm, relative_l2

_DISTRIBUTIONS = ("uniform", "gaussian", "lognormal")
# the layer extents the width-rule suite checks its prescribed widths at
WIDTH_RULE_DIMS = (16, 64, 256)


@dataclass
class Report:
    """Tally of one verification suite.

    A suite records each check of a trial with `check` and ends the trial
    with `close_trial`: a trial with any failed check counts as one
    violation, and the seed of the first such trial is kept so that it can
    be replayed.
    """

    name: str
    trials: int = 0
    violations: int = 0
    worst: float = 0.0                 # peak measured/allowed ratio (<= 1 passes)
    counterexample_seed: int | None = None
    detail: str = ""
    _trial_failed = False  # a check of the open trial failed; not a field

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def check(self, violated, ratio=None) -> None:
        """One check of the open trial; `ratio` is its measured/allowed margin."""
        if ratio is not None:
            self.worst = max(self.worst, ratio)
        if violated:
            self._trial_failed = True

    def close_trial(self, seed, count=1) -> None:
        """End the open trial, which stands for `count` trials of the suite."""
        self.trials += count
        if self._trial_failed:
            self.violations += 1
            if self.counterexample_seed is None:
                self.counterexample_seed = seed
        self._trial_failed = False

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        msg = (
            f"[{tag}] {self.name}: {self.trials} trials, "
            f"{self.violations} violations, worst margin {self.worst:.3e}"
        )
        if self.counterexample_seed is not None:
            msg += f", counterexample seed {self.counterexample_seed}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


# --- shared generators --------------------------------------------------


def make_drift_sequence(rng: RngState, steps: int, batch=4, dim=24):
    """Random walk with 0.15-scaled normal steps; entry 0 is the warm-up input."""
    seq = [rng.normal(size=(batch, dim))]
    for _ in range(steps - 1):
        seq.append(seq[-1] + 0.15 * rng.normal(size=(batch, dim)))
    return seq


def _random_layer(rng: RngState, din=24, dout=16) -> LinearLayer:
    w = rng.normal(size=(din, dout)) / math.sqrt(din)
    return LinearLayer(weight=w, bias=0.1 * rng.normal(size=dout))


def _drift_cases(bits, seeds, steps, seed0):
    """(seed, config, layer, walk) for each bit-width in `bits` (None is
    the identity quantizer) and each of `seeds` random layers, each with
    its drift walk of `steps` inputs."""
    for b in bits:
        cfg = QuantConfig(bits=b)
        for s in range(seeds):
            base = RngState(seed0 + s)
            layer = _random_layer(base.fork(1))
            yield seed0 + s, cfg, layer, make_drift_sequence(base.fork(2), steps)


def _draw_tensor(rng: RngState, kind: str, d: int):
    if kind == "uniform":
        return rng.uniform(size=d) * 4.0 - 2.0
    if kind == "gaussian":
        return rng.normal(size=d)
    return np.exp(rng.normal(size=d))


# --- quantizer suites ---------------------------------------------------


def broken_fake_quant(x, cfg):
    """Deliberately wrong fake_quant for self-tests: clamps one level short
    at the top, which must trip the error-bound suite."""
    p = fit_params(x, cfg)
    q = quantize(x, p, cfg.rounding)
    clipped = np.minimum(q.ints, (1 << cfg.bits) - 2).astype(np.int32)
    return dequantize(QuantizedTensor(ints=clipped, params=q.params))


def check_error_bound(trials=10_000, seed=2024, fake_quant_fn=None) -> Report:
    """Worst-case reconstruction error bound, floor plus the nearest analog.

    Per trial: one distribution x dimension x bit-width draw, checked in
    both rounding modes. The floor-mode contraction ratio is bucketed so
    the report shows which regimes the random family actually visits.
    """
    fq = fake_quant_fn or fake_quant
    root = RngState(seed)
    report = Report("quantizer error bound")
    regimes = [0, 0, 0]
    for trial in range(trials):
        rng = root.fork(trial)
        kind = _DISTRIBUTIONS[trial % len(_DISTRIBUTIONS)]
        d = int(rng.integers(4, 1025))
        b = int(rng.integers(1, 9))
        x = _draw_tensor(rng, kind, d)
        for rounding in ("floor", "nearest"):
            err = x - fq(x, QuantConfig(bits=b, rounding=rounding))
            err2 = float(np.sum(err ** 2))
            bound = error_bound(x, b, rounding)
            report.check(err2 > bound * (1 + 1e-12),
                         err2 / bound if bound > 0 else float(err2 > 0))
            if rounding == "floor":
                c = contraction_ratio(x, err)
                regimes[0 if c < 0.5 else (1 if c < 1.0 else 2)] += 1
        report.close_trial(trial)
    report.detail = (
        f"floor contraction: c<1/2 in {regimes[0]}, "
        f"1/2<=c<1 in {regimes[1]}, c>=1 in {regimes[2]} trials"
    )
    return report


def check_rounding_edges(trials=2000, seed=2025) -> Report:
    """Clamp behaviour on the quantizer's own fit.

    Floor mode may land one step below zero before the clamp (bottom edge
    only) and keeps per-element error within one step; nearest mode never
    needs the clamp at all and stays within half a step.
    """
    root = RngState(seed)
    report = Report("rounding edge behaviour")
    bottom_clips = 0
    for trial in range(trials):
        rng = root.fork(trial)
        d = int(rng.integers(16, 513))
        b = int(rng.integers(1, 9))
        x = rng.normal(size=d) + rng.uniform() * 4.0 - 2.0

        p = fit_params(x, QuantConfig(bits=b, rounding="floor"))
        s = float(p.scale)
        pre = np.floor(x / s) + int(p.zero_point)
        report.check(pre.max() > (1 << b) - 1 or pre.min() < -1)
        bottom_clips += pre.min() == -1
        err = float(np.max(np.abs(x - fake_quant(x, QuantConfig(bits=b, rounding="floor")))))
        report.check(err > s * (1 + 1e-12), err / s)

        pn = fit_params(x, QuantConfig(bits=b, rounding="nearest"))
        sn = float(pn.scale)
        pre_n = np.rint(x / sn) + int(pn.zero_point)
        report.check(pre_n.min() < 0 or pre_n.max() > (1 << b) - 1)
        err_n = float(
            np.max(np.abs(x - fake_quant(x, QuantConfig(bits=b, rounding="nearest"))))
        )
        report.check(err_n > sn / 2 * (1 + 1e-12), err_n / (sn / 2))
        report.close_trial(trial)
    report.detail = f"bottom pre-clamp engaged in {bottom_clips} trials, top never"
    return report


def check_monotone_bits(trials=300, seed=309) -> Report:
    """More bits never hurt, on the family where that is actually true:
    floor mode from 2 bits up, nearest mode from 1 bit, dims >= 16."""
    root = RngState(seed)
    report = Report("monotone improvement in bits")
    for trial in range(trials):
        rng = root.fork(trial)
        x = rng.normal(size=int(rng.integers(16, 257)))
        for rounding, b_lo in (("floor", 2), ("nearest", 1)):
            errs = [
                float(
                    np.sum(
                        (x - fake_quant(x, QuantConfig(bits=bb, rounding=rounding))) ** 2
                    )
                )
                for bb in range(b_lo, 9)
            ]
            for hi_bits_err, lo_bits_err in zip(errs[1:], errs[:-1]):
                report.check(hi_bits_err > lo_bits_err * (1 + 1e-9),
                             hi_bits_err / lo_bits_err if lo_bits_err > 0 else None)
        report.close_trial(trial)
    return report


def check_channel_vs_tensor(trials=200, seed=2026) -> Report:
    """Channel-wise fit must equal an independent tensor-wise fit per slice."""
    root = RngState(seed)
    report = Report("channel-wise equals per-slice fit")
    for trial in range(trials):
        rng = root.fork(trial)
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(4, 65))
        x = rng.normal(size=(rows, cols)) * (1.0 + rng.uniform(size=cols) * 3.0)
        got = fake_quant(x, QuantConfig(bits=4, granularity="channel"))
        for j in range(cols):
            want = fake_quant(x[:, j], QuantConfig(bits=4))
            dev = float(np.max(np.abs(got[:, j] - want)))
            scale_ref = max(float(np.max(np.abs(want))), 1e-12)
            report.check(dev > scale_ref * 1e-12, dev / (scale_ref * 1e-12 + 1e-300))
        report.close_trial(trial)
    return report


def check_width_rule(c=0.25, dims=WIDTH_RULE_DIMS, trials_per_dim=1000, seed=9000) -> Report:
    """The prescribed bit-width keeps the measured contraction at or below c."""
    root = RngState(seed)
    report = Report(f"prescribed-width contraction at c={c}")
    widths = {}
    for d in dims:
        b = bits_for_contraction(d, c)
        widths[d] = b
        cfg = QuantConfig(bits=b, rounding="floor")
        for trial in range(trials_per_dim):
            rng = root.fork(d * 100_000 + trial)
            kind = _DISTRIBUTIONS[trial % len(_DISTRIBUTIONS)]
            x = _draw_tensor(rng, kind, d)
            ratio = contraction_ratio(x, x - fake_quant(x, cfg))
            report.check(ratio > c * (1 + 1e-12), ratio / c)
            report.close_trial(d * 100_000 + trial)
    report.detail = "prescribed widths: " + ", ".join(f"d={d}->b={b}" for d, b in widths.items())
    return report


# --- modulation suites --------------------------------------------------


def check_reformulation_exactness(seeds=20, steps=100, seed0=5000) -> Report:
    """With an identity quantizer both modulated paths track the direct
    full-precision output within 1e-5 relative at every step."""
    report = Report("reformulation exactness (identity quantizer)")
    for seed, identity, layer, seq in _drift_cases((None,), seeds, steps, seed0):
        st_mod = make_state("modulated", identity)
        st_ec = make_state("ec", identity)
        warmup(st_mod, layer, seq[0])
        warmup(st_ec, layer, seq[0])
        for a in seq[1:]:
            ref = layer.apply(a)
            o_mod, _ = forward_modulated(st_mod, layer, a)
            o_ec, _ = forward_ec(st_ec, layer, a)
            rel = max(relative_l2(o_mod, ref), relative_l2(o_ec, ref))
            report.check(rel > 1e-5, rel / 1e-5)
        report.close_trial(seed)
    return report


def check_ec_identities(seeds=6, steps=60, bits=(2, 3, 4, 6, 8), seed0=6000) -> Report:
    """Structural identities of the compensated path at real bit-widths:
    the cached output equals the layer applied to the cached input, and
    the tracking gap equals the current step's quantization error alone."""
    report = Report("error-compensation identities")
    for seed, cfg, layer, seq in _drift_cases(bits, seeds, steps, seed0):
        st = make_state("ec", cfg)
        warmup(st, layer, seq[0])
        for a in seq[1:]:
            before = st.ref.copy()
            forward_ec(st, layer, a)
            rel = relative_l2(st.out, layer.apply(st.ref))
            report.check(rel > 1e-9, rel / 1e-9)
            resid = a - before
            expected_gap = resid - fake_quant(resid, cfg)
            gap = a - st.ref
            dev = float(np.linalg.norm(gap - expected_gap))
            allowed = 1e-10 * max(1.0, float(np.linalg.norm(expected_gap)))
            report.check(dev > allowed, dev / allowed)
        report.close_trial(seed)
    return report


def check_per_step_bound(seeds=6, steps=60, bits=(2, 3, 4, 6, 8), seed0=7000) -> Report:
    """Per-step output error against sqrt(c) * ||A||_2 * tracking gap, with
    c measured on the very call being checked."""
    report = Report("per-step compensated error bound")
    for seed, cfg, layer, seq in _drift_cases(bits, seeds, steps, seed0):
        opn = operator_norm(layer.weight)
        st = make_state("ec", cfg)
        warmup(st, layer, seq[0])
        for a in seq[1:]:
            gap = float(np.linalg.norm(a - st.ref))
            o, diag = forward_ec(st, layer, a)
            lhs = float(np.linalg.norm(layer.apply(a) - o))
            rhs = math.sqrt(diag.contraction) * opn * gap * (1 + 1e-6) + 1e-12
            report.check(lhs > rhs, lhs / rhs if rhs > 0 else float(lhs > 0))
        report.close_trial(seed)
    return report


def check_accumulation_bounds(seeds=6, steps=100, bits=(3, 4, 6), seed0=8000) -> Report:
    """Accumulated error bounds, evaluated as the recurrences they come from.

    Without compensation the step error obeys
        E_t <= 2 c_t ||A||^2 ||delta_t||^2 + 2 E_prev,
    so the right-hand side accumulated from measured per-call contractions
    bounds the measured error at every step (doubling of old terms is the
    accumulation signature). With compensation the tracking gap obeys
        G_t <= 2 ||delta_t||^2 + 2 c_prev G_prev,
    and the output error stays within c_t ||A||^2 G_t — no doubling chain
    on the output error itself.
    """
    report = Report("accumulated error recurrences")
    for seed, cfg, layer, seq in _drift_cases(bits, seeds, steps, seed0):
        opn2 = operator_norm(layer.weight) ** 2 * (1 + 1e-6)

        st = make_state("modulated", cfg)
        warmup(st, layer, seq[0])
        bound = 0.0
        for j in range(1, steps):
            a = seq[j]
            delta2 = float(np.sum((a - seq[j - 1]) ** 2))
            o, diag = forward_modulated(st, layer, a)
            bound = 2.0 * diag.contraction * opn2 * delta2 + 2.0 * bound
            err2 = float(np.sum((layer.apply(a) - o) ** 2))
            allowed = bound * (1 + 1e-9) + 1e-15
            report.check(err2 > allowed, err2 / allowed)

        st = make_state("ec", cfg)
        warmup(st, layer, seq[0])
        gap_bound, c_prev = 0.0, 0.0
        for j in range(1, steps):
            a = seq[j]
            delta2 = float(np.sum((a - seq[j - 1]) ** 2))
            gap2 = float(np.sum((a - st.ref) ** 2))
            o, diag = forward_ec(st, layer, a)
            gap_bound = 2.0 * delta2 + 2.0 * c_prev * gap_bound
            allowed_gap = gap_bound * (1 + 1e-9) + 1e-15
            report.check(gap2 > allowed_gap, gap2 / allowed_gap)
            err2 = float(np.sum((layer.apply(a) - o) ** 2))
            allowed = diag.contraction * opn2 * gap2 * (1 + 1e-9) + 1e-15
            report.check(err2 > allowed, err2 / allowed if allowed > 0 else float(err2 > 0))
            c_prev = diag.contraction
        report.close_trial(seed)
    return report


def check_warmup_contraction(seeds=10, ks=(1, 2, 3, 5), bits=4, seed0=9100) -> Report:
    """Repeated warm-up contracts the input gap geometrically in the
    worst measured per-pass ratio. Each k is a trial; a seed that fails at
    any k is one violation."""
    cfg = QuantConfig(bits=bits)
    report = Report("repeated warm-up contraction")
    for s in range(seeds):
        base = RngState(seed0 + s)
        layer = _random_layer(base.fork(1), din=64, dout=32)
        a = base.fork(2).normal(size=(4, 64))
        norm_a = float(np.linalg.norm(a))
        for k in ks:
            st = make_state("ec", cfg)
            _, diags = warmup(st, layer, a, k=k)
            c_max = max(d.contraction for d in diags)
            gap = float(np.linalg.norm(a - st.ref))
            allowed = c_max ** (k / 2.0) * norm_a * (1 + 1e-9) + 1e-12
            report.check(gap > allowed, gap / allowed)
        report.close_trial(seed0 + s, count=len(ks))
    return report


# --- top level ----------------------------------------------------------


def run_verify(trials=10_000, seed=2024, fake_quant_fn=None, contraction=0.25):
    """Run every suite; returns the list of Reports in a stable order."""
    return [
        check_error_bound(trials=trials, seed=seed, fake_quant_fn=fake_quant_fn),
        check_rounding_edges(),
        check_monotone_bits(),
        check_channel_vs_tensor(),
        check_width_rule(c=contraction),
        check_reformulation_exactness(),
        check_ec_identities(),
        check_per_step_bound(),
        check_accumulation_bounds(),
        check_warmup_contraction(),
    ]
