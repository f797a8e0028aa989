"""Verification-suite tests, including the mutation sanity check."""

import re

import numpy as np
import pytest

from modiff.quant import QuantConfig, error_bound
from modiff.rng import RngState
from modiff.verify import (
    Report,
    _draw_tensor,
    all_passed,
    broken_fake_quant,
    check_error_bound,
    check_warmup_contraction,
    check_width_rule,
    make_drift_sequence,
    run_verify,
)


def test_all_suites_pass_at_reduced_trials():
    reports = run_verify(trials=500)
    assert len(reports) == 10
    assert len({r.name for r in reports}) == 10
    assert all_passed(reports), [r.line() for r in reports if not r.passed]
    for r in reports:
        assert r.trials > 0
        assert r.violations == 0


def test_broken_quantizer_is_caught():
    report = check_error_bound(trials=200, fake_quant_fn=broken_fake_quant)
    assert not report.passed
    assert report.violations > 0
    assert report.counterexample_seed is not None
    assert report.worst > 1.0
    assert "FAIL" in report.line()


def test_tally_counts_one_violation_per_trial():
    report = Report("tally")
    report.check(True, 2.0)
    report.check(True, 3.0)  # a second failed check in the same trial
    report.check(False, 0.5)
    report.close_trial(7)
    report.check(False, 0.25)
    report.close_trial(8)
    report.check(True)  # a failed check without a margin
    report.close_trial(9)
    assert (report.trials, report.violations) == (3, 2)
    assert report.worst == 3.0
    assert report.counterexample_seed == 7


def test_counterexample_seed_is_the_first_failing_trial():
    report = check_error_bound(trials=200, fake_quant_fn=broken_fake_quant)
    root, failing = RngState(2024), []
    for trial in range(200):
        rng = root.fork(trial)
        kind = ("uniform", "gaussian", "lognormal")[trial % 3]
        d = int(rng.integers(4, 1025))
        b = int(rng.integers(1, 9))
        x = _draw_tensor(rng, kind, d)
        errs = [
            (float(np.sum((x - broken_fake_quant(x, QuantConfig(bits=b, rounding=r))) ** 2)),
             error_bound(x, b, r))
            for r in ("floor", "nearest")
        ]
        if any(err2 > bound * (1 + 1e-12) for err2, bound in errs):
            failing.append(trial)
    assert len(failing) > 1
    assert report.violations == len(failing)
    assert report.counterexample_seed == failing[0]


def test_warmup_contraction_counts_each_k_as_a_trial():
    ks = (1, 2, 3, 5)
    report = check_warmup_contraction(seeds=2, ks=ks)
    assert report.trials == 2 * len(ks)
    assert report.violations == 0


def test_report_line_contents():
    report = check_error_bound(trials=50)
    line = report.line()
    assert "PASS" in line
    assert "50 trials" in line
    assert "0 violations" in line


def test_error_bound_regime_counts_cover_all_trials():
    report = check_error_bound(trials=120)
    counts = [int(m) for m in re.findall(r"in (\d+)", report.detail)]
    assert len(counts) == 3
    assert sum(counts) == 120


def test_width_rule_reports_prescribed_widths():
    report = check_width_rule(c=0.25, dims=(16, 64, 256), trials_per_dim=50)
    assert report.passed
    assert "d=16->b=5" in report.detail
    assert "d=64->b=6" in report.detail
    assert "d=256->b=7" in report.detail


def test_width_rule_runs_a_loose_target_at_one_bit():
    report = check_width_rule(c=1e300, dims=(16, 64), trials_per_dim=5)
    assert report.passed
    assert "d=16->b=1, d=64->b=1" in report.detail


def test_drift_sequence_shapes_and_determinism():
    seq = make_drift_sequence(RngState(4), steps=5, batch=3, dim=7)
    assert len(seq) == 5
    assert all(a.shape == (3, 7) for a in seq)
    again = make_drift_sequence(RngState(4), steps=5, batch=3, dim=7)
    for a, b in zip(seq, again):
        assert np.array_equal(a, b)
    # consecutive entries differ (it is a walk, not a constant)
    assert float(np.max(np.abs(seq[1] - seq[0]))) > 0.0


def test_drift_sequence_is_the_step_by_step_walk():
    rng = RngState(4)
    want = [rng.normal(size=(3, 7))]
    for _ in range(5):
        want.append(want[-1] + 0.15 * rng.normal(size=(3, 7)))
    got_rng = RngState(4)
    got = make_drift_sequence(got_rng, steps=6, batch=3, dim=7)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert got_rng.counter == rng.counter
