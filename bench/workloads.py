"""The benchmark's workloads: how each sets up, what one body runs, and how
its outputs are checked.

Every input comes from the benchmark's seed argument through
``random.Random(seed)``: the sweep seed list, the sample seed and each
verify suite's own seed. The trained bundle is pinned (seed 0, the
``modiff train`` defaults) so that all workloads and seeds share one model.
A body calls only the public API of modiff.cli, modiff.diffusion,
modiff.analysis and modiff.verify, and always through the module
attribute, so that a traced body sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import math
import os
import random
import re
import time
from dataclasses import dataclass, field

import numpy as np

from modiff import analysis, cli, diffusion, verify
from modiff.quant import QuantConfig
from modiff.rng import RngState

import tracing

# `modiff train` defaults, spelled out so a change of defaults does not
# silently change the pinned bundle
TRAIN_ARGV = (
    "train", "--seed", "0", "--dataset", "gmm", "--hidden", "64,64",
    "--epochs", "200", "--lr", "1e-2", "--batch", "64",
    "--timesteps", "100", "--beta-end", "0.05",
)
BETA_END = 0.05

# the first sample() call of a process starts the BLAS thread pool; it is
# made during set-up so that its cost lands in setup_s, not in wall_s
FIRST_CALL = dict(timesteps=100, n=256)

_SEED_SPACE = 2**31


@dataclass
class BodyResult:
    # seconds of each timed call into the program (checks excluded); the
    # run reports each call's median over its bodies, and wall_s as their sum
    timings: dict
    work: int              # work items done, for work_per_s
    units: int             # attempted units, for failed_frac
    failed: int
    fingerprint: object    # must repeat exactly in every body of a run
    errors: list = field(default_factory=list)
    exact: dict = field(default_factory=dict)    # exact informational values


def _quiet(fn, *args):
    """Run `fn(*args)` with its stdout captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class Workload:
    name = ""
    why = ""
    needs_bundle = True
    # per-layer metrics the traced run must see as nonzero on this workload
    expect_nonzero: tuple = ()

    def __init__(self, seed: int, workdir: str, traced_run: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.traced_run = traced_run
        self.net = None

    def setup(self) -> None:
        """Train, save and load the pinned bundle; make the first sample() call."""
        if not self.needs_bundle:
            return
        bundle = os.path.join(self.workdir, "bundle")
        rc, _ = _quiet(cli.main, [*TRAIN_ARGV, "--out", bundle])
        if rc != 0:
            raise RuntimeError(f"modiff train exited with {rc}")
        self.bundle = bundle
        self.net = diffusion.load_denoiser(bundle)
        sched = diffusion.make_schedule(FIRST_CALL["timesteps"], beta_end=BETA_END)
        diffusion.sample(self.net, sched, sampler="ddim", quant_mode="fp",
                         n=FIRST_CALL["n"], rng=RngState(0))

    def prepare(self) -> None:
        """Untimed work after set-up that the checks of every body need."""

    def body(self) -> BodyResult:
        """Run the workload once and check what the program returned."""
        raise NotImplementedError


def _spans(*names):
    return tuple(f"{n}.{f}" for n in names for f in ("calls", "s"))


_SETUP_EXPECT = _spans(*tracing.SETUP_LAYERS) + (
    "tensorops.load_tensor.bytes",
)
_OP_EXPECT = tuple(
    f"modulated.{m}.{k}"
    for m in ("direct", "modulated", "ec") for k in tracing.OP_COUNTERS
) + ("modulated.fp.adds", "modulated.fp.matmuls", "modulated.fp.bops")


class SweepGrid(Workload):
    """`modiff sweep` on the pinned bundle at the README's --jobs 2.

    Why: tensors are tiny (n=16), so per-call Python overhead dominates, in
    the quantizer and in input_features. Also in play: the fp reference run
    every cell repeats, DDPM noise draws, collect_metrics and CSV writing,
    and process fan-out. BLAS does almost nothing.
    """

    name = "sweep-grid"
    why = ("tiny tensors, so per-call overhead in the quantizer and input_features "
           "dominates, plus per-cell fp reference runs, DDPM noise, CSV writing "
           "and process fan-out")
    modes = ("fp", "direct", "modulated", "ec")
    bits = (3, 4, 6)
    timesteps = 100
    n = 16
    jobs = 2
    expect_nonzero = _SETUP_EXPECT + _OP_EXPECT + _spans(
        "modulated.forward_direct", "modulated.forward_modulated",
        "modulated.forward_ec", "modulated.warmup",
        "diffusion.sample", "diffusion.DenoiserNetwork.input_features",
        "diffusion.apply_activation", "diffusion.ddpm_step", "rng.normal",
        "analysis.collect_metrics", "analysis.save_metrics_csv",
    ) + ("analysis.save_metrics_csv.bytes", "diffusion.recorded_bytes",
         "cli.cells", "cli.rows", "cli.fp_reference_runs")

    def __init__(self, seed, workdir, traced_run):
        super().__init__(seed, workdir, traced_run)
        self.seeds = [self.rng.randrange(_SEED_SPACE) for _ in range(3)]

    def _cells(self):
        return [(s, m, b) for s in self.seeds for m in self.modes for b in self.bits]

    def _sweep(self, jobs: int):
        out = os.path.join(self.workdir, f"sweep-jobs{jobs}.csv")
        argv = [
            "sweep", "--bundle", self.bundle,
            "--seeds", ",".join(map(str, self.seeds)),
            "--modes", ",".join(self.modes), "--bits", ",".join(map(str, self.bits)),
            "--sampler", "ddpm", "--timesteps", str(self.timesteps),
            "--beta-end", str(BETA_END), "--n", str(self.n),
            "--jobs", str(jobs), "--out", out,
        ]
        t0 = time.perf_counter()
        rc, text = _quiet(cli.main, argv)
        wall = time.perf_counter() - t0
        data = b""
        if rc == 0:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        return wall, rc, text, data

    def _groups(self, data: bytes):
        """Rows of each (seed, mode, b_a) block, and the blocks holding a
        non-finite value. fp cells of every bit-width all write b_a=32, so
        one block can hold several cells."""
        groups, nonfinite = {}, set()
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or tuple(rows[0]) != tuple(analysis.CSV_COLUMNS):
            return groups, nonfinite
        for row in rows[1:]:
            rec = dict(zip(analysis.CSV_COLUMNS, row))
            key = (int(rec["seed"]), rec["mode"], int(rec["b_a"]))
            groups.setdefault(key, []).append(row)
            if not all(math.isfinite(float(rec[c]))
                       for c in ("drift", "act_range", "diff_range", "quant_err")):
                nonfinite.add(key)
        return groups, nonfinite

    @staticmethod
    def _block(seed, mode, bits):
        return (seed, mode, 32 if mode == "fp" else bits)

    def _body_jobs(self):
        # the tracer sees only its own process, so a traced run sweeps
        # serially, traced and untraced bodies alike
        return 1 if self.traced_run else self.jobs

    def prepare(self):
        # every body's CSV must be byte-identical to one written with the
        # other --jobs setting
        _, rc, _, self.reference = self._sweep(self.jobs if self._body_jobs() == 1 else 1)
        if rc != 0:
            raise RuntimeError(f"reference sweep exited with {rc}")
        self.reference_groups, _ = self._groups(self.reference)

    def body(self):
        wall, rc, text, data = self._sweep(self._body_jobs())
        cells = self._cells()
        m = re.search(r"(\d+) rows \((\d+) expected\)", text)
        errors = []
        if rc != 0 or m is None:
            errors.append(f"sweep exited with {rc}: {text.strip()!r}")
            return BodyResult({"sweep_s": wall}, 0, len(cells), len(cells), None, errors)
        printed, expected = int(m.group(1)), int(m.group(2))
        groups, nonfinite = self._groups(data)
        if nonfinite:
            errors.append(f"non-finite values in {len(nonfinite)} (seed, mode, b_a) blocks")
        rows = sum(len(g) for g in groups.values())
        if not printed == rows == expected:
            errors.append(f"sweep wrote {rows} rows, printed {printed}, expected {expected}")
        per_cell = self.timesteps * len(self.net.layers)
        bad_blocks = set()
        for seed, mode, bits in cells:
            key = self._block(seed, mode, bits)
            want = per_cell * sum(self._block(*c) == key for c in cells)
            block = groups.get(key, [])
            if (len(block) != want or key in nonfinite
                    or block != self.reference_groups.get(key)):
                bad_blocks.add(key)
        failed = sum(self._block(*c) in bad_blocks for c in cells)
        if data != self.reference:
            errors.append("sweep CSV differs from the one written with the other --jobs "
                          f"setting in {len(bad_blocks)} (seed, mode, b_a) blocks")
        digest = hashlib.sha256(data).hexdigest()
        return BodyResult({"sweep_s": wall}, rows, len(cells), failed, digest, errors,
                          exact={"sweep_csv_sha256": (digest, "sha256")})


def _finite(traj) -> bool:
    return all(np.isfinite(s).all() for s in traj.states) and all(
        np.isfinite(o).all() for step in traj.layer_outputs for o in step
    )


class SampleWide(Workload):
    """Wide DDIM trajectories of every mode plus the cache baseline, called
    through the library.

    Why: activations are wide (n=256), so the matmul, the quantizer's
    elementwise passes and the diagnostic reductions dominate, and the
    recorded trajectories grow RSS with T. No CLI, no CSV, no per-step noise.
    T=100 rather than a longer trajectory keeps each call short enough that
    a run times every mode some 60 times, and keeps the hundreds of MB a
    long recording allocates from adding page-fault noise to the timings.
    """

    name = "sample-wide"
    why = ("wide activations over recorded DDIM trajectories, so matmul, quantizer "
           "passes and diagnostics dominate and recorded trajectories set peak RSS")
    timesteps = 100
    n = 256
    bits = 4
    cache_interval = 2
    expect_nonzero = _SETUP_EXPECT + _OP_EXPECT + _spans(
        "quant.fake_quant", "quant.fit_params", "quant.quantize", "quant.dequantize",
        "quant.contraction_ratio", "tensorops.value_range", "tensorops.relative_l2",
        "tensorops.matmul", "modulated.forward_direct", "modulated.forward_modulated",
        "modulated.forward_ec", "modulated.warmup", "diffusion.sample",
        "diffusion.ddim_step", "analysis.cache_reuse_sample",
    ) + ("quant.fake_quant.elems", "tensorops.matmul.flops", "diffusion.recorded_bytes",
         "modulated.cache.adds", "modulated.cache.matmuls", "modulated.cache.bops")

    def __init__(self, seed, workdir, traced_run):
        super().__init__(seed, workdir, traced_run)
        self.seed = self.rng.randrange(_SEED_SPACE)

    def _call(self, mode, sched):
        if mode == "cache":
            return analysis.cache_reuse_sample(
                self.net, sched, self.cache_interval, RngState(self.seed),
                sampler="ddim", n=self.n)
        cfg = None if mode == "fp" else QuantConfig(bits=self.bits)
        return diffusion.sample(self.net, sched, sampler="ddim", quant_mode=mode,
                                cfg=cfg, n=self.n, rng=RngState(self.seed))

    def body(self):
        sched = diffusion.make_schedule(self.timesteps, beta_end=BETA_END)
        timings, exact, nonfinite, errors = {}, {}, [], []

        def run(mode):
            t0 = time.perf_counter()
            traj = self._call(mode, sched)
            timings[f"sample_s.{mode}"] = time.perf_counter() - t0
            if not _finite(traj):
                nonfinite.append(mode)
            return traj

        def drift(traj):
            exact[f"final_drift.{traj.mode}"] = (
                float(analysis.state_drift(ref, traj)[-1]), "ratio")

        fp = run("fp")
        # only the fp states are kept, as the drift reference
        ref = diffusion.SampleTrajectory(
            mode="fp", bits=None, sampler="ddim", seed=fp.seed, states=fp.states)
        del fp
        direct = run("direct")
        drift(direct)
        ec = run("ec")
        drift(ec)
        # criterion 11: EC costs +2 adds and +1 dequantize per layer-step
        # over direct once warm-up is past
        extra = analysis.per_step_overhead(direct, ec)
        want = dict(adds=2, quant_calls=0, dequant_calls=1, matmuls=0, bops=0)
        if extra != want:
            errors.append(f"EC minus direct per layer-step is {extra}, expected {want}")
        del direct, ec
        drift(run("modulated"))
        drift(run("cache"))
        if nonfinite:
            errors.append(f"non-finite outputs in the {', '.join(nonfinite)} trajectories")
        layer_steps = len(timings) * self.timesteps * len(self.net.layers)
        fingerprint = tuple(sorted((k, v) for k, (v, _) in exact.items()))
        return BodyResult(timings, layer_steps, len(timings), len(nonfinite),
                          fingerprint, errors, exact)


class VerifySuites(Workload):
    """The ten randomized verify suites at a tenth of their default sizes.

    Why: several thousand quantizer calls on tensors of at most 256
    elements plus heavy rng use, with no bundle, no sampling loop and no
    BLAS, so a quantizer change that speeds up wide tensors but adds
    per-call cost shows here. A tenth of the default sizes keeps one body
    near 0.7 s, so that a run times each suite some 50 times and its median
    is not at the mercy of a few slow seconds of the host.
    """

    name = "verify-suites"
    why = ("thousands of quantizer calls on tensors of at most 256 elements and heavy "
           "rng use, with no bundle, sampling loop or BLAS")
    needs_bundle = False
    # each suite's size argument, a tenth of its default (at least 1)
    size_args = {
        "check_error_bound": "trials",
        "check_rounding_edges": "trials",
        "check_monotone_bits": "trials",
        "check_channel_vs_tensor": "trials",
        "check_width_rule": "trials_per_dim",
        "check_reformulation_exactness": "seeds",
        "check_ec_identities": "seeds",
        "check_per_step_bound": "seeds",
        "check_accumulation_bounds": "seeds",
        "check_warmup_contraction": "seeds",
    }
    size_divisor = 10
    expect_nonzero = _spans(
        "quant.fake_quant", "quant.fit_params", "quant.quantize", "quant.dequantize",
        "rng.normal",
    ) + tuple(f"verify.{s}.s" for s in tracing.VERIFY_SUITES)

    def __init__(self, seed, workdir, traced_run):
        super().__init__(seed, workdir, traced_run)
        # run_verify forwards its seed to the error-bound suite only, so
        # each suite is called directly with a seed of its own
        self.calls = []
        for suite in tracing.VERIFY_SUITES:
            fn_seed = self.rng.randrange(_SEED_SPACE)
            params = inspect.signature(getattr(verify, suite)).parameters
            size = self.size_args[suite]
            kwargs = {"seed0" if "seed0" in params else "seed": fn_seed,
                      size: max(1, params[size].default // self.size_divisor)}
            self.calls.append((suite, kwargs))

    def body(self):
        timings, trials, failed, errors, fingerprint = {}, 0, 0, [], []
        for suite, kwargs in self.calls:
            t0 = time.perf_counter()
            report = getattr(verify, suite)(**kwargs)
            timings[f"suite_s.{suite}"] = time.perf_counter() - t0
            trials += report.trials
            fingerprint.append((report.violations, report.worst))
            if not report.passed:
                failed += 1
                errors.append(report.line())
        return BodyResult(timings, trials, len(self.calls), failed, tuple(fingerprint), errors)


WORKLOADS = {w.name: w for w in (SweepGrid, SampleWide, VerifySuites)}
