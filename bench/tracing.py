"""Per-layer tracing of the modiff modules, done from the benchmark's side.

Nothing inside the program keeps a timer. For a traced run the benchmark
swaps each public function listed in LAYERS for a wrapper that records a
span (calls, inclusive seconds, and the part of that time spent in traced
callees) plus counters computed from the arguments and the result.

The modules bind their helpers with ``from .x import f``, so a caller looks
a function up in its own namespace, not in the module that defines it:
``modiff.modulated.fake_quant`` and ``modiff.quant.fake_quant`` are two
names for one object. `patched` therefore rebinds the function in every
loaded modiff module that holds it (methods are rebound on their class),
and puts every original back on exit.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from modiff import analysis


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


@dataclass
class Tracer:
    """In-memory spans and counters of one traced stretch of work."""

    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)  # child seconds of each open span

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span named `name`; `count(args, kwargs, result)`
        returns {counter name: increment}, evaluated after the span closes."""
        span = self.spans.setdefault(name, Span())

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                span.calls += 1
                span.s += dur
                span.child_s += self._open.pop()
                if self._open:
                    self._open[-1] += dur
            self._count(count, args, kwargs, result)
            return result

        return traced

    def counted(self, fn, count):
        """`fn` with counters only, no span."""

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(count, args, kwargs, result)
            return result

        return counting

    def _count(self, count, args, kwargs, result):
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


MODES = ("fp", "direct", "modulated", "ec", "cache")
OP_COUNTERS = ("adds", "quant_calls", "dequant_calls", "matmuls", "bops")


def _trajectory_counts(traj) -> dict:
    """Exact op totals of one returned trajectory, and the bytes it holds."""
    out = {
        f"modulated.{traj.mode}.{k}": v for k, v in analysis.op_totals(traj).items()
    }
    seen, nbytes = set(), 0
    arrays = [*traj.states]
    for step in (*traj.layer_inputs, *traj.layer_outputs):
        arrays.extend(step)
    for arr in arrays:
        if id(arr) not in seen:  # the cache baseline re-records stale tensors
            seen.add(id(arr))
            nbytes += arr.nbytes
    out["diffusion.recorded_bytes"] = nbytes
    return out


SPAN_FIELDS = ("calls", "s", "self_s")  # metrics emitted for each span
# (defining module, attribute, span name, counters from (args, kwargs, result))
LAYERS = (
    ("modiff.quant", "fake_quant", "quant.fake_quant",
     lambda a, k, r: {"quant.fake_quant.elems": int(np.size(_arg(a, k, 0, "x")))}),
    ("modiff.quant", "fit_params", "quant.fit_params", None),
    ("modiff.quant", "quantize", "quant.quantize", None),
    ("modiff.quant", "dequantize", "quant.dequantize", None),
    ("modiff.quant", "contraction_ratio", "quant.contraction_ratio", None),
    ("modiff.tensorops", "value_range", "tensorops.value_range", None),
    ("modiff.tensorops", "relative_l2", "tensorops.relative_l2", None),
    ("modiff.tensorops", "matmul", "tensorops.matmul",
     lambda a, k, r: {"tensorops.matmul.flops": 2 * int(np.size(r)) * a[0].shape[1]}),
    ("modiff.tensorops", "load_tensor", "tensorops.load_tensor",
     lambda a, k, r: {"tensorops.load_tensor.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("modiff.train", "train_denoiser", "train.train_denoiser", None),
    ("modiff.train", "loss_and_grads", "train.loss_and_grads", None),
    ("modiff.diffusion", "load_denoiser", "diffusion.load_denoiser", None),
    ("modiff.modulated", "forward_direct", "modulated.forward_direct", None),
    ("modiff.modulated", "forward_modulated", "modulated.forward_modulated", None),
    ("modiff.modulated", "forward_ec", "modulated.forward_ec", None),
    ("modiff.modulated", "warmup", "modulated.warmup", None),
    ("modiff.diffusion", "sample", "diffusion.sample",
     lambda a, k, r: _trajectory_counts(r)),
    ("modiff.diffusion", "DenoiserNetwork.input_features",
     "diffusion.DenoiserNetwork.input_features", None),
    ("modiff.diffusion", "apply_activation", "diffusion.apply_activation", None),
    ("modiff.diffusion", "ddpm_step", "diffusion.ddpm_step", None),
    ("modiff.diffusion", "ddim_step", "diffusion.ddim_step", None),
    ("modiff.rng", "RngState.normal", "rng.normal", None),
    ("modiff.analysis", "collect_metrics", "analysis.collect_metrics", None),
    ("modiff.analysis", "save_metrics_csv", "analysis.save_metrics_csv",
     lambda a, k, r: {"analysis.save_metrics_csv.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("modiff.analysis", "cache_reuse_sample", "analysis.cache_reuse_sample",
     lambda a, k, r: _trajectory_counts(r)),
)

VERIFY_SUITES = (
    "check_error_bound",
    "check_rounding_edges",
    "check_monotone_bits",
    "check_channel_vs_tensor",
    "check_width_rule",
    "check_reformulation_exactness",
    "check_ec_identities",
    "check_per_step_bound",
    "check_accumulation_bounds",
    "check_warmup_contraction",
)

# counters that hang on one caller's binding only: the sweep command's
# own view of the sampler and of the per-cell metric collection
CLI_COUNTERS = (
    ("sample", lambda a, k, r: {
        "cli.fp_reference_runs": int(_arg(a, k, 3, "quant_mode", "fp") == "fp")}),
    ("collect_metrics", lambda a, k, r: {"cli.cells": 1, "cli.rows": len(r)}),
)

# counters computed from shapes or file sizes rather than timed
EXTRA_COUNTS = (
    ("quant.fake_quant.elems", "count"),
    ("tensorops.matmul.flops", "flop.computed"),
    ("tensorops.load_tensor.bytes", "bytes"),
    ("analysis.save_metrics_csv.bytes", "bytes"),
)

# layers that run during set-up; their metrics cover set-up plus one body
SETUP_LAYERS = (
    "tensorops.load_tensor",
    "train.train_denoiser",
    "train.loss_and_grads",
    "diffusion.load_denoiser",
)

OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for _, _, name, _ in LAYERS:
        units.update({f"{name}.{f}": "count" if f == "calls" else "s" for f in SPAN_FIELDS})
    units.update(EXTRA_COUNTS)
    units.update({f"modulated.{m}.{k}": "count" for m in MODES for k in OP_COUNTERS})
    units["diffusion.recorded_bytes"] = "bytes"
    units.update({"cli.cells": "count", "cli.rows": "count", "cli.fp_reference_runs": "count"})
    units.update({f"verify.{s}.s": "s" for s in VERIFY_SUITES})
    units[OVERHEAD] = "s"
    return units


def _modiff_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "modiff" or n.startswith("modiff."))]


@contextmanager
def patched(tracer: Tracer):
    """Route every listed layer through `tracer` while the block runs."""
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def trace(module_name, attr, name, count=None):
        owner = sys.modules[module_name]
        if "." in attr:  # a method: rebind it on its class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            rebind(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))
            return
        orig = getattr(owner, attr)
        wrapper = tracer.wrap(name, orig, count)
        for module in _modiff_modules():
            if module.__dict__.get(attr) is orig:
                rebind(module, attr, wrapper)

    try:
        for layer in LAYERS:
            trace(*layer)
        for suite in VERIFY_SUITES:
            trace("modiff.verify", suite, f"verify.{suite}")
        cli = sys.modules["modiff.cli"]
        for attr, count in CLI_COUNTERS:
            rebind(cli, attr, tracer.counted(getattr(cli, attr), count))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def layer_values(tracer: Tracer) -> dict:
    """Flat {metric: value} of one tracer, zeros for layers it never saw."""
    out = {}
    for _, _, name, _ in LAYERS:
        span = tracer.spans.get(name, Span())
        out.update({f"{name}.calls": span.calls, f"{name}.s": span.s,
                    f"{name}.self_s": span.self_s})
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = tracer.spans.get(f"verify.{suite}", Span()).s
    for metric, unit in per_layer_units().items():
        if unit != "s" and metric not in out:
            out[metric] = tracer.counts.get(metric, 0)
    return out
