"""Measurements over recorded trajectories.

Drift curves against a full-precision reference, activation-range
statistics and their temporal differences, the stale-activation reuse
baseline, operation/memory accounting, and CSV emission. Everything here
is pure aggregation — nothing mutates a trajectory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from .diffusion import (
    QUANT_MODES,
    DenoiserNetwork,
    DiffusionSchedule,
    SampleTrajectory,
    _forward_layers,
    _run_trajectory,
)
from .errors import ShapeError
from .modulated import FP_ACT_BITS, ModulatedLayerState, bops, forward_fp, step_diagnostics
from .rng import RngState
from .tensorops import relative_l2, value_range

MODE_ORDER = (*QUANT_MODES, "cache")
OP_COUNTERS = ("adds", "quant_calls", "dequant_calls", "matmuls", "bops")

CSV_COLUMNS = (
    "seed", "mode", "b_w", "b_a", "step", "layer",
    "drift", "act_range", "diff_range", "quant_err", "skipped", "bops",
)


# --- binary-operation accounting ----------------------------------------


def macs_for_net(net: DenoiserNetwork, batch: int = 1) -> tuple:
    """Per-layer multiply-accumulate counts for a dense forward pass."""
    return tuple(ly.macs(batch) for ly in net.layers)


def bops_count(macs, weight_bits: int = 8, act_bits: int | None = None) -> int:
    """Total binary operations of the per-layer `macs` (quantizer calls are not counted)."""
    if not macs:
        raise ValueError("need at least one layer")
    if any(int(m) != m or m < 1 for m in macs):
        raise ValueError(f"macs must be positive integers: {macs}")
    if weight_bits < 1:
        raise ValueError(f"weight_bits must be >= 1, got {weight_bits}")
    if act_bits is not None and act_bits < 1:
        raise ValueError(f"act_bits must be >= 1 or None, got {act_bits}")
    return sum(bops(int(m), weight_bits, act_bits) for m in macs)


# --- drift against a reference run --------------------------------------


def _check_comparable(fp_traj: SampleTrajectory, q_traj: SampleTrajectory):
    if fp_traj.num_steps != q_traj.num_steps:
        raise ShapeError(
            f"trajectory lengths differ: {fp_traj.num_steps} vs {q_traj.num_steps}"
        )
    if fp_traj.num_layers != q_traj.num_layers:
        raise ShapeError(
            f"layer counts differ: {fp_traj.num_layers} vs {q_traj.num_layers}"
        )


def feature_drift(
    fp_traj: SampleTrajectory,
    q_traj: SampleTrajectory,
    layer: int | None = None,
    on: str = "output",
) -> np.ndarray:
    """Per-step relative l2 distance of one layer's tensors between runs.

    layer None selects the middle layer; `on` picks the layer's input or
    output stream. Entry k corresponds to sampling step k (timestep T-k).
    """
    _check_comparable(fp_traj, q_traj)
    if on not in ("input", "output"):
        raise ValueError(f"on must be 'input' or 'output', got {on!r}")
    if layer is None:
        layer = q_traj.num_layers // 2
    if not 0 <= layer < q_traj.num_layers:
        raise ValueError(f"layer {layer} out of range 0..{q_traj.num_layers - 1}")
    fp_seq = fp_traj.layer_outputs if on == "output" else fp_traj.layer_inputs
    q_seq = q_traj.layer_outputs if on == "output" else q_traj.layer_inputs
    return np.array(
        [relative_l2(q_seq[k][layer], fp_seq[k][layer]) for k in range(q_traj.num_steps)]
    )


def state_drift(fp_traj: SampleTrajectory, q_traj: SampleTrajectory) -> np.ndarray:
    """Relative l2 distance of the sampled states x_T .. x_0 (length T+1)."""
    if len(fp_traj.states) != len(q_traj.states):
        raise ShapeError(
            f"state counts differ: {len(fp_traj.states)} vs {len(q_traj.states)}"
        )
    return np.array(
        [relative_l2(q, fp) for q, fp in zip(q_traj.states, fp_traj.states)]
    )


def trend_nondecreasing(series) -> bool:
    """Accumulation signature: mean of the second half >= mean of the first."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size < 2:
        return True
    half = arr.size // 2
    return float(np.mean(arr[half:])) >= float(np.mean(arr[:half]))


# --- per-record metrics and CSV emission --------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    seed: int
    mode: str
    weight_bits: int
    act_bits: int           # 32 stands for full precision
    step: int               # diffusion timestep t (T .. 1)
    layer: int
    drift: float
    act_range: float
    diff_range: float
    quant_err: float
    skipped: bool
    bops: int


def collect_metrics(fp_traj: SampleTrajectory, q_traj: SampleTrajectory) -> list:
    """One MetricsRecord per (step, layer) at q_traj's weight width; drift is on layer outputs."""
    _check_comparable(fp_traj, q_traj)
    T = q_traj.num_steps
    act_bits = q_traj.bits
    if q_traj.mode in ("fp", "cache") or act_bits in (None, 0):
        act_bits = FP_ACT_BITS
    records = []
    for k in range(T):
        for l in range(q_traj.num_layers):
            d = q_traj.diags[k][l]
            records.append(
                MetricsRecord(
                    seed=q_traj.seed,
                    mode=q_traj.mode,
                    weight_bits=q_traj.weight_bits,
                    act_bits=act_bits,
                    step=T - k,
                    layer=l,
                    drift=relative_l2(
                        q_traj.layer_outputs[k][l], fp_traj.layer_outputs[k][l]
                    ),
                    act_range=d.act_range,
                    diff_range=d.residual_range,
                    quant_err=d.quant_error_l2,
                    skipped=d.skipped,
                    bops=d.bops,
                )
            )
    return records


def _record_sort_key(r: MetricsRecord):
    mode_rank = MODE_ORDER.index(r.mode) if r.mode in MODE_ORDER else len(MODE_ORDER)
    return (r.seed, mode_rank, r.weight_bits, r.act_bits, r.step, r.layer)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _write_csv(fh, header, columns, records) -> None:
    """The package's one CSV dialect: a header row, a row per record, LF endings.

    columns gives each column's record attribute and cell kind (two or more),
    and cells are formatted a column at a time: float as repr(float(v)), or
    empty for None; bool as 0/1; int as str(v); str quoted if it needs it.
    """
    cells = []
    by_column = zip(*map(attrgetter(*(attr for attr, _ in columns)), records))
    for values, (_, kind) in zip(by_column, columns):
        if kind is float:
            values = ["" if v is None else repr(float(v)) for v in values]
        elif kind is bool:
            values = map(str, map(int, values))
        elif kind is str:
            values = ['"%s"' % v.replace('"', '""') if _NEEDS_QUOTES.search(v) else v
                      for v in map(str, values)]
        else:
            values = map(str, values)
        cells.append(values)
    # joined here rather than by the csv module, whose per-field cost is most of a sweep CSV's
    fh.write("\n".join(map(",".join, chain([header], zip(*cells)))) + "\n")


_METRICS_COLUMNS = tuple(zip((f.name for f in fields(MetricsRecord)),
                             (int, str, int, int, int, int, float, float, float, float, bool, int)))


def write_metrics_csv(fh, records) -> None:
    """Deterministic sweep CSV: the records in a stable sort."""
    _write_csv(fh, CSV_COLUMNS, _METRICS_COLUMNS, sorted(records, key=_record_sort_key))


def save_metrics_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_metrics_csv(fh, records)


# --- activation statistics ----------------------------------------------


@dataclass(frozen=True)
class ActivationStats:
    step: int               # diffusion timestep t
    layer: int
    act_min: float
    act_q25: float
    act_q50: float
    act_q75: float
    act_max: float
    diff_min: float | None = None
    diff_q25: float | None = None
    diff_q50: float | None = None
    diff_q75: float | None = None
    diff_max: float | None = None

    @property
    def act_range(self) -> float:
        return self.act_max - self.act_min

    @property
    def diff_range(self) -> float | None:
        if self.diff_max is None:
            return None
        return self.diff_max - self.diff_min


def _five_point(arr) -> tuple:
    q25, q50, q75 = np.quantile(arr, (0.25, 0.5, 0.75))
    return float(np.min(arr)), float(q25), float(q50), float(q75), float(np.max(arr))


def activation_stats(traj: SampleTrajectory) -> list:
    """Per step and layer: five-point summaries of the raw layer inputs and
    of their change since the previous sampling step.

    The first recorded step (timestep T) has no predecessor and therefore
    no difference entry.
    """
    out = []
    T = traj.num_steps
    for k in range(T):
        for l in range(traj.num_layers):
            a = traj.layer_inputs[k][l]
            mn, q25, q50, q75, mx = _five_point(a)
            rec = dict(
                step=T - k, layer=l,
                act_min=mn, act_q25=q25, act_q50=q50, act_q75=q75, act_max=mx,
            )
            if k > 0:
                diff = a - traj.layer_inputs[k - 1][l]
                dmn, dq25, dq50, dq75, dmx = _five_point(diff)
                rec.update(
                    diff_min=dmn, diff_q25=dq25, diff_q50=dq50,
                    diff_q75=dq75, diff_max=dmx,
                )
            out.append(ActivationStats(**rec))
    return out


def save_stats_csv(path, stats) -> None:
    """activation_stats' records, a column per field; the first step's diff cells are empty."""
    names = [f.name for f in fields(ActivationStats)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, names, [(n, int if n in ("step", "layer") else float) for n in names], stats)


def temporal_concentration(traj: SampleTrajectory) -> dict:
    """Per layer: (median difference range, median activation range, ratio).

    A ratio well below 1 is the whole premise of quantizing temporal
    differences instead of raw activations.
    """
    result = {}
    for l in range(traj.num_layers):
        acts = [value_range(traj.layer_inputs[k][l]) for k in range(traj.num_steps)]
        diffs = [
            value_range(traj.layer_inputs[k][l] - traj.layer_inputs[k - 1][l])
            for k in range(1, traj.num_steps)
        ]
        med_act = float(np.median(acts))
        med_diff = float(np.median(diffs))
        ratio = math.inf if med_act == 0.0 else med_diff / med_act
        result[l] = (med_diff, med_act, ratio)
    return result


# --- stale-activation reuse baseline ------------------------------------


def cache_reuse_sample(
    net: DenoiserNetwork,
    sched: DiffusionSchedule,
    N,
    rng: RngState,
    sampler: str = "ddpm",
    n: int = 16,
) -> SampleTrajectory:
    """Full-precision sampling that recomputes layer outputs only on every
    N-th step and serves the stale tensors in between.

    N=1 recomputes every step (identical to plain sampling, bit for bit);
    N=inf (or None) recomputes only the very first step. The noise
    discipline is sample()'s, so paired comparisons against other modes
    share their x_T and per-step noise exactly.
    """
    if N is None:
        N = math.inf
    if N != math.inf:
        if int(N) != N or N < 1:
            raise ValueError(f"reuse interval must be a positive integer or inf: {N}")
        N = int(N)
    cached = None
    weight_bits = 8

    def fp_step(i, layer, a):
        return forward_fp(layer, a, weight_bits)

    def denoise(x, t):
        nonlocal cached
        if (sched.timesteps - t) % N == 0 or cached is None:
            cached = _forward_layers(net, x, t, fp_step)
            return cached
        ins, outs, _ = cached
        reused = [step_diagnostics(value_range(a), x_range=0.0, skipped=True) for a in ins]
        return list(ins), list(outs), reused

    return _run_trajectory(net, sched, sampler, n, rng, "cache", None, weight_bits, denoise)


# --- operation and memory accounting ------------------------------------


def op_totals(traj: SampleTrajectory) -> dict:
    """Summed instrumented counters over every layer-step of a trajectory."""
    totals = dict.fromkeys(OP_COUNTERS, 0)
    for dgs in traj.diags:
        for d in dgs:
            for key in OP_COUNTERS:
                totals[key] += getattr(d, key)
    return totals


def op_overhead(base: SampleTrajectory, other: SampleTrajectory) -> dict:
    """Counter differences (other minus base), summed over the run."""
    a, b = op_totals(base), op_totals(other)
    return {k: b[k] - a[k] for k in a}


def per_step_overhead(base: SampleTrajectory, other: SampleTrajectory) -> dict:
    """Per layer-step counter differences over matched steps.

    The first step is skipped, so that a warm-up entry is excluded (a
    one-step run compares nothing and gives None). The difference must be
    the same at every compared (step, layer) — that uniformity is the
    point — and a ValueError is raised if it is not.
    """
    _check_comparable(base, other)
    diff = None
    for k in range(1, base.num_steps):
        for l in range(base.num_layers):
            db, do = base.diags[k][l], other.diags[k][l]
            cur = {key: getattr(do, key) - getattr(db, key) for key in OP_COUNTERS}
            if diff is None:
                diff = cur
            elif cur != diff:
                raise ValueError(
                    f"overhead is not uniform: step {k} layer {l} gives {cur}, "
                    f"earlier steps gave {diff}"
                )
    return diff


def carried_tensor_count(state: ModulatedLayerState) -> int:
    """How many persistent tensors the layer keeps between steps."""
    return sum(arr is not None for arr in (state.ref, state.out))


def state_memory_bytes(state: ModulatedLayerState) -> int:
    """Bytes held by the persistent per-layer tensors."""
    return sum(arr.nbytes for arr in (state.ref, state.out) if arr is not None)
