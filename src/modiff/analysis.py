"""Measurements over recorded trajectories.

Drift curves against a full-precision reference, activation-range
statistics and their temporal differences, operation/memory accounting,
and CSV emission. Everything here is pure aggregation — nothing samples
and nothing mutates a trajectory. The stale-activation reuse baseline is
a sampler and lives beside sample() in `diffusion`; its name is
re-exported here only because the benchmark harness calls and traces
`analysis.cache_reuse_sample`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from .diffusion import QUANT_MODES, DenoiserNetwork, SampleTrajectory
from .diffusion import cache_reuse_sample  # noqa: F401  re-exported, see above
from .errors import DegenerateReferenceError, NonFiniteError, ShapeError
from .modulated import FP_ACT_BITS, OP_COUNTERS, ModulatedLayerState, bops, sum_counters
from .quant import check_bits
from .tensorops import relative_l2

MODE_ORDER = (*QUANT_MODES, "cache")

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
    if act_bits is not None:
        check_bits(act_bits)
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
    """One MetricsRecord per (step, layer) at q_traj's weight width; drift is on layer outputs.

    The pair must share its seed and sampler, and fp_traj must be an fp
    run (ValueError otherwise). A drift that is not finite (the squared
    sums of finite outputs can overflow) raises NonFiniteError, and one
    against a zero-norm fp output DegenerateReferenceError, each naming its
    step, layer and q_traj's mode.
    """
    if fp_traj.mode != "fp":
        raise ValueError(f"the reference must be an fp run, got mode {fp_traj.mode!r}")
    for name in ("seed", "sampler"):
        ref, run = getattr(fp_traj, name), getattr(q_traj, name)
        if ref != run:
            raise ValueError(f"the pair's {name}s differ: reference {ref!r}, run {run!r}")
    _check_comparable(fp_traj, q_traj)
    T = q_traj.num_steps
    act_bits = FP_ACT_BITS if q_traj.bits is None else q_traj.bits
    records = []
    with np.errstate(over="ignore", invalid="ignore"):  # for the drifts, each checked
        for k in range(T):
            for l in range(q_traj.num_layers):
                d = q_traj.diags[k][l]
                try:
                    drift = relative_l2(q_traj.layer_outputs[k][l], fp_traj.layer_outputs[k][l])
                except DegenerateReferenceError as e:
                    raise DegenerateReferenceError(
                        f"drift at t={T - k}, layer {l}, mode {q_traj.mode}: {e}") from None
                if not math.isfinite(drift):
                    raise NonFiniteError(T - k, l, q_traj.mode, "drift")
                records.append(
                    MetricsRecord(
                        seed=q_traj.seed,
                        mode=q_traj.mode,
                        weight_bits=q_traj.weight_bits,
                        act_bits=act_bits,
                        step=T - k,
                        layer=l,
                        drift=drift,
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


def temporal_concentration(stats) -> dict:
    """Per layer of activation_stats' records: (median difference range,
    median activation range, ratio).

    A ratio well below 1 is the whole premise of quantizing temporal
    differences instead of raw activations. A layer without difference
    records (a one-step trajectory has none) raises ValueError.
    """
    acts, diffs = {}, {}
    for s in stats:
        acts.setdefault(s.layer, []).append(s.act_range)
        if s.diff_range is not None:
            diffs.setdefault(s.layer, []).append(s.diff_range)
    result = {}
    for l in sorted(acts):
        if l not in diffs:
            raise ValueError(f"layer {l} has no difference records; it needs two or more steps")
        med_diff, med_act = float(np.median(diffs[l])), float(np.median(acts[l]))
        result[l] = (med_diff, med_act, math.inf if med_act == 0.0 else med_diff / med_act)
    return result


# --- operation and memory accounting ------------------------------------


def op_totals(traj: SampleTrajectory) -> dict:
    """Summed instrumented counters over every layer-step of a trajectory."""
    return sum_counters([d for dgs in traj.diags for d in dgs])


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
