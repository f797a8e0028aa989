"""Measurements over recorded trajectories.

Drift curves against a full-precision reference, activation-range
statistics and their temporal differences, operation/memory accounting,
and CSV emission. A sweep cell (collect_metrics) keeps its labels once and
its drifts as a (T, L) table beside the run's diagnostics, and writes its
rows straight from those columns in CSV order, so nothing is sorted.
Everything here is pure aggregation — nothing samples and nothing mutates
a trajectory. The stale-activation reuse baseline is
a sampler and lives beside sample() in `diffusion`; its name is
re-exported here only because the benchmark harness calls and traces
`analysis.cache_reuse_sample`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .diffusion import QUANT_MODES, DenoiserNetwork, SampleTrajectory
from .diffusion import cache_reuse_sample  # noqa: F401  re-exported, see above
from .errors import DegenerateReferenceError, NonFiniteError, ShapeError
from .modulated import (FP_ACT_BITS, OP_COUNTERS, WEIGHT_BITS, ModulatedLayerState, bops,
                        sum_counters)
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


def bops_count(macs, weight_bits: int = WEIGHT_BITS, act_bits: int | None = None) -> int:
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


# --- per-cell metrics and CSV emission ----------------------------------


@dataclass(frozen=True)
class MetricsCell:
    """The sweep CSV rows of one run paired with its fp reference: the
    labels once, the drifts as a (T, L) table and the run's own
    diagnostics beside them. Its length is its row count."""

    seed: int
    mode: str
    act_bits: int                  # FP_ACT_BITS stands for full precision
    drift: np.ndarray = field(repr=False)  # drift[k, l]: step t = T - k, layer l
    diags: list = field(repr=False)        # the run's StepDiagnostics, diags[k][l]

    def __len__(self) -> int:
        return self.drift.size

    def csv_rows(self) -> str:
        """The cell's sweep CSV rows, steps ascending, then layers."""
        T, L = self.drift.shape
        n = T * L
        # k = T - 1 .. 0 is t = 1 .. T
        diags = [d for dgs in reversed(self.diags) for d in dgs]
        return _csv_rows([
            (int, [self.seed] * n), (str, [self.mode] * n), (int, [WEIGHT_BITS] * n),
            (int, [self.act_bits] * n),
            (int, [t for t in range(1, T + 1) for _ in range(L)]), (int, list(range(L)) * T),
            (float, self.drift[::-1].ravel().tolist()),
            *((kind, list(map(attrgetter(name), diags))) for name, kind in _DIAG_COLUMNS),
        ])


# the StepDiagnostics fields of the CSV columns act_range .. bops
_DIAG_COLUMNS = (("act_range", float), ("residual_range", float), ("quant_error_l2", float),
                 ("skipped", bool), ("bops", int))


def collect_metrics(fp_traj: SampleTrajectory, q_traj: SampleTrajectory) -> MetricsCell:
    """The pair's cell: q_traj's rows, b_w at WEIGHT_BITS; drift is on layer outputs.

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
    drift = np.empty((T, q_traj.num_layers))
    with np.errstate(over="ignore", invalid="ignore"):  # for the drifts, each checked
        for k, (outs, refs) in enumerate(zip(q_traj.layer_outputs, fp_traj.layer_outputs)):
            for l, (o, r) in enumerate(zip(outs, refs)):
                try:
                    d = relative_l2(o, r)
                except DegenerateReferenceError as e:
                    raise DegenerateReferenceError(
                        f"drift at t={T - k}, layer {l}, mode {q_traj.mode}: {e}") from None
                if not math.isfinite(d):
                    raise NonFiniteError(T - k, l, q_traj.mode, "drift")
                drift[k, l] = d
    return MetricsCell(seed=q_traj.seed, mode=q_traj.mode,
                       act_bits=FP_ACT_BITS if q_traj.bits is None else q_traj.bits,
                       drift=drift, diags=q_traj.diags)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_rows(columns) -> str:
    """The package's one CSV dialect, less its header row: a row per index of
    the columns, LF endings.

    columns gives each column's cell kind and values (two or more columns,
    of one length), and cells are formatted a column at a time: float as
    repr(float(v)), or empty for None; bool as 0/1; int as str(v); str
    quoted if it needs it.
    """
    cells = []
    for kind, values in columns:
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
    rows = "\n".join(map(",".join, zip(*cells)))
    return rows + "\n" if rows else ""


_METRICS_HEADER = ",".join(CSV_COLUMNS) + "\n"


def save_metrics_csv(path, row_blocks) -> None:
    """The header, then the blocks of MetricsCell.csv_rows in the order given
    (the sweep writes one block per seed, in ascending seed order)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([_METRICS_HEADER, *row_blocks])


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
        fh.write(",".join(names) + "\n" + _csv_rows(
            [(int if n in ("step", "layer") else float, list(map(attrgetter(n), stats)))
             for n in names]))


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
