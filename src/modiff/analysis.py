"""Measurements over recorded trajectories.

Drift curves against a full-precision reference, activation-range
statistics and their temporal differences, the cost model, memory
accounting and CSV emission, all read as columns. A trajectory's
diagnostics are one (T, L) table of what its layer steps measured; what
they cost is the cost model's (_OP_TABLE), priced from the trajectory's
mode, width, layer shapes, warm-up and `skipped` column. A sweep cell
(collect_metrics) keeps its labels once and its drifts and Bops as (T, L)
tables beside that one, and writes its rows straight from those columns
in CSV order, so nothing is sorted. activation_stats
summarises the layer inputs and their step differences as (T, L, 5) and
(T - 1, L, 5) arrays. Everything here is pure aggregation — nothing
samples and nothing mutates a trajectory. The stale-activation reuse
baseline is a sampler and lives beside sample() in `diffusion`; its name
is re-exported here only because the benchmark harness calls and traces
`analysis.cache_reuse_sample`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .diffusion import QUANT_MODES, DenoiserNetwork, SampleTrajectory
from .diffusion import cache_reuse_sample  # noqa: F401  re-exported, see above
from .errors import DegenerateReferenceError, NonFiniteError, ShapeError
from .modulated import DELTA_MODES, ModulatedLayerState
from .quant import _as_width, _is_count, check_bits
from .tensorops import relative_l2

MODE_ORDER = (*QUANT_MODES, "cache")

CSV_COLUMNS = (
    "seed", "mode", "b_w", "b_a", "step", "layer",
    "drift", "act_range", "diff_range", "quant_err", "skipped", "bops",
)


# --- the cost model -----------------------------------------------------

FP_ACT_BITS = 32  # full-precision activations in the cost model
WEIGHT_BITS = 8  # the weight width of the cost model; the weights stay float64

# The cost model: the deployed integer pipeline (quantize, integer matmul at
# WEIGHT_BITS x the activation width, dequantize), stated once. Per mode, the
# (adds, quant_calls, dequant_calls, matmuls) of a layer's pass step and of
# its skipped step, and whether a pass adds the layer's bias. A delta pass
# forms its residual a - ref and accumulates the output, and EC updates a^
# from a second dequantized copy of r (the code dequantizes once); a skipped
# delta step forms only its residual, and a stale cache step does nothing.
_OP_TABLE = {
    #             pass step      skipped step  bias
    "fp":        ((0, 0, 0, 1), (0, 0, 0, 0), 1),
    "direct":    ((0, 1, 1, 1), (0, 0, 0, 0), 1),
    "modulated": ((2, 1, 1, 1), (1, 0, 0, 0), 0),
    "ec":        ((3, 1, 2, 1), (1, 0, 0, 0), 0),
    "cache":     ((0, 0, 0, 1), (0, 0, 0, 0), 1),
}
_OP_NAMES = ("adds", "quant_calls", "dequant_calls", "matmuls", "bops")  # op_totals' keys


def bops(macs: int, b_w: int, b_a: int | None = None) -> int:
    """Binary operations of `macs` multiply-accumulates: macs * b_w * b_a.

    b_a None means full-precision activations, counted at FP_ACT_BITS.
    """
    return macs * b_w * (FP_ACT_BITS if b_a is None else b_a)


def _op_counts(traj: SampleTrajectory) -> np.ndarray:
    """The cost model's (T, L, 5) counts of a trajectory in _OP_NAMES order,
    each matmul priced at its layer's MACs for n rows (ValueError without
    the net). At full precision no quantizer is called."""
    if traj.net is None:
        raise ValueError("op counts need the net that sampled the trajectory")
    macs = np.array([ly.macs(len(traj.states[0])) for ly in traj.net.layers])
    bias = np.array([[ly.bias is not None, 0, 0, 0] for ly in traj.net.layers])

    def passes(mode):  # (L, 4): the mode's pass step at each layer
        step, _, adds_bias = _OP_TABLE[mode]
        return step + adds_bias * bias

    counts = np.where(traj.diags["skipped"][..., None], _OP_TABLE[traj.mode][1],
                      passes(traj.mode))
    widths = np.full(counts.shape[:2], traj.bits or FP_ACT_BITS)
    if traj.mode in DELTA_MODES:  # step T is the warm-up
        k = traj.warmup_k
        if k:  # the direct pass, a second dequantize (as a^), then k - 1 EC passes
            counts[0] = passes("direct") + (0, 0, 1, 0) + (k - 1) * passes("ec")
        else:
            counts[0], widths[0] = passes("fp"), FP_ACT_BITS
    if traj.bits is None:
        counts[..., 1:3] = 0
    return np.dstack([counts, bops(counts[..., 3] * macs, WEIGHT_BITS, widths)])


def macs_for_net(net: DenoiserNetwork, batch: int = 1) -> tuple:
    """Per-layer multiply-accumulate counts for a dense forward pass."""
    return tuple(ly.macs(batch) for ly in net.layers)


def bops_count(macs, weight_bits: int = WEIGHT_BITS, act_bits: int | None = None) -> int:
    """Total binary operations of the per-layer `macs` (quantizer calls are not counted)."""
    if not macs:
        raise ValueError("need at least one layer")
    if not all(map(_is_count, macs)):
        raise ValueError(f"macs must be positive integers: {macs}")
    weight_bits = _as_width("weight_bits", weight_bits)
    if weight_bits < 1:
        raise ValueError(f"weight_bits must be >= 1, got {weight_bits}")
    if act_bits is not None:
        act_bits = check_bits(act_bits)
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
    diagnostics and Bops beside them. Its length is its row count."""

    seed: int
    mode: str
    act_bits: int                  # FP_ACT_BITS stands for full precision
    drift: np.ndarray = field(repr=False)  # drift[k, l]: step t = T - k, layer l
    diags: np.ndarray = field(repr=False)  # the run's (T, L) diagnostics table, indexed alike
    bops: np.ndarray = field(repr=False)   # the run's (T, L) Bops, from the cost model

    def __len__(self) -> int:
        return self.drift.size

    def csv_rows(self) -> str:
        """The cell's sweep CSV rows, steps ascending, then layers."""
        T, L = self.drift.shape
        n = T * L
        # k = T - 1 .. 0 is t = 1 .. T
        return _csv_rows([
            (int, [self.seed] * n), (str, [self.mode] * n), (int, [WEIGHT_BITS] * n),
            (int, [self.act_bits] * n),
            (int, [t for t in range(1, T + 1) for _ in range(L)]), (int, list(range(L)) * T),
            (float, self.drift[::-1].ravel().tolist()),
            *((kind, self.diags[name][::-1].ravel().tolist()) for name, kind in _DIAG_COLUMNS),
            (int, self.bops[::-1].ravel().tolist()),
        ])


# the StepDiagnostics fields of the CSV columns act_range .. skipped
_DIAG_COLUMNS = (("act_range", float), ("residual_range", float), ("quant_error_l2", float),
                 ("skipped", bool))


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
                       drift=drift, diags=q_traj.diags, bops=_op_counts(q_traj)[..., 4])


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


def _five_point(arr) -> tuple:
    q25, q50, q75 = np.quantile(arr, (0.25, 0.5, 0.75))
    return np.min(arr), q25, q50, q75, np.max(arr)


def activation_stats(traj: SampleTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Five-point summaries (min, q25, q50, q75, max) per step and layer:
    act[k, l] of layer l's raw input at step t = T - k, and diff[k - 1, l]
    of its change since step k - 1.

    The first recorded step (timestep T) has no predecessor, so diff has
    T - 1 rows.
    """
    ins = traj.layer_inputs
    act = np.array([[_five_point(a) for a in row] for row in ins])
    diff = np.array([[_five_point(a - p) for a, p in zip(row, prev)]
                     for prev, row in zip(ins, ins[1:])]).reshape(-1, *act.shape[1:])
    return act, diff


_STATS_HEADER = ("step,layer,act_min,act_q25,act_q50,act_q75,act_max,"
                 "diff_min,diff_q25,diff_q50,diff_q75,diff_max\n")


def save_stats_csv(path, act, diff) -> None:
    """activation_stats' tables, a row per step and layer and a column per
    summary point; the first step's diff cells are empty."""
    T, L = act.shape[:2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_STATS_HEADER + _csv_rows([
            (int, [t for t in range(T, 0, -1) for _ in range(L)]), (int, list(range(L)) * T),
            *((float, act[..., j].ravel().tolist()) for j in range(5)),
            *((float, [None] * L + diff[..., j].ravel().tolist()) for j in range(5)),
        ]))


def temporal_concentration(act, diff) -> dict:
    """Per layer of activation_stats' tables: (median difference range,
    median activation range, ratio), medians over the steps.

    A ratio well below 1 is the whole premise of quantizing temporal
    differences instead of raw activations. Without difference rows (a
    one-step trajectory has none) it raises ValueError.
    """
    if not len(diff):
        raise ValueError("layer 0 has no difference records; it needs two or more steps")
    med_diff = np.median(diff[..., 4] - diff[..., 0], axis=0).tolist()
    med_act = np.median(act[..., 4] - act[..., 0], axis=0).tolist()
    return {l: (d, a, math.inf if a == 0.0 else d / a)
            for l, (d, a) in enumerate(zip(med_diff, med_act))}


# --- operation and memory accounting ------------------------------------


def op_totals(traj: SampleTrajectory) -> dict:
    """The cost model's counters summed over every layer-step of a trajectory."""
    return dict(zip(_OP_NAMES, _op_counts(traj).sum(axis=(0, 1)).tolist()))


def per_step_overhead(base: SampleTrajectory, other: SampleTrajectory) -> dict:
    """Per layer-step counter differences over matched steps.

    The first step is skipped, so that a warm-up entry is excluded (a
    one-step run compares nothing and gives None). The difference must be
    the same at every compared (step, layer) — that uniformity is the
    point — and a ValueError is raised if it is not.
    """
    _check_comparable(base, other)
    # diff[k - 1, l]: the counters' differences at step k, layer l
    diff = _op_counts(other)[1:] - _op_counts(base)[1:]
    if not diff.size:
        return None
    first = dict(zip(_OP_NAMES, diff[0, 0].tolist()))
    uneven = np.argwhere((diff != diff[0, 0]).any(axis=-1))
    if len(uneven):
        k, l = uneven[0]  # the first in row-major order
        cur = dict(zip(_OP_NAMES, diff[k, l].tolist()))
        raise ValueError(f"overhead is not uniform: step {k + 1} layer {l} gives {cur}, "
                         f"earlier steps gave {first}")
    return first


def carried_tensor_count(state: ModulatedLayerState) -> int:
    """How many persistent tensors the layer keeps between steps."""
    return sum(arr is not None for arr in (state.ref, state.out))


def state_memory_bytes(state: ModulatedLayerState) -> int:
    """Bytes held by the persistent per-layer tensors."""
    return sum(arr.nbytes for arr in (state.ref, state.out) if arr is not None)
