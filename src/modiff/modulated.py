"""Temporal-delta forward paths for dense layers.

A dense layer applied along a sampling trajectory sees inputs a_T, …, a_1
that change slowly. Instead of quantizing each a_t whole (the direct
path), the modulated path quantizes the step-to-step difference and
accumulates the layer's linear response to it:

    modulated:  o~_t = A(Q(a_t - a_{t+1})) + o~_{t+1}
    with EC:    r    = Q(a_t - a^_{t+1})
                a^_t = a^_{t+1} + r          (carried input)
                o^_t = A(r) + o^_{t+1}       (carried output)

The EC variant quantizes the difference against the *reconstructed*
previous input, so the quantization error does not accumulate: at every
step a_t - a^_t equals that step's own quantization error and
o^_t = A(a^_t) + bias exactly. The bias enters once during warm-up and
cancels from every difference afterwards. A quantized warm-up (k >= 1
passes) is no recurrence of its own: the direct step, then k - 1 EC steps
on one input. Only the delta modes carry state; the direct path keeps none.

A layer step's diagnostics hold only what it measures: ranges, the
quantization error, the per-call contraction and whether it was skipped.
What a step costs is the cost model's, stated once in `analysis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import ShapeError, StateError
from .quant import QuantConfig, contraction_ratio, fake_quant
from .tensorops import Tensor, as_tensor, matmul, sq_norm, value_bounds, value_range

DELTA_MODES = ("modulated", "ec")  # the modes that carry a layer state
MODES = ("direct", *DELTA_MODES)


@dataclass
class LinearLayer:
    weight: np.ndarray           # (in_dim, out_dim)
    bias: np.ndarray | None = None  # (out_dim,)

    def __post_init__(self):
        self.weight = as_tensor(self.weight)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got {self.weight.shape}")
        if self.bias is not None:
            self.bias = as_tensor(self.bias)
            if self.bias.shape != (self.out_dim,):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match out_dim {self.out_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def apply(self, a: Tensor) -> Tensor:
        """Full-precision forward: a @ W + bias."""
        o = matmul(a, self.weight)
        if self.bias is not None:
            o += self.bias
        return o

    def apply_linear(self, a: Tensor) -> Tensor:
        """Bias-free linear part; what difference tensors pass through."""
        return matmul(a, self.weight)

    def macs(self, batch: int) -> int:
        """Multiply-accumulates of one application to `batch` rows."""
        return batch * self.in_dim * self.out_dim


class StepDiagnostics(NamedTuple):
    act_range: float          # range of the raw layer input a_t
    residual_range: float     # range of the tensor the quantizer saw
    quant_error_l2: float     # ||input - Q(input)||_2 for that tensor
    contraction: float        # measured ||x - Q(x)||^2 / ||x||^2 per call
    skipped: bool


# a trajectory's (T, L) table of diagnostics, one column per StepDiagnostics field
DIAG_DTYPE = np.dtype([(name, {float: "f8", bool: "?"}[kind])
                       for name, kind in get_type_hints(StepDiagnostics).items()])


@dataclass
class ModulatedLayerState:
    """Carried tensors of one layer: `out` is the output of the previous step
    and `ref` what the next input is differenced against, the raw previous
    input (modulated) or the reconstruction a^ of it (EC). A state is warmed
    up exactly when it carries an `out`. The state owns `ref` and updates it
    in place; `out` is the step's returned output and is never written.
    `_work` is the delta step's scratch for its residual and then its
    quantization error; it carries nothing from one step to the next."""

    mode: str  # one of DELTA_MODES
    cfg: QuantConfig
    ref: np.ndarray | None = field(default=None, repr=False)
    out: np.ndarray | None = field(default=None, repr=False)
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in DELTA_MODES:
            raise ValueError(f"mode must be one of {DELTA_MODES}, got {self.mode!r}")


def step_diagnostics(act_range: float, x: Tensor | None = None, q: Tensor | None = None, *,
                     x_range: float | None = None, skipped: bool = False) -> StepDiagnostics:
    """Diagnostics of one layer-step whose raw input spans `act_range`.

    x is the tensor the quantizer saw (spanning x_range, by default
    act_range) and q what came back; without q, as on a skipped step that
    passes on zero, x is its own error; without x there is no error to
    measure; each squared norm is taken once.
    """
    x_sq = err_sq = None
    if x is not None:
        x_sq = sq_norm(x)
        err_sq = x_sq if q is None else sq_norm(x - q)
    return _step_record(act_range, x_sq, err_sq, x_range=x_range, skipped=skipped)


def _step_record(act_range: float, x_sq: float | None, err_sq: float | None, *,
                 x_range: float | None = None, skipped: bool = False) -> StepDiagnostics:
    """step_diagnostics from the squared norms of the quantizer's input and
    of its error (both None: no error to measure), for a caller that takes
    them itself."""
    return StepDiagnostics(
        act_range=act_range,
        residual_range=act_range if x_range is None else x_range,
        quant_error_l2=0.0 if err_sq is None else math.sqrt(err_sq),
        contraction=0.0 if x_sq is None else contraction_ratio(x_sq, err_sq),
        skipped=skipped,
    )


def forward_fp(layer: LinearLayer, a: Tensor) -> tuple[Tensor, StepDiagnostics]:
    """Apply the layer in full precision."""
    return layer.apply(a), step_diagnostics(value_range(a))


def _quantized_apply(layer: LinearLayer, a: Tensor,
                     cfg: QuantConfig) -> tuple[Tensor, Tensor, StepDiagnostics]:
    """The direct step: returns A(Q(a)) + bias, Q(a) and the step's
    diagnostics. a's min and max are taken once, for its range and the
    quantizer's fit."""
    lo, hi = bounds = value_bounds(a)
    q = fake_quant(a, cfg, bounds)
    return layer.apply(q), q, step_diagnostics(float(hi - lo), a, q)


def forward_direct(
    layer: LinearLayer, a: Tensor, cfg: QuantConfig
) -> tuple[Tensor, StepDiagnostics]:
    """Quantize the whole activation, then apply the layer."""
    o, _, diag = _quantized_apply(layer, as_tensor(a), cfg)
    return o, diag


def warmup(
    state: ModulatedLayerState, layer: LinearLayer, a: Tensor, k: int = 0
) -> tuple[Tensor, list[StepDiagnostics]]:
    """Establish the carried tensors at the first trajectory step.

    k=0 stores the exact input and full-precision output. k >= 1 is one
    direct step (a^ = Q(a), o^ = A(Q(a)) + bias) followed by k-1 EC steps
    on the same input with the skip rule off; each EC step contracts
    ||a - a^|| by the measured per-call factor.
    Returns the warm-up output and one diagnostics entry per pass.
    """
    if state.out is not None:
        raise StateError("warm-up on a state that has already stepped; make a fresh state")
    if k < 0:
        raise ValueError(f"warm-up needs k >= 0 quantized passes, got k={k}")
    a = as_tensor(a)

    if k == 0:
        o, diag = forward_fp(layer, a)
        state.ref, state.out = a.copy(), o
        return o, [diag]
    o, q, diag = _quantized_apply(layer, a, state.cfg)
    ec = ModulatedLayerState("ec", replace(state.cfg, skip_threshold=0.0), ref=q, out=o)
    diags = [diag, *(_forward_delta(ec, layer, a)[1] for _ in range(k - 1))]
    # the no-EC recurrence differences against raw activations
    state.ref = a.copy() if state.mode == "modulated" else ec.ref
    state.out = ec.out
    return ec.out, diags


def _forward_delta(
    state: ModulatedLayerState, layer: LinearLayer, a: Tensor
) -> tuple[Tensor, StepDiagnostics]:
    """Quantize r = Q(a_t - ref) and accumulate o_t = A(r) + out.

    The two delta modes differ only in how ref moves on: modulated takes
    the raw input on every step, skipped or not; EC adds the quantized
    residual (a^_t = a^_{t+1} + r), so a skipped step (r := 0) leaves it.
    The residual's min and max are taken once, for its range, the skip
    rule and the quantizer's fit. The residual is formed in the state's
    scratch, which then holds its quantization error once r is applied.
    An input of another shape than ref is a ShapeError, before any state
    moves.
    """
    if state.out is None:
        raise StateError(f"{state.mode} step before warm-up")
    a = as_tensor(a)
    if a.shape != state.ref.shape:
        raise ShapeError(f"{state.mode} step on an input of shape {a.shape}; the state "
                         f"carries {state.ref.shape}")
    ec = state.mode == "ec"
    if state._work is None:
        state._work = np.empty_like(a)
    residual = np.subtract(a, state.ref, out=state._work)
    lo, hi = bounds = value_bounds(residual)
    rng_r = float(hi - lo)

    if rng_r < state.cfg.skip_threshold:
        o = state.out
        diag = step_diagnostics(value_range(a), residual, x_range=rng_r, skipped=True)
    else:
        r = fake_quant(residual, state.cfg, bounds)
        o = layer.apply_linear(r)
        o += state.out
        x_sq = sq_norm(residual)
        residual -= r  # the quantization error, in place of the residual
        diag = _step_record(value_range(a), x_sq, sq_norm(residual), x_range=rng_r)
        if ec:
            state.ref += r
        state.out = o
    if not ec:
        np.copyto(state.ref, a)  # raw cache, updated on every step
    return o, diag


def forward_modulated(
    state: ModulatedLayerState, layer: LinearLayer, a: Tensor
) -> tuple[Tensor, StepDiagnostics]:
    """No-EC step: quantize a_t - a_{t+1}, accumulate onto the carried output."""
    if state.mode != "modulated":
        raise StateError(f"forward_modulated on a {state.mode!r} state")
    return _forward_delta(state, layer, a)


def forward_ec(
    state: ModulatedLayerState, layer: LinearLayer, a: Tensor
) -> tuple[Tensor, StepDiagnostics]:
    """EC step: difference against the carried reconstruction a^_{t+1}."""
    if state.mode != "ec":
        raise StateError(f"forward_ec on a {state.mode!r} state")
    return _forward_delta(state, layer, a)
