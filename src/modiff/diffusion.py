"""Noise schedule, sampler steps, and the toy denoiser MLP.

The sampler runs the denoiser once per timestep from t=T down to t=1.
Each dense layer can be driven in one of four activation regimes:

    fp         full precision
    direct     quantize each activation whole, every step
    modulated  quantize temporal differences, no error compensation
    ec         quantize differences against the carried reconstruction

The stale-activation reuse baseline, cache_reuse_sample, runs sample()'s
loop and recomputes the layers only every N-th step. The starting noise
and the per-step DDPM noise are drawn from a stream forked off the
caller's RNG, the DDPM noise as one block per trajectory right after the
starting noise (the same values as one draw per step), so runs that share
a seed see identical noise whatever the regime; regimes never consume
random draws themselves.

Two kinds of array leave the sampling loop fresh: what a trajectory
records (each state and each layer output) and what a public function
returns. A pass's throwaway tensors (layer 0's features and each hidden
layer's activation) are written into one workspace per trajectory, made
once and reused at every step; no recorded array shares its memory. No
public function writes into an array its caller passed in or got back
from it; `apply_activation` and `input_features` write into an `out`
buffer only when the caller hands them one.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError
from .modulated import (
    DIAG_DTYPE,
    MODES,
    LinearLayer,
    ModulatedLayerState,
    forward_direct,
    forward_ec,
    forward_fp,
    forward_modulated,
    sum_counters,
    warmup,
)
from .quant import QuantConfig
from .rng import RngState
from .tensorops import Tensor, load_tensor, save_tensor

QUANT_MODES = ("fp", *MODES)
SAMPLERS = ("ddpm", "ddim")
ACTIVATIONS = ("relu", "silu")

# geometric band of embedding frequencies, in radians per timestep; the
# top end keeps adjacent-step embeddings close (a ~1 rad/step component
# would swamp the temporal redundancy the delta paths rely on), the
# bottom end still separates early from late timesteps
EMBED_FREQ_HI = 0.03
EMBED_FREQ_LO = 5e-4


@dataclass
class DiffusionSchedule:
    timesteps: int
    beta: np.ndarray       # beta[t-1] is the step-t variance increment
    alpha_bar: np.ndarray  # running product of (1 - beta)

    def alpha_bar_at(self, t: int) -> float:
        """Cumulative product at step t, with the t=0 convention of 1."""
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def make_schedule(
    timesteps: int, beta_start: float = 1e-4, beta_end: float = 0.02
) -> DiffusionSchedule:
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, timesteps)
    alpha_bar = np.cumprod(1.0 - beta)  # the sequential recurrence, not a float-log shortcut
    return DiffusionSchedule(timesteps=timesteps, beta=beta, alpha_bar=alpha_bar)


def ddpm_step(x: Tensor, eps: Tensor, t: int, sched: DiffusionSchedule, z: Tensor) -> Tensor:
    """One ancestral update: posterior mean plus sqrt(beta_t) * z."""
    if not 1 <= t <= sched.timesteps:
        raise ValueError(f"t must be in 1..{sched.timesteps}, got {t}")
    b = float(sched.beta[t - 1])
    ab = float(sched.alpha_bar[t - 1])
    mean = (x - b / np.sqrt(1.0 - ab) * eps) / np.sqrt(1.0 - b)
    return mean + np.sqrt(b) * z


def ddim_step(x: Tensor, eps: Tensor, t: int, sched: DiffusionSchedule) -> Tensor:
    """Deterministic update through the predicted clean point."""
    if not 1 <= t <= sched.timesteps:
        raise ValueError(f"t must be in 1..{sched.timesteps}, got {t}")
    ab_t = sched.alpha_bar_at(t)
    ab_prev = sched.alpha_bar_at(t - 1)
    x0 = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
    return np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps


@functools.cache
def _embed_freqs(width: int) -> np.ndarray:
    """The width // 2 embedding frequencies, computed once per width; read-only."""
    freqs = np.geomspace(EMBED_FREQ_HI, EMBED_FREQ_LO, width // 2)
    freqs.flags.writeable = False
    return freqs


def _check_embed_width(width) -> None:
    """The one rule for a time-embedding width: an even int >= 0 (ValueError otherwise)."""
    if isinstance(width, bool) or not isinstance(width, int) or width < 0 or width % 2:
        raise ValueError(f"embedding width must be an even integer >= 0, got {width!r}")


def time_embedding(t, width: int) -> np.ndarray:
    """Sinusoidal features of the timestep; smooth in t by construction."""
    _check_embed_width(width)
    args = np.asarray(t, dtype=np.float64)[..., None] * _embed_freqs(width)
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


@functools.lru_cache(maxsize=4096)  # bounded: a caller can reach any number of timesteps
def _step_embedding(t: int, width: int) -> np.ndarray:
    """time_embedding of one integer timestep, computed once per (t, width); read-only."""
    emb = time_embedding(t, width)
    emb.flags.writeable = False
    return emb


@dataclass
class DenoiserNetwork:
    layers: list[LinearLayer]
    activation: str = "silu"
    time_embed: int = 16

    def __post_init__(self):
        if not self.layers:
            raise ValueError("denoiser needs at least one layer")
        if any(0 in layer.weight.shape for layer in self.layers):
            raise ValueError("every layer needs a nonzero width")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        _check_embed_width(self.time_embed)
        if self.layers[0].in_dim <= self.time_embed:
            raise ValueError("first layer must be wider than the time embedding")
        if self.layers[-1].out_dim != self.data_dim:
            raise ValueError(f"last layer must be {self.data_dim} wide, the data width")

    @property
    def data_dim(self) -> int:
        return self.layers[0].in_dim - self.time_embed

    def input_features(self, x: Tensor, t, out: Tensor | None = None) -> Tensor:
        """The data coordinates beside the time embedding of t (one row per
        sample, or one cached row shared by all for an integer t), in `out`
        when given (an (n, in_dim) float64 buffer), a fresh array otherwise."""
        d = x.shape[1]
        if out is None:
            out = np.empty((x.shape[0], d + self.time_embed))
        out[:, :d] = x
        out[:, d:] = (_step_embedding(t, self.time_embed) if isinstance(t, (int, np.integer))
                      else time_embedding(t, self.time_embed))
        return out

    def forward(self, x: Tensor, t) -> Tensor:
        """Full-precision noise prediction."""
        return _forward_layers(self, x, t, _apply_layer)[1][-1]


def apply_activation(z: Tensor, name: str, out: Tensor | None = None) -> Tensor:
    """The activation of z, in `out` when given (a buffer of z's shape that
    is not z), a fresh array otherwise; the same bits either way."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "silu":
        out = _sigmoid(z, out)
        out *= z
        return out
    raise ValueError(f"unknown activation {name!r}")


def activation_and_slope(z: Tensor, name: str) -> tuple:
    """The activation of z and its slope there, each a fresh array: the
    bits of apply_activation(z, name), and for SiLU s * (1 + z * (1 - s))
    from the same sigmoid s; for ReLU the float mask of z > 0."""
    if name == "relu":
        return np.maximum(z, 0.0), (z > 0.0).astype(np.float64)
    if name == "silu":
        s = _sigmoid(z)
        slope = np.subtract(1.0, s)
        slope *= z
        slope += 1.0
        slope *= s
        s *= z
        return s, slope
    raise ValueError(f"unknown activation {name!r}")


def _sigmoid(z: Tensor, out: Tensor | None = None) -> Tensor:
    """0.5 * (1 + tanh(z / 2)), stable for large |z|, as one in-place chain
    over a single buffer: `out`, or a fresh one."""
    s = np.multiply(0.5, z, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def make_denoiser(
    rng: RngState,
    data_dim: int = 2,
    hidden: tuple[int, ...] = (128, 128),
    time_embed: int = 16,
    activation: str = "silu",
) -> DenoiserNetwork:
    """Fresh MLP with 1/sqrt(fan_in)-scaled normal weights, zero biases."""
    dims = [data_dim + time_embed, *hidden, data_dim]
    layers = []
    for din, dout in zip(dims, dims[1:]):
        w = rng.normal(size=(din, dout)) / np.sqrt(din)
        layers.append(LinearLayer(weight=w, bias=np.zeros(dout)))
    return DenoiserNetwork(layers=layers, activation=activation, time_embed=time_embed)


# --- trajectories -------------------------------------------------------


@dataclass
class SampleTrajectory:
    mode: str
    bits: int | None                         # None: full-precision activations
    sampler: str
    seed: int
    states: list[np.ndarray]                 # x_T, ..., x_0 (length T+1)
    layer_outputs: list[list[np.ndarray]] = field(repr=False, default_factory=list)
    # diags[k, l]: the StepDiagnostics of step t = T - k, layer l, a column per field
    diags: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), DIAG_DTYPE))
    net: DenoiserNetwork | None = field(repr=False, default=None)  # the net that sampled it

    @functools.cached_property
    def layer_inputs(self) -> list[list[np.ndarray]]:
        """Each step's per-layer inputs, the same bits the sampler fed each
        layer: on first read, each pass is replayed through _forward_layers
        over its recorded state and outputs, and a step that reused a pass's
        outputs (the same list) shares that pass's inputs. Assigning the
        attribute replaces the replayed view."""
        T = len(self.states) - 1
        inputs = []
        for k, outs in enumerate(self.layer_outputs):
            if k and outs is self.layer_outputs[k - 1]:
                inputs.append(inputs[-1])
            else:
                inputs.append(_forward_layers(self.net, self.states[k], T - k,
                                              lambda i, layer, a: (outs[i], None))[0])
        return inputs

    @property
    def num_steps(self) -> int:
        return len(self.layer_outputs)

    @property
    def num_layers(self) -> int:
        return len(self.layer_outputs[0]) if self.layer_outputs else 0


def _forward_layers(net: DenoiserNetwork, x: Tensor, t, layer_step, activate=None,
                    features=None) -> tuple:
    """One denoiser pass with each layer run by layer_step(i, layer, a),
    which returns the layer's output and diagnostics, and hidden layer i's
    output o turned into the next input by activate(i, o, name)
    (apply_activation(o, name) when None). Layer 0's input is `features`
    when the caller has built it, net.input_features(x, t) otherwise.
    Returns the per-layer inputs, outputs and diagnostics."""
    a = net.input_features(x, t) if features is None else features
    ins, outs, dgs = [], [], []
    for i, layer in enumerate(net.layers):
        ins.append(a)
        o, diag = layer_step(i, layer, a)
        outs.append(o)
        dgs.append(diag)
        if i < len(net.layers) - 1:
            a = (apply_activation(o, net.activation) if activate is None
                 else activate(i, o, net.activation))
    return ins, outs, dgs


def _apply_layer(i, layer, a):
    """The full-precision layer step for _forward_layers; no diagnostics."""
    return layer.apply(a), None


def _fp_step(i, layer, a):
    """The full-precision layer step for _forward_layers, with diagnostics."""
    return forward_fp(layer, a)


# the StepDiagnostics fields a sweep writes out (act_range, diff_range, quant_err)
_CHECKED_DIAGNOSTICS = ("act_range", "residual_range", "quant_error_l2")


def _run_trajectory(
    net: DenoiserNetwork,
    sched: DiffusionSchedule,
    sampler: str,
    n: int,
    rng: RngState,
    mode: str,
    bits: int | None,
    layer_step,
    reuse_interval: int | float = 1,
) -> SampleTrajectory:
    """The sampling loop every regime shares: x_T, then under DDPM the
    T - 1 noise blocks of steps t = T..2 in one draw, come from a stream
    forked off `rng`. Step k runs _forward_layers with
    `layer_step` when k % N == 0 for the reuse interval N (an int >= 1, or
    inf: step 0 only) and writes its records into row k of the (T, L)
    diagnostics table; any other serves that pass's outputs, the same list,
    and its row is zero but for the pass's act_range and skipped. A
    non-finite layer output, or a non-finite range or error in its
    diagnostics, raises NonFiniteError at its step;
    numpy's overflow and invalid-value warnings for the pass are off, so
    the error is the one report. Each pass writes layer 0's features and
    each hidden layer's activation into the trajectory's workspace, one
    buffer each, made here; the layer steps copy what they keep."""
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    # the cached embedding rows are made before this trajectory allocates:
    # made between its arrays, they would keep the freed heap from shrinking
    for t in range(sched.timesteps, 0, -1):
        _step_embedding(t, net.time_embed)
    noise = rng.fork(0)
    x = noise.normal(size=(n, net.data_dim))
    if sampler == "ddpm":  # the noise of steps t = T..2 in one draw; t = 1 adds none
        zs = noise.normals(sched.timesteps - 1, x.shape)
    diags = np.zeros((sched.timesteps, len(net.layers)), DIAG_DTYPE)
    traj = SampleTrajectory(mode=mode, bits=bits, sampler=sampler, seed=rng.seed,
                            states=[x], diags=diags, net=net)
    # the workspace: layer 0's features, then hidden layer i's activation
    features = np.empty((n, net.layers[0].in_dim))
    acts = [np.empty((n, layer.out_dim)) for layer in net.layers[:-1]]

    def activate(i, o, name):
        return apply_activation(o, name, out=acts[i])

    for k, t in enumerate(range(sched.timesteps, 0, -1)):
        if k % reuse_interval == 0:
            with np.errstate(over="ignore", invalid="ignore"):
                _, outs, dgs = _forward_layers(
                    net, x, t, layer_step, activate, net.input_features(x, t, out=features))
            for i, (o, d) in enumerate(zip(outs, dgs)):
                if not np.isfinite(o).all():
                    raise NonFiniteError(t, i, mode)
                for name in _CHECKED_DIAGNOSTICS:
                    if not math.isfinite(getattr(d, name)):
                        raise NonFiniteError(t, i, mode, name)
            diags[k] = dgs
        else:  # the pass's checked outputs again; nothing is computed or measured
            diags["act_range"][k] = [d.act_range for d in dgs]
            diags["skipped"][k] = True
        traj.layer_outputs.append(outs)
        eps = outs[-1]
        if sampler == "ddpm":
            z = zs[k] if t > 1 else np.zeros_like(x)
            x = ddpm_step(x, eps, t, sched, z)
        else:
            x = ddim_step(x, eps, t, sched)
        traj.states.append(x)
    return traj


def sample(
    net: DenoiserNetwork,
    sched: DiffusionSchedule,
    sampler: str = "ddpm",
    quant_mode: str = "fp",
    cfg: QuantConfig | None = None,
    n: int = 16,
    *,
    rng: RngState,
    warmup_k: int = 0,
) -> SampleTrajectory:
    """Run a full trajectory. Each step records its state, every layer's
    output and its diagnostics; the layer inputs are replayed from those
    when `layer_inputs` is first read. Delta modes warm up with `warmup_k`
    quantized passes (0: full precision)."""
    if quant_mode not in QUANT_MODES:
        raise ValueError(f"quant_mode must be one of {QUANT_MODES}, got {quant_mode!r}")
    if quant_mode != "fp" and cfg is None:
        raise ValueError(f"quant_mode {quant_mode!r} needs a QuantConfig")

    if quant_mode == "fp":
        layer_step = _fp_step
    elif quant_mode == "direct":
        def layer_step(i, layer, a):
            return forward_direct(layer, a, cfg)
    else:
        forward = forward_modulated if quant_mode == "modulated" else forward_ec
        states = [ModulatedLayerState(quant_mode, cfg) for _ in net.layers]

        def layer_step(i, layer, a):
            if states[i].out is None:
                o, diags = warmup(states[i], layer, a, k=warmup_k)
                # the step-T record counts every warm-up pass; its errors are the last pass's
                return o, diags[-1]._replace(**sum_counters(diags))
            return forward(states[i], layer, a)

    return _run_trajectory(net, sched, sampler, n, rng, quant_mode,
                           None if quant_mode == "fp" else cfg.bits, layer_step)


def cache_reuse_sample(
    net: DenoiserNetwork,
    sched: DiffusionSchedule,
    N,
    rng: RngState,
    sampler: str = "ddpm",
    n: int = 16,
) -> SampleTrajectory:
    """The stale-activation reuse baseline: full-precision sampling that
    recomputes layer outputs only on every N-th step and serves the stale
    tensors in between.

    N=1 recomputes every step (plain sampling, bit for bit); N=inf only the
    very first. The noise is sample()'s, so paired runs share their x_T and
    per-step noise exactly.
    """
    if N is None or N != math.inf and (int(N) != N or N < 1):
        raise ValueError(f"reuse interval must be a positive integer or inf: {N}")
    return _run_trajectory(net, sched, sampler, n, rng, "cache", None, _fp_step,
                           N if N == math.inf else int(N))


# --- weight bundles -----------------------------------------------------


def save_denoiser(path, net: DenoiserNetwork) -> None:
    """Write a directory with a JSON manifest plus one binary file per tensor."""
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format": "modiff-denoiser",
        "version": 1,
        "activation": net.activation,
        "time_embed": net.time_embed,
        "data_dim": net.data_dim,
        "layers": [
            {"in": ly.in_dim, "out": ly.out_dim, "bias": ly.bias is not None}
            for ly in net.layers
        ],
    }
    for i, ly in enumerate(net.layers):
        save_tensor(os.path.join(path, f"w{i}.mdtn"), ly.weight)
        if ly.bias is not None:
            save_tensor(os.path.join(path, f"b{i}.mdtn"), ly.bias)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_parameter(path) -> Tensor:
    """One weight or bias tensor of a bundle; damaged or non-finite is bad input."""
    try:
        t = load_tensor(path)
    except ValueError as e:
        raise ConfigError(f"damaged tensor file {path}: {e}") from e
    if not np.isfinite(t).all():
        raise ConfigError(f"non-finite values in {path}")
    return t


def load_denoiser(path) -> DenoiserNetwork:
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"no manifest at {manifest_path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad manifest JSON at {manifest_path}: {e}")
    if not isinstance(manifest, dict) or manifest.get("format") != "modiff-denoiser":
        raise ConfigError(f"unrecognized bundle format in {manifest_path}")
    try:
        specs = [(spec["in"], spec["out"], spec["bias"]) for spec in manifest["layers"]]
        activation, time_embed = manifest["activation"], manifest["time_embed"]
        data_dim = manifest["data_dim"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed manifest {manifest_path}: missing or bad entry {e}") from e
    params = []
    for i, (din, dout, bias) in enumerate(specs):
        w = _load_parameter(os.path.join(path, f"w{i}.mdtn"))
        if w.shape != (din, dout):
            raise ConfigError(
                f"layer {i} weight shape {w.shape} does not match manifest ({din}, {dout})"
            )
        b = _load_parameter(os.path.join(path, f"b{i}.mdtn")) if bias else None
        params.append((w, b))
    try:
        net = DenoiserNetwork(
            layers=[LinearLayer(weight=w, bias=b) for w, b in params],
            activation=activation,
            time_embed=time_embed,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad bundle {manifest_path}: {e}") from e
    if isinstance(data_dim, bool) or not isinstance(data_dim, int) or data_dim != net.data_dim:
        raise ConfigError(f"bad bundle {manifest_path}: data_dim {data_dim!r} does not match "
                          f"the layers' {net.data_dim}")
    return net
