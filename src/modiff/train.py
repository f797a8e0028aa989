"""Minimal trainer for the toy denoiser.

Noise-prediction objective on 2-D synthetic data: draw a timestep and a
noise vector per sample, form the noised point, and regress the network
output onto the noise with a mean-squared loss. Gradients are computed by
hand with reverse-mode accumulation through the MLP and are verified
against central finite differences in the test suite.

Plain SGD with a fixed learning rate; the time embedding is fixed
(non-trainable) sinusoidal features. Nothing fancier is needed: the
trained network only has to be a meaningful denoiser, not a good one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    ACTIVATIONS,
    DenoiserNetwork,
    DiffusionSchedule,
    _apply_layer,
    _check_embed_width,
    _forward_layers,
    activation_grad,
    make_denoiser,
)
from .errors import ConfigError, TrainingDivergedError
from .rng import RngState
from .tensorops import Tensor, as_tensor

logger = logging.getLogger(__name__)


# --- synthetic datasets -------------------------------------------------


@dataclass(frozen=True)
class GaussianMixture:
    """Equal-weight mixture of isotropic Gaussians in the plane."""

    centers: tuple = ((-1.0, 0.0), (1.0, 0.0))  # one per component
    std: float = 0.15

    def __post_init__(self):
        if not self.centers:
            raise ConfigError("mixture needs at least one component")
        dims = {len(c) for c in self.centers}
        if len(dims) != 1:
            raise ConfigError(f"centers have mixed dimensions: {sorted(dims)}")
        if self.std <= 0:
            raise ConfigError(f"std must be positive, got {self.std}")

    @property
    def dim(self) -> int:
        return len(self.centers[0])

    def sample(self, n: int, rng: RngState) -> Tensor:
        comp = rng.integers(0, len(self.centers), size=n)
        centers = np.asarray(self.centers, dtype=np.float64)
        return centers[comp] + self.std * rng.normal(size=(n, self.dim))


@dataclass(frozen=True)
class SwissRoll:
    """2-D spiral, scaled to roughly the unit disc, with Gaussian jitter."""

    noise: float = 0.05
    turns: float = 1.5

    def __post_init__(self):
        if self.noise < 0:
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        if self.turns <= 0:
            raise ConfigError(f"turns must be positive, got {self.turns}")

    @property
    def dim(self) -> int:
        return 2

    def sample(self, n: int, rng: RngState) -> Tensor:
        # angle sweeps `turns` full revolutions starting half a turn out
        # so the spiral does not collapse onto the origin
        theta = np.pi * (1.0 + 2.0 * self.turns * rng.uniform(size=n))
        radius = theta / (np.pi * (1.0 + 2.0 * self.turns))
        pts = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts + self.noise * rng.normal(size=(n, 2))


@dataclass
class TrainConfig:
    dataset: GaussianMixture | SwissRoll = field(default_factory=GaussianMixture)
    epochs: int = 200
    batch: int = 128
    lr: float = 1e-3
    seed: int = 0
    n_samples: int = 512
    hidden: tuple[int, ...] = (64, 64)
    time_embed: int = 16
    activation: str = "silu"

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.batch < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        try:
            _check_embed_width(self.time_embed)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


# --- loss and gradients -------------------------------------------------


def loss_and_grads_at(net: DenoiserNetwork, x_t: Tensor, t_batch, eps_target: Tensor):
    """Mean-squared noise-prediction error at given noisy points and targets.

    Deterministic: no sampling happens here, which is what makes the
    finite-difference checks in the tests exact. Returns (loss, grads)
    with grads a per-layer list of (dW, db) — db is None for bias-free
    layers.
    """
    x_t = as_tensor(x_t)
    eps_target = as_tensor(eps_target)
    # inputs[i] is what layer i consumed, pre[i] what it produced before
    # the nonlinearity (the last layer has none)
    inputs, pre, _ = _forward_layers(net, x_t, t_batch, _apply_layer)
    resid = pre[-1] - eps_target
    n = resid.size
    loss = float(np.sum(resid * resid)) / n

    delta = (2.0 / n) * resid
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dw = inputs[i].T @ delta
        db = delta.sum(axis=0) if layer.bias is not None else None
        grads.append((dw, db))
        if i > 0:
            delta = (delta @ layer.weight.T) * activation_grad(
                pre[i - 1], net.activation
            )
    grads.reverse()
    return loss, grads


def loss_and_grads(
    net: DenoiserNetwork, x0_batch: Tensor, sched: DiffusionSchedule, rng: RngState
):
    """One stochastic objective evaluation on a batch of clean samples.

    Draws per-sample timesteps uniformly from 1..T and fresh noise, forms
    the noised points, and delegates to the deterministic core.
    """
    x0 = as_tensor(x0_batch)
    if x0.ndim != 2 or x0.shape[0] == 0:
        raise ValueError(f"expected a nonempty (batch, dim) array, got {x0.shape}")
    t = rng.integers(1, sched.timesteps + 1, size=x0.shape[0])
    eps = rng.normal(size=x0.shape)
    abar = sched.alpha_bar[t - 1][:, None]
    x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    return loss_and_grads_at(net, x_t, t, eps)


# --- the training loop --------------------------------------------------


def train_denoiser(
    cfg: TrainConfig,
    sched: DiffusionSchedule,
    loss_log: list | None = None,
) -> DenoiserNetwork:
    """SGD over the configured dataset; returns the trained network.

    Fully deterministic under cfg.seed: initialization, the design set,
    epoch shuffles and per-batch noise all come from forked counter-RNG
    streams. Per-epoch mean losses go to the module logger and, when a
    list is passed as loss_log, are appended there for callers that want
    the curve.

    Raises TrainingDivergedError (with the epoch index) if the loss goes
    non-finite, or if the final parameters' noise prediction over the
    design set at t=1 and t=T is non-finite (finite but huge weights).
    """
    root = RngState(cfg.seed)
    net = make_denoiser(
        root.fork(1),
        data_dim=cfg.dataset.dim,
        hidden=cfg.hidden,
        time_embed=cfg.time_embed,
        activation=cfg.activation,
    )
    data_rng = root.fork(2)
    x0 = cfg.dataset.sample(cfg.n_samples, data_rng)

    for epoch in range(cfg.epochs):
        perm = np.argsort(data_rng.uniform(size=cfg.n_samples), kind="stable")
        batch_losses = []
        for start in range(0, cfg.n_samples, cfg.batch):
            batch = x0[perm[start : start + cfg.batch]]
            # a step that overflows shows as a non-finite loss, checked here
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(net, batch, sched, data_rng)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"loss became non-finite at epoch {epoch}", epoch=epoch
                    )
                for layer, (dw, db) in zip(net.layers, grads):
                    layer.weight -= cfg.lr * dw
                    if db is not None:
                        layer.bias -= cfg.lr * db
            batch_losses.append(loss)
        mean_loss = float(np.mean(batch_losses))
        logger.info("epoch %d: loss %.6f", epoch, mean_loss)
        if loss_log is not None:
            loss_log.append(mean_loss)
    if cfg.epochs:
        # one deterministic pass at both ends of the schedule, no RNG draws
        t = np.repeat([1, sched.timesteps], len(x0))
        with np.errstate(over="ignore", invalid="ignore"):
            eps = net.forward(np.concatenate([x0, x0]), t)
        if not np.isfinite(eps).all():
            last = cfg.epochs - 1
            raise TrainingDivergedError(
                f"noise prediction became non-finite after epoch {last}", epoch=last
            )
    return net
