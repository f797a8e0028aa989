"""Trainer tests: exact gradients, determinism, and the reference run.

The finite-difference checks go through loss_and_grads_at, the
deterministic core that takes noisy points and targets as plain inputs —
no sampling inside, so central differences are meaningful.
"""

import math

import numpy as np
import pytest

from modiff.diffusion import DenoiserNetwork, make_denoiser, make_schedule
from modiff.errors import ConfigError, TrainingDivergedError
from modiff.modulated import LinearLayer
from modiff.rng import RngState
from modiff.train import (
    GaussianMixture,
    SwissRoll,
    TrainConfig,
    loss_and_grads,
    loss_and_grads_at,
    train_denoiser,
)

# Reference configuration for the 200-epoch halving check, frozen after
# measuring ratios of 0.30..0.45 across ten seeds: the slightly hotter
# schedule end makes the noise target predictable enough that SGD can
# actually reach well below half the starting loss.
REF_SCHED_KWARGS = dict(timesteps=100, beta_end=0.05)
REF_CFG_KWARGS = dict(lr=1e-2, batch=64, epochs=200)


def _small_net(seed, hidden=(5, 4), time_embed=4, activation="silu"):
    return make_denoiser(
        RngState(seed), data_dim=2, hidden=hidden, time_embed=time_embed,
        activation=activation,
    )


def _fd_gradient(net, x_t, t, eps, layer_idx, param, flat_idx, h=1e-5):
    """Central difference through the deterministic loss at one coordinate."""
    layer = net.layers[layer_idx]
    arr = layer.weight if param == "weight" else layer.bias
    orig = arr.flat[flat_idx]
    arr.flat[flat_idx] = orig + h
    up, _ = loss_and_grads_at(net, x_t, t, eps)
    arr.flat[flat_idx] = orig - h
    dn, _ = loss_and_grads_at(net, x_t, t, eps)
    arr.flat[flat_idx] = orig
    return (up - dn) / (2.0 * h)


# --- gradient correctness -----------------------------------------------


def test_perfect_predictor_gives_zero_loss_and_zero_grads():
    net = _small_net(11)
    rng = RngState(3)
    x_t = rng.normal(size=(6, 2))
    t = rng.integers(1, 101, size=6)
    eps = net.forward(x_t, t)  # target is exactly what the net outputs
    loss, grads = loss_and_grads_at(net, x_t, t, eps)
    assert loss == 0.0
    for dw, db in grads:
        assert np.all(dw == 0.0)
        assert np.all(db == 0.0)


@pytest.mark.parametrize("activation,net_seed", [("silu", 23), ("relu", 169)])
def test_gradients_match_central_differences(activation, net_seed):
    net = _small_net(net_seed, activation=activation)
    rng = RngState(17)
    x_t = rng.normal(size=(6, 2))
    t = rng.integers(1, 101, size=6)
    eps = rng.normal(size=(6, 2))
    if activation == "relu":
        # central differences are only valid away from the kink: this
        # seed keeps every hidden pre-activation > 5000 h from zero
        from modiff.diffusion import _apply_layer, _forward_layers

        _, pre, _ = _forward_layers(net, x_t, t, _apply_layer)
        assert min(float(np.min(np.abs(z))) for z in pre[:-1]) > 0.05
    _, grads = loss_and_grads_at(net, x_t, t, eps)

    pick = RngState(99)
    checked = 0
    while checked < 100:
        li = int(pick.integers(0, len(net.layers)))
        param = "weight" if pick.uniform() < 0.8 else "bias"
        arr = net.layers[li].weight if param == "weight" else net.layers[li].bias
        fi = int(pick.integers(0, arr.size))
        analytic = (grads[li][0] if param == "weight" else grads[li][1]).flat[fi]
        numeric = _fd_gradient(net, x_t, t, eps, li, param, fi)
        scale = max(abs(analytic), abs(numeric))
        if scale < 1e-8:
            assert abs(analytic - numeric) < 1e-8
        else:
            assert abs(analytic - numeric) / scale < 1e-4, (
                f"layer {li} {param}[{fi}]: analytic {analytic} vs fd {numeric}"
            )
        checked += 1


def test_single_parameter_net_gradient():
    # one 1x1 weight, no bias, no time features: d/dw of mean (x*w - eps)^2
    w = np.array([[0.7]])
    net = DenoiserNetwork(
        layers=[LinearLayer(weight=w, bias=None)], activation="silu", time_embed=0
    )
    x = np.array([[1.3], [-0.4], [2.1]])
    t = np.array([5, 50, 95])
    eps = np.array([[0.2], [-1.0], [0.5]])
    _, grads = loss_and_grads_at(net, x, t, eps)
    fd = _fd_gradient(net, x, t, eps, 0, "weight", 0)
    assert grads[0][0][0, 0] == pytest.approx(fd, rel=1e-6)
    assert grads[0][1] is None


def test_linear_net_loss_is_quadratic_in_inputs():
    # single layer, no bias, no time embedding: doubling inputs against a
    # zero target multiplies the loss (and the weight gradient) by 4
    rng = RngState(5)
    net = DenoiserNetwork(
        layers=[LinearLayer(weight=rng.normal(size=(2, 2)), bias=None)],
        activation="relu",
        time_embed=0,
    )
    x = rng.normal(size=(8, 2))
    t = np.full(8, 10)
    zeros = np.zeros((8, 2))
    loss1, grads1 = loss_and_grads_at(net, x, t, zeros)
    loss2, grads2 = loss_and_grads_at(net, 2.0 * x, t, zeros)
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-12)
    assert np.allclose(grads2[0][0], 4.0 * grads1[0][0], rtol=1e-12)


def test_stochastic_wrapper_draws_and_shapes():
    net = _small_net(7)
    sched = make_schedule(100)
    rng = RngState(31)
    x0 = RngState(1).normal(size=(12, 2))
    loss, grads = loss_and_grads(net, x0, sched, rng)
    assert np.isfinite(loss) and loss > 0.0
    assert len(grads) == len(net.layers)
    for layer, (dw, db) in zip(net.layers, grads):
        assert dw.shape == layer.weight.shape
        assert db.shape == layer.bias.shape
    # 12 timestep words plus 24 normals at two words each
    assert rng.counter == 12 + 48


def test_stochastic_wrapper_rejects_empty_batch():
    net = _small_net(7)
    sched = make_schedule(10)
    with pytest.raises(ValueError):
        loss_and_grads(net, np.zeros((0, 2)), sched, RngState(0))


# --- datasets -----------------------------------------------------------


def test_gaussian_mixture_sampler_statistics():
    ds = GaussianMixture()
    pts = ds.sample(4000, RngState(42))
    assert pts.shape == (4000, 2)
    # equal-weight components, centers at x = -1 and x = +1
    assert 1600 < int(np.sum(pts[:, 0] > 0)) < 2400
    assert abs(float(np.mean(pts[:, 0]))) < 0.1
    assert float(np.mean(np.abs(pts[:, 0]))) == pytest.approx(1.0, abs=0.1)
    assert float(np.std(pts[:, 1])) == pytest.approx(0.15, abs=0.03)


def test_swiss_roll_sampler_scale():
    ds = SwissRoll(noise=0.02)
    pts = ds.sample(2000, RngState(7))
    assert pts.shape == (2000, 2)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert float(np.max(radii)) < 1.0 + 5 * 0.02
    assert float(np.min(radii)) > 0.05  # spiral starts away from the origin


def test_datasets_deterministic():
    for ds in (GaussianMixture(), SwissRoll()):
        a = ds.sample(64, RngState(9))
        b = ds.sample(64, RngState(9))
        assert np.array_equal(a, b)


def test_dataset_validation():
    with pytest.raises(ConfigError):
        GaussianMixture(centers=())
    with pytest.raises(ConfigError):
        GaussianMixture(centers=((0.0, 0.0), (1.0,)))
    with pytest.raises(ConfigError):
        GaussianMixture(std=0.0)
    with pytest.raises(ConfigError):
        SwissRoll(noise=-0.1)


def test_train_config_validation():
    for bad in (
        dict(lr=0.0),
        dict(lr=-1e-3),
        dict(lr=math.nan),
        dict(lr=math.inf),
        dict(batch=0),
        dict(epochs=-1),
        dict(n_samples=0),
        dict(time_embed=3),
        dict(time_embed=-2),
        dict(time_embed=4.0),
        dict(time_embed=True),
        dict(time_embed=False),
        dict(hidden=(0,)),
        dict(hidden=(8, -1)),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_train_config_rejects_an_unknown_activation():
    with pytest.raises(ConfigError, match="tanh"):
        TrainConfig(activation="tanh", epochs=0)
    for name in ("relu", "silu"):
        assert TrainConfig(activation=name, epochs=0).activation == name


# --- the training loop --------------------------------------------------


def test_zero_epochs_returns_seeded_initialization():
    cfg = TrainConfig(epochs=0, seed=77)
    net = train_denoiser(cfg, make_schedule(100))
    fresh = make_denoiser(
        RngState(77).fork(1), data_dim=2, hidden=cfg.hidden,
        time_embed=cfg.time_embed, activation=cfg.activation,
    )
    for got, want in zip(net.layers, fresh.layers):
        assert np.array_equal(got.weight, want.weight)
        assert np.array_equal(got.bias, want.bias)


def test_training_is_bitwise_deterministic():
    sched = make_schedule(50)
    cfg = TrainConfig(epochs=12, seed=3)
    log_a, log_b = [], []
    net_a = train_denoiser(cfg, sched, loss_log=log_a)
    net_b = train_denoiser(cfg, sched, loss_log=log_b)
    assert log_a == log_b
    for la, lb in zip(net_a.layers, net_b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_short_run_reduces_loss():
    log = []
    train_denoiser(
        TrainConfig(epochs=30, lr=1e-2, seed=4), make_schedule(100), loss_log=log
    )
    assert len(log) == 30
    assert log[-1] < log[0]


@pytest.mark.parametrize("seed", [0, 9])
def test_reference_run_halves_the_loss(seed):
    log = []
    train_denoiser(
        TrainConfig(seed=seed, **REF_CFG_KWARGS),
        make_schedule(**REF_SCHED_KWARGS),
        loss_log=log,
    )
    assert len(log) == 200
    assert log[-1] < 0.5 * log[0], f"ratio {log[-1] / log[0]:.3f}"


def test_divergence_raises_with_epoch_index():
    cfg = TrainConfig(epochs=50, lr=1e8, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train_denoiser(cfg, make_schedule(100))
    assert isinstance(exc.value.epoch, int)
    assert exc.value.epoch >= 0
