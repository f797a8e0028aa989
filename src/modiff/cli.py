"""Command-line driver: train a toy denoiser, run paired sampling sweeps,
verify the randomized suites, dump activation statistics, and print the
binary-operation cost table.

Settings come from an optional JSON config file with flat CLI-flag
overrides (flags win over the file). The environment variable MODIFF_SEED
supplies the default seed when neither the flag nor the config names one.
Exit codes: 0 success, 1 verification or training failure, 2 I/O or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (
    BopsModel,
    activation_stats,
    bops_count,
    collect_metrics,
    macs_for_net,
    save_metrics_csv,
    temporal_concentration,
)
from .diffusion import (
    QUANT_MODES,
    load_denoiser,
    make_schedule,
    sample,
    save_denoiser,
)
from .errors import ConfigError, TrainingDivergedError
from .quant import QuantConfig
from .rng import RngState
from .train import GaussianMixture, SwissRoll, TrainConfig, train_denoiser
from .verify import all_passed, run_verify

_STATS_COLUMNS = (
    "step", "layer",
    "act_min", "act_q25", "act_q50", "act_q75", "act_max",
    "diff_min", "diff_q25", "diff_q50", "diff_q75", "diff_max",
)


# --- configuration plumbing ---------------------------------------------


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _env_seed():
    raw = os.environ.get("MODIFF_SEED")
    if raw is None:
        return None
    try:
        return int(raw, 0)
    except ValueError as e:
        raise ConfigError(f"MODIFF_SEED must be an integer, got {raw!r}") from e


def _setting(args, cfg, name, default):
    """Flag > config file > default (which may itself come from the env)."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _int_list(value, what):
    try:
        if isinstance(value, (list, tuple)):
            return [int(v) for v in value]
        return [int(tok) for tok in str(value).split(",") if tok.strip()]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cannot parse {what} list from {value!r}") from e


def _str_list(value):
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


def _positive(value, what):
    if value < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")
    return value


def _make_schedule(timesteps, beta_end):
    try:
        return make_schedule(timesteps, beta_end=beta_end)
    except ValueError as e:
        raise ConfigError(f"bad noise schedule: {e}") from e


def _make_dataset(name):
    if name == "gmm":
        return GaussianMixture()
    if name == "swiss_roll":
        return SwissRoll()
    raise ConfigError(f"dataset must be 'gmm' or 'swiss_roll', got {name!r}")


# --- train --------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    seed = _setting(args, cfg, "seed", _env_seed() or 0)
    out = _setting(args, cfg, "out", "denoiser")
    tc = TrainConfig(
        dataset=_make_dataset(_setting(args, cfg, "dataset", "gmm")),
        epochs=int(_setting(args, cfg, "epochs", 200)),
        batch=int(_setting(args, cfg, "batch", 64)),
        lr=float(_setting(args, cfg, "lr", 1e-2)),
        seed=int(seed),
        n_samples=int(_setting(args, cfg, "n_samples", 512)),
        hidden=tuple(_int_list(_setting(args, cfg, "hidden", "64,64"), "hidden")),
        time_embed=int(_setting(args, cfg, "time_embed", 16)),
        activation=str(_setting(args, cfg, "activation", "silu")),
    )
    sched = _make_schedule(
        int(_setting(args, cfg, "timesteps", 100)),
        float(_setting(args, cfg, "beta_end", 0.05)),
    )
    losses: list = []
    net = train_denoiser(tc, sched, loss_log=losses)
    save_denoiser(out, net)
    if losses:
        print(f"initial loss {losses[0]:.6f}, final loss {losses[-1]:.6f}")
    else:
        print("0 epochs: saved the seeded initialization")
    print(f"bundle written to {out}")
    return 0


# --- sweep --------------------------------------------------------------


def _sweep_cell(payload):
    """One (seed, mode, bits) cell; recomputes its own FP reference so the
    cells are independent and order-free under process parallelism."""
    (net, sched, sampler, seed, mode, qcfg, n, warmup_mode, warmup_k, weight_bits) = payload
    fp = sample(net, sched, sampler=sampler, quant_mode="fp", n=n, rng=RngState(seed))
    if mode == "fp":
        return collect_metrics(fp, fp, weight_bits=weight_bits)
    q = sample(
        net, sched, sampler=sampler, quant_mode=mode, cfg=qcfg, n=n,
        rng=RngState(seed), warmup_mode=warmup_mode, warmup_k=warmup_k,
        weight_bits=weight_bits,
    )
    return collect_metrics(fp, q, weight_bits=weight_bits)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    bundle = _setting(args, cfg, "bundle", None)
    if bundle is None:
        raise ConfigError("sweep needs a weight bundle (--bundle)")
    net = load_denoiser(bundle)

    env = _env_seed()
    seeds = _int_list(_setting(args, cfg, "seeds", [env] if env is not None else [0]), "seeds")
    if not seeds:
        raise ConfigError("seeds list is empty")
    modes = _str_list(_setting(args, cfg, "modes", "fp,direct,modulated,ec"))
    for m in modes:
        if m not in QUANT_MODES:
            raise ConfigError(f"unknown mode {m!r}; choose from {QUANT_MODES}")
    bits = _int_list(_setting(args, cfg, "bits", "4"), "bits")
    if 0 in bits and "direct" in modes:
        raise ConfigError("bits 0 is a skip-only setting; direct mode cannot run it")
    sched = _make_schedule(
        int(_setting(args, cfg, "timesteps", 100)),
        float(_setting(args, cfg, "beta_end", 0.05)),
    )
    sampler = str(_setting(args, cfg, "sampler", "ddpm"))
    n = _positive(int(_setting(args, cfg, "n", 16)), "n")
    rounding = str(_setting(args, cfg, "rounding", "floor"))
    skip_threshold = float(_setting(args, cfg, "skip_threshold", 0.0))
    try:
        qcfgs = [QuantConfig(bits=b, rounding=rounding, skip_threshold=skip_threshold)
                 for b in bits]
    except ValueError as e:
        raise ConfigError(f"bad quantizer setting: {e}") from e
    warmup_mode = str(_setting(args, cfg, "warmup", "full"))
    warmup_k = int(_setting(args, cfg, "warmup_k", 1))
    weight_bits = int(_setting(args, cfg, "weight_bits", 8))
    out = _setting(args, cfg, "out", "sweep.csv")
    jobs = int(_setting(args, cfg, "jobs", 1))

    cells = [
        (net, sched, sampler, seed, mode, qcfg, n, warmup_mode, warmup_k, weight_bits)
        for seed in seeds
        for mode in modes
        for qcfg in qcfgs
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(_sweep_cell, cells))
    else:
        per_cell = [_sweep_cell(c) for c in cells]

    records = [rec for recs in per_cell for rec in recs]
    save_metrics_csv(out, records)
    expected = len(seeds) * len(modes) * len(bits) * sched.timesteps * len(net.layers)
    print(f"{len(records)} rows ({expected} expected) written to {out}")
    return 0


# --- verify -------------------------------------------------------------


def _broken_fake_quant(x, qcfg):
    # self-test hook: clamps one level short at the top, which must trip
    # the error-bound suite
    from .quant import QuantizedTensor, dequantize, fit_params, quantize

    p = fit_params(x, qcfg)
    q = quantize(x, p, qcfg.rounding)
    clipped = np.minimum(q.ints, (1 << qcfg.bits) - 2).astype(np.int32)
    return dequantize(QuantizedTensor(ints=clipped, params=q.params))


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    trials = int(_setting(args, cfg, "trials", 10_000))
    seed = int(_setting(args, cfg, "seed", _env_seed() if _env_seed() is not None else 2024))
    contraction = float(_setting(args, cfg, "contraction", 0.25))
    fq = _broken_fake_quant if args.inject_broken_quantizer else None
    reports = run_verify(trials=trials, seed=seed, fake_quant_fn=fq, contraction=contraction)
    for r in reports:
        print(r.line())
    if not all_passed(reports):
        failed = sum(not r.passed for r in reports)
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 1
    print("all suites passed")
    return 0


# --- stats --------------------------------------------------------------


def cmd_stats(args) -> int:
    cfg = _load_config(args.config)
    bundle = _setting(args, cfg, "bundle", None)
    if bundle is None:
        raise ConfigError("stats needs a weight bundle (--bundle)")
    net = load_denoiser(bundle)
    seed = int(_setting(args, cfg, "seed", _env_seed() or 0))
    sched = _make_schedule(
        int(_setting(args, cfg, "timesteps", 100)),
        float(_setting(args, cfg, "beta_end", 0.05)),
    )
    sampler = str(_setting(args, cfg, "sampler", "ddpm"))
    n = _positive(int(_setting(args, cfg, "n", 16)), "n")
    out = _setting(args, cfg, "out", "stats.csv")

    traj = sample(net, sched, sampler=sampler, quant_mode="fp", n=n, rng=RngState(seed))
    stats = activation_stats(traj)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_STATS_COLUMNS)
        for s in stats:
            w.writerow(
                [s.step, s.layer]
                + [repr(getattr(s, f"act_{k}")) for k in ("min", "q25", "q50", "q75", "max")]
                + [
                    "" if getattr(s, f"diff_{k}") is None else repr(getattr(s, f"diff_{k}"))
                    for k in ("min", "q25", "q50", "q75", "max")
                ]
            )
    print(f"{len(stats)} rows written to {out}")
    for layer, (med_diff, med_act, ratio) in temporal_concentration(traj).items():
        print(
            f"layer {layer}: median diff range {med_diff:.6f}, "
            f"median act range {med_act:.6f}, ratio {ratio:.4f}"
        )
    return 0


# --- bops ---------------------------------------------------------------


def cmd_bops(args) -> int:
    cfg = _load_config(args.config)
    bundle = _setting(args, cfg, "bundle", None)
    batch = int(_setting(args, cfg, "batch", 16))
    weight_bits = int(_setting(args, cfg, "weight_bits", 8))
    act_bits = _int_list(_setting(args, cfg, "bits", "8,4,3"), "bits")
    if bundle is not None:
        macs = macs_for_net(load_denoiser(bundle), batch=batch)
    else:
        dims = _int_list(_setting(args, cfg, "dims", "18,64,64,2"), "dims")
        if len(dims) < 2:
            raise ConfigError("dims needs at least an input and an output extent")
        macs = tuple(batch * a * b for a, b in zip(dims, dims[1:]))

    try:
        fp_model, *models = [BopsModel(macs, weight_bits, b) for b in (None, *act_bits)]
    except ValueError as e:
        raise ConfigError(f"bad cost-table setting: {e}") from e
    fp = bops_count(fp_model)
    print(f"macs per layer: {','.join(str(m) for m in macs)}")
    print(f"{'w_bits':>6} {'a_bits':>6} {'bops':>14} {'vs fp':>8}")
    print(f"{weight_bits:>6} {'fp32':>6} {fp:>14} {1.0:>8.4f}")
    for model in models:
        v = bops_count(model)
        print(f"{weight_bits:>6} {model.act_bits:>6} {v:>14} {v / fp:>8.4f}")
    return 0


# --- argument parsing ---------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--seed", type=int, help="base seed (default: MODIFF_SEED or 0)")
    p.add_argument("--out", help="output path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modiff",
        description="Modulated activation quantization for iterative samplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the toy denoiser and save a bundle")
    _add_common(p)
    p.add_argument("--dataset", choices=["gmm", "swiss_roll"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", help="comma-separated hidden widths")
    p.add_argument("--time-embed", dest="time_embed", type=int)
    p.add_argument("--activation", choices=["relu", "silu"])
    p.add_argument("--timesteps", type=int)
    p.add_argument("--beta-end", dest="beta_end", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="paired FP/quantized sampling sweep to CSV")
    _add_common(p)
    p.add_argument("--bundle", help="trained weight bundle directory")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--modes", help="comma-separated subset of fp,direct,modulated,ec")
    p.add_argument("--bits", help="comma-separated activation bit-widths")
    p.add_argument("--timesteps", type=int)
    p.add_argument("--beta-end", dest="beta_end", type=float)
    p.add_argument("--sampler", choices=["ddpm", "ddim"])
    p.add_argument("--n", type=int, help="samples per trajectory")
    p.add_argument("--rounding", choices=["floor", "nearest"])
    p.add_argument("--skip-threshold", dest="skip_threshold", type=float)
    p.add_argument("--warmup", choices=["full", "repeated"])
    p.add_argument("--warmup-k", dest="warmup_k", type=int)
    p.add_argument("--weight-bits", dest="weight_bits", type=int)
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--contraction", type=float, help="target c for the width-rule suite")
    p.add_argument(
        "--inject-broken-quantizer",
        action="store_true",
        help="self-test: swap in a deliberately broken quantizer and expect failure",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="activation statistics of a full-precision run")
    _add_common(p)
    p.add_argument("--bundle")
    p.add_argument("--timesteps", type=int)
    p.add_argument("--beta-end", dest="beta_end", type=float)
    p.add_argument("--sampler", choices=["ddpm", "ddim"])
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bops", help="binary-operation cost table")
    _add_common(p)
    p.add_argument("--bundle")
    p.add_argument("--dims", help="layer extents, e.g. 18,64,64,2")
    p.add_argument("--batch", type=int)
    p.add_argument("--weight-bits", dest="weight_bits", type=int)
    p.add_argument("--bits", help="activation widths for the table rows")
    p.set_defaults(func=cmd_bops)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
