"""Command-line driver: train a toy denoiser, run paired sampling sweeps,
verify the randomized suites, dump activation statistics, and print the
binary-operation cost table.

Each setting is declared once: SETTINGS says how its flag text or
config-file value is converted and checked, DEFAULTS which subcommands
take it and with what default. A setting resolves flag > JSON config file
(keys are the setting names) > MODIFF_SEED (--seed, --seeds) > default.
Exit codes: 0 success, 1 verification, training or sampling failure (a
non-finite layer output, step diagnostic or drift, or a drift against a
zero-norm fp output), 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .analysis import (
    MODE_ORDER,
    WEIGHT_BITS,
    activation_stats,
    bops_count,
    collect_metrics,
    macs_for_net,
    save_metrics_csv,
    save_stats_csv,
    temporal_concentration,
)
from .diffusion import (
    ACTIVATIONS,
    QUANT_MODES,
    SAMPLERS,
    load_denoiser,
    make_schedule,
    sample,
    save_denoiser,
)
from .errors import ConfigError, DegenerateReferenceError, NonFiniteError, TrainingDivergedError
from .modulated import DELTA_MODES, MODES
from .quant import ROUNDINGS, QuantConfig, bits_for_contraction
from .rng import RngState
from .train import GaussianMixture, SwissRoll, TrainConfig, train_denoiser
from .verify import WIDTH_RULE_DIMS, all_passed, broken_fake_quant, run_verify

# --- settings -----------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """How one setting's flag text, or config-file value, becomes a value.

    A config value is read as the flag text it stands for (a JSON list
    stands for a comma-separated one), so both pass the same checks; a
    JSON list, object or boolean in place of one value stands for no flag
    text and is refused.
    """

    kind: type = str  # int, float or str
    choices: tuple = ()
    positive: bool = False
    many: bool = False  # a comma-separated list
    unique: bool = False  # a list whose entries each name a run, so none may repeat
    is_seed: bool = False  # an RngState seed; MODIFF_SEED supplies it if flag and file do not
    help: str | None = None

    def convert(self, name, value):
        if not self.many:
            return self._one(name, value)
        if not isinstance(value, list):
            value = [tok.strip() for tok in str(value).split(",") if tok.strip()]
        if not value:
            raise ConfigError(f"{name}: the list is empty")
        values = tuple(self._one(name, v) for v in value)
        if self.unique and len(set(values)) < len(values):
            raise ConfigError(f"{name}: an entry is listed more than once in {values}")
        return values

    def _one(self, name, value):
        if isinstance(value, (bool, list, dict)):
            raise ConfigError(f"{name}: expected one {self.kind.__name__}, got {value!r}")
        try:
            v = self.kind(str(value))
        except ValueError:
            raise ConfigError(f"{name}: expected {self.kind.__name__}, got {value!r}") from None
        if self.choices and v not in self.choices:
            raise ConfigError(f"{name}: expected one of {', '.join(self.choices)}, got {v!r}")
        if self.positive and not v > 0:
            raise ConfigError(f"{name} must be > 0, got {v}")
        if self.is_seed:
            try:
                RngState(v)
            except ValueError as e:
                raise ConfigError(f"{name}: {e}") from None
        return v


DATASETS = {"gmm": GaussianMixture, "swiss_roll": SwissRoll}

# every setting of every subcommand; its flag is --name with '-' for '_'
# and its config key is the name
SETTINGS = {
    "seed": Setting(int, is_seed=True, help="base seed (default: MODIFF_SEED, else fixed)"),
    "out": Setting(help="output path"),
    "bundle": Setting(help="trained weight bundle directory"),
    "dataset": Setting(choices=tuple(DATASETS)),
    "epochs": Setting(int),
    "batch": Setting(int),
    "lr": Setting(float),
    "n_samples": Setting(int, help="training set size"),
    "hidden": Setting(int, many=True, positive=True, help="comma-separated hidden widths"),
    "time_embed": Setting(int),
    "activation": Setting(choices=ACTIVATIONS),
    "timesteps": Setting(int),
    "beta_end": Setting(float),
    "sampler": Setting(choices=SAMPLERS),
    "n": Setting(int, positive=True, help="samples per trajectory"),
    "seeds": Setting(int, many=True, unique=True, is_seed=True, help="comma-separated seed list"),
    "modes": Setting(choices=QUANT_MODES, many=True, unique=True, help="comma-separated subset"),
    "bits": Setting(int, many=True, unique=True, help="comma-separated activation bit-widths"),
    "rounding": Setting(choices=ROUNDINGS),
    "skip_threshold": Setting(float),
    "warmup_k": Setting(int, help="quantized warm-up passes of a delta mode; 0 is full precision"),
    "weight_bits": Setting(int, positive=True),
    "jobs": Setting(int, positive=True, help="parallel worker processes, at most one per seed"),
    "trials": Setting(int, positive=True,
                      help="error-bound suite trials; this and --seed reach no other suite"),
    "contraction": Setting(float, positive=True, help="target c for the width-rule suite"),
    "dims": Setting(int, many=True, help="layer extents, e.g. 18,64,64,2"),
}

_SCHEDULE = {"timesteps": 100, "beta_end": 0.05}
_SAMPLING = {"bundle": None, **_SCHEDULE, "sampler": "ddpm", "n": 16}

# the settings each subcommand takes, with its defaults
DEFAULTS = {
    "train": {
        "seed": 0, "out": "denoiser", "dataset": "gmm", "epochs": 200, "batch": 64,
        "lr": 1e-2, "n_samples": 512, "hidden": (64, 64), "time_embed": 16,
        "activation": "silu", **_SCHEDULE,
    },
    "sweep": {
        "out": "sweep.csv", **_SAMPLING, "seeds": (0,), "modes": QUANT_MODES, "bits": (4,),
        "rounding": "floor", "skip_threshold": 0.0, "warmup_k": 0, "jobs": 1,
    },
    "verify": {"seed": 2024, "trials": 10_000, "contraction": 0.25},
    "stats": {"seed": 0, "out": "stats.csv", **_SAMPLING},
    "bops": {
        "bundle": None, "dims": (18, 64, 64, 2), "batch": 16, "weight_bits": WEIGHT_BITS,
        "bits": (8, 4, 3),
    },
}


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


def _resolve(command, args, cfg):
    """The parsed flags with each setting of `command` filled in by
    flag > config file > MODIFF_SEED > default.

    A key no subcommand takes is an error; a key of another subcommand is
    ignored, so that one file can serve several.
    """
    unknown = sorted(set(cfg) - set(SETTINGS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    env = _env_seed()
    resolved = argparse.Namespace(**vars(args))
    for name, default in DEFAULTS[command].items():
        setting = SETTINGS[name]
        raw = getattr(args, name)
        if raw is None:
            raw = cfg.get(name)
        if raw is None and setting.is_seed and env is not None:
            raw = str(env)  # as flag text, so that "seeds" reads it as a list
        setattr(resolved, name, default if raw is None else setting.convert(name, raw))
    return resolved


def _schedule(s):
    try:
        return make_schedule(s.timesteps, beta_end=s.beta_end)
    except ValueError as e:
        raise ConfigError(f"bad noise schedule: {e}") from e


def _reject_ignored(s, names, why):
    """ConfigError for the first of `names` set off its default, a setting this run ignores."""
    for name in names:
        if getattr(s, name) != DEFAULTS[s.command][name]:
            raise ConfigError(f"--{name.replace('_', '-')} {why}")


def _load_run(s):
    """The bundle and the noise schedule of a command that samples."""
    if s.bundle is None:
        raise ConfigError(f"{s.command} needs a weight bundle (--bundle)")
    return load_denoiser(s.bundle), _schedule(s)


# --- train --------------------------------------------------------------


def cmd_train(s) -> int:
    tc = TrainConfig(
        dataset=DATASETS[s.dataset](),
        epochs=s.epochs,
        batch=s.batch,
        lr=s.lr,
        seed=s.seed,
        n_samples=s.n_samples,
        hidden=s.hidden,
        time_embed=s.time_embed,
        activation=s.activation,
    )
    sched = _schedule(s)
    losses: list = []
    net = train_denoiser(tc, sched, loss_log=losses)
    save_denoiser(s.out, net)
    if losses:
        print(f"initial loss {losses[0]:.6f}, final loss {losses[-1]:.6f}")
    else:
        print("0 epochs: saved the seeded initialization")
    print(f"bundle written to {s.out}")
    return 0


# --- sweep --------------------------------------------------------------


def _sweep_seed(net, sched, s, qcfgs, seed):
    """The row count and the rendered CSV rows of one seed: every (mode, bits) cell,
    modes in MODE_ORDER and qcfgs (in ascending width) in turn, each paired with the
    seed's one fp reference run. The fp mode samples its own run once, apart from the
    reference, as bench/test_tracing.py counts, and writes each of its rows once per
    bits entry, one after another."""
    def run(mode, qcfg=None):
        return sample(net, sched, sampler=s.sampler, quant_mode=mode, cfg=qcfg, n=s.n,
                      rng=RngState(seed), warmup_k=s.warmup_k)

    ref = run("fp")
    rows, blocks = 0, []
    for mode in sorted(s.modes, key=MODE_ORDER.index):
        for qcfg, repeat in [(None, len(qcfgs))] if mode == "fp" else [(c, 1) for c in qcfgs]:
            cell = collect_metrics(ref, run(mode, qcfg))
            rows += len(cell) * repeat
            blocks += [row * repeat for row in cell.csv_rows().splitlines(keepends=True)]
    return rows, "".join(blocks)


def cmd_sweep(s) -> int:
    if not set(s.modes) & set(MODES):
        _reject_ignored(s, ("rounding",),
                        f"reaches only the quantized modes ({', '.join(MODES)}), "
                        "and --modes lists none")
    if not set(s.modes) & set(DELTA_MODES):
        _reject_ignored(s, ("warmup_k", "skip_threshold"),
                        f"reaches only the delta modes ({', '.join(DELTA_MODES)}), "
                        "and --modes lists neither")
    net, sched = _load_run(s)
    if s.warmup_k < 0:
        raise ConfigError(f"warmup_k must be >= 0, got {s.warmup_k}")
    try:
        qcfgs = [QuantConfig(bits=b, rounding=s.rounding, skip_threshold=s.skip_threshold)
                 for b in sorted(s.bits)]
    except ValueError as e:
        raise ConfigError(f"bad quantizer setting: {e}") from e
    created = not os.path.lexists(s.out)
    open(s.out, "a").close()  # an unwritable --out fails here, before sampling; never truncates
    if created:
        os.remove(s.out)
    run_seed = partial(_sweep_seed, net, sched, s, qcfgs)
    workers = min(s.jobs, len(s.seeds))
    seeds = sorted(s.seeds)  # the CSV's seed blocks are in ascending order
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(run_seed, seeds))
    else:
        per_seed = [run_seed(seed) for seed in seeds]
    save_metrics_csv(s.out, [rows for _, rows in per_seed])
    expected = len(s.seeds) * len(s.modes) * len(s.bits) * sched.timesteps * len(net.layers)
    print(f"{sum(n for n, _ in per_seed)} rows ({expected} expected) written to {s.out}")
    return 0


# --- verify -------------------------------------------------------------


def cmd_verify(s) -> int:
    # the width-rule suite quantizes at the width it prescribes for each extent
    try:
        for d in WIDTH_RULE_DIMS:
            QuantConfig(bits=bits_for_contraction(d, s.contraction))
    except ValueError as e:
        raise ConfigError(f"contraction {s.contraction} is out of reach: {e}") from e
    fq = broken_fake_quant if s.inject_broken_quantizer else None
    reports = run_verify(trials=s.trials, seed=s.seed, fake_quant_fn=fq, contraction=s.contraction)
    for r in reports:
        print(r.line())
    if not all_passed(reports):
        failed = sum(not r.passed for r in reports)
        print(f"{failed} suite(s) failed", file=sys.stderr)
        return 1
    print("all suites passed")
    return 0


# --- stats --------------------------------------------------------------


def cmd_stats(s) -> int:
    net, sched = _load_run(s)
    if sched.timesteps < 2:
        raise ConfigError("stats needs at least 2 timesteps: step differences start at the second")
    traj = sample(net, sched, sampler=s.sampler, quant_mode="fp", n=s.n, rng=RngState(s.seed))
    act, diff = activation_stats(traj)
    save_stats_csv(s.out, act, diff)
    print(f"{act.shape[0] * act.shape[1]} rows written to {s.out}")
    for layer, (med_diff, med_act, ratio) in temporal_concentration(act, diff).items():
        print(
            f"layer {layer}: median diff range {med_diff:.6f}, "
            f"median act range {med_act:.6f}, ratio {ratio:.4f}"
        )
    return 0


# --- bops ---------------------------------------------------------------


def cmd_bops(s) -> int:
    if s.bundle is not None:
        _reject_ignored(s, ("dims",), "has no effect with --bundle, whose layers set the extents")
        macs = macs_for_net(load_denoiser(s.bundle), batch=s.batch)
    else:
        if len(s.dims) < 2:
            raise ConfigError("dims needs at least an input and an output extent")
        macs = tuple(s.batch * a * b for a, b in zip(s.dims, s.dims[1:]))

    try:
        fp, *totals = [bops_count(macs, s.weight_bits, b) for b in (None, *s.bits)]
    except ValueError as e:
        raise ConfigError(f"bad cost-table setting: {e}") from e
    print(f"macs per layer: {','.join(str(m) for m in macs)}")
    print(f"{'w_bits':>6} {'a_bits':>6} {'bops':>14} {'vs fp':>8}")
    print(f"{s.weight_bits:>6} {'fp32':>6} {fp:>14} {1.0:>8.4f}")
    for b, v in zip(s.bits, totals):
        print(f"{s.weight_bits:>6} {b:>6} {v:>14} {v / fp:>8.4f}")
    return 0


# --- argument parsing ---------------------------------------------------

_COMMANDS = (
    ("train", cmd_train, "train the toy denoiser and save a bundle"),
    ("sweep", cmd_sweep, "paired FP/quantized sampling sweep to CSV"),
    ("verify", cmd_verify, "run the randomized verification suites"),
    ("stats", cmd_stats, "activation statistics of a full-precision run"),
    ("bops", cmd_bops, "binary-operation cost table"),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modiff",
        description="Modulated activation quantization for iterative samplers.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary in _COMMANDS:
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for name in DEFAULTS[command]:
            setting = SETTINGS[name]
            metavar = "{%s}" % ",".join(setting.choices) if setting.choices else None
            p.add_argument("--" + name.replace("_", "-"), dest=name, metavar=metavar,
                           help=setting.help)
        if command == "verify":
            p.add_argument(
                "--inject-broken-quantizer",
                action="store_true",
                help="self-test: swap in a deliberately broken quantizer and expect failure",
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args.command, args, _load_config(args.config)))
    except TrainingDivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1
    except (NonFiniteError, DegenerateReferenceError) as e:
        print(f"sampling failed: {e}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
