"""End-to-end checks of the command-line driver: exit codes, output files,
determinism across reruns and worker counts, and setting precedence."""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from modiff import cli
from modiff.analysis import bops_count, macs_for_net
from modiff.cli import main
from modiff.diffusion import load_denoiser, make_denoiser
from modiff.modulated import WEIGHT_BITS
from modiff.rng import RngState
from modiff.tensorops import load_tensor, save_tensor

FAST_TRAIN = [
    "--epochs", "2", "--batch", "16", "--hidden", "8,8",
    "--time-embed", "4", "--timesteps", "10",
]


def _bundle_bytes(path):
    root = pathlib.Path(path)
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "bundle"
    rc = main(["train", *FAST_TRAIN, "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


# --- train --------------------------------------------------------------


def test_train_writes_bundle_and_prints_loss(bundle, capsys):
    assert (bundle / "manifest.json").exists()
    rc = main(["train", *FAST_TRAIN, "--seed", "3", "--out", str(bundle)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final loss" in out


def test_train_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", *FAST_TRAIN, "--seed", "7", "--out", str(a)]) == 0
    assert main(["train", *FAST_TRAIN, "--seed", "7", "--out", str(b)]) == 0
    assert _bundle_bytes(a) == _bundle_bytes(b)


def test_train_zero_epochs_is_seeded_init(tmp_path):
    out = tmp_path / "init"
    rc = main(["train", "--epochs", "0", "--hidden", "8,8", "--time-embed", "4",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    net = load_denoiser(out)
    ref = make_denoiser(RngState(11).fork(1), hidden=(8, 8), time_embed=4)
    for got, want in zip(net.layers, ref.layers):
        assert np.array_equal(got.weight, want.weight)
        assert np.array_equal(got.bias, want.bias)


def test_train_divergence_exits_one_with_epoch(tmp_path, capsys):
    rc = main(["train", *FAST_TRAIN, "--lr", "1e12", "--seed", "0",
               "--out", str(tmp_path / "div")])
    assert rc == 1
    assert capsys.readouterr().err == "training diverged: loss became non-finite at epoch 0\n"


def test_train_with_finite_loss_but_overflowing_weights_writes_no_bundle(tmp_path, capsys):
    # the loss of the one batch is finite, but the step leaves weights near
    # 1e306 whose forward pass overflows: a useless bundle must not be saved
    out = tmp_path / "huge"
    rc = main(["train", "--epochs", "1", "--batch", "16", "--n-samples", "16",
               "--hidden", "8,8", "--time-embed", "4", "--timesteps", "10",
               "--lr", "1e307", "--seed", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "training diverged: noise prediction became non-finite after epoch 0\n"
    assert not out.exists()


# --- seed precedence ----------------------------------------------------


def test_env_seed_matches_explicit_flag(tmp_path, monkeypatch):
    flag = tmp_path / "flag"
    env = tmp_path / "env"
    assert main(["train", "--epochs", "0", "--seed", "21", "--out", str(flag)]) == 0
    monkeypatch.setenv("MODIFF_SEED", "21")
    assert main(["train", "--epochs", "0", "--out", str(env)]) == 0
    assert _bundle_bytes(flag) == _bundle_bytes(env)


def test_explicit_flag_beats_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("MODIFF_SEED", "99")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train", "--epochs", "0", "--seed", "21", "--out", str(a)]) == 0
    monkeypatch.delenv("MODIFF_SEED")
    assert main(["train", "--epochs", "0", "--seed", "21", "--out", str(b)]) == 0
    assert _bundle_bytes(a) == _bundle_bytes(b)


def test_bad_env_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("MODIFF_SEED", "not-a-number")
    rc = main(["train", "--epochs", "0", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("value", ["-1", "18446744073709551616"])
def test_env_seed_outside_the_stream_range_exits_two(value, bundle, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setenv("MODIFF_SEED", value)
    monkeypatch.setattr(cli, "load_denoiser", None)  # refused before the bundle is read
    out = tmp_path / "o.csv"
    assert main(["sweep", "--bundle", str(bundle), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: seeds: seed must be in [0, 2^64)")
    assert not out.exists()


def test_config_file_supplies_settings_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "batch": 16, "hidden": [8, 8], "time_embed": 4,
        "timesteps": 10, "seed": 7, "n_samples": 64,
    }))
    from_cfg = tmp_path / "from_cfg"
    assert main(["train", "--config", str(cfg), "--out", str(from_cfg)]) == 0
    plain = tmp_path / "plain"
    assert main(["train", *FAST_TRAIN, "--seed", "7", "--n-samples", "64",
                 "--out", str(plain)]) == 0
    assert _bundle_bytes(from_cfg) == _bundle_bytes(plain)

    overridden = tmp_path / "overridden"
    assert main(["train", "--config", str(cfg), "--epochs", "0",
                 "--out", str(overridden)]) == 0
    assert _bundle_bytes(overridden) != _bundle_bytes(plain)


def test_malformed_config_exits_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command, config", [
    ("sweep", {"out": ["x.csv"]}),
    ("sweep", {"out": {"path": "x.csv"}}),
    ("stats", {"out": True}),
], ids=["list", "object", "bool"])
def test_config_value_that_is_not_one_value_exits_two(command, config, bundle, tmp_path,
                                                      monkeypatch, capsys):
    # no --out flag: the file's value is the one the run would write to
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main([command, "--config", str(cfg), "--bundle", str(bundle),
                 "--timesteps", "3", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(run_dir.iterdir()) == []


# --- sweep --------------------------------------------------------------

SWEEP_ARGS = ["--seeds", "0,1", "--modes", "fp,direct,ec", "--bits", "4,8",
              "--timesteps", "8", "--n", "4"]


def test_sweep_row_count_is_exact(bundle, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--bundle", str(bundle), *SWEEP_ARGS, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    # header + seeds * modes * bits * steps * layers
    assert len(lines) == 1 + 2 * 3 * 2 * 8 * 3


def test_sweep_fp_rows_have_zero_drift_and_32_bits(bundle, tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--bundle", str(bundle), *SWEEP_ARGS, "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    fp_rows = [r for r in rows if r[1] == "fp"]
    assert len(fp_rows) == 2 * 2 * 8 * 3  # fp repeated once per bits entry
    assert all(float(r[6]) == 0.0 and r[3] == "32" for r in fp_rows)
    assert any(float(r[6]) > 0.0 for r in rows if r[1] == "direct")


def test_sweep_fp_runs_do_not_repeat_per_cell(bundle, tmp_path, monkeypatch):
    modes = []
    real_sample = cli.sample

    def counting_sample(*args, **kwargs):
        modes.append(kwargs["quant_mode"])
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample", counting_sample)
    assert main(["sweep", "--bundle", str(bundle), *SWEEP_ARGS,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    # per seed one fp reference and one fp-mode run, not one per bits entry;
    # one quantized run per (seed, direct/ec, bits)
    assert modes.count("fp") == 2 * 2
    assert len(modes) == 2 * 2 + 2 * 2 * 2


def test_sweep_fp_bops_count_the_weight_width(bundle, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--bundle", str(bundle), *SWEEP_ARGS, "--out", str(out)]) == 0
    macs = macs_for_net(load_denoiser(bundle), batch=4)  # --n 4
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    fp_rows = [r for r in rows if r[1] == "fp"]
    assert fp_rows
    assert all(r[2] == str(WEIGHT_BITS) and int(r[11]) == macs[int(r[5])] * WEIGHT_BITS * 32
               for r in fp_rows)


def test_sweep_rerun_and_jobs_are_byte_identical(bundle, tmp_path):
    serial1 = tmp_path / "s1.csv"
    serial2 = tmp_path / "s2.csv"
    parallel = tmp_path / "p.csv"
    base = ["sweep", "--bundle", str(bundle), *SWEEP_ARGS]
    assert main([*base, "--out", str(serial1)]) == 0
    assert main([*base, "--out", str(serial2)]) == 0
    assert main([*base, "--out", str(parallel), "--jobs", "2"]) == 0
    assert serial1.read_bytes() == serial2.read_bytes()
    assert serial1.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_bytes_do_not_depend_on_seed_order(bundle, tmp_path, jobs):
    base = ["sweep", "--bundle", str(bundle), "--modes", "fp,ec", "--bits", "3,4",
            "--timesteps", "4", "--n", "4", "--jobs", jobs]
    shuffled, ordered = tmp_path / "shuffled.csv", tmp_path / "ordered.csv"
    assert main([*base, "--seeds", "2,0,1", "--out", str(shuffled)]) == 0
    assert main([*base, "--seeds", "0,1,2", "--out", str(ordered)]) == 0
    assert shuffled.read_bytes() == ordered.read_bytes()


def test_sweep_bytes_do_not_depend_on_mode_or_bits_order(bundle, tmp_path):
    base = ["sweep", "--bundle", str(bundle), "--seeds", "1", "--timesteps", "4", "--n", "4"]
    ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
    assert main([*base, "--modes", "fp,direct,modulated,ec", "--bits", "3,4,6",
                 "--out", str(ordered)]) == 0
    assert main([*base, "--modes", "ec,fp,modulated,direct", "--bits", "4,3,6",
                 "--out", str(shuffled)]) == 0
    assert shuffled.read_bytes() == ordered.read_bytes()
    rows = ordered.read_text().splitlines()[1:]
    cells = [(r.split(",")[1], r.split(",")[3]) for r in rows]
    assert sorted(set(cells), key=cells.index) == [
        ("fp", "32"), *((m, b) for m in ("direct", "modulated", "ec") for b in ("3", "4", "6"))]
    # the fp cell is collected once, and each of its rows is written once per
    # bits entry, on consecutive lines
    fp_rows = [r for r in rows if r.split(",")[1] == "fp"]
    assert fp_rows == rows[:len(fp_rows)]
    assert len(fp_rows) == 3 * 4 * 3
    assert fp_rows[0::3] == fp_rows[1::3] == fp_rows[2::3]
    assert len(set(fp_rows)) == 4 * 3


def test_sweep_jobs_never_exceed_seeds(bundle, tmp_path, monkeypatch):
    requested = []

    class SerialPool:
        """Records the worker count asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("modiff.cli.ProcessPoolExecutor", SerialPool)
    base = ["sweep", "--bundle", str(bundle), "--seeds", "0,1", "--modes", "fp,ec",
            "--timesteps", "4"]
    parallel, serial = tmp_path / "p.csv", tmp_path / "s.csv"
    assert main([*base, "--jobs", "64", "--out", str(parallel)]) == 0
    assert main([*base, "--jobs", "1", "--out", str(serial)]) == 0
    assert requested == [2]  # one worker per seed
    assert parallel.read_bytes() == serial.read_bytes()


class Sampled(Exception):
    pass


def test_sweep_checks_out_before_sampling(bundle, tmp_path, monkeypatch, capsys):
    def no_sample(*args, **kwargs):
        raise Sampled

    monkeypatch.setattr(cli, "sample", no_sample)
    base = ["sweep", "--bundle", str(bundle), "--timesteps", "4"]
    for out in (tmp_path / "missing" / "o.csv", tmp_path):
        assert main([*base, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # a writable --out passes untouched: an existing file keeps its bytes
    # and a new one is not left behind
    existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
    existing.write_text("keep\n")
    for out in (existing, new):
        with pytest.raises(Sampled):
            main([*base, "--out", str(out)])
    assert existing.read_text() == "keep\n"
    assert not new.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "5"],
    ["bops", "--seed", "1"],
    ["bops", "--out", "x"],
    ["verify", "--out", "x"],
    ["sweep", "--warmup", "full"],
    ["train", "--n", "5"],  # no prefix stands for --n-samples
    ["stats", "--see", "4"],
    ["sweep", "--weight-bits", "4"],  # the weight width is the cost model's constant
], ids=lambda argv: " ".join(argv))
def test_flag_a_subcommand_does_not_take_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if name != "__dict__":
            self.__dict__.setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("command", list(cli.DEFAULTS))
def test_every_setting_is_read(command, bundle, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output paths land here
    monkeypatch.setattr(cli, "run_verify", lambda **kw: [])
    sampling = ["--bundle", str(bundle), "--timesteps", "2", "--n", "2"]
    argv = {
        "train": [*FAST_TRAIN, "--n-samples", "16"],
        "sweep": sampling,
        "stats": sampling,
    }.get(command, [])
    args = cli._build_parser().parse_args([command, *argv])
    s = _ReadLog(**vars(cli._resolve(command, args, {})))
    assert args.func(s) == 0
    assert set(cli.DEFAULTS[command]) - s._read == set()


def test_sweep_missing_bundle_exits_two(tmp_path, capsys):
    rc = main(["sweep", "--bundle", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_sweep_unknown_mode_exits_two(bundle, tmp_path):
    rc = main(["sweep", "--bundle", str(bundle), "--modes", "fp,warp",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


@pytest.mark.parametrize("argv, config", [
    (["--warmup-k", "7"], None),
    (["--skip-threshold", "3"], None),
    ([], {"warmup_k": 7}),
], ids=["warmup-k", "skip-threshold", "config"])
def test_a_delta_setting_without_a_delta_mode_exits_two(argv, config, bundle, tmp_path,
                                                        monkeypatch, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    monkeypatch.setattr(cli, "load_denoiser", None)  # refused before the bundle is read
    out = tmp_path / "o.csv"
    assert main(["sweep", "--bundle", str(bundle), "--modes", "fp,direct", *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "delta modes" in err and err.count("\n") == 1
    assert not out.exists()


def test_delta_settings_at_their_defaults_take_any_modes(bundle, tmp_path):
    out = tmp_path / "o.csv"
    assert main(["sweep", "--bundle", str(bundle), "--modes", "fp,direct", "--timesteps", "2",
                 "--n", "2", "--warmup-k", "0", "--skip-threshold", "0", "--out", str(out)]) == 0
    assert out.exists()


# (argv, config file contents or None); ids stay argv<i> in list order
BAD_INPUT = [
    (["sweep", "--n", "0"], None),
    (["sweep", "--timesteps", "0"], None),
    (["sweep", "--bits", "17"], None),
    (["sweep", "--beta-end", "2"], None),
    (["sweep", "--bits", "0", "--modes", "direct"], None),
    (["sweep"], {"bits": ["x"]}),
    (["bops", "--dims", "18,0,2"], None),
    (["sweep"], {"sampler": "foo"}),
    (["sweep"], {"warmup": "foo"}),
    (["sweep"], {"jobs": "x"}),
    (["sweep"], {"warmup_k": "x"}),
    (["sweep"], {"skip_threshold": "x"}),
    (["sweep", "--timesteps", "4"], {"nn": 5}),
    (["train"], {"activation": "foo"}),
    (["train"], {"lr": "x"}),
    (["sweep", "--modes", "ec", "--bits", "0"], None),
    (["sweep", "--modes", "modulated", "--warmup-k", "-1"], None),
    (["bops", "--weight-bits", "0"], None),
    (["verify", "--contraction", "0"], None),
    (["verify", "--trials", "0"], None),
    (["train", "--time-embed", "3"], None),
    (["verify", "--contraction", "1e-9"], None),
    (["train", "--hidden", "0"], None),
    (["sweep", "--modes", ""], None),
    (["sweep", "--bits", ""], None),
    (["bops", "--bits", ""], None),
    (["train", "--hidden", ""], None),
    (["sweep", "--jobs", "0"], None),
    (["sweep", "--modes", "fp,fp"], None),
    (["sweep", "--seeds", "0,0", "--bits", "4,4"], None),
    (["sweep"], {"bits": [3, "3"]}),
    (["bops", "--bits", "4,04"], None),
    (["train", "--lr", "nan"], None),
    (["train", "--lr", "inf"], None),
    (["verify", "--contraction", "inf"], None),
    (["stats", "--timesteps", "1"], None),
    (["bops", "--bits", "17"], None),
    (["bops", "--weight-bits", "40", "--bits", "40"], None),
    (["sweep"], {"warmup_k": -1}),
    (["sweep", "--seeds", "18446744073709551616"], None),
    # each is seed 1 mod 2^64, so reducing them would give one stream three labels
    (["sweep", "--modes", "ec", "--seeds", "1,18446744073709551617,-18446744073709551615"], None),
    (["train", "--seed", "-1"], None),
    (["stats"], {"seed": -1}),
    (["verify", "--seed", "18446744073709551616"], None),
    (["sweep", "--modes", "fp", "--rounding", "nearest", "--timesteps", "3", "--n", "2"], None),
]


@pytest.mark.parametrize("argv, config", BAD_INPUT,
                         ids=[f"argv{i}" for i in range(len(BAD_INPUT))])
def test_bad_input_exits_two_without_traceback(argv, config, bundle, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if argv[0] in ("sweep", "stats"):
        argv += ["--bundle", str(bundle)]
    if "out" in cli.DEFAULTS[argv[0]]:
        argv += ["--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.csv").exists()


# each damages a copy of the module bundle (hidden 8,8, time embedding 4)
# and returns the name of the file the error message must point at


def _truncate(bundle):
    path = bundle / "w1.mdtn"
    path.write_bytes(path.read_bytes()[:-8])
    return path.name


def _poison(bundle):
    path = bundle / "w1.mdtn"
    t = load_tensor(path).copy()
    t.flat[0] = np.nan
    save_tensor(path, t)
    return path.name


def _edit_manifest(bundle, edit):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path.name


def _tanh(bundle):
    return _edit_manifest(bundle, lambda m: m.update(activation="tanh"))


def _no_layers(bundle):
    return _edit_manifest(bundle, lambda m: m.pop("layers"))


def _text_time_embed(bundle):
    return _edit_manifest(bundle, lambda m: m.update(time_embed="x"))


def _odd_time_embed(bundle):
    # consistent shapes, one embedding column fewer: the width is odd
    save_tensor(bundle / "w0.mdtn", load_tensor(bundle / "w0.mdtn")[:-1])

    def narrow(m):
        m["time_embed"] -= 1
        m["layers"][0]["in"] -= 1

    return _edit_manifest(bundle, narrow)


def _negative_time_embed(bundle):
    return _edit_manifest(bundle, lambda m: m.update(time_embed=-2))


def _float_time_embed(bundle):
    return _edit_manifest(bundle, lambda m: m.update(time_embed=float(m["time_embed"])))


def _bool_time_embed(bundle):
    return _edit_manifest(bundle, lambda m: m.update(time_embed=True))


def _list_manifest(bundle):
    (bundle / "manifest.json").write_text("[]")
    return "manifest.json"


def _zero_width(bundle):
    # the bundle `train --hidden 0,8` used to write
    save_tensor(bundle / "w0.mdtn", np.zeros((6, 0)))
    save_tensor(bundle / "b0.mdtn", np.zeros(0))
    save_tensor(bundle / "w1.mdtn", np.zeros((0, 8)))

    def narrow(m):
        m["layers"][0]["out"] = m["layers"][1]["in"] = 0

    return _edit_manifest(bundle, narrow)


def _output_width(bundle, width):
    # the last layer's weight, bias and manifest entry agree on `width`; the data is 2-D
    w, b = load_tensor(bundle / "w2.mdtn"), load_tensor(bundle / "b2.mdtn")
    save_tensor(bundle / "w2.mdtn", np.resize(w, (w.shape[0], width)))
    save_tensor(bundle / "b2.mdtn", np.resize(b, width))
    return _edit_manifest(bundle, lambda m: m["layers"][2].update(out=width))


def _one_wide_output(bundle):
    return _output_width(bundle, 1)


def _three_wide_output(bundle):
    return _output_width(bundle, 3)


def _wrong_data_dim(bundle):
    return _edit_manifest(bundle, lambda m: m.update(data_dim=3))


def _no_data_dim(bundle):
    return _edit_manifest(bundle, lambda m: m.pop("data_dim"))


@pytest.mark.parametrize("damage", [_truncate, _poison, _tanh, _no_layers, _zero_width,
                                    _text_time_embed, _list_manifest, _odd_time_embed,
                                    _negative_time_embed, _float_time_embed, _bool_time_embed,
                                    _one_wide_output, _three_wide_output, _wrong_data_dim,
                                    _no_data_dim])
def test_damaged_bundle_exits_two(damage, bundle, tmp_path, capsys):
    damaged = tmp_path / "damaged"
    shutil.copytree(bundle, damaged)
    culprit = damage(damaged)
    rc = main(["sweep", "--bundle", str(damaged), "--timesteps", "4",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and culprit in err
    assert not (tmp_path / "o.csv").exists()


def _overflowing(bundle, tmp_path, factor=1e160):
    # finite weights, so the bundle loads, but layer 0 overflows once sampling starts
    big = tmp_path / "big"
    shutil.copytree(bundle, big)
    save_tensor(big / "w0.mdtn", load_tensor(big / "w0.mdtn") * factor)
    return big


@pytest.mark.parametrize("argv,factor,message", [
    (["sweep", "--modes", "fp,ec", "--timesteps", "5", "--n", "4"], 1e160,
     "sampling failed: non-finite output at t="),
    (["sweep", "--seeds", "0,1", "--modes", "fp,ec", "--timesteps", "5", "--n", "4",
      "--jobs", "2"], 1e160, "sampling failed: non-finite output at t="),
    (["stats", "--timesteps", "5", "--n", "4"], 1e160, "sampling failed: non-finite output at t="),
    # every layer output stays finite, but the squared sums behind the
    # quantization error of layer 1 overflow at the last step
    (["sweep", "--modes", "fp,direct,ec", "--timesteps", "2", "--n", "4"], 1e80,
     "sampling failed: non-finite quant_error_l2 at t=1, layer 1, mode direct"),
    (["stats", "--n", "4"], 1e80, "sampling failed: non-finite output at t=97, layer 0, mode fp"),
], ids=["sweep", "sweep-jobs2", "stats", "sweep-diagnostic", "stats-w0x1e80"])
def test_non_finite_sampling_exits_one(argv, factor, message, bundle, tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = main([*argv, "--bundle", str(_overflowing(bundle, tmp_path, factor)), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not out.exists()


def test_zero_reference_output_exits_one(bundle, tmp_path, capsys):
    # a finite bundle whose last layer is all zeros: the fp output has zero norm
    zero = tmp_path / "zero"
    shutil.copytree(bundle, zero)
    for name in ("w2.mdtn", "b2.mdtn"):
        save_tensor(zero / name, np.zeros_like(load_tensor(zero / name)))
    out = tmp_path / "o.csv"
    rc = main(["sweep", "--modes", "fp,ec", "--timesteps", "3", "--n", "2",
               "--bundle", str(zero), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "sampling failed: drift at t=3, layer 2, mode fp: reference tensor has zero norm"]
    assert not out.exists()


def _cli_in_fresh_interpreter(argv, **env):
    """Run `modiff argv` in a new interpreter that imports this tree's modiff,
    with `env` added to the environment."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **env}
    return subprocess.run([sys.executable, "-m", "modiff.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_non_finite_sampling_prints_one_line(jobs, bundle, tmp_path):
    # a fresh interpreter with numpy's default warning filters, workers included
    proc = _cli_in_fresh_interpreter(
        ["sweep", "--seeds", "0,1", "--modes", "fp,ec", "--timesteps", "5", "--n", "4",
         "--jobs", jobs, "--bundle", str(_overflowing(bundle, tmp_path)),
         "--out", str(tmp_path / "o.csv")])
    assert proc.returncode == 1
    assert proc.stderr == "sampling failed: non-finite output at t=4, layer 0, mode fp\n"


def _numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy older than 1.26, or no BLAS entry
        return ""


# with one core OpenBLAS caps both runs at one thread, and another BLAS ignores
# OPENBLAS_NUM_THREADS, so either way the two runs would not differ in threads
@pytest.mark.skipif((os.cpu_count() or 1) < 2 or "openblas" not in _numpy_blas_name().lower(),
                    reason="needs numpy on OpenBLAS and at least two CPUs")
def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 256 rows of 64-wide hidden layers: 16,384-element tensors, whose one
    # BLAS dot OpenBLAS would split across its threads
    wide = tmp_path / "wide"
    assert main(["train", "--seed", "0", "--epochs", "1", "--out", str(wide)]) == 0
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = _cli_in_fresh_interpreter(
            ["sweep", "--bundle", str(wide), "--seeds", "0", "--modes", "fp,direct,ec",
             "--bits", "4", "--n", "256", "--timesteps", "10", "--out", str(out)],
            OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- verify -------------------------------------------------------------


def test_verify_passes_and_prints_one_line_per_suite(capsys):
    rc = main(["verify", "--trials", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 10
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_broken_quantizer_exits_one(capsys):
    rc = main(["verify", "--trials", "150", "--inject-broken-quantizer"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "counterexample seed" in captured.out


# --- stats --------------------------------------------------------------


def test_stats_csv_shape_and_summary(bundle, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    rc = main(["stats", "--bundle", str(bundle), "--timesteps", "8",
               "--n", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,layer,act_min")
    assert len(lines) == 1 + 8 * 3
    printed = capsys.readouterr().out
    assert "ratio" in printed
    # first recorded step has no predecessor, so difference cells are empty
    first = lines[1].split(",")
    assert first[7] == ""


# --- bops ---------------------------------------------------------------


def test_bops_table_lists_requested_widths(capsys):
    rc = main(["bops", "--dims", "18,64,64,2", "--bits", "8,4,3", "--batch", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fp32" in out
    assert "0.2500" in out  # 8-bit row is a quarter of the fp cost
    assert "0.1250" in out
    rows = [ln for ln in out.splitlines() if ln.strip() and ln.lstrip()[0].isdigit()]
    assert len(rows) == 4  # fp + three requested widths


def test_bops_from_bundle_matches_dims(bundle, capsys):
    assert main(["bops", "--bundle", str(bundle), "--bits", "4", "--batch", "2"]) == 0
    from_bundle = capsys.readouterr().out
    assert main(["bops", "--dims", "6,8,8,2", "--bits", "4", "--batch", "2"]) == 0
    assert capsys.readouterr().out == from_bundle


def test_bops_prices_another_weight_width(capsys):
    assert main(["bops", "--weight-bits", "4", "--bits", "4"]) == 0
    d = cli.DEFAULTS["bops"]
    macs = tuple(d["batch"] * a * b for a, b in zip(d["dims"], d["dims"][1:]))
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["4", "fp32", str(bops_count(macs, 4)), "1.0000"],
                    ["4", "4", str(bops_count(macs, 4, 4)), "0.1250"]]


def test_bops_dims_with_a_bundle_exits_two(bundle, capsys):
    # the bundle's layers set the extents, so --dims would change nothing
    assert main(["bops", "--bundle", str(bundle), "--dims", "5,5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --dims ") and err.count("\n") == 1
