"""Checks of the benchmark's tracer: it must see calls made through every
caller's own binding, and leave the program untouched when it is done."""

import json
import os

import numpy as np

import tracing
from modiff import cli, diffusion, modulated, quant, verify
from modiff.quant import QuantConfig
from modiff.rng import RngState

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layer():
    rng = RngState(3)
    return modulated.LinearLayer(weight=rng.normal(size=(8, 4)), bias=np.zeros(4))


def test_wrappers_reach_names_bound_by_from_imports():
    bindings = [(quant, "fake_quant"), (modulated, "fake_quant"), (verify, "fake_quant"),
                (modulated, "matmul"), (diffusion, "forward_ec"), (cli, "sample"),
                (quant, "fit_params"), (diffusion.DenoiserNetwork, "input_features")]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    a = RngState(4).normal(size=(5, 8))
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert modulated.fake_quant is quant.fake_quant is verify.fake_quant
        for (owner, attr), orig in zip(bindings, originals):
            assert getattr(owner, attr) is not orig, attr
        modulated.forward_direct(_layer(), a, QuantConfig(bits=4))
    spans = tracer.spans
    assert spans["modulated.forward_direct"].calls == 1
    # reached through modulated's own bindings, and fake_quant's module globals
    for name in ("quant.fake_quant", "tensorops.matmul", "quant.fit_params",
                 "quant.quantize", "quant.dequantize", "quant.contraction_ratio"):
        assert spans[name].calls == 1, name
    assert tracer.counts["quant.fake_quant.elems"] == a.size
    assert tracer.counts["tensorops.matmul.flops"] == 2 * 5 * 8 * 4
    outer = spans["modulated.forward_direct"]
    assert 0.0 <= outer.self_s < outer.s
    assert spans["quant.fake_quant"].s <= outer.s
    for (owner, attr), orig in zip(bindings, originals):
        assert getattr(owner, attr) is orig, attr


def test_sweep_counters_and_op_totals(tmp_path):
    bundle = str(tmp_path / "bundle")
    assert cli.main(["train", "--epochs", "0", "--out", bundle]) == 0
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        rc = cli.main(["sweep", "--bundle", bundle, "--seeds", "0", "--modes", "fp,ec",
                       "--bits", "4", "--timesteps", "3", "--n", "2",
                       "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    values = tracing.layer_values(tracer)
    assert values["cli.cells"] == 2
    assert values["cli.fp_reference_runs"] == 2
    assert values["cli.rows"] == 2 * 3 * 3
    assert values["diffusion.sample.calls"] == 3
    assert values["modulated.ec.quant_calls"] == 2 * 3  # warm-up step is full precision
    assert values["diffusion.recorded_bytes"] > 0
    assert values["analysis.save_metrics_csv.bytes"] == os.path.getsize(tmp_path / "s.csv")


def test_declared_per_layer_metrics_match_the_tracer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == tracing.per_layer_units()
    emitted = set(tracing.layer_values(tracing.Tracer())) | {tracing.OVERHEAD}
    assert emitted == set(declared)
