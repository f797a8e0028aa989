"""Benchmark harness for modiff.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the harness imports modiff from its
``src/`` directory. The workloads are defined in workloads.py, the metrics
in BENCHMARK.json at the root.

With ``--trace 0`` it prints the end-to-end metrics. Set-up is timed in
separate processes, several times, from interpreter start to a ready
workload; then one workload process sets up once more and repeats the
workload body for S seconds, each body after a run of a fixed reference
computation; wall_ref is the body's time in units of the reference's.
With ``--trace 1`` it prints the per-layer
metrics instead, from bodies run with the tracer of tracing.py and
alternated with untraced bodies to measure the tracing overhead.

Lines before the last give the environment, every metric by name with its
unit, and informational figures. The last line is one JSON object with the
keys correct, attempted, failed and metrics. A unit counted in attempted
and failed is a sweep cell, a sample call or a verify suite.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and modiff load

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("main", "setup", "workload"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- child processes ------------------------------------------------------


def _import_modiff():
    sys.path.insert(0, SRC)
    import modiff

    if not os.path.abspath(modiff.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"modiff imported from {modiff.__file__}, not from {SRC}")


def _make(args, traced_run):
    _import_modiff()
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    return workloads.WORKLOADS[args.workload](args.seed, workdir, traced_run), workdir


def _child_setup(args):
    wl, workdir = _make(args, traced_run=False)
    try:
        wl.setup()
        return {"setup_s": time.perf_counter() - _T0}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux; the children are the sweep's pool workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _per_layer(wl, setup_tracer, traced, untraced):
    """Per-layer metrics of the traced bodies, and the checks they fail."""
    import tracing

    units = tracing.per_layer_units()
    setup = tracing.layer_values(setup_tracer)
    bodies = [tracing.layer_values(tr) for _, tr in traced]
    errors, out = [], {}
    for name, unit in units.items():
        if name == tracing.OVERHEAD:
            continue
        values = [b[name] for b in bodies]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                errors.append(f"count {name} differs between traced bodies: {values}")
        if name.rsplit(".", 1)[0] in tracing.SETUP_LAYERS:
            value += setup[name]
        out[name] = value
    out[tracing.OVERHEAD] = (_wall([r for r, _ in traced])[0] - _wall(untraced)[0])
    missing = [m for m in wl.expect_nonzero if not out.get(m)]
    if missing:
        errors.append(f"traced run saw no work in {', '.join(missing)}")
    return out, errors


def _wall(results):
    """Body time from its timed calls: the sum over calls of each call's
    median across bodies, and those medians."""
    medians = {k: statistics.median(r.timings[k] for r in results)
               for k in results[0].timings}
    return sum(medians.values()), medians


def _wall_ref(results, refs):
    """Body time in units of the reference computation timed just before
    each body: the sum over calls of each call's median ratio."""
    return sum(statistics.median(r.timings[k] / ref for r, ref in zip(results, refs))
               for k in results[0].timings)


def _make_reference():
    """A fixed computation that runs no modiff code; returns its timer.

    The host's speed drifts by a fifth and more within minutes, and a run
    of a workload sees one stretch of it. Timing each body against this
    reference, run just before it on the same host, cancels most of the
    drift: over five runs of sample-wide and of sweep-grid on a 2-vCPU VM,
    the spread of the ratio was 0.04 and 0.08 of its median where that of
    the body time was 0.21 and 0.15. The mix follows the workloads':
    interpreter overhead, 4-bit fake-quantization of a 256x64 activation
    with a 64x64 matmul, and calls on tiny arrays."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, w, v = (rng.standard_normal((256, 64)), rng.standard_normal((64, 64)),
               rng.standard_normal(256))

    def reference():
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        x = a
        for _ in range(40):
            lo, hi = x.min(), x.max()
            scale = (hi - lo) / 15
            q = np.clip(np.round((x - lo) / scale), 0, 15)
            x = np.tanh((q * scale + lo) @ w * 0.1)
        y = v
        for _ in range(400):
            y = np.round(y * 0.5) + 1.0
        return time.perf_counter() - t0

    return reference


def _child_workload(args):
    wl, workdir = _make(args, traced_run=bool(args.trace))
    import tracing

    try:
        setup_tracer = tracing.Tracer()
        with tracing.patched(setup_tracer) if args.trace else contextlib.nullcontext():
            wl.setup()
        setup_s = time.perf_counter() - _T0
        wl.prepare()

        reference = _make_reference()
        untraced, refs, traced = [], [], []
        start = last = time.perf_counter()
        step = 0.0
        # stop before a further body would run past the measured window
        while not untraced or last - start + step <= args.seconds:
            refs.append(reference())
            untraced.append(wl.body())
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.patched(tracer):
                    traced.append((wl.body(), tracer))
            now = time.perf_counter()
            step, last = now - last, now
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = untraced + [r for r, _ in traced]
    errors = [e for r in results for e in r.errors]
    if any(r.fingerprint != results[0].fingerprint for r in results):
        errors.append("outputs differ between bodies with identical inputs")
    wall_s, timings = _wall(untraced)
    out = {
        "setup_s": setup_s,
        "bodies": len(untraced),
        "wall_ref": _wall_ref(untraced, refs),
        "wall_s": wall_s,
        "work_per_s": untraced[0].work / wall_s,
        "reference_s": statistics.median(refs),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": sum(r.units for r in results),
        "failed": sum(r.failed for r in results),
        "timings": timings,
        "exact": results[0].exact,
        "env": _environment(),
    }
    if args.trace:
        out["per_layer"], trace_errors = _per_layer(wl, setup_tracer, traced, untraced)
        errors += trace_errors
    out["errors"] = errors
    return out


# --- the driving process ----------------------------------------------------


class ChildFailed(Exception):
    pass


def _spawn(args, role, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # a session of its own, so that a timeout also ends the sweep's workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} process ran past the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{role} process exited with {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def _line(kind, name, value, unit=""):
    print(f"{kind} {name} {value} {unit}".rstrip())


def _drive(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "modiff")):
        print(f"no modiff sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
        res = _spawn(args, "workload", deadline)
    except ChildFailed as e:
        print(e, file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    setups.append(res["setup_s"])
    for name, value in res["env"].items():
        _line("env", name, value)
    if args.trace:
        declared, values = spec["per_layer"], res["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = {k: res[k] for k in ("wall_ref", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"no value for declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        _line("metric", m["name"], values[m["name"]], m["unit"])
    # seconds move with the host's speed, so only wall_ref is gated
    bodies = f"(median of {res['bodies']} bodies)"
    _line("info", "wall_s", res["wall_s"], f"s {bodies}")
    _line("info", "work_per_s", res["work_per_s"], "1/s")
    _line("info", "reference_s", res["reference_s"], f"s {bodies}")
    for name, value in res["timings"].items():
        _line("info", name, value, f"s {bodies}")
    for name, (value, unit) in res["exact"].items():
        _line("info", name, value, unit)
    _line("info", "failed_frac", res["failed"] / res["attempted"],
          f"({res['failed']} of {res['attempted']} units)")
    _line("info", "bodies", res["bodies"], "count")
    if not args.trace:
        _line("info", "setup_runs", len(setups), "count")
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main(argv=None):
    args = _parse(argv)
    if args.role == "main":
        return _drive(args)
    try:
        result = (_child_setup if args.role == "setup" else _child_workload)(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
