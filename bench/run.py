"""Run one benchmark workload (or all of them) and print its metrics.

    python3 bench/run.py --workload sigma-sweep --seed 0 --seconds 6 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` next to this directory, built from nothing but the inputs the
workload makes from ``--seed``.  A run sets up, makes one warm-up pass over
the workload's call list (its results are checked, see ``workloads.py``),
then repeats timed passes until ``--seconds`` have gone by.  Each later
pass must reproduce the warm-up's values.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (``layertrace.py``) and the tracing overhead.  ``--workload all`` runs every
workload in this one process.  ``--out FILE`` also writes the full report
(per-call times, self times, BLAS) as JSON.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# every machine gets the program's default thread pools: drop the settings
# before numpy (and its BLAS) is first imported
for _var in ("RENYI_MEAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ["sigma-sweep", "endpoint-sdp", "channel-opt"]
#: set-up is measured this many times, in fresh processes, per workload
SETUP_SAMPLES = 3
#: two passes must agree on every value to this tolerance
REPEAT_TOL = 1e-8


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    if not (SRC / "renyimeat").is_dir():
        _fail(f"no package source at {SRC / 'renyimeat'}; run from a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import renyimeat  # noqa: F401
    if not str(Path(renyimeat.__path__[0]).resolve()).startswith(str(SRC)):
        _fail("renyimeat was imported from outside this checkout")
    import workloads
    return workloads


def blas_info() -> dict:
    """The BLAS numpy was built with, and the thread count it runs with."""
    import ctypes

    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
                break
        if threads is not None:
            break
    info["blas_threads"] = threads
    info["cpus"] = os.cpu_count()
    return info


# ------------------------------------------------------------------ passes

def run_pass(wl):
    """One pass over the call list: (results, per-call seconds, wall, cpu)."""
    results, times = {}, []
    c0, t0 = time.process_time(), time.perf_counter()
    for op in wl.ops:
        s = time.perf_counter()
        try:
            results[op.label] = op.call()
        except Exception as exc:  # an operation that raises has failed
            results[op.label] = exc
        times.append(time.perf_counter() - s)
    return results, times, time.perf_counter() - t0, time.process_time() - c0


def _values(wl, results) -> dict:
    out = {}
    for op in wl.ops:
        r = results[op.label]
        out[op.label] = None if isinstance(r, BaseException) else \
            [float(x) for x in _flat(op.value(r))]
    return out


def _flat(v):
    if isinstance(v, (tuple, list)):
        for x in v:
            yield from _flat(x)
    else:
        yield v


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        abs(x - y) <= REPEAT_TOL * max(1.0, abs(x)) for x, y in zip(a, b))


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from process start until the package is imported and the
    workload's inputs are built, in fresh processes."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            _fail(f"set-up probe for {name} failed (exit {rc})")
        out.append(dt)
    return out


def run_workload(workloads, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import layertrace
    setups = measure_setup(name, seed)
    wl = workloads.build(name, seed)
    n_ops = len(wl.ops)

    # warm-up pass: fills the program's caches; its results are checked
    warm, _, _, _ = run_pass(wl)
    failures = wl.check(warm)
    failed_ops = {}
    wrong = 0
    for op in wl.ops:
        r = warm[op.label]
        if isinstance(r, BaseException):
            failed_ops[op.label] = f"raised {type(r).__name__}: {r}"
        elif failures[op.label]:
            failed_ops[op.label] = "; ".join(failures[op.label])
            wrong += 1
    expected = _values(wl, warm)
    attempted, failed = n_ops, len(failed_ops)

    tracer = None
    if trace:
        tracer = layertrace.Tracer()
    passes, traced, call_times = [], [], None
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            if with_trace:
                tracer.reset()
                with tracer.installed():
                    results, times, wall, cpu = run_pass(wl)
                layers = tracer.layer_metrics()
                layers["pass_s"] = wall
                traced.append(layers)
            else:
                results, times, wall, cpu = run_pass(wl)
                passes.append((wall, cpu))
                call_times = call_times or dict(
                    zip((op.label for op in wl.ops), times))
            got = _values(wl, results)
            attempted += n_ops
            for op in wl.ops:
                if got[op.label] is None:
                    failed += 1
                elif not _same(got[op.label], expected[op.label]):
                    # a value that moved, or a call that raised only before
                    failed += 1
                    wrong += 1
                    failed_ops[op.label] = "value differs from the warm-up"
        if time.perf_counter() - start >= seconds:
            break

    report = {
        "workload": name, "seed": seed, "ops": n_ops,
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "failed_ops": failed_ops,
        "setup_samples_s": setups,
        "pass_samples_s": [w for w, _ in passes],
        "call_times_s": call_times,
    }
    if trace:
        keys = sorted(traced[0])
        med = {k: statistics.median(t[k] for t in traced) for k in keys}
        untraced = statistics.median(w for w, _ in passes)
        metrics = {m: (med[m], unit)
                   for m, unit in layertrace.METRICS.items()}
        metrics["process.cpu_s"] = (statistics.median(c for _, c in passes), "s")
        metrics["trace.pass_s"] = (med["pass_s"], "s")
        metrics["trace.overhead_s"] = (med["pass_s"] - untraced, "s")
        # a function the program no longer has: its metrics are missing
        report["missing"] = layertrace.metrics_of(tracer.missing)
        for m in report["missing"]:
            metrics.pop(m, None)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(w for w, _ in passes), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
        }
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return report


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report to this file")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = _import_program()
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import reference
    self_test = reference.self_test()
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    info = blas_info()
    print(f"bench: {info}", flush=True)
    reports = [run_workload(workloads, n, args.seed, args.seconds,
                            bool(args.trace)) for n in names]

    metrics = {}
    for rep in reports:
        prefix = "" if len(reports) == 1 else rep["workload"] + "."
        for k, m in rep["metrics"].items():
            metrics[prefix + k] = m
            print(f"{rep['workload']:>13s}  {k:<36s} {m['value']:.6g} {m['unit']}")
        print(f"{rep['workload']:>13s}  attempted {rep['attempted']}, "
              f"failed {rep['failed']}", flush=True)
        for label, why in rep["failed_ops"].items():
            print(f"{rep['workload']:>13s}  FAILED {label}: {why}")
    for line in self_test:
        print(f"bench: reference self-test failed: {line}")
    correct = not self_test and all(r["correct"] for r in reports)
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in reports),
              "failed": sum(r["failed"] for r in reports),
              "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": info, "seconds": args.seconds,
                       "trace": args.trace, "reports": reports,
                       "reference_self_test": self_test, **result}, fh,
                      indent=1, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
