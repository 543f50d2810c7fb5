"""Steadiness check: run every workload N times, one seed each, and print
per metric the median, the quartiles and the spread (quartile distance as a
share of the median) next to the bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10 [--workloads sigma-sweep,channel-opt]
                            [--first-seed 1]

Each run is a fresh ``bench/run.py`` process, one after the other.  The
raw results go to ``bench-results/steady-<time>.json``.  Exit status 1 if
a run failed or reported wrong results, or a spread (``setup_s`` aside)
exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench-results"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for name in args.workloads.split(","):
        runs[name] = []
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})"
                      f"\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res.update(seed=seed, run_wall_s=wall, exit=proc.returncode)
            runs[name].append(res)
            ok &= proc.returncode == 0 and res["correct"]
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: {wall:5.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {vals}",
                  flush=True)

    print(f"\n{'workload':13s} {'metric':14s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name, rs in runs.items():
        if len(rs) < 2:
            continue
        for metric in rs[0]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in rs])
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and sp > bound / 3:
                flag = "  > bound/3"
                ok = False
            print(f"{name:13s} {metric:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{sp:7.1%} {bound if bound is not None else '':>6}{flag}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{name:13s} attempted {[r['attempted'] for r in rs]}, "
              f"failed {[r['failed'] for r in rs]}, failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'}; "
              f"run wall median {statistics.median(r['run_wall_s'] for r in rs):.1f}s")
        ok &= len(shares) == 1

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"args": vars(args), "runs": runs}, indent=1))
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
