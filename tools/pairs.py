"""Time two source trees on one benchmark workload in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload endpoint-sdp --seed 0 \\
        --pairs 10 [--out FILE]

PARENT and CHANGE are checkouts of this repository.  Each run is that
tree's own ``bench/run.py --workload W --seed S --seconds T --trace 0`` in
a fresh process, T being the ``run_seconds`` of the trees'
``BENCHMARK.json``; the script refuses to run when the two trees declare
different run lengths.  The runs go in ABBA order (pair i runs the parent first
when i is even, the change first when it is odd), so that a drift of the
host's speed during the session falls on both sides alike.

For each end-to-end metric of the run's result line the script prints each
side's median and quartiles, the ratio of the medians (change over parent)
and the number of pairs the change won (by the direction ``BENCHMARK.json``
of CHANGE declares, lower where it declares none); then each run's
``correct`` flag, failed operations and metrics.  It exits with status 1 if
any run is incorrect or failed an operation.  Nothing is written unless
``--out`` is given, which writes every run's result line and the summary as
JSON, before the summary is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run of ``root``'s own benchmark."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"pairs: no output from {root} (exit "
                         f"{proc.returncode})")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def benchmark(root: Path) -> dict:
    """``root``'s ``BENCHMARK.json``."""
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def directions(spec: dict) -> dict:
    """{end-to-end metric: "lower" or "higher"} from a ``BENCHMARK.json``."""
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", [])}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, the ratio of the
    medians and the pairs the change won."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name] for p in pairs]
                 for side in ("parent", "change")}
        lower = better.get(name, "lower") == "lower"
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(sides["parent"], sides["change"]))
        row = {"won": won, "pairs": len(pairs)}
        for side, vals in sides.items():
            q = statistics.quantiles(vals, n=4, method="inclusive") \
                if len(vals) > 1 else [vals[0]] * 3
            row[side] = {"median": q[1], "q1": q[0], "q3": q[2]}
        row["ratio"] = row["change"]["median"] / row["parent"]["median"] \
            if row["parent"]["median"] else float("nan")
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write every run and the summary here")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: benchmark(root) for side, root in roots.items()}
    seconds = specs["change"]["run_seconds"]
    if specs["parent"]["run_seconds"] != seconds:
        raise SystemExit(f"pairs: the trees declare different run lengths "
                         f"(parent {specs['parent']['run_seconds']} s, "
                         f"change {seconds} s)")

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"order": "".join(side[0].upper() for side in order)}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, args.seed,
                                  seconds)
        pairs.append(pair)
        print(f"pair {i} ({pair['order']}): " + "; ".join(
            f"{side} pass_s {pair[side]['metrics'].get('pass_s', 'n/a')}"
            for side in ("parent", "change")), file=sys.stderr, flush=True)

    summary = summarize(pairs, directions(specs["change"]))
    # the record goes out before the summary is printed, so that a closed
    # stdout cannot lose it
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": seconds, "pairs": pairs,
                       "summary": summary}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs, "
          f"{seconds:g} s per run (P = parent, C = change)")
    print(f"{'metric':<14s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'C/P':>7s}  won")
    for name, row in summary.items():
        cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, "
                 f"{row[s]['q3']:.4g}]" for s in ("parent", "change")]
        print(f"{name:<14s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{row['ratio']:7.3f}  {row['won']} of {row['pairs']}")
    bad = 0
    for i, pair in enumerate(pairs):
        for side in ("parent", "change"):
            run = pair[side]
            ok = run["correct"] and run["failed"] == 0
            bad += not ok
            metrics = " ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
            print(f"pair {i} {pair['order']} {side:<6s} correct "
                  f"{run['correct']} failed {run['failed']}  {metrics}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
