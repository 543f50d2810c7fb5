"""Time two source trees on one benchmark workload, interleaved in one process.

    OPENBLAS_NUM_THREADS=1 python3 tools/abpass.py PARENT CHANGE \\
        --workload endpoint-sdp --seed 0 --rounds 30

PARENT and CHANGE are checkouts of this repository.  Each tree's
``src/renyimeat`` and ``bench/workloads.py`` are copied into one temporary
directory under distinct names (``renyimeat_parent`` and
``workloads_parent``, ``renyimeat_change`` and ``workloads_change``).  Only
the imports of the copied ``workloads.py`` are rewritten, to its own copy
of the package, which imports itself relatively.  Both copies import the
one ``bench/reference.py``: the script refuses trees whose references
differ.  Each tree builds the workload from the seed and makes a warm-up
pass, checked by that tree's own ``check``; the script exits with status 1
if a check fails or an operation raises.  Then each round times one pass
of each tree, the tree that goes first alternating from round to round.
A pass and its flattened values are those of the benchmark itself
(``run_pass`` and ``_values`` of this checkout's ``bench/run.py``).

It prints the number of operations whose warm-up values are bit-identical
between the trees, each tree's median and quartiles of the pass time, the
ratio of the medians (change over parent) and the rounds the change won.
With ``--per-op`` it then prints, per operation in call order, each
tree's median seconds of that call over the rounds and their ratio, so
that a kernel change shows which calls moved.  Nothing is written outside
the temporary directory, which is removed at the end.

Both trees share one process, its BLAS and its warm caches, so a swing of
the host's speed between processes, which ``tools/pairs.py`` (one fresh
process per run) has to outlast, falls on both trees alike.  Set-up time
and memory are not measured here: use ``tools/pairs.py`` for those and for
the benchmark's own no-regression check.
"""

from __future__ import annotations

import argparse
import importlib
import re
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

# the thread settings of the environment reach numpy's BLAS before
# bench/run.py, imported below for its passes, drops them
import numpy  # noqa: F401

# no bytecode next to the trees' sources or this script
sys.dont_write_bytecode = True
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

from pairs import summarize  # noqa: E402
from run import _values, run_pass  # noqa: E402

SIDES = ("parent", "change")


def load(tmp: Path, root: Path, side: str):
    """The workloads module of ``root``, importing its own package copy,
    both copied into ``tmp`` under the names of ``side``."""
    pkg = f"renyimeat_{side}"
    shutil.copytree(root / "src" / "renyimeat", tmp / pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = re.sub(r"^(\s*)(from|import) renyimeat\b", rf"\1\2 {pkg}",
                  (root / "bench" / "workloads.py").read_text(), flags=re.M)
    (tmp / f"workloads_{side}.py").write_text(text)
    module = importlib.import_module(f"workloads_{side}")
    if Path(module.__file__).resolve().parent != tmp.resolve():
        raise SystemExit(f"abpass: workloads_{side} was not imported from "
                         f"{tmp}")
    return module


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--per-op", action="store_true",
                    help="print each operation's median time per tree")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    refs = {side: (root / "bench" / "reference.py").read_bytes()
            for side, root in roots.items()}
    if refs["parent"] != refs["change"]:
        raise SystemExit("abpass: the trees' bench/reference.py differ")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "reference.py").write_bytes(refs["change"])
        sys.path.insert(0, str(tmp))
        wls, warm = {}, {}
        for side, root in roots.items():
            wls[side] = load(tmp, root, side).build(args.workload, args.seed)
        if "renyimeat" in sys.modules:
            raise SystemExit("abpass: a copy imported renyimeat by its name")
        bad = 0
        for side in SIDES:
            results = run_pass(wls[side])[0]
            warm[side] = {label: repr(v) for label, v
                          in _values(wls[side], results).items()}
            for label, failed in wls[side].check(results).items():
                if isinstance(results[label], BaseException):
                    failed = [repr(results[label])] + list(failed)
                for what in failed:
                    bad += 1
                    print(f"{side}: {label}: {what}")
        if bad:
            return 1

        rounds, op_times = [], {side: [] for side in SIDES}
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {}
            for side in order:
                _, times, wall, _ = run_pass(wls[side])
                row[side] = {"metrics": {"pass_s": wall}}
                op_times[side].append(times)
            rounds.append(row)
        labels = [op.label for op in wls["change"].ops]
    summary = summarize(rounds, {"pass_s": "lower"})["pass_s"]

    same = sum(warm["parent"].get(label) == warm["change"][label]
               for label in warm["change"])
    print(f"{args.workload} seed {args.seed}: {same} of {len(warm['change'])} "
          f"operations bit-identical")
    for side in SIDES:
        q = summary[side]
        print(f"{side:<6s} pass_s median {q['median']:.4g} "
              f"[{q['q1']:.4g}, {q['q3']:.4g}]")
    print(f"change / parent {summary['ratio']:.3f}, change faster in "
          f"{summary['won']} of {summary['pairs']} rounds")
    if args.per_op:
        print_per_op(labels, op_times)
    return 0


def print_per_op(labels: list, op_times: dict) -> None:
    """Per operation, each tree's median seconds over the rounds and the
    ratio change / parent; ``op_times[side]`` holds one list of per-call
    seconds per round, in call order."""
    print(f"{'operation':<28s} {'parent s':>10s} {'change s':>10s} "
          f"{'C/P':>7s}")
    for j, label in enumerate(labels):
        med = {side: statistics.median(times[j] for times in op_times[side])
               for side in SIDES}
        print(f"{label:<28s} {med['parent']:10.3e} {med['change']:10.3e} "
              f"{med['change'] / med['parent']:7.3f}")


if __name__ == "__main__":
    raise SystemExit(main())
