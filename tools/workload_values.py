"""Print the value of every benchmark operation of a source tree.

    OPENBLAS_NUM_THREADS=1 python3 tools/workload_values.py ROOT > values.json

ROOT is a checkout of this repository (the one this file sits in, or
another commit's).  The script imports the package from ``ROOT/src`` and
the workloads from ``ROOT/bench``, builds every workload at seeds 0 and 1,
calls each operation once, and prints one JSON object that maps
``workload/seed/label`` to the ``repr`` of the operation's value, flattened
to floats as ``bench/run.py`` flattens it (``None`` where the call raised).
Diffing the outputs of two trees shows which values a change moved, to
the last bit.  Nothing is written and no check is run.

    OPENBLAS_NUM_THREADS=1 python3 tools/workload_values.py ROOT --against values.json

compares instead with such an output of another tree: per workload it
prints how many operations give bit-identical values, and for each
operation that differs its largest absolute difference (``None`` where
one side raised and the other did not).  It exits with status 1 if any
operation differs, 0 if every one is bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# the thread settings of the environment reach numpy's BLAS before
# bench/run.py, imported below for its flattening, drops them
import numpy  # noqa: F401

SEEDS = (0, 1)


def values(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import renyimeat
    if not Path(renyimeat.__path__[0]).resolve().is_relative_to(
            (root / "src").resolve()):
        raise SystemExit(f"renyimeat was not imported from {root / 'src'}")
    import run
    import workloads

    out = {}
    for name in run.WORKLOAD_NAMES:
        for seed in SEEDS:
            wl = workloads.build(name, seed)
            results, _, _, _ = run.run_pass(wl)
            for label, vals in run._values(wl, results).items():
                out[f"{name}/{seed}/{label}"] = repr(vals)
    return out


def _floats(text: str):
    """The list of floats (or None) that ``repr`` printed as ``text``."""
    if text == "None":
        return None
    return json.loads(text.replace("nan", "NaN").replace("inf", "Infinity"))


def compare(got: dict, want: dict) -> tuple[list[str], bool]:
    """(lines of the ``--against`` report, whether every operation is
    bit-identical): per workload the bit-identical operations, then each
    differing operation with its max |difference|."""
    same, lines = {}, []
    for key in sorted(set(got) | set(want), key=lambda k: k.split("/")):
        name = key.split("/")[0]
        a, b = got.get(key), want.get(key)
        same.setdefault(name, [0, 0])[1] += 1
        if a == b:
            same[name][0] += 1
            continue
        a, b = (None if v is None else _floats(v) for v in (a, b))
        if a is None or b is None or len(a) != len(b):
            delta = None
        else:
            delta = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        lines.append(f"  {key}: max |delta| {delta}")
    head = [f"{name}: {n} of {total} bit-identical"
            for name, (n, total) in same.items()]
    n, total = (sum(col) for col in zip(*same.values()))
    return (head + lines + [f"{n} of {total} operations bit-identical"],
            n == total)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout to evaluate")
    parser.add_argument("--against", type=Path,
                        help="compare with this output of another tree")
    args = parser.parse_args(argv)
    got = values(args.root.resolve())
    if args.against is None:
        print(json.dumps(got, indent=1))
        return 0
    with open(args.against) as fh:
        want = json.load(fh)
    lines, same = compare(got, want)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
