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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout to evaluate")
    args = parser.parse_args(argv)
    print(json.dumps(values(args.root.resolve()), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
