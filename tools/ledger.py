"""Run the certification ledger: the hard channel entropies, rotated.

    OPENBLAS_NUM_THREADS=1 python3 tools/ledger.py ROOT [--out FILE] \\
        [--against FILE] [--rotations R,...]

ROOT is a checkout of this repository (the one this file sits in, or
another commit's); the package is imported from ``ROOT/src``.  The ledger
holds ten instances that sit at the edge of certification:

* ``ADD12`` x2 at orders 0.52, 0.56, 0.6 and 0.65:
  :func:`verify_weak_additivity` on the channel A F -> T of
  ``random_channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=12,
  kraus_rank=2)``, A pinned to ``random_density(space(("A", 2)),
  seed=13)``, F free;
* ``ADD4x`` s = 40, 41, 42, 43 at 0.75: :func:`verify_additivity` of
  A F -> T (``seed=s``) and B G -> U (``seed=s+50``), A and B pinned to
  ``random_density`` with seeds s + 100 and s + 150, F and G free;
* ``CH32`` at 0.75 and 2: :func:`channel_cond_entropy` of
  ``random_channel(space(("A", 4), ("F", 8)), space(("T", 4), ("Y", 4)),
  seed=3, kraus_rank=4)``, target T, A pinned to
  ``random_density(space(("A", 4)), seed=5)``.

Each instance runs at every rotation r in ``ROTATIONS`` (0, 101, 202,
303, 404, 505): r = 0 is the instance itself, and r > 0 composes each
channel with 1 (x) U on its free register, U = ``random_isometry(d, d,
seed=r)`` (``seed=r+1000`` for G).  A unitary on a free input register
leaves the infimum unchanged, so the six runs of an instance are exact
equivalents whose certificates differ only by rounding.  ``--rotations
0,101`` runs those two columns only (any subset of ``ROTATIONS``).

A cell is the joint :func:`channel_cond_entropy` call of one run (the call
on the joint input; the checkers reach it through the module's name):
whether it certified or raised :class:`NonConvergence`, its width (the
result's ``gap`` or the exception's), its value and its seconds.  The
script prints one row per instance (C certified, . raised), the certified
count per rotation and in total, and the seconds.  ``--out FILE`` writes
the cells as JSON.  ``--against FILE`` compares with such a file of
another run: it prints FILE's certified count per rotation under this
run's, then each cell whose outcome, width or value is not bit-identical,
and the script then exits with status 1 (cells of the rotations not run
are left out of that comparison).  The full ledger takes about two
minutes on one core (105-112 s on a 2-core host with one BLAS thread).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import reduce
from pathlib import Path

# the thread settings of the environment reach numpy's BLAS before the
# package is imported
import numpy as np

ROTATIONS = (0, 101, 202, 303, 404, 505)


def instances():
    """[(name, joint input dimension, run(rotation))]."""
    from renyimeat import channel_entropy as ce
    from renyimeat.channels import Channel, compose
    from renyimeat.registers import space
    from renyimeat.sampling import (random_channel as channel,
                                    random_density as density,
                                    random_isometry)

    def rotated(e, free: str, seed: int):
        """``e`` composed with 1 (x) U on the register ``free``."""
        if not seed:
            return e
        ops = [random_isometry(d, d, seed=seed) if l == free else np.eye(d)
               for l, d in e.in_space]
        return compose(e, Channel([reduce(np.kron, ops)], e.in_space,
                                  e.in_space))

    add12 = channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=12,
                    kraus_rank=2)
    psi12 = density(space(("A", 2)), seed=13)
    out = [(f"ADD12 x2 at {a}", 16,
            lambda r, a=a: ce.verify_weak_additivity(
                rotated(add12, "F", r), psi12, a, target="T"))
           for a in (0.52, 0.56, 0.6, 0.65)]
    for s in (40, 41, 42, 43):
        e1 = channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=s,
                     kraus_rank=2)
        e2 = channel(space(("B", 2), ("G", 2)), space(("U", 2)), seed=s + 50,
                     kraus_rank=2)
        psi = density(space(("A", 2)), seed=s + 100)
        phi = density(space(("B", 2)), seed=s + 150)
        out.append((f"ADD4x s={s} at 0.75", 16,
                    lambda r, e1=e1, e2=e2, psi=psi, phi=phi:
                    ce.verify_additivity(
                        rotated(e1, "F", r), rotated(e2, "G", r and r + 1000),
                        psi, phi, 0.75, target1="T", target2="U")))
    ch32 = channel(space(("A", 4), ("F", 8)), space(("T", 4), ("Y", 4)),
                   seed=3, kraus_rank=4)
    pin = ce.MarginalConstraint("A", density(space(("A", 4)), seed=5))
    for a in (0.75, 2.0):
        out.append((f"CH32 at {a}", 32,
                    lambda r, a=a: ce.channel_cond_entropy(
                        ce.ChannelEntropyProblem(rotated(ch32, "F", r), "T",
                                                 a, constraint=pin))))
    return out


def cell(dim: int, run, rotation: int) -> dict:
    """The joint call of ``run(rotation)``: the recorded call on an input of
    dimension ``dim``."""
    from renyimeat import channel_entropy as ce
    from renyimeat.errors import NonConvergence
    original = ce.channel_cond_entropy
    cells = []

    def record(problem, certified: bool, width, value, t0: float):
        if problem.channel.in_space.dim == dim:
            cells.append({"certified": certified, "width": _float(width),
                          "value": _float(value),
                          "seconds": time.perf_counter() - t0})

    def recording(problem):
        t0 = time.perf_counter()
        try:
            res = original(problem)
        except NonConvergence as exc:
            record(problem, False, exc.gap, exc.value, t0)
            raise
        record(problem, True, res.gap, res.value, t0)
        return res

    ce.channel_cond_entropy = recording
    try:
        run(rotation)
    except NonConvergence:
        pass
    finally:
        ce.channel_cond_entropy = original
    if len(cells) != 1:
        raise SystemExit(f"ledger: {len(cells)} joint calls in one run")
    return cells[0]


def _rotations(text: str) -> tuple:
    """The rotations of ``--rotations``, in the order of ``ROTATIONS``."""
    picked = {int(r) for r in text.split(",")}
    if not picked <= set(ROTATIONS):
        raise argparse.ArgumentTypeError(
            f"rotations must be among {ROTATIONS}")
    return tuple(r for r in ROTATIONS if r in picked)


def _float(x):
    return None if x is None else float(x)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path, help="checkout to run")
    ap.add_argument("--out", type=Path, help="write the cells as JSON")
    ap.add_argument("--against", type=Path,
                    help="compare with the cells of another run")
    ap.add_argument("--rotations", type=_rotations, default=ROTATIONS,
                    help="comma-separated subset of "
                    f"{','.join(map(str, ROTATIONS))} to run")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import renyimeat
    if not Path(renyimeat.__path__[0]).resolve().is_relative_to(
            (root / "src").resolve()):
        raise SystemExit(f"renyimeat was not imported from {root / 'src'}")

    rotations = args.rotations
    cells, per = {}, [0] * len(rotations)
    t0 = time.perf_counter()
    for name, dim, run in instances():
        row = []
        for i, r in enumerate(rotations):
            row.append(cell(dim, run, r))
            cells[f"{name}/{r}"] = row[-1]
            per[i] += row[-1]["certified"]
        marks = " ".join("C" if c["certified"] else "." for c in row)
        widths = " ".join(f"{c['width']:.2g}" if c["width"] is not None
                          else "-" for c in row)
        print(f"{name:<20s} {marks}  ({sum(c['certified'] for c in row)})  "
              f"widths {widths}", flush=True)
    print(f"per rotation {', '.join(map(str, per))} ({sum(per)} of "
          f"{len(cells)}, {time.perf_counter() - t0:.0f} s)")
    if args.out:
        args.out.write_text(json.dumps(cells, indent=1))
    if args.against is None:
        return 0
    want = {k: c for k, c in json.loads(args.against.read_text()).items()
            if int(k.rsplit("/", 1)[1]) in rotations}
    theirs = [sum(c["certified"] for k, c in want.items()
                  if int(k.rsplit("/", 1)[1]) == r) for r in rotations]
    print(f"{'against':<12s} {', '.join(map(str, theirs))} ({sum(theirs)} "
          f"of {len(want)}, {args.against.name})")
    keys = ("certified", "width", "value")
    differ = [k for k in sorted(set(cells) | set(want))
              if k not in cells or k not in want
              or any(cells[k][f] != want[k][f] for f in keys)]
    for k in differ:
        print(f"  differs: {k}: {[cells.get(k, {}).get(f) for f in keys]} "
              f"against {[want.get(k, {}).get(f) for f in keys]}")
    print(f"{len(cells) - len(differ)} of {len(cells)} cells identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
