"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each listed function, at every module or class that
binds it, with a wrapper that records a span (layer, name, start, end,
parent) and per-call counts; ``with tracer.installed():`` puts the wrappers
in and takes them out again, so untraced passes run the program untouched.
Spans stay in memory; :meth:`Tracer.layer_metrics` turns one pass worth of
them into the per-layer metrics (calls, inclusive seconds, self seconds:
a span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer, name, owner, attribute).  ``owner`` is a module name or
#: "module:Class"; functions are also replaced at every module named by
#: ``SCAN`` that bound the same object under the same name.
TARGETS = [
    ("entropies", "cond_entropy_up", "renyimeat.entropies", "cond_entropy_up"),
    ("fweighted", "fweighted_entropy", "renyimeat.fweighted",
     "fweighted_entropy"),
    ("channel_entropy", "solve", "renyimeat.channel_entropy",
     "channel_cond_entropy"),
    ("channel_entropy", "verify_chain_rule", "renyimeat.channel_entropy",
     "verify_chain_rule"),
    ("channel_entropy", "verify_additivity", "renyimeat.channel_entropy",
     "verify_additivity"),
    ("channel_entropy", "build_sdp_individual", "renyimeat.channel_entropy",
     "build_sdp_individual"),
    ("channel_entropy", "build_sdp_joint", "renyimeat.channel_entropy",
     "build_sdp_joint"),
    ("channel_entropy", "solve_sdp_pair", "renyimeat.channel_entropy",
     "solve_sdp_pair"),
    ("channel_entropy", "product_feasibility_slack",
     "renyimeat.channel_entropy", "product_feasibility_slack"),
    ("sdp", "solve", "renyimeat.sdp", "solve_sdp"),
    ("sdp", "build", "renyimeat.sdp:SdpProblem", "add_operator_inequality"),
    ("sdp", "build", "renyimeat.sdp:SdpProblem", "add_eq_constraint"),
    ("divergences", "sandwiched", "renyimeat.divergences",
     "sandwiched_divergence"),
    ("channels", "apply", "renyimeat.channels:Channel", "apply"),
    ("registers", "herm_power", "renyimeat.registers", "herm_power"),
    ("registers", "partial_trace", "renyimeat.registers:State",
     "partial_trace"),
    ("linalg", "eigh", "numpy.linalg", "eigh"),
    ("linalg", "eigh", "numpy.linalg", "eigvalsh"),
    ("linalg", "lu_factor", "scipy.linalg", "lu_factor"),
]

#: module-name prefixes searched for further bindings: the package and the
#: benchmark's own call sites
SCAN = ("renyimeat.", "workloads")

LAYERS = ["entropies", "fweighted", "channel_entropy", "sdp", "divergences",
          "channels", "registers", "linalg"]

#: per-layer metric -> (layer, name) whose calls / inclusive seconds it is
CALLS = {
    "sdp.solve_calls": ("sdp", "solve"),
    "linalg.lu_factor_calls": ("linalg", "lu_factor"),
    "linalg.eigh_calls": ("linalg", "eigh"),
    "registers.herm_power_calls": ("registers", "herm_power"),
    "registers.partial_trace_calls": ("registers", "partial_trace"),
    "entropies.cond_entropy_up_calls": ("entropies", "cond_entropy_up"),
    "fweighted.fweighted_entropy_calls": ("fweighted", "fweighted_entropy"),
    "channel_entropy.solve_calls": ("channel_entropy", "solve"),
    "divergences.sandwiched_calls": ("divergences", "sandwiched"),
    "channels.apply_calls": ("channels", "apply"),
}
SECONDS = {
    "sdp.solve_s": ("sdp", "solve"),
    "sdp.build_s": ("sdp", "build"),
    "linalg.lu_factor_s": ("linalg", "lu_factor"),
    "linalg.eigh_s": ("linalg", "eigh"),
    "registers.herm_power_s": ("registers", "herm_power"),
    "registers.partial_trace_s": ("registers", "partial_trace"),
    "entropies.cond_entropy_up_s": ("entropies", "cond_entropy_up"),
    "fweighted.fweighted_entropy_s": ("fweighted", "fweighted_entropy"),
    "channel_entropy.solve_s": ("channel_entropy", "solve"),
    "divergences.sandwiched_s": ("divergences", "sandwiched"),
    "channels.apply_s": ("channels", "apply"),
}
#: counts taken from arguments or results of ``sdp.solve`` and from raises
EXTRA = ["sdp.newton_steps", "sdp.constraints", "sdp.block_vars",
         "sdp.failures", "channel_entropy.failures"]

#: every per-layer metric a traced pass reports, with its unit
METRICS = {**{m: "count" for m in CALLS}, **{m: "s" for m in SECONDS},
           **{f"{layer}.self_s": "s" for layer in LAYERS},
           **{m: "count" for m in EXTRA}}


def metrics_of(pairs) -> list:
    """The call and seconds metrics of the given (layer, name) pairs."""
    return [m for m, key in {**CALLS, **SECONDS}.items() if key in pairs]


def _owner(path: str):
    mod, _, cls = path.partition(":")
    obj = sys.modules.get(mod)
    if obj is None or not cls:
        return obj
    return getattr(obj, cls, None)


class Tracer:
    def __init__(self):
        self.spans = []   # [layer, name, start, end, parent]
        self.stack = []
        self.counts = defaultdict(float)
        self.missing = []

    def _wrap(self, layer, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if (layer, name) in (("sdp", "solve"), ("channel_entropy",
                                                        "solve")):
                    counts[f"{layer}.failures"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if (layer, name) == ("sdp", "solve"):
                problem = args[0] if args else kwargs["problem"]
                counts["sdp.newton_steps"] += out.iterations
                counts["sdp.constraints"] += len(problem.constraints)
                counts["sdp.block_vars"] += sum(
                    d * d for d in problem.blocks.values())
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        undo = []
        self.missing = []
        try:
            for layer, name, owner_path, attr in TARGETS:
                owner = _owner(owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append((layer, name))
                    continue
                wrapped = self._wrap(layer, name, fn)
                sites = [owner]
                if ":" not in owner_path:
                    sites += [m for k, m in list(sys.modules.items())
                              if k.startswith(SCAN) and m is not owner
                              and getattr(m, attr, None) is fn]
                for site in sites:
                    undo.append((site, attr, fn))
                    setattr(site, attr, wrapped)
            yield self
        finally:
            for site, attr, fn in reversed(undo):
                setattr(site, attr, fn)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for layer, name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer, name, t0, t1, parent) in enumerate(spans):
            calls[(layer, name)] += 1
            self_s[layer] += (t1 - t0) - child[i]
            # inclusive time counts only the outermost span of a name
            p, nested = parent, False
            while p >= 0:
                if spans[p][0] == layer and spans[p][1] == name:
                    nested = True
                    break
                p = spans[p][4]
            if not nested:
                incl[(layer, name)] += t1 - t0
        out = {m: float(calls[k]) for m, k in CALLS.items()}
        out.update({m: incl[k] for m, k in SECONDS.items()})
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        out.update({m: float(self.counts[m]) for m in EXTRA})
        return out
