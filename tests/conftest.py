"""Test-session settings that must precede the first numpy import, the
``sdp_solves`` and ``sigma_extrema`` fixtures, and the SDP oracle builder
``_branch_programs``.

The SDP route gains little wall time from a BLAS thread pool on its small
step systems and burns about twice its wall time in CPU with one (see the
``renyimeat.sdp`` docstring), so the suite runs single-threaded BLAS
unless ``OPENBLAS_NUM_THREADS`` is already set; a value set by the caller
wins.  The pool size is read when numpy loads, and pytest loads this file
before any test module imports numpy.

The property tests run one fixed set of examples (``derandomize=True``)
and read or write no example database, so every run of the suite is the
same program; each test keeps its own ``max_examples`` and ``deadline``.
"""

import math
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from renyimeat import registers  # noqa: E402
from renyimeat.marginals import _MarginalSet  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def sdp_solves(monkeypatch):
    """The (problem, solution) pairs of every ``solve_sdp`` call the
    package's SDP builders (all in ``renyimeat.marginals``) make during the
    test, in call order."""
    from renyimeat import marginals, sdp

    seen = []

    def recording(problem):
        sol = sdp.solve_sdp(problem)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(marginals, "solve_sdp", recording)
    return seen


def _branch_programs(mats, d_q: int, d_b: int):
    """Fixed branch operators M_i on Q Q' in the terms of the SDP builders
    of ``renyimeat.marginals``: the one-point set {1} (a 1 x 1 block t
    pinned to tr t = 1), the maps t -> t M_i, the map X -> 1_Q (x) X, and
    the density operators on Q'.  The covering and root-fidelity programs
    built from them are the tests' independent route to a state's H^up at
    infinity and 1/2."""
    eye_q = np.eye(d_q)
    return (_MarginalSet(registers.space(("_", 1)), None),
            [lambda t, m=m: t[0, 0] * m for m in mats],
            lambda X: np.kron(eye_q, X),
            _MarginalSet(registers.space(("_", d_b)), None))


@pytest.fixture
def sigma_extrema(monkeypatch):
    """``run(call, oracle=False)`` returns ``call()`` and the (log2 T,
    width) of every inner extremum over sigma it solved, in call order
    (``renyimeat.entropies._sup_sigma``; at infinity log2 T is the limit
    log2 T / a).  With ``oracle=True`` each extremum is solved instead by an
    SDP of its branches, built directly: at 1/2 the root-fidelity program
    max sum_i p_i^(1/2) F(rho_i, 1 (x) sigma), whose duality gap, doubled
    into entropy units, is the width; at infinity the covering program
    min{tr X : 1 (x) X >= p_i rho_i}, with the width its gap in bits."""
    from renyimeat import entropies
    from renyimeat.marginals import _covering_program, _fidelity_program

    solve = entropies._sup_sigma

    def programs(purifiers, log2_probs, alpha):
        d_q, d_qp = purifiers[0].shape[:2]
        mats = [M.reshape(d_q * d_qp, -1) @ M.reshape(d_q * d_qp, -1).conj().T
                for M in purifiers]
        if math.isinf(alpha):
            log2_T, width, _, sigma = _covering_program(*_branch_programs(
                [2.0 ** lp * m for m, lp in zip(mats, log2_probs)], d_q, d_qp))
            return log2_T, sigma, width
        log2_T, width, _, sigma = _fidelity_program(
            *_branch_programs(mats, d_q, d_qp),
            [2.0 ** (0.5 * lp) for lp in log2_probs])
        return log2_T, sigma, 2.0 * width

    def run(call, oracle=False):
        seen = []

        def recording(*args):
            log2_T, sigma, width = (programs if oracle else solve)(*args)
            seen.append((log2_T, width))
            return log2_T, sigma, width

        with monkeypatch.context() as patch:
            patch.setattr(entropies, "_sup_sigma", recording)
            return call(), seen

    return run
