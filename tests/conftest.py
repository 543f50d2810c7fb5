"""Test-session settings that must precede the first numpy import, and the
``sdp_solves`` and ``sigma_extrema`` fixtures.

The SDP route gains little wall time from a BLAS thread pool on its small
step systems and burns about twice its wall time in CPU with one (see the
``renyimeat.sdp`` docstring), so the suite runs single-threaded BLAS
unless ``OPENBLAS_NUM_THREADS`` is already set; a value set by the caller
wins.  The pool size is read when numpy loads, and pytest loads this file
before any test module imports numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402


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


@pytest.fixture
def sigma_extrema(monkeypatch):
    """``run(call, oracle=False)`` returns ``call()`` and the (log2 T,
    width) of every inner extremum over sigma it solved, in call order
    (``renyimeat.entropies._sup_sigma``).  With ``oracle=True`` each
    extremum, at order 1/2, is solved instead by the root-fidelity program
    of its branches, built directly: max sum_i p_i^(1/2) F(rho_i, 1 (x)
    sigma), whose duality gap, doubled into entropy units, is the width."""
    from renyimeat import entropies
    from renyimeat.marginals import _fidelity_program

    solve = entropies._sup_sigma

    def fidelity(branches, log2_probs, d_q, d_qp, alpha):
        log2_T, width, _, sigma = _fidelity_program(
            *entropies._branch_programs(branches, d_q, d_qp),
            [2.0 ** (0.5 * lp) for lp in log2_probs])
        return log2_T, sigma, 2.0 * width

    def run(call, oracle=False):
        seen = []

        def recording(*args):
            log2_T, sigma, width = (fidelity if oracle else solve)(*args)
            seen.append((log2_T, width))
            return log2_T, sigma, width

        with monkeypatch.context() as patch:
            patch.setattr(entropies, "_sup_sigma", recording)
            return call(), seen

    return run
