"""Test-session settings that must precede the first numpy import, and the
``sdp_solves`` fixture.

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
