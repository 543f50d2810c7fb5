"""Test-session settings that must precede the first numpy import.

The SDP route gains no wall time from a BLAS thread pool on its small KKT
systems and burns about twice its wall time in CPU with one (see the
``renyimeat.sdp`` docstring), so the suite runs single-threaded BLAS
unless ``OPENBLAS_NUM_THREADS`` is already set; a value set by the caller
wins.  The pool size is read when numpy loads, and pytest loads this file
before any test module imports numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
