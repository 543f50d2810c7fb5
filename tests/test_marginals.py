"""The two SDP builders of ``renyimeat.marginals`` against closed forms,
and the stop rule of its L-BFGS.

Two diagonal operators p_i(a, b) on A(2) (x) B(3) enter each builder as the
images t -> t M_i of the one-point set; the optimum of the covering program
min{tr S : 1_A (x) S >= M_i for i = 1, 2} is sum_b max_{i,a} p_i(a, b), and
that of the fidelity program max_sigma sum_i w_i F(M_i, 1_A (x) sigma) is
sqrt(sum_b c_b^2) with c_b = sum_i w_i sum_a sqrt(p_i(a, b)), attained at
sigma_b proportional to c_b^2 (Cauchy-Schwarz).
"""

import math

import numpy as np
import pytest

from renyimeat import marginals
from renyimeat.marginals import (_covering_program, _fidelity_program,
                                 _MarginalSet)
from renyimeat.registers import space

WEIGHTS = [0.7, 1.3]


def diagonal_terms():
    """p[i, a, b] for the two terms, the one-point set, the maps
    t -> t diag(p_i), X -> 1_A (x) X, and the density operators on B."""
    p = np.random.default_rng(7).uniform(0.05, 1.0, size=(2, 2, 3))
    maps = [lambda t, m=np.diag(pi.ravel()): t[0, 0] * m for pi in p]
    return p, (_MarginalSet(space(("_", 1)), None), maps,
               lambda X: np.kron(np.eye(2), X),
               _MarginalSet(space(("B", 3)), None))


def test_covering_program_with_two_terms():
    p, args = diagonal_terms()
    log2_value, width, rho, sigma = _covering_program(*args)
    cover = p.max(axis=(0, 1))
    assert width <= 1e-8
    assert abs(log2_value - math.log2(cover.sum())) <= width
    assert rho == pytest.approx(np.eye(1))
    np.testing.assert_allclose(sigma, np.diag(cover / cover.sum()),
                               atol=1e-6)


def test_fidelity_program_with_two_terms():
    p, args = diagonal_terms()
    log2_value, width, rho, sigma = _fidelity_program(*args, WEIGHTS)
    c = np.einsum("i,iab->b", WEIGHTS, np.sqrt(p))
    assert width <= 1e-8
    assert abs(log2_value - 0.5 * math.log2(np.sum(c ** 2))) <= width
    assert rho == pytest.approx(np.eye(1))
    # the objective is flat to second order at its maximum, so a value
    # within ~1e-9 places sigma only to about the square root of that
    np.testing.assert_allclose(sigma, np.diag(c ** 2 / np.sum(c ** 2)),
                               atol=1e-4)


def test_lbfgs_returns_its_narrowest_accepted_point(monkeypatch):
    """|x|^2 / 2 from x0 = (4, 0): the first step, along -g / |g|, lands
    at (3, 0), and the second, at the curvature of that step, at the
    minimum (0, 0).  With a point's width its distance to x0 / 2 the
    widths run 2, 1, 2, and with a width target of 0 the run goes on to
    its step cap; it returns the first step, not its last point."""
    monkeypatch.setattr(marginals, "_LBFGS_MAX_ITERS", 3)
    x0 = np.array([4.0, 0.0])
    seen = []

    def fg(x):
        seen.append(x)
        return 0.5 * float(x @ x), x, (x, float(np.linalg.norm(x - x0 / 2)))

    value, (x, width) = marginals._lbfgs(fg, x0, 0.0)
    assert any(not p.any() for p in seen)
    assert (value, width) == (4.5, 1.0)
    np.testing.assert_array_equal(x, [3.0, 0.0])
