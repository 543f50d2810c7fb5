"""The two SDP builders of ``renyimeat.marginals`` against closed forms.

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
