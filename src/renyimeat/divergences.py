"""Sandwiched Renyi divergence and relatives.  All logarithms are base 2.

For positive operators rho (nonzero) and sigma, and order a in (0,1) u (1,oo),

    D_a(rho||sigma) = 1/(a-1) * log( tr[(sigma^s rho sigma^s)^a] / tr[rho] ),
    s = (1-a)/(2a),

whenever a < 1 and rho is not orthogonal to sigma, or supp(rho) <= supp(sigma);
otherwise +oo.  The a -> 1 limit is the standard relative entropy
tr[rho log rho - rho log sigma]/tr[rho], and a -> oo gives the max-divergence
log ||sigma^{-1/2} rho sigma^{-1/2}||_oo.  Negative powers of sigma are
Moore-Penrose pseudo-inverses on its support.

Infinite values are returned as ``math.inf`` — never as a large float.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import InvalidState, UnsupportedOrder
from .registers import (EIG_CUT, State, herm_power, log_sum_exp,
                        support_isometry)

LN2 = math.log(2.0)

#: orders within this window of 1 are evaluated with the a=1 formula
NEAR_ONE_WINDOW = 1e-5

#: orders within this distance of 1/2 count as 1/2, whose dual order is
#: infinity (the max-divergence)
HALF_WINDOW = 1e-12

#: relative cutoff of the operator-orthogonality predicate
ORTHO_CUT = 1e-12

#: weight of rho outside supp(sigma), relative to tr rho, up to which
#: supp(rho) counts as contained in supp(sigma)
SUPPORT_TOL = 1e-12


class RenyiOrder:
    """Renyi order in (0, oo]; the special points 1 and oo are exact.

    Construct from a float, ``math.inf``, the string ``"inf"``, or another
    ``RenyiOrder``.  Floats within ``NEAR_ONE_WINDOW`` of 1 are *dispatched*
    to the order-1 formulas but keep their value.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, RenyiOrder):
            value = value.value
        if isinstance(value, str):
            if value.lower() in ("inf", "infinity", "oo"):
                value = math.inf
            else:
                value = float(value)
        value = float(value)
        if math.isnan(value) or value <= 0.0:
            raise UnsupportedOrder(f"Renyi order must be in (0, oo], got {value}")
        self.value = value

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def near_one(self) -> bool:
        return abs(self.value - 1.0) <= NEAR_ONE_WINDOW

    @property
    def is_half(self) -> bool:
        """Within ``HALF_WINDOW`` of 1/2, where the dual order is infinite."""
        return abs(self.value - 0.5) <= HALF_WINDOW

    def conjugate(self) -> "RenyiOrder":
        """The dual order b with 1/a + 1/b = 2 (i.e. b = a/(2a-1))."""
        a = self.value
        if a < 0.5:
            raise UnsupportedOrder("duality needs a >= 1/2")
        if self.is_infinite:
            return RenyiOrder(0.5)
        if self.is_half:
            return RenyiOrder(math.inf)
        return RenyiOrder(a / (2.0 * a - 1.0))

    def hat(self) -> "RenyiOrder":
        """a-hat = 1/(2-a), defined for a in [1/2, 2] (a=2 -> oo)."""
        a = self.value
        if self.is_infinite or a > 2.0:
            raise UnsupportedOrder("hat order needs a <= 2")
        if a == 2.0:
            return RenyiOrder(math.inf)
        return RenyiOrder(1.0 / (2.0 - a))

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"RenyiOrder({'inf' if self.is_infinite else self.value})"

    def __eq__(self, other):
        try:
            return self.value == as_order(other).value
        except UnsupportedOrder:
            return NotImplemented

    def __hash__(self):
        return hash(self.value)


def as_order(alpha) -> RenyiOrder:
    return alpha if isinstance(alpha, RenyiOrder) else RenyiOrder(alpha)


# ----------------------------------------------------------------- helpers

def _as_matrix(x) -> np.ndarray:
    if isinstance(x, State):
        return x.matrix
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"expected a square matrix, got shape {m.shape}")
    return m


def _psd_eigvals(mat: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(mat)
    return np.clip(vals, 0.0, None)


def log2_trace_power(mat: np.ndarray, alpha: float) -> float:
    """log2 tr[mat^alpha] for a PSD matrix, stable for very large alpha.

    Returns -inf when the matrix is (numerically) zero.
    """
    vals = _psd_eigvals(mat)
    top = vals.max(initial=0.0)
    keep = vals > EIG_CUT * max(top, 1e-300)
    if not keep.any():
        return -math.inf
    return float(log_sum_exp(alpha * np.log(vals[keep])) / LN2)


def orthogonal(rho, sigma) -> bool:
    """Operator orthogonality: ||rho sigma||_oo <= 1e-12 ||rho||_oo ||sigma||_oo."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    nr = np.linalg.norm(r, 2)
    ns = np.linalg.norm(s, 2)
    if nr == 0.0 or ns == 0.0:
        return True
    return np.linalg.norm(r @ s, 2) <= ORTHO_CUT * nr * ns


def support_contained(rho, sigma) -> bool:
    """supp(rho) <= supp(sigma), decided by the weight of rho outside."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    U = support_isometry(s)
    comp = np.eye(U.shape[0]) - U @ U.conj().T
    outside = float(np.real(np.trace(comp @ r @ comp)))
    return outside <= SUPPORT_TOL * max(float(np.real(np.trace(r))), 1e-300)


def _trace(mat) -> float:
    t = float(np.real(np.trace(mat)))
    if t <= 0.0:
        raise InvalidState("first argument must have positive trace")
    return t


# ------------------------------------------------------------- divergences

def umegaki_divergence(rho, sigma) -> float:
    """Relative entropy tr[rho log rho - rho log sigma] / tr[rho] (base 2)."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    t = _trace(r)
    if not support_contained(r, s):
        return math.inf
    rv, rU = np.linalg.eigh(r)
    rv = np.clip(rv, 0.0, None)
    keep = rv > EIG_CUT * max(rv.max(), 1e-300)
    term1 = float(np.sum(rv[keep] * np.log2(rv[keep])))
    sv, sU = np.linalg.eigh(s)
    sv = np.clip(sv, 0.0, None)
    skeep = sv > EIG_CUT * max(sv.max(), 1e-300)
    log_s = (sU[:, skeep] * np.log2(sv[skeep])) @ sU[:, skeep].conj().T
    term2 = float(np.real(np.trace(r @ log_s)))
    return (term1 - term2) / t


def max_divergence(rho, sigma) -> float:
    """D_oo = log2 || sigma^{-1/2} rho sigma^{-1/2} ||_oo.

    This is the a -> oo limit of ``sandwiched_divergence``: the 1/tr[rho]
    inside that formula is damped by the 1/(a-1) prefactor, so no explicit
    normalization appears here (all orders shift by log2 tr[rho] alike).
    """
    r, s = _as_matrix(rho), _as_matrix(sigma)
    _trace(r)  # reject zero/negative-trace input
    if not support_contained(r, s):
        return math.inf
    isq = herm_power(s, -0.5)
    val = float(np.linalg.norm(isq @ r @ isq, 2))
    return float(np.log2(val)) if val > 0 else -math.inf


def sandwiched_divergence(rho, sigma, alpha) -> float:
    """Sandwiched Renyi divergence D_alpha(rho || sigma), base-2 logs.

    ``alpha`` may be a float, ``"inf"``, or :class:`RenyiOrder`.  Orders
    within 1e-5 of 1 evaluate the relative-entropy formula.
    """
    a = as_order(alpha)
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise InvalidState("rho and sigma must act on the same space")
    if a.is_infinite:
        return max_divergence(r, s)
    if a.near_one:
        return umegaki_divergence(r, s)
    t = _trace(r)
    av = a.value
    if av > 1.0:
        if not support_contained(r, s):
            return math.inf
    else:
        if orthogonal(r, s):
            return math.inf
    s_pow = herm_power(s, (1.0 - av) / (2.0 * av))
    A = s_pow @ r @ s_pow
    A = 0.5 * (A + A.conj().T)
    logQ = log2_trace_power(A, av)
    if logQ == -math.inf:
        # can only happen for a < 1 with barely-overlapping supports
        return math.inf
    return (logQ - math.log2(t)) / (av - 1.0)


# --------------------------------------------------------------- classical

def classical_renyi_divergence(p, q, alpha) -> float:
    """D_alpha between two nonnegative vectors (same support conventions)."""
    a = as_order(alpha)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidState("distributions must share an alphabet")
    if p.min() < -1e-12 or q.min() < -1e-12:
        raise InvalidState("negative entries")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    tp = p.sum()
    if tp <= 0:
        raise InvalidState("first argument must have positive mass")
    sup_p = p > 0
    if a.is_infinite:
        if np.any(sup_p & (q == 0)):
            return math.inf
        return float(np.log2(np.max(p[sup_p] / q[sup_p])))
    if a.near_one:
        if np.any(sup_p & (q == 0)):
            return math.inf
        return float(np.sum(p[sup_p] * np.log2(p[sup_p] / q[sup_p])) / tp)
    av = a.value
    if av > 1.0:
        if np.any(sup_p & (q == 0)):
            return math.inf
        terms = av * np.log(p[sup_p]) + (1.0 - av) * np.log(q[sup_p])
    else:
        both = sup_p & (q > 0)
        if not both.any():
            return math.inf
        terms = av * np.log(p[both]) + (1.0 - av) * np.log(q[both])
    return float((log_sum_exp(terms) / LN2 - np.log2(tp)) / (av - 1.0))


def frequency(symbols, alphabet=None):
    """Empirical distribution of a nonempty symbol sequence.

    Returns ``(alphabet, probs)`` where ``probs`` are exact
    :class:`fractions.Fraction` counts/length, so they sum to 1 with no
    rounding.  The alphabet is sorted unless given explicitly (an explicit
    alphabet may include symbols of count zero, but must cover the sequence).
    """
    symbols = list(symbols)
    if not symbols:
        raise InvalidState("empty symbol sequence has no frequency distribution")
    counts = Counter(symbols)
    if alphabet is None:
        alphabet = sorted(counts)
    else:
        alphabet = list(alphabet)
        missing = set(counts) - set(alphabet)
        if missing:
            raise InvalidState(f"symbols {sorted(missing)} outside the alphabet")
    n = len(symbols)
    return alphabet, [Fraction(counts.get(z, 0), n) for z in alphabet]


def classical_renyi_entropy(p, alpha) -> float:
    """H_alpha(p) = 1/(1-alpha) log2 sum p^alpha for a normalized p."""
    a = as_order(alpha)
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    sup = p > 0
    if a.is_infinite:
        return float(-np.log2(p.max()))
    if a.near_one:
        return float(-np.sum(p[sup] * np.log2(p[sup])))
    av = a.value
    return float(log_sum_exp(av * np.log(p[sup])) / LN2 / (1.0 - av))


def measured_divergence_bound(rho, sigma, povm, alpha) -> float:
    """Classical divergence of the POVM outcome statistics — a lower bound on
    the quantum value by data processing."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    povm = [np.asarray(E, dtype=complex) for E in povm]
    acc = sum(povm)
    if np.linalg.norm(acc - np.eye(r.shape[0])) > 1e-9:
        raise InvalidState("POVM does not resolve the identity")
    p = np.array([max(float(np.real(np.trace(E @ r))), 0.0) for E in povm])
    q = np.array([max(float(np.real(np.trace(E @ s))), 0.0) for E in povm])
    return classical_renyi_divergence(p, q, alpha)
