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

One rule decides when D_a is infinite (:func:`_diverges`), read off rho's
diagonal in an eigenbasis of sigma whose eigenvalues below ``EIG_CUT`` of
the largest count as zero: for a >= 1, rho's weight outside supp(sigma)
counts as zero up to ``SUPPORT_TOL`` of tr[rho]; for a < 1, its weight on
supp(sigma) counts as zero up to ``ORTHO_CUT`` of it.  Its two callers are
:func:`sandwiched_divergence`, which :func:`umegaki_divergence` and
:func:`max_divergence` run at orders 1 and infinity, and the chart kernel
:func:`renyimeat.channel_entropy._divergence_with_grads`.  The sigma
evaluator of the state entropies,
:meth:`renyimeat.entropies._SigmaEvaluator.at`, applies the a > 1 half
with the same ``SUPPORT_TOL`` to each branch, read off its purification.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import InvalidState, UnsupportedOrder
from .registers import EIG_CUT, State, herm_part, log_sum_exp

LN2 = math.log(2.0)

#: orders within this window of 1 are evaluated with the a=1 formula
NEAR_ONE_WINDOW = 1e-5

#: orders within this distance of 1/2 count as 1/2, whose dual order is
#: infinity (the max-divergence)
HALF_WINDOW = 1e-12

#: weight of rho on supp(sigma), relative to tr rho, up to which rho counts
#: as orthogonal to sigma
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
        if isinstance(value, str) and value.lower() in ("inf", "infinity",
                                                        "oo"):
            value = math.inf
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise UnsupportedOrder(
                f"Renyi order must be a number or 'inf', got {value!r}") from None
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

    @property
    def below_half(self) -> bool:
        """Below 1/2 and outside ``HALF_WINDOW``, where no dual order is."""
        return self.value < 0.5 - HALF_WINDOW

    def conjugate(self) -> "RenyiOrder":
        """The dual order b with 1/a + 1/b = 2 (i.e. b = a/(2a-1))."""
        if self.below_half:
            raise UnsupportedOrder("duality needs a >= 1/2")
        if self.is_infinite:
            return RenyiOrder(0.5)
        if self.is_half:
            return RenyiOrder(math.inf)
        return RenyiOrder(self.value / (2.0 * self.value - 1.0))

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


def _trace(mat) -> float:
    t = float(np.real(np.trace(mat)))
    if t <= 0.0:
        raise InvalidState("first argument must have positive trace")
    return t


def _diverges(diag: np.ndarray, keep: np.ndarray, a: RenyiOrder) -> bool:
    """Whether D_a(rho || sigma) is +oo by the rule of the module docstring
    (orders near 1 count as a >= 1), from rho's diagonal ``diag`` in an
    eigenbasis of sigma and the mask ``keep`` of sigma's eigenvalues above
    its ``EIG_CUT`` cut."""
    trace = float(diag.sum())
    if a.near_one or a.value > 1.0:
        return float(diag[~keep].sum()) > SUPPORT_TOL * max(trace, 1e-300)
    return float(diag[keep].sum()) <= ORTHO_CUT * trace


# ------------------------------------------------------------- divergences

def sandwiched_divergence(rho, sigma, alpha) -> float:
    """Sandwiched Renyi divergence D_alpha(rho || sigma), base-2 logs.

    ``alpha`` may be a float, ``"inf"``, or :class:`RenyiOrder`.  Orders
    within 1e-5 of 1 evaluate the relative-entropy formula.  One ``eigh``
    of sigma decides the support rule (:func:`_diverges`), and one spectrum
    gives the value: that of rho at order 1, and that of G = sigma^s rho
    sigma^s, formed in sigma's eigenbasis, at every other order (s = -1/2
    at infinity).  Spectra are cut at ``EIG_CUT`` relative to their
    largest eigenvalue.  A sigma with an eigenvalue below -1e-8 max(1,
    largest) raises :class:`InvalidState` at order 1, which takes its
    logarithm, and wherever s is fractional.
    """
    a = as_order(alpha)
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise InvalidState("rho and sigma must act on the same space")
    t = _trace(r)
    lam, V = np.linalg.eigh(s)
    top = max(lam.max(), 0.0)
    keep = lam > EIG_CUT * max(top, 1e-300)
    Y = V.conj().T @ r @ V
    diag = Y.diagonal().real
    if _diverges(diag, keep, a):
        return math.inf
    p = -0.5 if a.is_infinite else (1.0 - a.value) / (2.0 * a.value)
    # order 1 takes log sigma, and a fractional power is not defined on
    # negative spectrum either
    if (a.near_one or not float(p).is_integer()) \
            and lam.min() < -1e-8 * max(top, 1.0):
        raise InvalidState(f"sigma is not PSD (eigenvalue {lam.min():.2e})")
    if a.near_one:
        mu = np.clip(np.linalg.eigvalsh(r), 0.0, None)
        mu = mu[mu > EIG_CUT * max(mu.max(), 1e-300)]
        return (float(np.sum(mu * np.log2(mu)))
                - float(diag[keep] @ np.log2(lam[keep]))) / t
    pows = np.zeros_like(lam)
    pows[keep] = lam[keep] ** p
    gv = np.linalg.eigvalsh(herm_part(pows[:, None] * Y * pows[None, :]))
    gv = gv[gv > EIG_CUT * max(gv.max(), 0.0)]
    if not gv.size:
        # can only happen for a < 1 with barely-overlapping supports
        return math.inf
    if a.is_infinite:
        # the a -> oo limit: the 1/tr[rho] inside the formula is damped by
        # the 1/(a-1) prefactor, so no normalization appears here
        return math.log2(gv.max())
    return (log_sum_exp(a.value * np.log(gv)) / LN2 - math.log2(t)) \
        / (a.value - 1.0)


def umegaki_divergence(rho, sigma) -> float:
    """Relative entropy tr[rho log rho - rho log sigma] / tr[rho] (base 2)."""
    return sandwiched_divergence(rho, sigma, 1.0)


def max_divergence(rho, sigma) -> float:
    """D_oo = log2 || sigma^{-1/2} rho sigma^{-1/2} ||_oo, the a -> oo limit
    of :func:`sandwiched_divergence` (no 1/tr[rho] normalization)."""
    return sandwiched_divergence(rho, sigma, math.inf)


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
