"""Conditional Renyi entropies H_a and H^up_a, duality, classical mixing.

Conventions: for a normalized rho on registers A (target) and B (conditioning),

    H_a(A|B)     = -D_a(rho_AB || id_A (x) rho_B)            ("down")
    H^up_a(A|B)  = sup_sigma -D_a(rho_AB || id_A (x) sigma_B) ("up")

with D_a the base-2 sandwiched divergence.  "Down" values are spectral; on
a state classical on C inside the conditioning, block diagonality makes
-D_a(rho || id (x) rho_CB) the per-branch mixture :func:`classmix_down`.

Every optimized entropy of a state at an order other than 1 runs
:func:`_two_sided_mix`: branches of classical registers in the target and
in the conditioning, each tilted by a real score, give one extremum over
sigma per conditioning outcome, and the value is a quasi-arithmetic mean
of those.  :func:`cond_entropy_up` has no classical registers,
:func:`classmix_up` has them all in the conditioning, and the f-weighted
entropies of :mod:`renyimeat.fweighted` add the tilt.  Each extremum is
solved on the support of its conditioning marginal:

- every finite order: a short damped fixed point of the first-order condition
  sigma <- normalize(Tr_A[G^a]) with G(sigma) = (id (x) sigma^s) rho
  (id (x) sigma^s), s = (1-a)/(2a), started at the mean of the
  conditioning marginals, then L-BFGS on the chart sigma(H) = H H^dag /
  tr[H H^dag] (the chart and the L-BFGS of :mod:`renyimeat.marginals`):
  sigma -> tr[G(sigma)^a] is convex for a > 1 and concave for a in
  [1/2, 1) (Frank-Lieb), so a stationary point is the optimum.  The value
  at sigma bounds H^up from below, and -H^up_b(A|C) = H^up_a(A|B) on a
  purification (1/a + 1/b = 2) turns a closed-form dual point into a bound
  from above; the solve stops once the two are a hundredth of
  ``UP_GAP_TOL`` apart, at the fixed point already if they are there.
  One evaluator per extremum (:class:`_SigmaEvaluator`) gives value,
  fixed-point update, gradient and width, and a sigma point costs one
  ``eigh`` of sigma and one per branch;
- a = 1/2 runs that same solve.  Its dual order is b = infinity, where
  H^up_1/2(A|B) = -H_min(A|C), so the bound from above is the
  max-divergence D_max(psi_AC || id (x) tau) at the closed-form dual point;
- a = infinity: the max-divergence form min{tr X : id (x) X >= w_i rho_i},
  which by the same duality is the order-1/2 entropy of the complement:
  the branches' purifications, stacked into one purification of the block
  operator, give the single branch of that solve with no new
  eigendecomposition, and sigma is its closed-form dual point
  (:func:`_sup_sigma`).  No entropy of a state builds an SDP;
- a conditioning support of rank one, or the "down" variant: sigma is
  pinned and the value is a closed form.

A width above ``UP_GAP_TOL`` raises :class:`NonConvergence`.  a = 1 is
spectral.  Branch sums are carried in log space so that extreme weights
(or very large finite orders) stay finite.

Very large finite orders run the same solve.  On
``random_density(space(("A", 2), ("B", 3)), seed=s)`` for s = 4 and 5,
H^up certifies at a = 1e3, 1e4 and 1e5 with widths below 1e-9.
a = infinity certifies within 1e-9 on 2x2, 2x4, 4x4 and 2x8 states of
ranks 1, 2 and full, in agreement with the covering program of
:mod:`renyimeat.marginals` built directly (the tests' oracle), and on the
64-dimensional output of two pinned channel copies in milliseconds, where
that covering program takes minutes.
"""

from __future__ import annotations

import math

import numpy as np

from .divergences import LN2, RenyiOrder, as_order, sandwiched_divergence
from .errors import (InvalidRegister, InvalidState, NonConvergence,
                     NotClassical, NotPure, UnsupportedOrder)
from .marginals import _flat, _InputChart, _lbfgs, _square
from .registers import (EIG_CUT, State, bipartite_partial_trace,
                        embed_operator, herm_part, log_sum_exp,
                        support_isometry)
from . import registers

#: widest duality interval (in bits of entropy) an optimized "up" value may
#: carry; a wider one raises NonConvergence
UP_GAP_TOL = 1e-7

_FP_MAX_ITERS = 20
_FP_VALUE_TOL = 1e-12


# ----------------------------------------------------------------- utilities

def von_neumann_entropy(mat) -> float:
    """H(rho) = -tr[rho log2 rho] for a (sub)normalized density matrix."""
    vals = np.linalg.eigvalsh(np.asarray(mat, dtype=complex))
    vals = np.clip(vals, 0.0, None)
    keep = vals > EIG_CUT * max(vals.max(initial=0.0), 1e-300)
    return float(-np.sum(vals[keep] * np.log2(vals[keep])))


def alpha_entropy(mat, alpha) -> float:
    """Unconditional Renyi entropy H_a(rho) = (1/(1-a)) log2 tr[rho^a]."""
    a = as_order(alpha)
    vals = np.clip(np.linalg.eigvalsh(np.asarray(mat, dtype=complex)), 0.0, None)
    keep = vals > EIG_CUT * max(vals.max(initial=0.0), 1e-300)
    vals = vals[keep]
    if a.is_infinite:
        return float(-np.log2(vals.max()))
    if a.near_one:
        return float(-np.sum(vals * np.log2(vals)))
    av = a.value
    return float(log_sum_exp(av * np.log(vals)) / LN2 / (1.0 - av))


def renyi_branch_mix(probs, values, alpha, *, variant: str) -> float:
    """Combine per-branch entropies over a classical register.

    variant "up":   (a/(1-a)) log2 sum_c p(c) 2^{((1-a)/a) h_c}
    variant "down": (1/(1-a)) log2 sum_c p(c) 2^{(1-a) h_c}

    a = 1 gives the expectation, a = infinity the corresponding limit
    (soft-min for "up", plain min for "down").  Zero-probability branches
    are skipped.
    """
    if variant not in ("up", "down"):
        raise InvalidState("variant must be 'up' or 'down'")
    a = as_order(alpha)
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = probs > 0.0
    probs, values = probs[keep], values[keep]
    if probs.size == 0:
        raise InvalidState("no branches with positive probability")
    if a.near_one:
        return float(np.dot(probs, values))
    if a.is_infinite:
        if variant == "down":
            return float(values.min())
        return float(-log_sum_exp(np.log(probs) - values * LN2) / LN2)
    av = a.value
    if variant == "up":
        coeff, pref = (1.0 - av) / av, av / (1.0 - av)
    else:
        coeff, pref = 1.0 - av, 1.0 / (1.0 - av)
    return float(pref * log_sum_exp(np.log(probs) + coeff * values * LN2) / LN2)


def _marginal_pair(state: State, target, conditioning) -> State:
    target = list(target)
    conditioning = list(conditioning)
    if set(target) & set(conditioning):
        raise InvalidRegister("target and conditioning registers overlap")
    labels = [l for l in state.space.labels if l in target + conditioning]
    if set(labels) != set(target) | set(conditioning):
        raise InvalidRegister("target/conditioning not within the state's layout")
    if len(labels) == len(state.space.labels):
        return state
    return state.marginal(labels)


# --------------------------------------------------------------- H_a ("down")

def cond_entropy_down(state: State, target, conditioning, alpha) -> float:
    """H_a(target | conditioning) = -D_a(rho || id (x) rho_cond), spectral."""
    rho = _marginal_pair(state, target, conditioning)
    conditioning = list(conditioning)
    if not conditioning:
        return alpha_entropy(rho.matrix, alpha)
    sigma_b = rho.partial_trace(keep=conditioning)
    ref = embed_operator(rho.space, list(sigma_b.space.labels), sigma_b.matrix)
    return -sandwiched_divergence(rho.matrix, ref, alpha)


# ------------------------------------------------- log-scaled branch machine

class _SigmaEvaluator:
    """The objective of one extremum over sigma, built once per extremum.

    For branches rho_i on Q Q' with log2 weights log2 w_i = a log2 p_i,
    T(sigma) = sum_i w_i tr[G_i^a] with G_i = (id_Q (x) sigma^s) rho_i
    (id_Q (x) sigma^s), s = (1-a)/(2a).  Each rho_i = M_i M_i^dag is given
    by a purification M_i shaped (Q, Q', K_i) (:func:`_purifiers`), and
    branches of weight zero are dropped.  With phi_i = (id (x) sigma^s) M_i,
    G_i = phi_i phi_i^dag, the K_i x K_i Gram matrix Gamma_i =
    phi_i^dag phi_i carries the nonzero spectrum of G_i, and
    G_i^a = phi_i Gamma_i^(a-1) phi_i^dag.

    A sigma point costs one eigendecomposition of sigma (sigma^s, the
    support test for a > 1 and the Daleckii-Krein kernel of the gradient)
    and one of each Gamma_i; the value, the fixed-point update, the
    gradient and the duality interval at that sigma share them.
    Eigenvalues of G_i at or below EIG_CUT times its largest count as zero
    (modes at rounding level would add (1e-17)^a to T for a < 1).  Branch
    sums are carried in log2 with a max shift, so that very large orders,
    where w_i = p_i^a underflows, stay representable.  At a = infinity
    the value is max_i log2 p_i + log2 lambda_max(G_i) at s = -1/2, the
    limit of log2 T / a.
    """

    def __init__(self, purifiers, log2_probs, alpha: float):
        self.alpha = alpha
        self.s = -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)
        self.d_qp = purifiers[0].shape[1]
        live = [(M, lp) for M, lp in zip(purifiers, log2_probs)
                if lp != -math.inf]
        self.M = [M for M, _ in live]
        self.log2_probs = [lp for _, lp in live]
        self.traces = [float(np.vdot(M, M).real) for M in self.M]
        self._last = None

    def _point(self, sigma):
        """Eigen-data of sigma and, per branch, (log2 p_i, log2 of the top
        eigenvalue of Gamma_i, the kept eigenvalues over it, and U_i,
        M_i U_i and phi_i U_i on the kept modes), or None where sigma^s
        annihilates the branch; kept for the last sigma seen."""
        if self._last is not None and self._last[0] is sigma:
            return self._last[1]
        lam, V = np.linalg.eigh(herm_part(sigma))
        lam = np.clip(lam, 0.0, None)
        keep = lam > EIG_CUT * max(lam.max(initial=0.0), 1e-300)
        pows = np.where(keep, np.where(keep, lam, 1.0) ** self.s, 0.0)
        sig_s = (V * pows) @ V.conj().T
        parts = []
        for M, lp in zip(self.M, self.log2_probs):
            phi = sig_s @ M
            flat = phi.reshape(-1, phi.shape[2])
            # eigh reads one triangle, so the Gram matrix needs no symmetrizing
            mu, U = np.linalg.eigh(flat.conj().T @ flat)
            top = mu.max(initial=0.0)
            if top <= 0.0:
                parts.append(None)
                continue
            mk = mu > EIG_CUT * top
            U = U[:, mk]
            parts.append((lp, math.log2(top), mu[mk] / top, U, M @ U,
                          phi @ U))
        point = (lam, V, keep, pows, parts)
        self._last = (sigma, point)
        return point

    def at(self, sigma, *, update: bool = False, grad: bool = False):
        """(log2 T, update, gradient) at sigma.  The update is the
        unnormalized fixed-point map sum_i w_i Tr_Q[G_i^a] and the gradient
        the Hermitian gradient of log2 T / (a - 1) = -H; each is None
        unless asked for, and both are None when the value is not finite.

        For a > 1 the value is +inf when sigma misses support that a branch
        needs: the pseudo-powers would project that weight away and
        underestimate T (overestimating the entropy)."""
        a = self.alpha
        lam, V, keep, pows, parts = self._point(sigma)
        if a > 1.0 and not keep.all():
            cut = V[:, ~keep].conj().T
            for M, tr in zip(self.M, self.traces):
                if np.linalg.norm(cut @ M) ** 2 > 1e-10 * max(tr, 1e-300):
                    return math.inf, None, None
        live = [p for p in parts if p is not None]
        if not live:
            return -math.inf, None, None
        if math.isinf(a):
            return max(lp + lt for lp, lt, *_ in live), None, None
        logs = [a * (lp + lt) for lp, lt, *_ in live]
        L = max(logs)
        total = sum(2.0 ** (lg - L) * float(np.sum(r ** a))
                    for lg, (_, _, r, *_) in zip(logs, live))
        log2_T = L + math.log2(total)
        upd = g = None
        if update or grad:
            # 2^-L w_i G_i^a = coeff_i (phi_i U_i) r_i^(a-1) (phi_i U_i)^dag
            coeffs = [2.0 ** (lg - L - lt)
                      for lg, (_, lt, *_) in zip(logs, live)]
        if update:
            upd = herm_part(sum(
                c * np.einsum("qak,qbk->ab", Y * r ** (a - 1.0), Y.conj())
                for c, (_, _, r, _, _, Y) in zip(coeffs, live)))
        if grad:
            # with W = id (x) sigma^s, d tr[G_i^a] =
            # 2a tr[Tr_Q[rho_i W G_i^(a-1)] d sigma^s], and
            # rho_i W G_i^(a-1) = M_i Gamma_i^(a-1) phi_i^dag
            g = herm_part(sum(
                c * np.einsum("qak,qbk->ab", Z * r ** (a - 1.0), Y.conj())
                for c, (_, _, r, _, Z, Y) in zip(coeffs, live)))
            kernel = registers.divided_differences(
                lam, pows, self.s * pows / np.where(keep, lam, 1.0),
                keep[:, None] | keep[None, :])
            g = V @ (kernel * (V.conj().T @ g @ V)) @ V.conj().T
            g *= 2.0 * a / LN2 / (a - 1.0) / total
        return log2_T, upd, g

    def width(self, sigma, log2_T) -> float:
        """Width of an interval that holds H^up_a(I Q | Q') of the
        normalized block state omega = (+)_i w_i rho_i, w_i proportional to
        p_i, where ``log2_T`` is :meth:`at`'s value at ``sigma``.

        The lower end is that value, -D_a(omega || id (x) sigma).  The upper
        end is dual: H^up_a(A|B) = -H^up_b(A|C) on a purification psi_ABC
        with 1/a + 1/b = 2, so D_b(psi_AC || id (x) tau) is an upper bound
        for every density tau on C.  With P_i = phi_i^T conj(phi_i) (the
        conjugate of Gamma_i), the point tau = (+)_i (w_i P_i)^a / z closes
        the interval at the optimal sigma.  By the Gram identity
        tr[(Y Y^dag)^b] = tr[(Y^dag Y)^b] the bound is
        log2 z + (a/(1-a)) log2 ||X||_b with X = sum_i w_i^a Tr_Q[M_i
        Gamma_i^(a-1) M_i^dag] on Q' (up to conjugation, which keeps the
        spectrum), so no matrix exceeds one branch.  Spectra are cut at
        EIG_CUT like the objective; cutting X lowers ||X||_b, which raises
        the upper end for a > 1 and moves it by less than EIG_CUT^b for
        a < 1.

        At a = 1/2 (every order within ``HALF_WINDOW`` of it) b is
        infinite and the bound is its limit: ||X||_b becomes lambda_max(X),
        and log2 z + log2 lambda_max(X) is D_max(psi_AC || id (x) tau).  It
        is still an upper end, since H^up_1/2(A|B) = -H^up_inf(A|C) =
        min_tau D_max(psi_AC || id (x) tau), which lies at or below D_max at
        the tau built here.
        """
        a = self.alpha
        parts = self._point(sigma)[4]
        if any(p is None for p in parts):
            return math.inf     # sigma misses a branch entirely
        logs_c = [lp + math.log2(tr)
                  for lp, tr in zip(self.log2_probs, self.traces)]
        log2_c = _log2_sum(logs_c)
        logs_z = [a * (lp - log2_c + lt) + math.log2(np.sum(r ** a))
                  for lp, lt, r, *_ in parts]
        logs_x = [a * (lp - log2_c) + (a - 1.0) * lt
                  for lp, lt, *_ in parts]
        L = max(logs_x)
        X = sum(2.0 ** (lx - L)
                * np.einsum("qak,qbk->ab", Z * r ** (a - 1.0), Z.conj())
                for lx, (_, _, r, _, Z, _) in zip(logs_x, parts))
        xv = np.linalg.eigvalsh(herm_part(X))
        xtop = xv.max()
        log2_norm = L + math.log2(xtop)
        if not as_order(a).is_half:
            beta = a / (2.0 * a - 1.0)
            xv = xv[xv > EIG_CUT * xtop] / xtop
            log2_norm += math.log2(np.sum(xv ** beta)) / beta
        up = _log2_sum(logs_z) + a / (1.0 - a) * log2_norm
        lo = -(log2_T - a * log2_c) / (a - 1.0)
        return max(up - lo, 0.0)

    def dual_point(self, sigma) -> np.ndarray:
        """The point tau of :meth:`width` at sigma for a single branch,
        P^a / tr[P^a] with P = conj(Gamma), on the branch's purifying
        register K."""
        ((_, _, r, U, _, _),) = self._point(sigma)[4]
        ra = r ** self.alpha
        return (U.conj() * ra) @ U.T / float(np.sum(ra))


def _log2_sum(logs) -> float:
    """log2 sum_i 2^logs[i], shifted by the largest term."""
    L = max(logs)
    return L + math.log2(sum(2.0 ** (lg - L) for lg in logs))


def _optimize_sigma(ev: _SigmaEvaluator, sigma0: np.ndarray):
    """Extremize log2 T over sigma (min for a > 1, max for a < 1); returns
    (log2_T, sigma, width), the width being :meth:`_SigmaEvaluator.width`
    at the returned sigma.

    Both regimes minimize the same merit phi = log2 T / (a - 1) = -H.  A
    short damped fixed point sigma <- (1-theta) sigma + theta
    normalize(update) (the undamped map overshoots for a > 1), accepting
    steps only when phi drops, runs first; if its duality interval is
    already a hundredth of ``UP_GAP_TOL`` the solve stops there.  Otherwise
    it warm-starts L-BFGS on the chart sigma(H) = H H^dag / tr[H H^dag] of
    the density operators (:class:`renyimeat.marginals._InputChart` without
    a pin) from H = sigma^(1/2), with the evaluator's gradient pulled back
    through the chart, which stops at the same interval or when the line
    search finds no decrease.
    """
    denom = ev.alpha - 1.0
    sigma = sigma0.copy()
    v, update, _ = ev.at(sigma, update=True)
    for _ in range(_FP_MAX_ITERS):
        if update is None:
            break
        tr = float(np.real(np.trace(update)))
        if tr <= 0.0:
            break
        target = update / tr
        theta = 0.5
        accepted = False
        moved = math.inf
        while theta >= 1e-8:
            cand = (1.0 - theta) * sigma + theta * target
            vc, upc, _ = ev.at(cand, update=True)
            if upc is not None and vc / denom < v / denom:
                moved = abs(vc - v) / abs(denom)
                sigma, v, update = cand, vc, upc
                accepted = True
                break
            theta *= 0.5
        if not accepted or moved < _FP_VALUE_TOL:
            break
    width = ev.width(sigma, v)
    if width <= 1e-2 * UP_GAP_TOL:
        return v, sigma, width
    chart = _InputChart(np.eye(1), ev.d_qp)
    last = [None, math.inf]

    def fg(x):
        """phi at sigma(H), its gradient in H, and (sigma, log2_T)."""
        H = _square(x)
        sig, parts = chart.point(H)
        log2_T, _, grad = ev.at(sig, grad=True)
        if grad is None:
            return math.inf, None, None
        return log2_T / denom, 2.0 * _flat(chart.pullback(H, parts, grad)), \
            (sig, log2_T)

    def done(data) -> bool:
        last[:] = [data, ev.width(*data)]
        return last[1] <= 1e-2 * UP_GAP_TOL

    _, _, data = _lbfgs(
        fg, _flat(registers.herm_power(sigma, 0.5).astype(complex)), done,
        smooth=True)
    return data[1], data[0], last[1] if last[0] is data else ev.width(*data)


def _purifiers(branches, d_q: int):
    """Each density operator rho on Q Q' (Q legs first) as its purification
    M = V Lambda^(1/2) on its kept eigenvectors, shaped (Q, Q', K); the
    eigenvalues at or below EIG_CUT times the largest are cut."""
    out = []
    for rho in branches:
        vals, vecs = np.linalg.eigh(rho)
        keep = vals > EIG_CUT * max(vals.max(initial=0.0), 1e-300)
        out.append((vecs[:, keep] * np.sqrt(vals[keep]))
                   .reshape(d_q, rho.shape[0] // d_q, -1))
    return out


def _sup_sigma(purifiers, log2_probs, alpha):
    """Extremized log2 T of one public outcome, from one warm start;
    returns (log2_T, sigma, width), with log2_T at a = infinity its limit
    log2 T / a.

    At finite orders :func:`_optimize_sigma` (fixed point, then L-BFGS on
    the chart of the density operators) runs from the normalized mean of
    the branch marginals and returns the duality interval at its sigma, in
    entropy units of the normalized block state; at a = 1/2 that interval
    closes on the max-divergence of the dual order b = infinity
    (:meth:`_SigmaEvaluator.width`).  ``log2_probs`` are per-branch log2
    weights *before* raising to the power alpha; the solve sees
    alpha * log2_probs.

    At a = infinity the extremum is min{tr X : id_Q (x) X >= w_i M_i
    M_i^dag for every i} = tr Omega 2^(-H_min(I Q | Q')) of the block
    operator Omega = (+)_i w_i M_i M_i^dag, I the branch index.  The
    sqrt(w_i) M_i stacked on (I Q, Q', (+)_i K_i) purify Omega, so by
    duality it is tr Omega 2^(H^up_1/2(I Q | K)), and that array with its
    Q' and K axes swapped is the one branch of the 1/2 solve, started from
    its diagonal K-marginal (+)_i w_i Lambda_i.  The sigma returned, on Q',
    is that solve's closed-form dual point, the optimal X / tr X, and the
    value is log2 tr X at it: the upper end of the 1/2 solve's interval, so
    that, as at every order, the entropy is the objective at the returned
    sigma and the lower end of its interval.
    """
    if not math.isinf(alpha):
        ev = _SigmaEvaluator(purifiers, log2_probs, alpha)
        mean = sum(np.einsum("qak,qbk->ab", M, M.conj()) for M in ev.M)
        return _optimize_sigma(
            ev, mean / max(float(np.real(np.trace(mean))), 1e-300))
    shift = max(log2_probs)
    d_q, d_qp = purifiers[0].shape[:2]
    ks = np.cumsum([0] + [M.shape[2] for M in purifiers])
    block = np.zeros((len(purifiers) * d_q, ks[-1], d_qp), dtype=complex)
    for i, (M, lp) in enumerate(zip(purifiers, log2_probs)):
        block[i * d_q:(i + 1) * d_q, ks[i]:ks[i + 1]] = \
            2.0 ** (0.5 * (lp - shift)) * M.transpose(0, 2, 1)
    ev = _SigmaEvaluator([block], [0.0], 0.5)
    k_marginal = np.sum(np.abs(block) ** 2, axis=(0, 2))
    log2_T, sig, width = _optimize_sigma(
        ev, np.diag(k_marginal / np.sum(k_marginal)).astype(complex))
    return shift + 2.0 * log2_T + width, ev.dual_point(sig), width


# ------------------------------------------------ the two-sided mixture

def _two_sided_split(state: State, target, conditioning, classical_target,
                     classical_cond):
    """Validate the register split of a two-sided mixture; returns the
    marginal on target + conditioning and the label lists
    (Q, Q', classical target, classical conditioning)."""
    target = list(target)
    conditioning = list(conditioning)
    classical_target = list(classical_target)
    classical_cond = list(classical_cond)
    if not set(classical_target) <= set(target):
        raise InvalidRegister("classical_target must sit inside target")
    if not set(classical_cond) <= set(conditioning):
        raise InvalidRegister("classical_cond must sit inside conditioning")
    rho = _marginal_pair(state, target, conditioning)
    classical = classical_target + classical_cond
    if not rho.is_classical_on(classical):
        raise NotClassical(f"state is not classical on registers {classical}")
    q_labels = [l for l in target if l not in classical_target]
    qp_labels = [l for l in conditioning if l not in classical_cond]
    return rho, q_labels, qp_labels, classical_target, classical_cond


def _no_tilt(inner, outer) -> float:
    return 0.0


def _two_sided_mix(rho: State, q_labels, qp_labels, classical_target,
                   classical_cond, a: RenyiOrder, tilt, *, variant: str):
    """The two-sided classical mixture with tilted branches.

    Branch (cs, cp) enters the inner extremum of its public outcome cp with
    log2 weight log2 p(cs|cp) + ((a-1)/a) tilt(cs, cp), where (a-1)/a -> 1
    at a = infinity.  Per public outcome the extremum over sigma is solved
    by :func:`_sup_sigma` at every order; at a = infinity it is the
    max-divergence form -log2 sum_cp p(cp) min{tr X : id (x) X >=
    p(cs|cp) 2^tilt rho_cs,cp}, which :func:`_sup_sigma` solves as the
    order-1/2 entropy of the complement.  The value is a quasi-arithmetic
    mean of the per-outcome entropies, so it moves by at most the widest
    per-outcome interval; a width above ``UP_GAP_TOL`` raises
    :class:`NonConvergence`.
    ``variant="down"`` pins sigma to the conditional marginal of Q' instead;
    at a = infinity that is the closed form
    -log2 sum_cp p(cp) max_cs p(cs|cp) 2^tilt
        lambda_max((id (x) sigma)^(-1/2) rho_cs,cp (id (x) sigma)^(-1/2)).

    Returns (value, width, {cp: sigma on Q'}).
    """
    d_q = int(np.prod([rho.space.dim_of(l) for l in q_labels])) \
        if q_labels else 1
    # {cp: [(cs, joint weight, rho_QQ' with Q legs first), ...]}
    groups: dict = {}
    legs = list(q_labels) + list(qp_labels)
    n_cp = len(classical_cond)
    for outcome, w, branch in rho.branches(classical_cond + classical_target):
        if branch is None:
            continue
        mat = branch.reorder(legs).matrix if legs \
            else np.ones((1, 1), dtype=complex)
        groups.setdefault(outcome[:n_cp], []).append((outcome[n_cp:], w, mat))
    theta = 1.0 if a.is_infinite else (a.value - 1.0) / a.value
    outer_logs, widths, sigmas = [], [], {}
    for outer, entries in groups.items():
        p_outer = sum(w for _, w, _ in entries)
        log2_p = [math.log2(w / p_outer) + theta * tilt(inner, outer)
                  for inner, w, _ in entries]
        branches = [m for _, _, m in entries]
        # reduce Q' to the union of the branch supports
        d_p = branches[0].shape[0] // d_q
        margs = [bipartite_partial_trace(m, d_q, d_p, 1) for m in branches]
        V = support_isometry(sum(margs))
        W = np.kron(np.eye(d_q), V)
        pur = _purifiers([herm_part(W.conj().T @ m @ W) for m in branches],
                         d_q)
        if variant == "down" or V.shape[1] == 1:
            # sigma pinned to the conditional marginal of this group; its
            # support covers every branch, so the pseudo-powers lose nothing
            sig = sum(w / p_outer * (V.conj().T @ m @ V)
                      for (_, w, _), m in zip(entries, margs))
            sig = herm_part(sig) / float(np.real(np.trace(sig)))
            log2_T = _SigmaEvaluator(pur, log2_p, a.value).at(sig)[0]
            width = 0.0
        else:
            log2_T, sig, width = _sup_sigma(pur, log2_p, a.value)
        log2_t = log2_T if a.is_infinite else log2_T / a.value
        widths.append(width)
        sigmas[outer] = V @ sig @ V.conj().T
        outer_logs.append(math.log2(p_outer) + log2_t)
    total = _log2_sum(outer_logs)
    value = -total if a.is_infinite else a.value / (1.0 - a.value) * total
    gap = float(np.max(widths, initial=0.0))
    if not gap <= UP_GAP_TOL:
        raise NonConvergence("duality interval exceeds the certification "
                             f"threshold ({gap:.2e})", value=value, gap=gap)
    return value, gap, sigmas


# ---------------------------------------------------------------- H^up ("up")

def cond_entropy_up(state: State, target, conditioning, alpha, *,
                    return_info: bool = False):
    """H^up_a(target | conditioning): optimized conditional Renyi entropy.

    With ``return_info=True`` returns ``(value, info)`` where ``info`` holds
    the optimal conditioning state (on the conditioning registers), the
    width of the certified interval around the value ("gap"), and the
    method that ran: "unconditioned" and "spectral" (a = 1) are exact, and
    every other order is "fixed-point", :func:`_two_sided_mix` without
    classical registers, where a short fixed point warm-starts L-BFGS on
    the chart of the density operators (:func:`_optimize_sigma`), at
    a = infinity on the order-1/2 complement (:func:`_sup_sigma`); a
    conditioning marginal of rank one pins sigma, and that closed form runs
    under the same name.  Raises :class:`NonConvergence` when the width
    exceeds ``UP_GAP_TOL``.
    """
    a = as_order(alpha)
    rho = _marginal_pair(state, target, conditioning)
    target = list(target)
    rest = [l for l in rho.space.labels if l not in target]
    cond_dim = int(np.prod([rho.space.dim_of(l) for l in rest])) if rest else 1

    if cond_dim == 1:
        mat = rho.partial_trace(keep=target).matrix if rest else rho.matrix
        value = alpha_entropy(mat, a)
        info = {"sigma": np.ones((1, 1)), "gap": 0.0, "method": "unconditioned"}
    elif a.near_one:
        h_ab = von_neumann_entropy(rho.matrix)
        sig_b = rho.partial_trace(keep=rest)
        value = h_ab - von_neumann_entropy(sig_b.matrix)
        info = {"sigma": sig_b.matrix, "gap": 0.0, "method": "spectral"}
    else:
        value, gap, sigmas = _two_sided_mix(rho, target, rest, [], [], a,
                                            _no_tilt, variant="up")
        info = {"sigma": sigmas[()], "gap": gap, "method": "fixed-point"}
    return (value, info) if return_info else value


# ------------------------------------------------------------------- duality

def check_duality(state: State, alpha, *, target: str = "A",
                  left: str = "B", right: str = "C"):
    """For pure rho on (target, left, right): H^up_a(A|B) + H^up_b(A|C) = 0
    with 1/a + 1/b = 2.  Returns (lhs, rhs, residual)."""
    a = as_order(alpha)
    if a.value < 0.5:
        raise UnsupportedOrder("duality holds for orders in [1/2, oo]")
    vals = np.linalg.eigvalsh(state.matrix)
    if vals.max() < (1.0 - 1e-9) * vals.sum():
        raise NotPure("duality needs a rank-one input state")
    beta = a.conjugate()
    lhs = cond_entropy_up(state, [target], [left], a)
    rhs = cond_entropy_up(state, [target], [right], beta)
    return lhs, rhs, abs(lhs + rhs)


# ------------------------------------------------------- classical mixtures

def classmix_up(state: State, target, conditioning, classical,
                alpha) -> float:
    """H^up over a classical register in the conditioning: the two-sided
    mixture with every classical register on the conditioning side, i.e.
    the "up" :func:`renyi_branch_mix` of the per-branch H^up values."""
    return two_sided_classmix(state, target=target,
                              conditioning=conditioning, classical_target=[],
                              classical_cond=classical, alpha=alpha)


def classmix_down(state: State, target, conditioning, classical, alpha) -> float:
    """H_a over a classical register in the conditioning, i.e. the "down"
    :func:`renyi_branch_mix` of the per-branch H_a values.  Block
    diagonality in the classical registers makes that -D_a(rho ||
    id (x) rho_cond) of the whole state, which is what is evaluated."""
    rho, *_ = _two_sided_split(state, target, conditioning, [], classical)
    return cond_entropy_down(rho, target, conditioning, alpha)


def two_sided_classmix(state: State, *, target, conditioning,
                       classical_target, classical_cond, alpha) -> float:
    """H^up_a(Q Cbar | Chat Q') for a state classical on Cbar (inside the
    target) and Chat (inside the conditioning):

        (a/(1-a)) log2 sum_chat p(chat) *
            opt_sigma [ sum_cbar p(cbar|chat)^a 2^{(a-1) D_a(rho_{QQ'|cbar chat}
                        || id_Q (x) sigma)} ]^{1/a}

    with the inner optimization a minimum for a > 1 and a maximum for a < 1.
    a = infinity is its limit, one max-divergence extremum per conditioning
    outcome, solved as the order-1/2 entropy of its complement
    (:func:`_sup_sigma`); a = 1 coincides with the von Neumann value.
    """
    a = as_order(alpha)
    rho, q_labels, qp_labels, classical_target, classical_cond = \
        _two_sided_split(state, target, conditioning, classical_target,
                         classical_cond)
    if a.near_one:
        return cond_entropy_down(rho, target, conditioning, 1.0)
    return _two_sided_mix(rho, q_labels, qp_labels, classical_target,
                          classical_cond, a, _no_tilt, variant="up")[0]
