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

- every finite order: a short fixed point of the first-order condition
  sigma <- normalize(Tr_A[G^a]) with G(sigma) = (id (x) sigma^s) rho
  (id (x) sigma^s), s = (1-a)/(2a), started at the mean of the
  conditioning marginals, then L-BFGS on the chart sigma(H) = H H^dag /
  tr[H H^dag] (the chart and the L-BFGS of :mod:`renyimeat.marginals`):
  sigma -> tr[G(sigma)^a] is convex for a > 1 and concave for a in
  [1/2, 1) (Frank-Lieb), so a stationary point is the optimum.  The value
  at sigma bounds H^up from below, and -H^up_b(A|C) = H^up_a(A|B) on a
  purification (1/a + 1/b = 2) turns a closed-form dual point into a bound
  from above; the solve stops once the two are a hundredth of
  ``UP_GAP_TOL`` apart, at the fixed point already if they are there
  (it looks once a step gains less than that).  On a classical input the
  map sends log sigma to (1-a) log sigma + c, so the fixed point takes
  full steps for a < 1, where that contracts at rate 1 - a, and steps
  damped by 1/2 for a > 1, where the rate a - 1 passes 1 at a = 2.  It
  hands over to the L-BFGS once an accepted step gains more than a
  quarter of the step before it for a < 1 (the rate at a = 3/4: nearer
  1/2, where the optimum can lie on the boundary, the L-BFGS is faster)
  and more than half of it for a > 1 (the damping, which then limits its
  progress, as at very large orders).  One evaluator
  per extremum (:class:`_SigmaEvaluator`) gives value, fixed-point
  update, gradient, Hessian and width, and a sigma point costs one
  ``eigh`` of sigma and one per branch.  The chart programs of
  :mod:`renyimeat.channel_entropy` need sigma accurate to first order too
  (:func:`_conditional_sigma`): there the fixed point hands over early to
  damped Newton steps on the trace-zero directions, with the analytic
  Hessian of :meth:`_SigmaEvaluator.hessian`, which stop once the
  sigma-side Frank-Wolfe gap meets the caller's target as well as the
  width its own; no entropy of a state takes that stage;
- a = 1/2 (every order within ``HALF_WINDOW`` of it, evaluated at exactly
  1/2) runs that L-BFGS from the start, without the fixed point, on the
  chart's root H itself: there s = 1/2, so each branch's Gram matrix
  M_i^dag (id (x) sigma) M_i is linear in sigma = H H^dag / tr[H H^dag],
  and a point costs one ``eigh`` per branch and none of sigma.  Its dual
  order is b = infinity, where H^up_1/2(A|B) = -H_min(A|C), so the bound
  from above is the max-divergence D_max(psi_AC || id (x) tau) at the
  closed-form dual point;
- a = infinity: the max-divergence form min{tr X : id (x) X >= w_i rho_i},
  which by the same duality is the order-1/2 entropy of the complement:
  the branches' purifications, stacked into one purification of the block
  operator, give the single branch of that solve with no new
  eigendecomposition, and sigma is its closed-form dual point
  (:func:`_sup_sigma`), so this order too decomposes no sigma.  No entropy
  of a state builds an SDP;
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

import functools
import math

import numpy as np

from .divergences import (LN2, SUPPORT_TOL, RenyiOrder, as_order,
                          classical_renyi_entropy, sandwiched_divergence)
from .errors import (InvalidRegister, InvalidState, NonConvergence,
                     NotClassical, NotPure, UnsupportedOrder)
from .marginals import _flat, _InputChart, _lbfgs, _square
from .registers import (EIG_CUT, State, bipartite_partial_trace,
                        embed_operator, herm_part, log_sum_exp,
                        support_isometry, tensor_identity)
from . import registers

#: widest duality interval (in bits of entropy) an optimized "up" value may
#: carry; a wider one raises NonConvergence
UP_GAP_TOL = 1e-7

_FP_MAX_ITERS = 20
_FP_VALUE_TOL = 1e-12

#: largest sigma (its dimension) whose solve takes Newton steps: a Hessian
#: costs about one sigma point up to dimension 4, seven at 8 and 48 at 16
#: (a 4 x d state at order 1.5, one thread)
_NEWTON_MAX_DIM = 8
#: gain of a fixed-point step below which a solve with a gap target
#: hands over to the Newton steps
_NEWTON_HANDOVER = 1e-5
_NEWTON_MAX_STEPS = 8


# ----------------------------------------------------------------- utilities

def von_neumann_entropy(mat) -> float:
    """H(rho) = -tr[rho log2 rho] for a (sub)normalized density matrix:
    :func:`alpha_entropy` at order 1 (no normalization)."""
    return alpha_entropy(mat, 1.0)


def alpha_entropy(mat, alpha) -> float:
    """Unconditional Renyi entropy H_a(rho) = (1/(1-a)) log2 tr[rho^a]: the
    classical entropy of rho's spectrum, cut at ``EIG_CUT``."""
    vals = np.clip(np.linalg.eigvalsh(np.asarray(mat, dtype=complex)), 0.0, None)
    keep = vals > EIG_CUT * max(vals[-1], 1e-300)      # ascending
    return classical_renyi_entropy(vals[keep], alpha)


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
    wanted = set(target) | set(conditioning)
    labels = [l for l in state.space.labels if l in wanted]
    if set(labels) != wanted:
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

    The evaluator's points are sigma itself.  A point costs one
    eigendecomposition of sigma (sigma^s, the support test for a > 1 and
    the Daleckii-Krein kernel of the gradient) and one of each Gamma_i; the
    value, the fixed-point update, the gradient, the Hessian and the
    duality interval at that sigma share them.  Measured on one full-rank
    branch at order 2, one thread: a point with its update costs 54, 80
    and 103 us on Q x Q' = 2 x 2, 3 x 4 and 4 x 4, against 76, 104 and
    130 us for the same arithmetic with every spectrum masked, its
    maximum reduced and M_i U_i formed at every point.  ``gap``, when
    given, is the sigma-side Frank-Wolfe gap its solve must reach as well
    (:func:`_optimize_sigma`).  The solve at a = 1/2 (every order within
    ``HALF_WINDOW`` of it, solved at exactly 1/2) runs on a
    :class:`_RootEvaluator` instead, whose points are the chart's roots
    (:func:`_sup_sigma`).

    Eigenvalues of G_i at or below EIG_CUT times its largest count as zero
    (modes at rounding level would add (1e-17)^a to T for a < 1).  Branch
    sums are carried in log2 with a max shift, so that very large orders,
    where w_i = p_i^a underflows, stay representable.  At a = infinity
    the value is max_i log2 p_i + log2 lambda_max(G_i) at s = -1/2, the
    limit of log2 T / a.
    """

    def __init__(self, purifiers, log2_probs, alpha: float,
                 gap: float | None = None):
        self.alpha = alpha
        self.gap = gap
        self.s = -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)
        self.d_qp = purifiers[0].shape[1]
        live = [(M, lp) for M, lp in zip(purifiers, log2_probs)
                if lp != -math.inf]
        self.M = [M for M, _ in live]
        self.log2_probs = [lp for _, lp in live]
        self.traces = [float(np.vdot(M, M).real) for M in self.M]
        self._is_half = as_order(alpha).is_half
        self._last = None

    def point(self, sigma) -> np.ndarray:
        """The point at a density operator sigma."""
        return sigma

    def sigma(self, point) -> np.ndarray:
        """The density operator at a point."""
        return point

    def solve(self, start):
        """(log2_T, point, width) of the extremum from the point
        ``start``: :func:`_optimize_sigma`."""
        return _optimize_sigma(self, start)

    @functools.cached_property
    def _chart(self):
        return _InputChart(np.eye(1), self.d_qp)

    @functools.cached_property
    def _log2_c(self) -> float:
        """log2 sum_i p_i tr rho_i, the normalization of :meth:`width`."""
        return _log2_sum([lp + math.log2(tr)
                          for lp, tr in zip(self.log2_probs, self.traces)])

    def at_root(self, H):
        """(point, log2 T, gradient of log2 T / (a - 1) in H) at the point
        H H^dag / tr[H H^dag] of the chart
        (:class:`renyimeat.marginals._InputChart` without a pin), in the
        convention d phi = 2 Re tr[grad^dag dH]: :meth:`at`'s gradient in
        sigma pulled back through the chart.  The gradient is None where
        :meth:`at`'s is."""
        point, parts = self._chart.point(H)
        log2_T, _, grad = self.at(point, grad=True)
        if grad is not None:
            grad = self._chart.pullback(H, parts, grad)
        return point, log2_T, grad

    def _branches(self, left, t: float = 1.0):
        """Per branch, from phi_i = left M_i (``left`` acting on Q') with
        Gamma_i = phi_i^dag phi_i / t: (log2 p_i, log2 of the top eigenvalue
        of Gamma_i, the kept eigenvalues over it, U_i on the kept modes, M_i
        and phi_i U_i), or None where phi_i vanishes.  M_i U_i is formed
        only where it is used: by the gradient, the Hessian and the
        width."""
        parts = []
        for M, lp in zip(self.M, self.log2_probs):
            phi = left @ M
            flat = phi.reshape(-1, phi.shape[2])
            # eigh reads one triangle, so the Gram matrix needs no
            # symmetrizing; it sorts the spectrum ascending
            mu, U = np.linalg.eigh(flat.conj().T @ flat)
            top = mu[-1]
            if top <= 0.0:
                parts.append(None)
                continue
            if mu[0] > EIG_CUT * top:
                # every mode is kept: U in the layout of U[:, mask], so that
                # the products with it take the same BLAS path
                U, r = np.asfortranarray(U), mu / top
            else:
                mk = mu > EIG_CUT * top
                U, r = U[:, mk], mu[mk] / top
            parts.append((lp, math.log2(top / t), r, U, M, phi @ U))
        return parts

    def _point(self, sigma):
        """Eigen-data of sigma, (lam, V, V^dag, keep, base, sigma^s), and
        the parts of :meth:`_branches` at phi_i = (id (x) sigma^s) M_i; kept
        for the last sigma seen.  ``keep`` masks the eigenvalues above
        EIG_CUT times the largest, and is True when all of them are;
        ``base`` is lam with 1 in the cut places."""
        if self._last is not None and self._last[0] is sigma:
            return self._last[1]
        lam, V = np.linalg.eigh(herm_part(sigma))
        # eigh sorts ascending: lam[-1] is the largest, and the clip to
        # zero changes nothing when lam[0] is positive
        if lam[0] <= 0.0:
            lam = np.maximum(lam, 0.0)
        cut = EIG_CUT * max(lam[-1], 1e-300)
        if lam[0] > cut:
            keep, base, pows = True, lam, lam ** self.s
        else:
            keep = lam > cut
            base = np.where(keep, lam, 1.0)
            pows = np.where(keep, base ** self.s, 0.0)
        Vh = V.conj().T
        sig_s = (V * pows) @ Vh
        point = (lam, V, Vh, keep, base, pows, self._branches(sig_s))
        self._last = (sigma, point)
        return point

    def _parts(self, point):
        return self._point(point)[6]

    def _sums(self, parts, update: bool, grad: bool):
        """(log2 T, update, sum_i 2^-L w_i Tr_Q[M_i Gamma_i^(a-1) Y_i^dag],
        sum_i 2^-L w_i tr[Gamma_i^a]) from the parts of :meth:`_branches`,
        Y_i U_i being their last entry and L the largest log2 w_i
        lambda_max(Gamma_i)^a; the update and that sum are None unless asked
        for, and both are None when the value is not finite."""
        a = self.alpha
        live = [p for p in parts if p is not None]
        if not live:
            return -math.inf, None, None, None
        if math.isinf(a):
            return max(lp + lt for lp, lt, *_ in live), None, None, None
        logs = [a * (lp + lt) for lp, lt, *_ in live]
        L = max(logs)
        # each sum starts from 0 and adds the branches in order
        total = upd = g = 0
        for lg, (_, lt, r, U, M, Y) in zip(logs, live):
            total += 2.0 ** (lg - L) * float((r ** a).sum())
            if update or grad:
                # 2^-L w_i G_i^a = c (phi_i U_i) r_i^(a-1) (phi_i U_i)^dag
                c, ra, Yc = 2.0 ** (lg - L - lt), r ** (a - 1.0), Y.conj()
                if update:
                    upd = upd + c * np.einsum("qak,qbk->ab", Y * ra, Yc)
                if grad:
                    g = g + c * np.einsum("qak,qbk->ab", (M @ U) * ra, Yc)
        return (L + math.log2(total), herm_part(upd) if update else None,
                g if grad else None, total)

    def at(self, point, *, update: bool = False, grad: bool = False):
        """(log2 T, update, gradient) at sigma.  The update is the
        unnormalized fixed-point map sum_i w_i Tr_Q[G_i^a], and the gradient
        the Hermitian gradient of log2 T / (a - 1) = -H in sigma; each is
        None unless asked for, and both are None when the value is not
        finite.

        For a > 1 the value is +inf when sigma misses support that a branch
        needs, by the rule of :mod:`renyimeat.divergences`: more than
        ``SUPPORT_TOL`` of the branch's trace outside supp(sigma).  The
        pseudo-powers would project that weight away and underestimate T
        (overestimating the entropy)."""
        a = self.alpha
        lam, V, Vh, keep, base, pows, parts = self._point(point)
        if a > 1.0 and keep is not True:
            cut = V[:, ~keep].conj().T
            for M, tr in zip(self.M, self.traces):
                if np.linalg.norm(cut @ M) ** 2 \
                        > SUPPORT_TOL * max(tr, 1e-300):
                    return math.inf, None, None
        log2_T, upd, g, total = self._sums(parts, update, grad)
        if g is not None:
            # with W = id (x) sigma^s, d tr[G_i^a] =
            # 2a tr[Tr_Q[rho_i W G_i^(a-1)] d sigma^s], and
            # rho_i W G_i^(a-1) = M_i Gamma_i^(a-1) phi_i^dag
            g = herm_part(g)
            kernel = registers.divided_differences(
                lam, pows, self.s * pows / base,
                np.logical_or.outer(keep, keep))
            g = V @ (kernel * (Vh @ g @ V)) @ Vh
            g *= 2.0 * a / LN2 / (a - 1.0) / total
        return log2_T, upd, g

    def interior(self, point) -> bool:
        """Whether sigma lies inside the cone: every eigenvalue above
        ``EIG_CUT`` times the largest."""
        return self._point(point)[3] is True

    def hessian(self, point):
        """(gradient, Hessian, lift) of phi = log2 T / (a - 1) on the
        trace-zero Hermitian directions at sigma, or None where sigma is
        not of full rank or is larger than ``_NEWTON_MAX_DIM``, or where
        the value or the Hessian is not finite.

        The d^2 - 1 directions B_k are an orthonormal basis of the
        trace-zero Hermitian matrices in sigma's eigenbasis V (off-diagonal
        pairs and generalized Gell-Mann diagonals), and ``lift(c)`` is
        V (sum_k c_k B_k) V^dag.  With p = (1-a)/a, P = sigma^p, Gamma_i =
        M_i^dag (id (x) P) M_i and X = sum_i w_i Tr_Q[M_i Gamma_i^(a-1)
        M_i^dag] on Q':

            dT[E] = a tr[X dP[E]],
            d^2T[E, F] = a tr[dX[F] dP[E]] + a tr[X d^2P[E, F]],

        where dP and d^2P take the first and second divided differences of
        t^p on the eigenvalues of sigma, and tr[dX[F] dP[E]] = sum_i w_i
        tr[dGamma_i[E] dGamma_i^(a-1)[F]], whose dGamma_i^(a-1) takes the
        first divided differences of t^(a-1) on the eigenvalues of Gamma_i
        (Daleckii-Krein).  The Hessian of phi is
        (d^2T / T - dT dT^T / T^2) / ((a - 1) ln 2).  It reuses the
        eigendecompositions of :meth:`at` at this sigma and takes none of
        its own."""
        a = self.alpha
        lam, V, Vh, _, _, _, parts = self._point(point)
        d = len(lam)
        if math.isinf(a) or d > _NEWTON_MAX_DIM or not self.interior(point) \
                or any(part is None for part in parts):
            return None
        logs = [a * (lp + lt) for lp, lt, *_ in parts]
        L = max(logs)
        p = (1.0 - a) / a
        K1, K2 = _power_kernels(lam, p)
        basis = _trace_zero_basis(d)
        n = len(basis)
        D = K1 * basis                              # dP, in sigma's eigenbasis
        total = 0.0
        X = np.zeros((d, d), dtype=complex)
        d2T = np.zeros((n, n))
        for lg, (_, lt, r, U, M, _) in zip(logs, parts):
            # 2^-L w_i Gamma_i^(a-1) = c U r^(a-1) U^dag, and the divided
            # differences of t^(a-1) at Gamma_i are top^(a-2) those at r
            c = 2.0 ** (lg - L - lt)
            total += 2.0 ** (lg - L) * float((r ** a).sum())
            Zh = Vh @ (M @ U)                       # (Q, Q', K), Q' rotated
            X += c * np.einsum("qak,qbk->ab", Zh * r ** (a - 1.0), Zh.conj())
            # dGamma_i[B_n] = Zh^dag (id (x) D_n) Zh, flattened per direction
            F = (Zh.reshape(-1, Zh.shape[2]).conj().T
                 @ (D[:, None] @ Zh).reshape(n, -1, Zh.shape[2]))
            F = F.reshape(n, -1)
            W = _power_kernels(r, a - 1.0, second=False)[0].ravel()
            d2T += (c * 2.0 ** -lt) * ((F.conj() * W) @ F.T).real
        # tr[X d^2P[B_k, B_l]] = S_kl + S_lk with
        # S_kl = sum B_k[j, x] K2[j, x, m] X[m, j] B_l[x, m]
        half = np.einsum("jxm,lxm->ljx", K2 * X.T[:, None, :], basis)
        S = (basis.reshape(n, -1) @ half.reshape(n, -1).T).real
        d2T = a * (d2T + S + S.T)
        dT = a * (D.reshape(n, -1) @ X.T.ravel()).real
        H = (d2T / total - np.outer(dT, dT) / total ** 2) / ((a - 1.0) * LN2)
        if not np.isfinite(H).all():
            return None
        g = dT / (total * (a - 1.0) * LN2)

        def lift(coeffs):
            return V @ np.tensordot(coeffs, basis, axes=1) @ Vh

        return g, H, lift

    def width(self, point, log2_T) -> float:
        """Width of an interval that holds H^up_a(I Q | Q') of the
        normalized block state omega = (+)_i w_i rho_i, w_i proportional to
        p_i, where ``log2_T`` is :meth:`at`'s value at ``point``.

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
        parts = self._parts(point)
        if any(p is None for p in parts):
            return math.inf     # sigma misses a branch entirely
        log2_c = self._log2_c
        logs_z = [a * (lp - log2_c + lt) + math.log2((r ** a).sum())
                  for lp, lt, r, *_ in parts]
        logs_x = [a * (lp - log2_c) + (a - 1.0) * lt
                  for lp, lt, *_ in parts]
        L = max(logs_x)
        X = 0
        for lx, (_, _, r, U, M, _) in zip(logs_x, parts):
            Z = M @ U
            X = X + 2.0 ** (lx - L) * np.einsum(
                "qak,qbk->ab", Z * r ** (a - 1.0), Z.conj())
        xv = np.linalg.eigvalsh(herm_part(X))
        xtop = xv[-1]       # eigvalsh sorts ascending
        log2_norm = L + math.log2(xtop)
        if not self._is_half:
            beta = a / (2.0 * a - 1.0)
            xv = xv[xv > EIG_CUT * xtop] / xtop
            log2_norm += math.log2((xv ** beta).sum()) / beta
        up = _log2_sum(logs_z) + a / (1.0 - a) * log2_norm
        lo = -(log2_T - a * log2_c) / (a - 1.0)
        return max(up - lo, 0.0)

    def dual_point(self, point) -> np.ndarray:
        """The point tau of :meth:`width` at a point for a single branch,
        P^a / tr[P^a] with P = conj(Gamma), on the branch's purifying
        register K."""
        ((_, _, r, U, _, _),) = self._parts(point)
        ra = r ** self.alpha
        return (U.conj() * ra) @ U.T / float(ra.sum())


class _RootEvaluator(_SigmaEvaluator):
    """The objective of one extremum at a = 1/2, on the chart's roots.

    There s = 1/2, so Gamma_i = M_i^dag (id (x) sigma) M_i is linear in
    sigma, and the points are roots H of sigma = H H^dag / t, t =
    tr[H H^dag], the chart of :func:`_root_lbfgs`: with psi_i =
    (id (x) H^dag) M_i, Gamma_i = psi_i^dag psi_i / t, so a point costs one
    eigendecomposition per branch and none of sigma, and the gradient comes
    in H.  Gamma_i is formed from psi_i, not as M_i^dag (id (x) sigma) M_i
    with the gradient Tr_Q[M_i Gamma_i^(-1/2) M_i^dag] in sigma: that is
    exact too, but at rank-deficient optima it multiplies huge entries by
    small ones, while every kept column of psi_i U_i has norm sqrt(mu)
    against r^(-1/2), so each factor of the gradient stays of order one
    (the two-copy solve of ``test_weak_additivity_gap_vanishes`` at
    infinity, in the channel tests, keeps eigenvalues of Gamma down to 1e-6
    of the largest).  The width and the dual point read the same parts as
    at sigma.  Its solve is the L-BFGS alone: the fixed point handed over
    after two or three points here anyway.
    """

    def __init__(self, purifiers, log2_probs):
        super().__init__(purifiers, log2_probs, 0.5)

    def point(self, sigma) -> np.ndarray:
        """The root sigma^(1/2) of a density operator sigma."""
        return registers.herm_power(sigma, 0.5).astype(complex)

    def sigma(self, point) -> np.ndarray:
        """H H^dag / tr[H H^dag] at a root H."""
        return herm_part(point @ point.conj().T) \
            / float(np.vdot(point, point).real)

    def solve(self, start):
        """:func:`_root_lbfgs` from the root ``start``, which has no gap
        target."""
        return _root_lbfgs(self, start)

    def at_root(self, H):
        log2_T, _, grad = self.at(H, grad=True)
        return H, log2_T, grad

    def _root_point(self, H):
        """t = tr[H H^dag] and the parts of :meth:`_branches` at psi_i =
        (id (x) H^dag) M_i, psi_i U_i in the place of phi_i U_i; kept for the
        last H seen."""
        if self._last is not None and self._last[0] is H:
            return self._last[1]
        t = float(np.vdot(H, H).real)
        point = (t, self._branches(H.conj().T, t))
        self._last = (H, point)
        return point

    def _parts(self, point):
        return self._root_point(point)[1]

    def at(self, point, *, grad: bool = False):
        """(log2 T, None, gradient) at a root H, the gradient being that of
        log2 T / (a - 1) in H, in the convention d phi = 2 Re tr[grad^dag
        dH], None unless asked for or when the value is not finite.  There
        is no fixed-point update: the fixed point does not run here."""
        a = self.alpha
        t, parts = self._root_point(point)
        log2_T, _, g, total = self._sums(parts, False, grad)
        if g is not None:
            # d tr[Gamma_i^a] = (2a/t) Re tr[(E_i - tr[Gamma_i^a] H)^dag dH]
            # with E_i = Tr_Q[M_i Gamma_i^(a-1) psi_i^dag], t moving with H
            g = a / (t * LN2 * (a - 1.0)) * (g / total - point)
        return log2_T, None, g


@functools.lru_cache(maxsize=None)
def _trace_zero_basis(d: int) -> np.ndarray:
    """An orthonormal basis of the d x d trace-zero Hermitian matrices,
    shaped (d^2 - 1, d, d): the pairs (E_jl + E_lj) / sqrt2 and
    i (E_jl - E_lj) / sqrt2 for j < l, then the generalized Gell-Mann
    diagonals.  Read-only, as the cache shares it."""
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    k = 0
    for j in range(d):
        for l in range(j + 1, d):
            basis[k, j, l] = basis[k, l, j] = math.sqrt(0.5)
            basis[k + 1, j, l], basis[k + 1, l, j] = \
                1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
            k += 2
    for m in range(1, d):
        norm = 1.0 / math.sqrt(m * (m + 1))
        basis[k, range(m), range(m)] = norm
        basis[k, m, m] = -m * norm
        k += 1
    basis.flags.writeable = False
    return basis


def _power_kernels(x: np.ndarray, p: float, second: bool = True):
    """First and second divided differences of t -> t^p at positive ``x``
    in ascending order (as ``eigh`` returns a spectrum):
    (K1, K2) with K1[j, l] = f[x_j, x_l] and K2[j, l, m] = f[x_j, x_l,
    x_m], K2 None unless ``second``.

    K1 is m^(p-1) expm1(p l) / expm1(l) with m the larger point and
    l = log(min / max) <= 0, accurate to rounding however close the points
    are (and finite for large p).  K2 is (K1[mid, hi] - K1[lo, mid]) /
    (hi - lo) over the sorted triple, or f''(mid) / 2 where the triple
    spans less than 1e-8 of its top, the point where that quotient's
    rounding error and the Taylor error meet.  The sorted index triples
    (lo, mid, hi) of every (j, l, m) depend only on len(x) and are cached
    per dimension (:func:`_sorted_triples`)."""
    big = np.maximum(x[:, None], x[None, :])
    ell = np.log(np.minimum(x[:, None], x[None, :]) / big)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(ell < 0.0, np.expm1(p * ell) / np.expm1(ell), p)
    K1 = big ** (p - 1.0) * ratio
    if not second:
        return K1, None
    lo, mid, hi = _sorted_triples(len(x))
    span = x[hi] - x[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        secant = (K1[mid, hi] - K1[lo, mid]) / span
    taylor = 0.5 * p * (p - 1.0) * x[mid] ** (p - 2.0)
    return K1, np.where(span > 1e-8 * x[hi], secant, taylor)


@functools.lru_cache(maxsize=None)
def _sorted_triples(d: int) -> np.ndarray:
    """np.sort(np.indices((d, d, d)), axis=0): for every index triple
    (j, l, m), its entries in ascending order, shaped (3, d, d, d).
    Read-only, as the cache shares it."""
    triples = np.sort(np.indices((d,) * 3), axis=0)
    triples.flags.writeable = False
    return triples


def _log2_sum(logs) -> float:
    """log2 sum_i 2^logs[i], shifted by the largest term."""
    L = max(logs)
    return L + math.log2(sum(2.0 ** (lg - L) for lg in logs))


def _optimize_sigma(ev: _SigmaEvaluator, sigma0: np.ndarray):
    """Extremize log2 T over sigma (min for a > 1, max for a < 1) from
    ``sigma0``; returns (log2_T, sigma, width), the width being
    :meth:`_SigmaEvaluator.width` at the returned sigma.

    Both regimes minimize the same merit phi = log2 T / (a - 1) = -H.  A
    short fixed point sigma <- (1-theta) sigma + theta normalize(update),
    accepting steps only when phi drops and halving theta until one does,
    runs first.  On a classical input the update sends log sigma to
    (1-a) log sigma + c.  For a < 1, where T is concave in sigma, that
    contracts at rate 1 - a, so the first theta is 1, and the loop hands
    over at a step that gains more than a quarter of the step before it: a
    quarter is the rate at a = 3/4, and below it the L-BFGS is faster.  For
    a > 1 the rate is a - 1, which passes 1 at a = 2 (the undamped map
    overshoots), so the first theta is 1/2, and the loop hands over at a
    step that gains more than half of the step before it: its progress is
    then limited by the damping, not by the map.  It stops at a step that
    gains less than ``_FP_VALUE_TOL``.  Once a step gains less than the
    width target, a hundredth of ``UP_GAP_TOL``, the duality interval at its
    sigma is computed, and the solve returns there if it meets that target.
    Otherwise it warm-starts :func:`_root_lbfgs` from H = sigma^(1/2).

    The evaluator's ``gap`` asks for sigma accurate to first order as
    well: the sigma-side Frank-Wolfe gap tr[g sigma] - lambda_min(g) of
    phi's gradient g at the returned sigma is at most ``gap`` (the chart
    programs of
    :mod:`renyimeat.channel_entropy` need it, since the gradient in their
    outer variable is only as accurate as sigma).  The fixed point then
    hands over as soon as a step gains less than ``_NEWTON_HANDOVER``, and
    :func:`_newton_sigma` takes damped Newton steps to both targets; the
    L-BFGS runs from its last point only where those stop short of them.
    Without ``gap`` the solve is the one above.
    """
    gap = ev.gap
    denom = ev.alpha - 1.0
    tol = 1e-2 * UP_GAP_TOL
    # the first damping and the largest gain ratio kept, by the side of 1
    first, ratio = (1.0, 0.25) if denom < 0.0 else (0.5, 0.5)
    sigma = sigma0.copy()
    v, update, _ = ev.at(sigma, update=True)
    width = None    # the width at sigma, once computed
    last_gain = math.inf
    for _ in range(_FP_MAX_ITERS):
        if update is None:
            break
        tr = float(update.trace().real)
        if tr <= 0.0:
            break
        target = update / tr
        theta = first
        gain = None
        while theta >= 1e-8:
            cand = (1.0 - theta) * sigma + theta * target
            vc, upc, _ = ev.at(cand, update=True)
            if upc is not None and vc / denom < v / denom:
                gain = abs(vc - v) / abs(denom)
                sigma, v, update, width = cand, vc, upc, None
                break
            theta *= 0.5
        if gain is None or gain > ratio * last_gain \
                or (gap is not None and gain < _NEWTON_HANDOVER):
            break
        if gain < tol:
            width = ev.width(sigma, v)
            if width <= tol or gain < _FP_VALUE_TOL:
                break
        last_gain = gain
    if gap is not None:
        v, sigma, width = _newton_sigma(ev, sigma, gap, tol)
    elif width is None:
        width = ev.width(sigma, v)
    if width is not None and width <= tol:
        return v, sigma, width
    return _root_lbfgs(
        ev, registers.herm_power(sigma, 0.5).astype(complex))


def _frank_wolfe_gap(grad: np.ndarray, sigma: np.ndarray) -> float:
    """tr[grad sigma] - lambda_min(grad): the first-order gap of a density
    operator sigma for a merit of Hermitian gradient ``grad``."""
    return float(np.vdot(grad, sigma).real
                 - np.linalg.eigvalsh(grad)[0])     # ascending


def _newton_sigma(ev: _SigmaEvaluator, sigma: np.ndarray, gap: float,
                  tol: float):
    """Damped Newton steps on phi = log2 T / (a - 1) over the density
    operators from ``sigma``, on the trace-zero directions of
    :meth:`_SigmaEvaluator.hessian`.

    Returns (log2_T, sigma, width) once the sigma-side Frank-Wolfe gap is
    at most ``gap`` and the width at most ``tol``, and (log2_T, sigma,
    None) at the last accepted point where it stops short: where the
    Hessian is missing (sigma of rank below full, or larger than
    ``_NEWTON_MAX_DIM``) or not positive definite, where no step of the
    line search decreases phi, or after ``_NEWTON_MAX_STEPS`` steps.
    The line search halves the step until phi shows an Armijo decrease at
    a sigma of full rank, or, once the decrease is below phi's rounding,
    until phi stays within rounding and the gap shrinks."""
    denom = ev.alpha - 1.0
    v, _, g = ev.at(sigma, grad=True)
    if g is None:
        return v, sigma, None
    fw = _frank_wolfe_gap(g, sigma)
    for _ in range(_NEWTON_MAX_STEPS):
        if fw <= gap:
            width = ev.width(sigma, v)
            if width <= tol:
                return v, sigma, width
        hess = ev.hessian(sigma)
        if hess is None:
            break
        grad, H, lift = hess
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            break
        coeffs = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        step, slope = lift(coeffs), float(grad @ coeffs)
        phi = v / denom
        # phi carries rounding of about 1e-14 relative; below a band over
        # that, only the gap can show progress
        band = 1e-12 * max(1.0, abs(phi))
        t = 1.0
        while t >= 1e-8:
            cand = sigma + t * step
            vc, _, gc = ev.at(cand, grad=True)
            if gc is not None and ev.interior(cand):
                if vc / denom <= phi + 1e-4 * t * slope:
                    fw_c = _frank_wolfe_gap(gc, cand)
                    break
                if -slope <= band and vc / denom <= phi + band:
                    fw_c = _frank_wolfe_gap(gc, cand)
                    if fw_c < fw:
                        break
            t *= 0.5
        else:
            break
        sigma, v, fw = cand, vc, fw_c
    return v, sigma, None


def _root_lbfgs(ev: _SigmaEvaluator, root: np.ndarray):
    """L-BFGS for an extremum over sigma on the chart sigma(H) = H H^dag /
    tr[H H^dag] of the density operators, from H = ``root``, with the
    evaluator's value and gradient in H (:meth:`_SigmaEvaluator.at_root`);
    returns (log2_T, point, width) at the accepted point of least width
    (:func:`_lbfgs`).  Stops once the duality interval meets a hundredth
    of ``UP_GAP_TOL``, when the line search finds no decrease, or after
    ``_LBFGS_MAX_ITERS`` steps."""
    denom = ev.alpha - 1.0

    def fg(x):
        """phi at sigma(H), its gradient in H, and (point, log2_T, width)."""
        point, log2_T, grad = ev.at_root(_square(x))
        if grad is None:
            return math.inf, None, None
        return (log2_T / denom, 2.0 * _flat(grad),
                (point, log2_T, ev.width(point, log2_T)))

    _, (point, log2_T, width) = _lbfgs(fg, _flat(root), 1e-2 * UP_GAP_TOL)
    return log2_T, point, width


def _purifiers(branches, d_q: int):
    """Each density operator rho on Q Q' (Q legs first) as its purification
    M = V Lambda^(1/2) on its kept eigenvectors, shaped (Q, Q', K); the
    eigenvalues at or below EIG_CUT times the largest are cut."""
    out = []
    for rho in branches:
        vals, vecs = np.linalg.eigh(rho)
        keep = vals > EIG_CUT * max(vals[-1], 1e-300)  # ascending
        out.append((vecs[:, keep] * np.sqrt(vals[keep]))
                   .reshape(d_q, rho.shape[0] // d_q, -1))
    return out


def _sup_sigma(purifiers, log2_probs, alpha):
    """Extremized log2 T of one public outcome, from one warm start;
    returns (log2_T, sigma, width), with log2_T at a = infinity its limit
    log2 T / a.

    At finite orders the evaluator's solve (:func:`_optimize_sigma`: fixed
    point, then L-BFGS on the chart of the density operators; at a = 1/2
    :func:`_root_lbfgs` alone, on the chart's root, through
    :class:`_RootEvaluator`) runs from the normalized mean of the branch
    marginals and returns the duality interval at its sigma, in entropy
    units of the normalized block state; at a = 1/2 that interval closes
    on the max-divergence of the dual order b = infinity
    (:meth:`_SigmaEvaluator.width`).  ``log2_probs`` are per-branch log2
    weights *before* raising to the power alpha; the solve sees
    alpha * log2_probs.

    At a = infinity the extremum is min{tr X : id_Q (x) X >= w_i M_i
    M_i^dag for every i} = tr Omega 2^(-H_min(I Q | Q')) of the block
    operator Omega = (+)_i w_i M_i M_i^dag, I the branch index.  The
    sqrt(w_i) M_i stacked on (I Q, Q', (+)_i K_i) purify Omega, so by
    duality it is tr Omega 2^(H^up_1/2(I Q | K)), and that array with its
    Q' and K axes swapped is the one branch of the 1/2 solve, started from
    its diagonal K-marginal (+)_i w_i Lambda_i, whose root is read off the
    diagonal.  The sigma returned, on Q',
    is that solve's closed-form dual point, the optimal X / tr X, and the
    value is log2 tr X at it: the upper end of the 1/2 solve's interval, so
    that, as at every order, the entropy is the objective at the returned
    sigma and the lower end of its interval.
    """
    if not math.isinf(alpha):
        ev = _RootEvaluator(purifiers, log2_probs) \
            if as_order(alpha).is_half \
            else _SigmaEvaluator(purifiers, log2_probs, alpha)
        mean = sum(np.einsum("qak,qbk->ab", M, M.conj()) for M in ev.M)
        log2_T, point, width = ev.solve(ev.point(
            mean / max(float(mean.trace().real), 1e-300)))
        return log2_T, ev.sigma(point), width
    shift = max(log2_probs)
    d_q, d_qp = purifiers[0].shape[:2]
    ks = np.cumsum([0] + [M.shape[2] for M in purifiers])
    block = np.zeros((len(purifiers) * d_q, ks[-1], d_qp), dtype=complex)
    for i, (M, lp) in enumerate(zip(purifiers, log2_probs)):
        block[i * d_q:(i + 1) * d_q, ks[i]:ks[i + 1]] = \
            2.0 ** (0.5 * (lp - shift)) * M.transpose(0, 2, 1)
    ev = _RootEvaluator([block], [0.0])
    k_marginal = np.sum(np.abs(block) ** 2, axis=(0, 2))
    # the start's root, read off its diagonal
    log2_T, root, width = ev.solve(
        np.diag(np.sqrt(k_marginal / np.sum(k_marginal))).astype(complex))
    return shift + 2.0 * log2_T + width, ev.dual_point(root), width


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

    ``rho`` is classical on the classical registers (:func:`_two_sided_split`
    checks that), so its branches are read without a second check.
    Returns (value, width, {cp: sigma on Q'}).
    """
    d_q = math.prod(rho.space.dims_of(q_labels))
    # {cp: [(cs, joint weight, rho_QQ' with Q legs first), ...]}
    groups: dict = {}
    legs = list(q_labels) + list(qp_labels)
    n_cp = len(classical_cond)
    for outcome, w, branch in rho._branches(classical_cond + classical_target):
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
        W = tensor_identity(V, d_q, first=True)
        Wh = W.conj().T
        pur = _purifiers([herm_part(Wh @ m @ W) for m in branches], d_q)
        if variant == "down" or V.shape[1] == 1:
            # sigma pinned to the conditional marginal of this group; its
            # support covers every branch, so the pseudo-powers lose nothing
            sig = sum(w / p_outer * (V.conj().T @ m @ V)
                      for (_, w, _), m in zip(entries, margs))
            sig = herm_part(sig) / float(sig.trace().real)
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
    classical registers, the route of the sigma solve: a short fixed point
    warm-starts L-BFGS on the chart of the density operators
    (:func:`_optimize_sigma`).  At a = 1/2 and at a = infinity, which runs
    the order-1/2 solve on the complement (:func:`_sup_sigma`), that route
    starts on the chart, on its root, and decomposes no sigma.  A
    conditioning marginal of rank one pins sigma, and that closed form runs
    under the same name.  Raises :class:`NonConvergence` when the width
    exceeds ``UP_GAP_TOL``.
    """
    a = as_order(alpha)
    rho = _marginal_pair(state, target, conditioning)
    target = list(target)
    rest = [l for l in rho.space.labels if l not in target]
    cond_dim = math.prod(rho.space.dims_of(rest))

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


def _conditional_sigma(omega: np.ndarray, d_t: int, alpha: RenyiOrder,
                       gap: float, start: np.ndarray | None = None):
    """The optimal sigma of H^up_a(T|Z) on a Hermitian ``omega`` on T Z of
    unit trace, T of dimension ``d_t``, at a finite order a other than 1:
    the sigma of :func:`cond_entropy_up` there, solved to first order as
    well, to a sigma-side gap of at most ``gap`` (:func:`_optimize_sigma`),
    for the gradients of the chart programs.

    sigma lives on the support of omega_Z, as in :func:`_two_sided_mix`,
    and its solve starts from omega_Z or, given ``start`` (a density
    operator on Z, such as the sigma of a nearby omega), from start +
    1e-6 omega_Z cut to that support: the small share of omega_Z keeps the
    start of full rank there when the support has moved.  Raises
    :class:`NonConvergence` where the width exceeds ``UP_GAP_TOL``."""
    d_z = omega.shape[0] // d_t
    omega_z = bipartite_partial_trace(omega, d_t, d_z, 1)
    V = support_isometry(omega_z)
    if V.shape[1] == 1:
        return V @ V.conj().T
    W = tensor_identity(V, d_t, first=True)
    ev = _SigmaEvaluator(_purifiers([herm_part(W.conj().T @ omega @ W)],
                                    d_t), [0.0], alpha.value, gap)
    if start is not None:
        omega_z = start + 1e-6 * omega_z
    sigma0 = herm_part(V.conj().T @ omega_z @ V)
    _, sigma, width = ev.solve(sigma0 / float(np.trace(sigma0).real))
    if not width <= UP_GAP_TOL:
        raise NonConvergence("duality interval exceeds the certification "
                             f"threshold ({width:.2e})", gap=width)
    return V @ sigma @ V.conj().T


# ------------------------------------------------------------------- duality

def check_duality(state: State, alpha, *, target: str = "A",
                  left: str = "B", right: str = "C"):
    """For pure rho on (target, left, right): H^up_a(A|B) + H^up_b(A|C) = 0
    with 1/a + 1/b = 2.  Returns (lhs, rhs, residual)."""
    a = as_order(alpha)
    if a.below_half:
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
    (:func:`_sup_sigma`); a = 1 is the spectral von Neumann value of
    :func:`cond_entropy_up`.
    """
    a = as_order(alpha)
    rho, q_labels, qp_labels, classical_target, classical_cond = \
        _two_sided_split(state, target, conditioning, classical_target,
                         classical_cond)
    if a.near_one:
        return cond_entropy_up(rho, target, conditioning, 1.0)
    return _two_sided_mix(rho, q_labels, qp_labels, classical_target,
                          classical_cond, a, _no_tilt, variant="up")[0]
