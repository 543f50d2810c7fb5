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

- generic orders: a short damped fixed point of the first-order condition
  sigma <- normalize(Tr_A[G^a]) with G(sigma) = (id (x) sigma^s) rho
  (id (x) sigma^s), s = (1-a)/(2a), started at the mean of the
  conditioning marginals, then L-BFGS on the chart sigma(H) = H H^dag /
  tr[H H^dag] (the chart and the L-BFGS of :mod:`renyimeat.marginals`):
  sigma -> tr[G(sigma)^a] is convex for a > 1 and concave for a in
  [1/2, 1) (Frank-Lieb), so a stationary point is the optimum.  The value
  at sigma bounds H^up from below, and -H^up_b(A|C) = H^up_a(A|B) on a
  purification (1/a + 1/b = 2) turns a closed-form dual point into a bound
  from above; the L-BFGS stops once the two are a hundredth of
  ``UP_GAP_TOL`` apart;
- a = 1/2 and a = infinity: the root-fidelity and the max-divergence
  covering programs of :mod:`renyimeat.marginals`, with each branch
  operator entering as the image t -> t M_i of the one-point set; their
  duality gaps give the width;
- a conditioning support of rank one, or the "down" variant: sigma is
  pinned and the value is a closed form.

A width above ``UP_GAP_TOL`` raises :class:`NonConvergence`.  a = 1 is
spectral.  Branch sums are carried in log space so that extreme weights
(or very large finite orders) stay finite.

Very large finite orders run the same solve.  On
``random_density(space(("A", 2), ("B", 3)), seed=s)`` for s = 4 and 5,
H^up certifies at a = 1e3, 1e4 and 1e5 with widths below 1e-9, and
a = infinity, one covering program, certifies at every size.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .divergences import LN2, RenyiOrder, as_order, sandwiched_divergence
from .errors import (InvalidRegister, InvalidState, NonConvergence,
                     NotClassical, NotPure, UnsupportedOrder)
from .marginals import (_covering_program, _fidelity_program, _flat,
                        _InputChart, _lbfgs, _MarginalSet, _square)
from .registers import EIG_CUT, State, embed_operator, support_isometry
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
    return float(logsumexp(av * np.log(vals)) / LN2 / (1.0 - av))


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
        return float(-logsumexp(np.log(probs) - values * LN2) / LN2)
    av = a.value
    if variant == "up":
        coeff, pref = (1.0 - av) / av, av / (1.0 - av)
    else:
        coeff, pref = 1.0 - av, 1.0 / (1.0 - av)
    return float(pref * logsumexp(np.log(probs) + coeff * values * LN2) / LN2)


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

def _branch_eigs(rho: np.ndarray, d_q: int, sigma: np.ndarray, s: float):
    """Eigen-data of G = (id_Q (x) sigma^s) rho (id_Q (x) sigma^s)."""
    W = np.kron(np.eye(d_q), registers.herm_power(sigma, s))
    G = W @ rho @ W
    G = 0.5 * (G + G.conj().T)
    vals, vecs = np.linalg.eigh(G)
    return np.clip(vals, 0.0, None), vecs


def _log2_T_and_update(branches, log2_weights, d_q: int, sigma: np.ndarray,
                       alpha: float, want_update: bool):
    """log2 of T(sigma) = sum_i w_i tr[G_i(sigma)^a], and the (unnormalized)
    fixed-point update sum_i w_i Tr_Q[G_i^a], in branch-scaled arithmetic.

    Weights enter as log2(w_i) so that very large orders (where
    w_i = p_i^a underflows) stay representable.
    """
    s = (1.0 - alpha) / (2.0 * alpha)
    d_qp = sigma.shape[0]
    logs = []
    mats = []
    for rho, lw in zip(branches, log2_weights):
        vals, vecs = _branch_eigs(rho, d_q, sigma, s)
        top = vals.max(initial=0.0)
        if top <= 0.0 or lw == -math.inf:
            continue
        # modes at rounding level would add (1e-17)^a to T for a < 1
        keep = vals > EIG_CUT * top
        scaled = (vals[keep] / top) ** alpha
        N = (vecs[:, keep] * scaled) @ vecs[:, keep].conj().T
        logs.append(alpha * np.log2(top) + lw)
        mats.append(N)
    if not logs:
        return -math.inf, None
    logs = np.array(logs)
    L = logs.max()
    traces = np.array([float(np.real(np.trace(N))) for N in mats])
    total = float(np.dot(2.0 ** (logs - L), traces))
    log2_T = L + np.log2(total)
    if not want_update:
        return log2_T, None
    acc = np.zeros((d_qp, d_qp), dtype=complex)
    for lg, N in zip(logs, mats):
        red = State(N, registers.space(("q", d_q), ("p", d_qp)),
                    check=False).partial_trace(keep=["p"]).matrix
        acc += (2.0 ** (lg - L)) * red
    acc = 0.5 * (acc + acc.conj().T)
    return log2_T, acc


def _evaluate_log2_T(branches, log2_weights, d_q, sigma, alpha) -> float:
    """Sound evaluation of log2 T at a given sigma.

    For a > 1 the objective is +inf whenever sigma misses support that some
    branch needs; the pseudo-powers inside the trace would silently project
    that weight away and *under*estimate T (overestimating the entropy), so
    the support violation is detected explicitly first.
    """
    if alpha > 1.0:
        vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
        cut = vecs[:, vals <= EIG_CUT * max(vals.max(initial=0.0), 1e-300)]
        if cut.shape[1] > 0:
            proj = np.kron(np.eye(d_q), cut @ cut.conj().T)
            for rho, lw in zip(branches, log2_weights):
                if lw == -math.inf:
                    continue
                outside = float(np.real(np.trace(rho @ proj)))
                if outside > 1e-10 * max(float(np.real(np.trace(rho))), 1e-300):
                    return math.inf
    val, _ = _log2_T_and_update(branches, log2_weights, d_q, sigma, alpha, False)
    return val


def _grad_neg_entropy(branches, log2_weights, d_q, sigma, alpha):
    """Gradient of phi(sigma) = log2 T(sigma) / (a - 1) = -H(sigma).

    Same branch-scaled arithmetic as :func:`_log2_T_and_update`; the
    d(x^s) Frechet derivative is self-adjoint under the trace pairing, which
    turns the directional derivative into an explicit Hermitian gradient.
    """
    s = (1.0 - alpha) / (2.0 * alpha)
    d_sig_s = registers._power_frechet_map(sigma, s)
    lam, V = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    lam = np.clip(lam, 0.0, None)
    keep = lam > EIG_CUT * max(lam.max(initial=0.0), 1e-300)
    pows = np.where(keep, np.power(np.where(keep, lam, 1.0), s), 0.0)
    Sig_s = (V * pows) @ V.conj().T
    W = np.kron(np.eye(d_q), Sig_s)
    d_qp = sigma.shape[0]
    marg_space = registers.space(("q", d_q), ("p", d_qp))
    logs_T, traces = [], []
    logs_K, Ks = [], []
    for rho, lw in zip(branches, log2_weights):
        if lw == -math.inf:
            continue
        G = W @ rho @ W
        G = 0.5 * (G + G.conj().T)
        gvals, gvecs = np.linalg.eigh(G)
        gvals = np.clip(gvals, 0.0, None)
        gtop = gvals.max(initial=0.0)
        if gtop <= 0.0:
            continue
        ratio = gvals / gtop
        # pseudo-power: modes cut from the evaluation contribute nothing
        gkeep = ratio > EIG_CUT
        Na = np.sum(ratio[gkeep] ** alpha)
        rpow = np.zeros_like(ratio)
        rpow[gkeep] = ratio[gkeep] ** (alpha - 1.0)
        Gm1 = (gvecs * rpow) @ gvecs.conj().T
        K = State(rho @ W @ Gm1, marg_space, check=False) \
            .partial_trace(keep=["p"]).matrix
        logs_T.append(alpha * np.log2(gtop) + lw)
        traces.append(float(np.real(Na)))
        logs_K.append((alpha - 1.0) * np.log2(gtop) + lw)
        Ks.append(0.5 * (K + K.conj().T))
    if not logs_T:
        return None
    L = max(logs_T)
    denom = float(np.dot(2.0 ** (np.array(logs_T) - L), traces))
    acc = np.zeros((d_qp, d_qp), dtype=complex)
    for lk, K in zip(logs_K, Ks):
        acc += (2.0 ** (lk - L)) * K
    grad_f = (2.0 * alpha / LN2) * d_sig_s(acc) / denom
    return grad_f / (alpha - 1.0)


def _neg_entropy_at(branches, log2_weights, d_q, sigma, alpha) -> float:
    v = _evaluate_log2_T(branches, log2_weights, d_q, sigma, alpha)
    return v / (alpha - 1.0) if np.isfinite(v) else math.inf


def _optimize_sigma(branches, log2_weights, d_q: int, d_qp: int, alpha: float,
                    sigma0: np.ndarray):
    """Extremize log2 T over sigma (min for a > 1, max for a < 1); returns
    (log2_T, sigma).

    Both regimes minimize the same merit phi = log2 T / (a - 1) = -H.  A
    short damped fixed point sigma <- (1-theta) sigma + theta
    normalize(update) (the undamped map overshoots for a > 1), accepting
    steps only when phi drops, warm-starts L-BFGS on the chart
    sigma(H) = H H^dag / tr[H H^dag] of the density operators
    (:class:`renyimeat.marginals._InputChart` without a pin) from
    H = sigma^(1/2), with the gradient of :func:`_grad_neg_entropy` pulled
    back through the chart.  The run stops once the duality interval of
    :func:`_duality_gap` is a hundredth of ``UP_GAP_TOL``, or when the line
    search finds no decrease.
    """
    denom = alpha - 1.0
    sigma = sigma0.copy()
    v, update = _log2_T_and_update(branches, log2_weights, d_q, sigma, alpha,
                                   True)
    for _ in range(_FP_MAX_ITERS):
        if update is None or not np.isfinite(v):
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
            vc, upc = _log2_T_and_update(branches, log2_weights, d_q, cand,
                                         alpha, True)
            if upc is not None and np.isfinite(vc) and vc / denom < v / denom:
                moved = abs(vc - v) / abs(denom)
                sigma, v, update = cand, vc, upc
                accepted = True
                break
            theta *= 0.5
        if not accepted or moved < _FP_VALUE_TOL:
            break
    log2_probs = [lw / alpha for lw in log2_weights]
    chart = _InputChart(np.eye(1), d_qp)

    def fg(x):
        """phi at sigma(H), its gradient in H, and (sigma, log2_T)."""
        H = _square(x)
        sig, parts = chart.point(H)
        phi = _neg_entropy_at(branches, log2_weights, d_q, sig, alpha)
        grad = _grad_neg_entropy(branches, log2_weights, d_q, sig, alpha) \
            if np.isfinite(phi) else None
        if grad is None:
            return math.inf, None, None
        return phi, 2.0 * _flat(chart.pullback(H, parts, grad)), \
            (sig, phi * denom)

    def done(data) -> bool:
        return _duality_gap(branches, log2_probs, d_q, data[0], alpha,
                            data[1]) <= 1e-2 * UP_GAP_TOL

    _, _, (sigma, log2_T) = _lbfgs(
        fg, _flat(registers.herm_power(sigma, 0.5).astype(complex)), done,
        smooth=True)
    return log2_T, sigma


def _duality_gap(branches, log2_probs, d_q, sigma, alpha, log2_T) -> float:
    """Width of an interval that holds H^up_a(I Q | Q') of the normalized
    block state omega = (+)_i w_i rho_i, w_i proportional to
    2^log2_probs[i], where ``log2_T`` is the solver's value at ``sigma``.

    The lower end is that value, -D_a(omega || id (x) sigma).  The upper
    end is dual: H^up_a(A|B) = -H^up_b(A|C) on a purification psi_ABC with
    1/a + 1/b = 2, so D_b(psi_AC || id (x) tau) is an upper bound for every
    density tau on C.  With M_i = V_i Lambda_i^(1/2) purifying rho_i,
    phi_i = (id_Q (x) sigma^s) M_i and P_i = phi_i^T conj(phi_i), the point
    tau = (+)_i (w_i P_i)^a / z closes the interval at the optimal sigma.
    By the Gram identity tr[(Y Y^dag)^b] = tr[(Y^dag Y)^b] the bound is
    log2 z + (a/(1-a)) log2 ||X||_b with X = sum_i w_i^a N_i^dag
    (id_Q (x) P_i^(a-1)) N_i on Q', N_i being M_i reshaped to (Q K_i) x Q',
    so no matrix exceeds one branch.  Spectra are cut at EIG_CUT like the
    objective; cutting X lowers ||X||_b, which raises the upper end for
    a > 1 and moves it by less than EIG_CUT^b for a < 1.
    """
    s = (1.0 - alpha) / (2.0 * alpha)
    beta = alpha / (2.0 * alpha - 1.0)
    d_qp = sigma.shape[0]
    sig_s = registers.herm_power(sigma, s)
    log2_c = float(logsumexp([lp * LN2 + math.log(np.real(np.trace(rho)))
                              for rho, lp in zip(branches, log2_probs)]) / LN2)
    logs_z, logs_x, xs = [], [], []
    for rho, lp in zip(branches, log2_probs):
        lw = lp - log2_c
        vals, vecs = np.linalg.eigh(rho)
        keep = vals > EIG_CUT * max(vals.max(initial=0.0), 1e-300)
        M = (vecs[:, keep] * np.sqrt(vals[keep])).reshape(d_q, d_qp, -1)
        phi = np.einsum("ab,qbk->qak", sig_s, M).reshape(d_q * d_qp, -1)
        mu, U = np.linalg.eigh(registers.herm_part(phi.T @ phi.conj()))
        top = mu.max(initial=0.0)
        if top <= 0.0:
            return math.inf     # sigma misses this branch entirely
        mk = mu > EIG_CUT * top
        ratio = mu[mk] / top
        logs_z.append(alpha * (lw + math.log2(top))
                      + math.log2(np.sum(ratio ** alpha)))
        T = (U[:, mk] * ratio ** (alpha - 1.0)) @ U[:, mk].conj().T
        xs.append(np.einsum("qak,kl,qbl->ab", M.conj(), T, M))
        logs_x.append(alpha * lw + (alpha - 1.0) * math.log2(top))
    log2_z = float(logsumexp(np.array(logs_z) * LN2) / LN2)
    L = max(logs_x)
    X = sum(2.0 ** (lx - L) * x for lx, x in zip(logs_x, xs))
    xv = np.linalg.eigvalsh(registers.herm_part(X))
    xtop = xv.max()
    xv = xv[xv > EIG_CUT * xtop] / xtop
    log2_norm = L + math.log2(xtop) + math.log2(np.sum(xv ** beta)) / beta
    up = log2_z + alpha / (1.0 - alpha) * log2_norm
    lo = -(log2_T - alpha * log2_c) / (alpha - 1.0)
    return max(up - lo, 0.0)


def _branch_programs(mats, d_q: int, d_b: int):
    """Fixed branch operators M_i on Q Q' in the terms of the SDP builders
    of :mod:`renyimeat.marginals`: the one-point set {1} (a 1 x 1 block t
    pinned to tr t = 1), the maps t -> t M_i, the map X -> 1_Q (x) X, and
    the density operators on Q'."""
    eye_q = np.eye(d_q)
    return (_MarginalSet(registers.space(("_", 1)), None),
            [lambda t, m=m: t[0, 0] * m for m in mats],
            lambda X: np.kron(eye_q, X),
            _MarginalSet(registers.space(("_", d_b)), None))


def _sup_sigma(branches, log2_probs, d_q, d_qp, alpha):
    """Extremized log2 T from one warm start; returns (log2_T, sigma, gap).

    ``gap`` is the width of an interval holding the optimum, in entropy
    units of the normalized block state.  At a = 1/2, T(sigma) is
    sum_i w_i F(rho_i, id (x) sigma) with w_i = p_i^(1/2) and F the root
    fidelity, and :func:`_fidelity_program` solves it: the optimum lies
    below T_sdp + (duality gap), so the width is 2 log2((T_sdp + gap) / T)
    for the larger T of the program and the spectral evaluation at its
    sigma.  Otherwise :func:`_optimize_sigma` (fixed point, then L-BFGS on
    the chart of the density operators) runs from the normalized mean of
    the branch marginals, and the width is the duality interval of
    :func:`_duality_gap` at the sigma it returns.
    ``log2_probs`` are per-branch log2 weights *before* raising to the
    power alpha; the solve sees alpha * log2_probs.
    """
    if as_order(alpha).is_half:
        weights = [2.0 ** (0.5 * lp) for lp in log2_probs]
        log2_T, width, _, sigma = _fidelity_program(
            *_branch_programs(branches, d_q, d_qp), weights)
        upper = log2_T + width
        # the spectral evaluation at the optimizer is an equally valid lower
        # bound on the sup; keep whichever is larger
        direct = _evaluate_log2_T(branches, [0.5 * lp for lp in log2_probs],
                                  d_q, sigma, 0.5)
        if np.isfinite(direct):
            log2_T = max(log2_T, direct)
        return log2_T, sigma, max(2.0 * (upper - log2_T), 0.0)

    marg_space = registers.space(("q", d_q), ("p", d_qp))
    mean = sum(State(r, marg_space, check=False).partial_trace(keep=["p"])
               .matrix for r in branches)
    sigma = mean / max(float(np.real(np.trace(mean))), 1e-300)
    log2_T, sigma = _optimize_sigma(branches,
                                    [alpha * lp for lp in log2_probs],
                                    d_q, d_qp, alpha, sigma)
    return log2_T, sigma, _duality_gap(branches, log2_probs, d_q, sigma,
                                       alpha, log2_T)


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
    by :func:`_sup_sigma` at finite orders and by the covering program
    :func:`_covering_program` at a = infinity (the max-divergence form
    -log2 sum_cp p(cp) min{tr X : id (x) X >= p(cs|cp) 2^tilt rho_cs,cp}).
    The value is a quasi-arithmetic mean of the per-outcome entropies, so it
    moves by at most the widest per-outcome interval; a width above
    ``UP_GAP_TOL`` raises :class:`NonConvergence`.
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
        marg_space = registers.space(("q", d_q),
                                     ("p", branches[0].shape[0] // d_q))
        margs = [State(m, marg_space, check=False).partial_trace(keep=["p"])
                 .matrix for m in branches]
        V = support_isometry(sum(margs))
        W = np.kron(np.eye(d_q), V)
        red = [registers.herm_part(W.conj().T @ m @ W) for m in branches]
        r = V.shape[1]
        width = 0.0
        if variant == "down" or r == 1:
            # sigma pinned to the conditional marginal of this group; its
            # support covers every branch, so the pseudo-powers lose nothing
            sig = sum(w / p_outer * (V.conj().T @ m @ V)
                      for (_, w, _), m in zip(entries, margs))
            sig = registers.herm_part(sig) / float(np.real(np.trace(sig)))
            if a.is_infinite:
                log2_t = max(lw + math.log2(_branch_eigs(m, d_q, sig, -0.5)
                                            [0].max())
                             for m, lw in zip(red, log2_p))
            else:
                log2_t = _log2_T_and_update(
                    red, [a.value * lp for lp in log2_p], d_q, sig, a.value,
                    False)[0] / a.value
        elif a.is_infinite:
            log2_t, width, _, sig = _covering_program(*_branch_programs(
                [2.0 ** lw * m for m, lw in zip(red, log2_p)], d_q, r))
        else:
            log2_T, sig, width = _sup_sigma(red, log2_p, d_q, r, a.value)
            log2_t = log2_T / a.value
        widths.append(width)
        sigmas[outer] = V @ sig @ V.conj().T
        outer_logs.append(math.log2(p_outer) + log2_t)
    L = max(outer_logs)
    total = L + math.log2(sum(2.0 ** (lg - L) for lg in outer_logs))
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
    every other order is :func:`_two_sided_mix` without classical registers,
    whose inner program is "sdp-fidelity" at a = 1/2, "sdp" (the covering
    program) at a = infinity and "fixed-point" otherwise, where a short
    fixed point warm-starts L-BFGS on the chart of the density operators
    (:func:`_optimize_sigma`); a conditioning marginal of rank one pins
    sigma, and that closed form runs under the same names.  Raises
    :class:`NonConvergence` when the width exceeds ``UP_GAP_TOL``.
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
        method = "sdp" if a.is_infinite else \
            "sdp-fidelity" if a.is_half else "fixed-point"
        info = {"sigma": sigmas[()], "gap": gap, "method": method}
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
    a = infinity is its limit, one max-divergence covering program per
    conditioning outcome; a = 1 coincides with the von Neumann value.
    """
    a = as_order(alpha)
    rho, q_labels, qp_labels, classical_target, classical_cond = \
        _two_sided_split(state, target, conditioning, classical_target,
                         classical_cond)
    if a.near_one:
        return cond_entropy_down(rho, target, conditioning, 1.0)
    return _two_sided_mix(rho, q_labels, qp_labels, classical_target,
                          classical_cond, a, _no_tilt, variant="up")[0]
