"""Conditional Renyi entropies H_a and H^up_a, duality, classical mixing.

Conventions: for a normalized rho on registers A (target) and B (conditioning),

    H_a(A|B)     = -D_a(rho_AB || id_A (x) rho_B)            ("down")
    H^up_a(A|B)  = sup_sigma -D_a(rho_AB || id_A (x) sigma_B) ("up")

with D_a the base-2 sandwiched divergence.  The "up" optimizer iterates the
first-order condition sigma <- normalize(Tr_A[G(sigma)^a]) with
G(sigma) = (id (x) sigma^s) rho (id (x) sigma^s), s = (1-a)/(2a), falling back
to projected gradient on the density-matrix simplex when the iteration does
not settle, and certifies the result against random restarts.  a = infinity
is an exact semidefinite program, a = 1 is evaluated spectrally.

All branch sums are carried in log space so that mixtures with extreme
weights (or the very large orders used to approach a = infinity) stay finite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .divergences import LN2, RenyiOrder, as_order, sandwiched_divergence
from .errors import (InvalidRegister, InvalidState, NonConvergence,
                     NotClassical, NotPure, UnsupportedOrder)
from .parallel import run_batch
from .registers import EIG_CUT, State, embed_operator
from .sampling import random_density, rng_from
from .sdp import SdpProblem, embed_adjoint, hermitian_basis, solve_sdp
from . import registers

#: certified restart spread above which the "up" optimizer reports failure
UP_GAP_TOL = 1e-7

_FP_MAX_ITERS = 1000
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


def _support_isometry(mat: np.ndarray) -> np.ndarray:
    """Columns span supp(mat); shape (d, rank)."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    top = vals.max(initial=0.0)
    keep = vals > EIG_CUT * max(top, 1e-300)
    return vecs[:, keep]


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

    Weights enter as log2(w_i) so that the extreme orders used to approach
    a = infinity (where w_i = p_i^a underflows) stay representable.
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
        scaled = (vals / top) ** alpha
        keep = scaled > 1e-300
        N = (vecs[:, keep] * scaled[keep]) @ vecs[:, keep].conj().T
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


def _project_density(mat: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {sigma >= 0, tr sigma = 1}."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    # project the eigenvalue vector onto the probability simplex
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    rho_idx = np.nonzero(u - css / idx > 0)[0][-1]
    tau = css[rho_idx] / (rho_idx + 1.0)
    w = np.clip(vals - tau, 0.0, None)
    return (vecs * w) @ vecs.conj().T


def _power_frechet_map(sigma: np.ndarray, s: float):
    """The Frechet derivative of x -> x^s at sigma as a callable on Hermitian
    matrices (Daleckii-Krein: entrywise kernel in sigma's eigenbasis, with
    the pseudo-power convention 0^s = 0 on the cut part of the spectrum)."""
    lam, V = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    lam = np.clip(lam, 0.0, None)
    keep = lam > EIG_CUT * max(lam.max(initial=0.0), 1e-300)
    pows = np.where(keep, np.power(np.where(keep, lam, 1.0), s), 0.0)
    n = len(lam)
    Phi = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a, b = lam[i], lam[j]
            if not keep[i] and not keep[j]:
                continue
            if abs(a - b) <= 1e-12 * max(a, b):
                x = max(a, b)
                Phi[i, j] = s * x ** (s - 1.0)
            else:
                Phi[i, j] = (pows[i] - pows[j]) / (a - b)

    def apply(X: np.ndarray) -> np.ndarray:
        Y = V.conj().T @ X @ V
        return V @ (Phi * Y) @ V.conj().T

    return apply


def _grad_neg_entropy(branches, log2_weights, d_q, sigma, alpha):
    """Gradient of phi(sigma) = log2 T(sigma) / (a - 1) = -H(sigma).

    Same branch-scaled arithmetic as :func:`_log2_T_and_update`; the
    d(x^s) Frechet derivative is self-adjoint under the trace pairing, which
    turns the directional derivative into an explicit Hermitian gradient.
    """
    s = (1.0 - alpha) / (2.0 * alpha)
    d_sig_s = _power_frechet_map(sigma, s)
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
        Na = np.sum(ratio ** alpha)
        # pseudo-power: modes cut from the evaluation contribute no gradient
        gkeep = ratio > EIG_CUT
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
                    sigma0: np.ndarray, *, polish: bool = True):
    """Extremize log2 T over sigma (min for a > 1, max for a < 1).

    Returns (log2_T, sigma, converged).  Both regimes minimize the same
    merit phi = log2 T / (a - 1) = -H.  The fast path is the damped
    fixed-point map sigma <- (1-theta) sigma + theta normalize(update) (the
    undamped map overshoots for a > 1), accepting steps only when phi drops;
    a projected-gradient polish with the analytic gradient then runs to
    certified first-order stationarity — the fixed-point value criterion
    alone can flag convergence prematurely when theta has collapsed.
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
    if not polish:
        value = _evaluate_log2_T(branches, log2_weights, d_q, sigma, alpha)
        return value, sigma, False
    phi, sigma, converged = _polish_sigma(branches, log2_weights, d_q, d_qp,
                                          alpha, sigma, sigma0)
    return phi * denom, sigma, converged


def _polish_sigma(branches, log2_weights, d_q, d_qp, alpha, sigma, sigma0):
    """Projected gradient on the density simplex with the analytic gradient.

    Minimizes phi = -H; returns (phi, sigma, converged) where convergence
    means the projected-gradient residual ||P(sigma - tau grad) - sigma||/tau
    dropped below 1e-6 (this also certifies boundary optima, where the raw
    gradient need not vanish).
    """
    sigma = _project_density(sigma)
    phi = _neg_entropy_at(branches, log2_weights, d_q, sigma, alpha)
    if not np.isfinite(phi):
        sigma = _project_density(sigma0)
        phi = _neg_entropy_at(branches, log2_weights, d_q, sigma, alpha)
    if not np.isfinite(phi):
        return phi, sigma, False

    step = 1.0
    resid = math.inf
    for _ in range(500):
        grad = _grad_neg_entropy(branches, log2_weights, d_q, sigma, alpha)
        if grad is None:
            break
        tau = 1e-7
        resid = np.linalg.norm(_project_density(sigma - tau * grad) - sigma) / tau
        if resid <= 1e-6:
            break
        improved = False
        stp = step
        for _bt in range(50):
            cand = _project_density(sigma - stp * grad)
            pc = _neg_entropy_at(branches, log2_weights, d_q, cand, alpha)
            if pc < phi - 1e-15:
                sigma, phi = cand, pc
                step = min(stp * 2.0, 1e4)
                improved = True
                break
            stp *= 0.5
        if not improved:
            break
    return phi, sigma, resid <= 1e-6


def _hup_value_from_log2T(log2_T: float, alpha: float) -> float:
    return -log2_T / (alpha - 1.0)


def _restart_sigmas(marginals, d_qp, restarts, seed):
    """Deterministic list of starting points: marginal mean, flat, random."""
    mean = sum(marginals) / len(marginals)
    mean = mean / max(float(np.real(np.trace(mean))), 1e-300)
    starts = [mean, np.eye(d_qp) / d_qp]
    rng = rng_from(seed)
    sub = rng.integers(0, 2**63 - 1, size=max(0, restarts - len(starts)))
    for sd in sub:
        starts.append(random_density(registers.space(("p", d_qp)),
                                     seed=int(sd)).matrix)
    return starts[:max(restarts, 1)]


def _t_max_half_sdp(branches, weights, d_q: int, d_b: int):
    """max_sigma sum_i w_i tr[G_i(sigma)^{1/2}] at a = 1/2, exactly.

    tr[((I (x) sqrt(sigma)) rho (I (x) sqrt(sigma)))^{1/2}] is the fidelity
    F(rho, I (x) sigma), which has the semidefinite representation
    F(P, Q) = max (1/2) tr[Z + Z^dag] over [[P, Z], [Z^dag, Q]] >= 0; the
    a = 1/2 objective is therefore a single SDP (the generic fixed-point
    iteration crawls here because the maximizer may sit on the boundary).
    Each P-block is compressed to supp(rho_i) so strictly feasible starts
    exist.  Returns (T_max, sigma).
    """
    amb = registers.space(("q", d_q), ("p", d_b))
    prob = SdpProblem("max")
    prob.add_block("sigma", d_b)
    prob.add_eq_constraint({"sigma": np.eye(d_b)}, 1.0)
    start = {"sigma": np.eye(d_b) / d_b}
    for i, (rho, w) in enumerate(zip(branches, weights)):
        if w <= 0.0:
            continue
        U = _support_isometry(rho)
        r = U.shape[1]
        rho_r = U.conj().T @ rho @ U
        rho_r = 0.5 * (rho_r + rho_r.conj().T)
        blk = f"V{i}"
        prob.add_block(blk, 2 * r)
        C = np.zeros((2 * r, 2 * r), dtype=complex)
        C[:r, r:] = 0.5 * w * np.eye(r)
        C[r:, :r] = 0.5 * w * np.eye(r)
        prob.add_objective(blk, C)
        for E in hermitian_basis(r):
            pin = np.zeros((2 * r, 2 * r), dtype=complex)
            pin[:r, :r] = E
            prob.add_eq_constraint(
                {blk: pin}, float(np.real(np.trace(E.conj().T @ rho_r))))
            link = np.zeros((2 * r, 2 * r), dtype=complex)
            link[r:, r:] = E
            lift = State(U @ E @ U.conj().T, amb, check=False) \
                .partial_trace(keep=["p"]).matrix
            prob.add_eq_constraint({blk: link, "sigma": -lift}, 0.0)
        V0 = np.zeros((2 * r, 2 * r), dtype=complex)
        V0[:r, :r] = rho_r
        V0[r:, r:] = U.conj().T @ np.kron(np.eye(d_q),
                                          start["sigma"]) @ U
        start[blk] = V0
    sol = solve_sdp(prob, start=start)
    return float(sol.value), sol.variables["sigma"]


def _alpha_ladder(alpha: float):
    """Continuation rungs: large orders are reached by warm-starting along a
    geometric ladder (a cold start at a very large order is too stiff)."""
    if alpha <= 64.0:
        return [alpha]
    n = int(math.ceil(math.log(alpha / 8.0) / math.log(8.0)))
    return list(np.geomspace(8.0, alpha, n + 1))


def _sup_sigma(branches, log2_probs, d_q, d_qp, alpha, *, restarts, seed):
    """Best extremized log2 T over restarts; returns (log2_T, sigma, gap).

    ``log2_probs`` are per-branch log2 weights *before* raising to the power
    alpha; each ladder rung a uses weights a * log2_probs, so the mixture
    tracks the order during continuation.
    """
    if as_order(alpha).is_half:
        weights = [2.0 ** (0.5 * lp) for lp in log2_probs]
        T, sigma = _t_max_half_sdp(branches, weights, d_q, d_qp)
        log2_T = float(np.log2(max(T, 1e-300)))
        # the spectral evaluation at the optimizer is an equally valid lower
        # bound on the sup; keep whichever is larger
        direct = _evaluate_log2_T(branches, [0.5 * lp for lp in log2_probs],
                                  d_q, sigma, 0.5)
        if np.isfinite(direct):
            log2_T = max(log2_T, direct)
        return log2_T, sigma, 0.0

    marg_space = registers.space(("q", d_q), ("p", d_qp))
    margs = [State(r, marg_space, check=False).partial_trace(keep=["p"]).matrix
             for r in branches]
    starts = _restart_sigmas(margs, d_qp, restarts, seed)
    rungs = _alpha_ladder(alpha)

    def from_start(s0):
        sigma = s0
        out = (math.inf, s0, False)
        for i, a in enumerate(rungs):
            lw = [a * lp for lp in log2_probs]
            out = _optimize_sigma(branches, lw, d_q, d_qp, a, sigma,
                                  polish=(i == len(rungs) - 1))
            sigma = out[1]
        return out

    results = run_batch(from_start, starts)
    finite = [r for r in results if np.isfinite(r[0]) and r[2]]
    if not finite:
        finite = [r for r in results if np.isfinite(r[0])]
    if not finite:
        raise NonConvergence("no restart produced a finite value")
    if alpha > 1.0:
        best = min(finite, key=lambda r: r[0])
    else:
        best = max(finite, key=lambda r: r[0])
    vals = np.array([r[0] for r in finite])
    gap = float(vals.max() - vals.min()) * abs(1.0 / (alpha - 1.0))
    return best[0], best[1], gap


# ---------------------------------------------------------------- H^up ("up")

def cond_entropy_up(state: State, target, conditioning, alpha, *,
                    restarts: int = 20, seed: int = 0,
                    return_info: bool = False):
    """H^up_a(target | conditioning): optimized conditional Renyi entropy.

    With ``return_info=True`` returns ``(value, info)`` where ``info`` holds
    the optimal conditioning state (on the support of the marginal), the
    certified restart spread ("gap"), and the method used.
    """
    a = as_order(alpha)
    rho = _marginal_pair(state, target, conditioning)
    target = list(target)
    rest = [l for l in rho.space.labels if l not in target]
    rho = rho.reorder(target + rest)
    cond_dim = int(np.prod([rho.space.dim_of(l) for l in rest])) if rest else 1
    d_q = rho.space.dim // cond_dim

    if cond_dim == 1:
        mat = rho.partial_trace(keep=target).matrix if rest else rho.matrix
        value = alpha_entropy(mat, a)
        info = {"sigma": np.ones((1, 1)), "gap": 0.0, "method": "unconditioned"}
        return (value, info) if return_info else value

    if a.near_one:
        h_ab = von_neumann_entropy(rho.matrix)
        sig_b = rho.partial_trace(keep=rest)
        value = h_ab - von_neumann_entropy(sig_b.matrix)
        info = {"sigma": sig_b.matrix, "gap": 0.0, "method": "spectral"}
        return (value, info) if return_info else value

    # reduce the conditioning side to the support of its marginal
    sig_b = rho.partial_trace(keep=rest)
    V = _support_isometry(sig_b.matrix)
    W = np.kron(np.eye(d_q), V)
    reduced = W.conj().T @ rho.matrix @ W
    reduced = 0.5 * (reduced + reduced.conj().T)
    r = V.shape[1]

    if a.is_infinite:
        value, X = _hup_inf_sdp(reduced, d_q, r)
        info = {"sigma": V @ (X / max(float(np.real(np.trace(X))), 1e-300))
                          @ V.conj().T,
                "gap": 0.0, "method": "sdp"}
        return (value, info) if return_info else value

    log2_T, sigma, gap = _sup_sigma([reduced], [0.0], d_q, r, a.value,
                                    restarts=restarts, seed=seed)
    value = _hup_value_from_log2T(log2_T, a.value)
    if gap > UP_GAP_TOL:
        raise NonConvergence("restart spread exceeds the certification "
                             f"threshold ({gap:.2e})", value=value, gap=gap)
    method = "sdp-fidelity" if a.is_half else "fixed-point"
    info = {"sigma": V @ sigma @ V.conj().T, "gap": gap, "method": method}
    return (value, info) if return_info else value


def _hup_inf_sdp(rho: np.ndarray, d_q: int, d_b: int):
    """H^up_inf(A|B) = -log2 min{tr X : id_A (x) X >= rho_AB, X >= 0}."""
    amb = registers.space(("q", d_q), ("p", d_b))
    prob = SdpProblem("min")
    prob.add_block("X", d_b)
    prob.add_objective("X", np.eye(d_b))
    prob.add_operator_inequality([("X", embed_adjoint(amb, ["p"]))], rho,
                                 slack="S")
    lam = float(np.linalg.norm(rho, 2))
    X0 = (lam + 1.0) * np.eye(d_b)
    sol = solve_sdp(prob, start={"X": X0,
                                 "S": np.kron(np.eye(d_q), X0) - rho})
    return -float(np.log2(sol.value)), sol.variables["X"]


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

def _verify_classical(state: State, labels):
    if not state.is_classical_on(labels):
        raise NotClassical(f"state is not classical on registers {list(labels)}")


def classmix_up(state: State, target, conditioning, classical, alpha, *,
                restarts: int = 20, seed: int = 0) -> float:
    """H^up over a classical register in the conditioning, branch by branch."""
    classical = list(classical)
    conditioning = list(conditioning)
    if not set(classical) <= set(conditioning):
        raise InvalidRegister("classical registers must sit in the conditioning")
    rho = _marginal_pair(state, target, conditioning)
    _verify_classical(rho, classical)
    rest = [l for l in conditioning if l not in classical]
    probs, values = [], []
    for _outcome, w, branch in rho.branches(classical):
        if branch is None:
            continue
        probs.append(w)
        values.append(cond_entropy_up(branch, list(target), rest, alpha,
                                      restarts=restarts, seed=seed))
    return renyi_branch_mix(probs, values, alpha, variant="up")


def classmix_down(state: State, target, conditioning, classical, alpha) -> float:
    """H_a over a classical register in the conditioning, branch by branch."""
    classical = list(classical)
    conditioning = list(conditioning)
    if not set(classical) <= set(conditioning):
        raise InvalidRegister("classical registers must sit in the conditioning")
    rho = _marginal_pair(state, target, conditioning)
    _verify_classical(rho, classical)
    rest = [l for l in conditioning if l not in classical]
    probs, values = [], []
    for _outcome, w, branch in rho.branches(classical):
        if branch is None:
            continue
        probs.append(w)
        values.append(cond_entropy_down(branch, list(target), rest, alpha))
    return renyi_branch_mix(probs, values, alpha, variant="down")


# --------------------------------------------- two-sided classical mixture

def _grouped_branches(state: State, classical_cond, classical_target,
                      q_labels, qp_labels):
    """{outer outcome: [(inner outcome, joint weight, rho_QQ' matrix), ...]}
    with branch states reordered to Q then Q' legs."""
    groups: dict = {}
    n_outer = len(classical_cond)
    for outcome, w, branch in state.branches(list(classical_cond) +
                                             list(classical_target)):
        if branch is None:
            continue
        outer, inner = outcome[:n_outer], outcome[n_outer:]
        if q_labels or qp_labels:
            mat = branch.reorder(list(q_labels) + list(qp_labels)).matrix
        else:
            mat = np.ones((1, 1), dtype=complex)
        groups.setdefault(outer, []).append((inner, w, mat))
    return groups


def two_sided_classmix(state: State, *, target, conditioning,
                       classical_target, classical_cond, alpha,
                       restarts: int = 5, seed: int = 0) -> float:
    """H^up_a(Q Cbar | Chat Q') for a state classical on Cbar (inside the
    target) and Chat (inside the conditioning):

        (a/(1-a)) log2 sum_chat p(chat) *
            opt_sigma [ sum_cbar p(cbar|chat)^a 2^{(a-1) D_a(rho_{QQ'|cbar chat}
                        || id_Q (x) sigma)} ]^{1/a}

    with the inner optimization a minimum for a > 1 and a maximum for a < 1.
    a = infinity is evaluated at two large orders and Richardson-extrapolated
    in 1/a (the limit definition); a = 1 coincides with the von Neumann value.
    """
    a = as_order(alpha)
    target = list(target)
    conditioning = list(conditioning)
    classical_target = list(classical_target)
    classical_cond = list(classical_cond)
    if not set(classical_target) <= set(target):
        raise InvalidRegister("classical_target must sit inside target")
    if not set(classical_cond) <= set(conditioning):
        raise InvalidRegister("classical_cond must sit inside conditioning")
    rho = _marginal_pair(state, target, conditioning)
    _verify_classical(rho, classical_target + classical_cond)

    if a.near_one:
        return cond_entropy_down(rho, target, conditioning, 1.0)
    if a.is_infinite:
        def at(order):
            return two_sided_classmix(rho, target=target,
                                      conditioning=conditioning,
                                      classical_target=classical_target,
                                      classical_cond=classical_cond,
                                      alpha=order, restarts=restarts,
                                      seed=seed)
        h1, h2 = at(5e5), at(1e6)
        return 2.0 * h2 - h1  # eliminate the 1/alpha term

    q_labels = [l for l in target if l not in classical_target]
    qp_labels = [l for l in conditioning if l not in classical_cond]
    d_q = int(np.prod([rho.space.dim_of(l) for l in q_labels])) if q_labels else 1
    groups = _grouped_branches(rho, classical_cond, classical_target,
                               q_labels, qp_labels)

    av = a.value
    outer_logs = []
    for _outer, entries in groups.items():
        p_outer = sum(w for _, w, _ in entries)
        branches = [m for _, _, m in entries]
        log2_p = [math.log2(w / p_outer) for _, w, _ in entries]
        d_qp_full = branches[0].shape[0] // d_q
        if d_qp_full == 1:
            log2_T, _ = _log2_T_and_update(branches,
                                           [av * lp for lp in log2_p], d_q,
                                           np.ones((1, 1)), av, False)
        else:
            # reduce Q' to the union of the branch supports
            marg_space = registers.space(("q", d_q), ("p", d_qp_full))
            acc = sum(State(m, marg_space, check=False)
                      .partial_trace(keep=["p"]).matrix for m in branches)
            V = _support_isometry(acc)
            W = np.kron(np.eye(d_q), V)
            red = [0.5 * ((W.conj().T @ m @ W) + (W.conj().T @ m @ W).conj().T)
                   for m in branches]
            log2_T, _sigma, _gap = _sup_sigma(red, log2_p, d_q, V.shape[1],
                                              av, restarts=restarts, seed=seed)
        outer_logs.append(np.log(p_outer) + (log2_T / av) * LN2)
    total = float(logsumexp(outer_logs) / LN2)
    return av / (1.0 - av) * total


def two_sided_classmix_inf_direct(state: State, *, target, conditioning,
                                  classical_target, classical_cond) -> float:
    """The a = infinity limit evaluated through the max-divergence form:

        -log2 sum_chat p(chat) min{tr X : id_Q (x) X >= p(cbar|chat) *
                                    rho_{QQ'|cbar chat} for every cbar}

    (substituting X = lambda sigma linearizes the per-branch constraints).
    Serves as an independent check of the extrapolated value.
    """
    target = list(target)
    conditioning = list(conditioning)
    classical_target = list(classical_target)
    classical_cond = list(classical_cond)
    rho = _marginal_pair(state, target, conditioning)
    _verify_classical(rho, classical_target + classical_cond)
    q_labels = [l for l in target if l not in classical_target]
    qp_labels = [l for l in conditioning if l not in classical_cond]
    d_q = int(np.prod([rho.space.dim_of(l) for l in q_labels])) if q_labels else 1
    groups = _grouped_branches(rho, classical_cond, classical_target,
                               q_labels, qp_labels)

    acc = 0.0
    for _outer, entries in groups.items():
        p_outer = sum(w for _, w, _ in entries)
        scaled = [(w / p_outer) * m for _, w, m in entries]
        d_qp = scaled[0].shape[0] // d_q
        if d_qp == 1:
            t_star = max(float(np.linalg.norm(m, 2)) for m in scaled)
        else:
            amb = registers.space(("q", d_q), ("p", d_qp))
            prob = SdpProblem("min")
            prob.add_block("X", d_qp)
            prob.add_objective("X", np.eye(d_qp))
            start = {}
            top = max(float(np.linalg.norm(m, 2)) for m in scaled)
            X0 = (top + 1.0) * np.eye(d_qp)
            for i, m in enumerate(scaled):
                prob.add_operator_inequality(
                    [("X", embed_adjoint(amb, ["p"]))], m, slack=f"S{i}")
                start[f"S{i}"] = np.kron(np.eye(d_q), X0) - m
            start["X"] = X0
            t_star = solve_sdp(prob, start=start).value
        acc += p_outer * t_star
    return -float(np.log2(acc))
