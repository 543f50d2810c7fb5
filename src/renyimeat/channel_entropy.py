"""Optimized conditional output entropies of channels.

Given a channel, a target slice of its output, and (optionally) a pinned
marginal on part of its input, :func:`channel_cond_entropy` computes the
infimum of the conditional Renyi entropy of the target given the rest of
the output *and* a reference register that purifies the input (of the
input's dimension, which always suffices).  The reference makes the infimum
meaningful (without it, discarding input correlations would be free) and is
what the chain rule and additivity statements below are about.

Every route is a convex program over *mixed* inputs rho of the marginal
set.  Purify the output with the Stinespring environment Z: then
H^up_a(T|Y R) = -H^up_b(T|Z) with 1/a + 1/b = 2, and the state omega(rho)
on T Z is linear in rho (:class:`_ReducedDilation`).  The entropy is

    min over (rho, sigma) of D_b(omega(rho) || 1_T (x) sigma),

where D_b is jointly convex for b in [1/2, 1) (a > 1) and a monotone
function of the jointly convex Q_b for b > 1 (a < 1) (Frank-Lieb).  Routes,
by order:

* ``alpha = 1/2`` (b = inf) is the covering program of the minimized
  max-divergence, min tr[S] over 1_T (x) S >= omega(rho), which
  :func:`minimized_channel_divergence` also solves at order inf;
  ``alpha = inf`` (b = 1/2) is the root-fidelity program in Watrous's
  block form.  Both are the semidefinite programs of
  :mod:`renyimeat.marginals` (:func:`_covering_program`,
  :func:`_fidelity_program`), certified by their duality gaps;
* every other order runs L-BFGS over an unconstrained chart of the
  marginal set (:class:`_InputChart`), with the inner sigma from
  :func:`renyimeat.entropies.cond_entropy_up` at b and the gradient in rho
  by the envelope theorem; at ``alpha = 1`` the objective is -H(T|Z) and
  needs no sigma.  A joint L-BFGS over (rho, sigma) polishes the result
  when its width calls for it.  The value is certified by the joint
  Frank-Wolfe gap, taken on Q_b when b > 1;
* inputs that are completely pinned by the constraint skip the outer
  optimization entirely (all purifications are related by an isometry on
  the reference, which the entropy cannot see).

Each result carries the width of an interval that holds the infimum
(:class:`ChannelEntropyResult`); a width above ``CHANNEL_GAP_TOL`` raises
:class:`NonConvergence`.

The same program with a general second map, min over (rho, sigma) of
D_b(M[rho] || N[sigma]) with both inputs in marginal sets, is the
minimized channel divergence (:func:`minimized_channel_divergence`).  At
finite orders it is the joint L-BFGS of the polish above
(:class:`_JointDivergence`), with one chart per marginal set and no SDP;
at order inf it is the covering program.  The module also hosts numerical
checks of the chain rule and additivity statements.  The marginal
constraint, its feasible set with its chart and the L-BFGS, the two SDP
builders and the one SDP per round of the measured chain rule live in
:mod:`renyimeat.marginals`; the public ones are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import Channel, _perm_matrix, compose, trace_out_channel
from .divergences import LN2, RenyiOrder, as_order, sandwiched_divergence
from .entropies import cond_entropy_up
from .errors import (InvalidRegister, InvalidState, NonConvergence,
                     UnsupportedOrder)
from .marginals import (MarginalConstraint, SdpPair,  # noqa: F401 (re-export)
                        _covering_program, _fidelity_program, _flat,
                        _InputChart, _lbfgs, _MarginalSet, _square,
                        build_sdp_individual, build_sdp_joint,
                        product_feasibility_slack, solve_sdp_pair)
from .registers import (EIG_CUT, LOG2E, RegisterSpace, State,
                        _power_frechet_map, as_labels, bipartite_partial_trace,
                        canonical_purification_vector, divided_differences,
                        herm_part, herm_power, ket_state, kraus_apply,
                        kraus_pullback, space, support_isometry)

#: widest certified interval (in bits of entropy) a channel entropy may
#: carry; a wider one raises NonConvergence
CHANNEL_GAP_TOL = 1e-6

#: eigenvalue floor (relative) used when differentiating von Neumann terms
_LOG_FLOOR = 1e-18


def _fresh_label(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


# ----------------------------------------------------------- problem objects

class ChannelEntropyProblem:
    """A channel, which output registers to treat as the target, the order,
    and (optionally) an input marginal constraint."""

    def __init__(self, channel: Channel, target, alpha, *,
                 constraint: MarginalConstraint | None = None):
        target = as_labels(target)
        if not target:
            raise InvalidRegister("at least one target register is required")
        for l in target:
            channel.out_space.position(l)
        self.channel = channel
        self.target = target
        self.alpha = as_order(alpha)
        self.constraint = constraint


@dataclass
class ChannelEntropyResult:
    """Outcome of a channel entropy optimization.

    ``gap`` is the width of an interval around ``value`` that holds the
    infimum: [value - gap, value] on the optimized routes, where ``value``
    is the objective at the returned input and conditioning state (so the
    entropy of ``witness`` is at most ``value``), and [value, value + gap]
    for a completely pinned input, where it is the duality interval of the
    inner conditioning optimum.  The width is the SDP duality gap in bits at
    orders 1/2 and inf and the joint Frank-Wolfe gap elsewhere.
    ``witness`` is a pure input on the channel input plus a reference
    register of the same dimension.  Unpacks as ``(value, witness)``.
    """
    value: float
    witness: State
    gap: float
    method: str

    def __iter__(self):
        return iter((self.value, self.witness))


def _floored_log2(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(herm_part(mat))
    floor = _LOG_FLOOR * max(vals.max(initial=0.0), 1e-300)
    return (vecs * np.log2(np.clip(vals, floor, None))) @ vecs.conj().T


# ------------------------------------------------- reduced dilation and SDPs

class _ReducedDilation:
    """Kraus operators of (trace the conditioning output) o (dilate).

    Maps marginal-set coordinates to (target x environment); a divergence
    of this map against ``id (x) sigma``, minimized over *mixed* inputs, is
    the convex form of the channel entropy at the conjugate order.
    """

    def __init__(self, problem: ChannelEntropyProblem, mset: _MarginalSet):
        ch = problem.channel
        ks = mset.restrict_kraus(ch.kraus)
        nk = len(ks)
        d_t = int(np.prod(ch.out_space.dims_of(problem.target)))
        d_y = ch.out_space.dim // d_t
        cond = [l for l in ch.out_space.labels if l not in problem.target]
        P = _perm_matrix(ch.out_space, problem.target + tuple(cond))
        V = np.zeros((ch.out_space.dim * nk, mset.dim), dtype=complex)
        for k, K in enumerate(ks):
            e = np.zeros(nk)
            e[k] = 1.0
            V += np.kron(P @ K, e.reshape(nk, 1))
        arr = V.reshape(d_t, d_y, nk, mset.dim)
        self.kraus = [arr[:, y, :, :].reshape(d_t * nk, mset.dim)
                      for y in range(d_y)]
        self.d_t = d_t
        self.d_env = nk

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return kraus_apply(self.kraus, rho)

    def pullback(self, G: np.ndarray) -> np.ndarray:
        return kraus_pullback(self.kraus, G)


def _solve_endpoint(problem: ChannelEntropyProblem,
                    mset: _MarginalSet) -> ChannelEntropyResult:
    """alpha = 1/2 is conjugate to the max-divergence: the covering program
    of omega(rho) against 1_T (x) S (:func:`_covering_program`).  alpha =
    inf is conjugate to the root fidelity: F(omega(rho), 1_T (x) sigma)
    maximized over rho and density operators sigma on Z
    (:func:`_fidelity_program`), and the entropy is -2 log2 of it."""
    red = _ReducedDilation(problem, mset)
    eye_t = np.eye(red.d_t)
    args = (mset, [red.apply], lambda S: np.kron(eye_t, S),
            _MarginalSet(space(("Z", red.d_env)), None))
    if problem.alpha.is_half:
        value, width, rho, _ = _covering_program(*args)
        method = "covering-program"
    else:
        log2_fid, width, rho, _ = _fidelity_program(*args, [1.0])
        value, width = -2.0 * log2_fid, 2.0 * width
        method = "fidelity-program"
    witness = _purified_witness(problem, mset, _project_psd(rho))
    return ChannelEntropyResult(value=value, witness=witness, gap=width,
                                method=method)


def _project_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(herm_part(mat))
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    return herm_part(out / max(float(np.real(np.trace(out))), 1e-300))


def _purified_witness(problem, mset: _MarginalSet, rho_r: np.ndarray) -> State:
    """Purify a mixed-input optimizer onto a reference register R of the
    input's dimension."""
    ch = problem.channel
    st = State(mset.unrestrict(rho_r), ch.in_space, check=False)
    vec, pspace = canonical_purification_vector(st, "_p")
    d_in, r = ch.in_space.dim, pspace.dim
    mat = np.zeros((d_in, d_in), dtype=complex)
    mat[:, :r] = vec.reshape(d_in, r)
    taken = set(ch.in_space.labels) | set(ch.out_space.labels)
    stab = _fresh_label("R", taken)
    full = ch.in_space.tensor(space((stab, d_in)))
    return ket_state(mat.reshape(-1), full)


# ----------------------------------------- generic orders: the convex program

def _q_form_width(gap: float, beta: RenyiOrder) -> float:
    """Bits between a value and the minimum of D_b, from a Frank-Wolfe gap
    ``gap`` taken with the gradient of D_b.  For b <= 1, D_b is jointly
    convex and the gap bounds the distance itself.  For b > 1 only
    Q_b = 2^((b-1) D_b) is: its gap is (b-1) ln2 Q gap, and
    D - D* <= log2(Q / (Q - gap_Q)) / (b - 1)."""
    if beta.near_one or beta.value <= 1.0:
        return gap
    b = beta.value
    u = (b - 1.0) * LN2 * gap
    return -math.log2(1.0 - u) / (b - 1.0) if u < 1.0 else math.inf


def _width_reached(data) -> bool:
    """Stopping rule of every chart program: the width of the (rho, sigma,
    width) data at a point is a hundredth of ``CHANNEL_GAP_TOL``."""
    return data[2] <= 1e-2 * CHANNEL_GAP_TOL


class _JointDivergence:
    """D_b(M[rho] || N[sigma]) with rho and sigma in two marginal sets.

    ``maps`` holds the (apply, pullback) pairs of M and N on the
    coordinates of their sets (pullbacks return Hermitian matrices), and
    ``charts`` the :class:`_InputChart` of each whole set, whose
    :meth:`_InputChart.gap_bound` bounds that side's Frank-Wolfe gap.
    """

    def __init__(self, beta: RenyiOrder, maps, charts):
        self.beta = beta
        self.maps = maps
        self.charts = charts

    def at(self, rho: np.ndarray, sigma: np.ndarray):
        """(D_b, grad_rho, grad_sigma, width) at a pair.  The width is the
        joint Frank-Wolfe gap over both full sets, converted from Q_b for
        b > 1 (:func:`_q_form_width`); where D_b is infinite the gradients
        are None and the width is inf."""
        (m_apply, m_pull), (n_apply, n_pull) = self.maps
        omega, tau = m_apply(rho), n_apply(sigma)
        value = sandwiched_divergence(omega, tau, self.beta)
        if not np.isfinite(value):
            return value, None, None, math.inf
        g_om, g_tau = _divergence_grads(omega, tau, self.beta)
        g_rho, g_sig = m_pull(g_om), n_pull(g_tau)
        lin = self.charts[0].gap_bound(rho, g_rho) \
            + self.charts[1].gap_bound(sigma, g_sig)
        return value, g_rho, g_sig, max(_q_form_width(lin, self.beta), 0.0)

    def minimize(self, G: np.ndarray, H: np.ndarray,
                 sigma_chart: _InputChart, V: np.ndarray):
        """Joint L-BFGS from the chart points (G, H): rho = rho(G) on the
        first set and sigma = V sigma(H) V^dag on the second, with
        ``sigma_chart`` a chart on the range of the isometry V (the whole
        set's chart and V = 1, or a cut to a support that holds the
        optimum).  The width stays the gap over the whole sets.  Returns
        (value, (rho, sigma, width)) at the last accepted point."""
        rho_chart = self.charts[0]
        m = 2 * G.size

        def fg(x):
            G, H = _square(x[:m]), _square(x[m:])
            rho, parts = rho_chart.point(G)
            sig, sparts = sigma_chart.point(H)
            sigma = V @ sig @ V.conj().T
            value, g_rho, g_sig, width = self.at(rho, sigma)
            if g_rho is None:
                return value, None, None
            grad = np.concatenate([
                _flat(rho_chart.pullback(G, parts, g_rho)),
                _flat(sigma_chart.pullback(H, sparts, V.conj().T @ g_sig @ V))])
            return value, 2.0 * grad, (rho, sigma, width)

        value, _, data = _lbfgs(fg, np.concatenate([_flat(G), _flat(H)]),
                                _width_reached, smooth=True)
        return value, data


def _solve_convex(problem: ChannelEntropyProblem,
                  mset: _MarginalSet) -> ChannelEntropyResult:
    """min over (rho, sigma) of D_b(omega(rho) || 1 (x) sigma) at a finite
    order a other than 1/2, with 1/a + 1/b = 2.

    L-BFGS runs on the chart G -> rho(G) and sees the value at the inner
    optimum: sigma from :func:`cond_entropy_up` at b, or omega_Z at a = 1,
    where the objective is -H(T|Z); the gradient in rho is the pullback of
    grad_omega D_b at that sigma (envelope theorem).  The inner sigma is
    certified in value, not in first order: at the last first-stage point
    of ``CH4`` (tests/test_channel_entropy.py) the sigma side of the
    Frank-Wolfe gap is 4.6e-7 at a = 0.75 and 1.4e-5 at a = 2.  The joint
    L-BFGS of :meth:`_JointDivergence.minimize` then polishes (rho, sigma),
    sigma charted on the support of omega_Z; it runs once on ``CH4`` at
    each of those orders and in 1 of the 12 convex solves of a
    ``channel-opt`` benchmark pass.  The returned value
    is D_b at the final (rho, sigma), and the gap is the joint Frank-Wolfe
    gap there (:meth:`_JointDivergence.at`).  Each stage stops once the gap
    is a hundredth of ``CHANNEL_GAP_TOL``.
    """
    red = _ReducedDilation(problem, mset)
    d_t, d_z = red.d_t, red.d_env
    one = problem.alpha.near_one
    beta = as_order(1.0) if one else problem.alpha.conjugate()
    eye_t = np.eye(d_t)
    div = _JointDivergence(
        beta, ((red.apply, red.pullback),
               (lambda sig: np.kron(eye_t, sig),
                lambda g: herm_part(bipartite_partial_trace(g, d_t, d_z, 1)))),
        (_InputChart(mset.psi_r, mset.dim // mset.rank_a),
         _InputChart(np.eye(1), d_z)))
    chart = div.charts[0]

    def fg(x):
        """D_b at rho(G) and the inner sigma, its gradient in G, and
        (rho, sigma, width)."""
        G = _square(x)
        rho, parts = chart.point(G)
        omega = red.apply(rho)
        if one:
            sigma = bipartite_partial_trace(omega, d_t, d_z, 1)
        else:
            try:
                sigma = cond_entropy_up(
                    State(omega, space(("t", d_t), ("z", d_z)), check=False),
                    ["t"], ["z"], beta, return_info=True)[1]["sigma"]
            except NonConvergence:
                return math.inf, None, None
        value, g_rho, _, width = div.at(rho, sigma)
        if g_rho is None:
            return value, None, None
        return (value, 2.0 * _flat(chart.pullback(G, parts, g_rho)),
                (rho, sigma, width))

    value, x, data = _lbfgs(fg, _flat(np.eye(mset.dim, dtype=complex)),
                            _width_reached, smooth=one)
    if not _width_reached(data):
        V = support_isometry(bipartite_partial_trace(red.apply(data[0]),
                                                     d_t, d_z, 1))
        h0 = herm_power(herm_part(V.conj().T @ data[1] @ V), 0.5)
        polished = div.minimize(_square(x), h0.astype(complex),
                                _InputChart(np.eye(1), V.shape[1]), V)
        if polished[1][2] < data[2]:
            value, data = polished
    return ChannelEntropyResult(value=float(value),
                                witness=_purified_witness(problem, mset, data[0]),
                                gap=data[2], method="convex-program")


# ----------------------------------------------------------------- front door

def channel_cond_entropy(problem: ChannelEntropyProblem) -> ChannelEntropyResult:
    """Infimum of the conditional entropy of the channel output target given
    the remaining output and the purifying reference, over feasible inputs.

    Returns a :class:`ChannelEntropyResult` (unpacks as ``(value, witness)``)
    whose ``gap`` is the width of a certified interval holding the infimum:
    the SDP duality gap at orders 1/2 and inf, the joint Frank-Wolfe gap of
    the convex program at other orders, the inner duality interval for a
    completely pinned input.  Raises :class:`NonConvergence` (with the value
    and the width) when that width exceeds ``CHANNEL_GAP_TOL``.
    """
    alpha = problem.alpha
    mset = _MarginalSet(problem.channel.in_space, problem.constraint)
    if mset.fixed:
        # the input is pinned: every purification gives the same entropy
        res = _pinned_input_entropy(problem, mset)
    elif alpha.is_infinite or alpha.is_half:
        res = _solve_endpoint(problem, mset)
    else:
        res = _solve_convex(problem, mset)
    if not res.gap <= CHANNEL_GAP_TOL:
        raise NonConvergence("certified interval exceeds CHANNEL_GAP_TOL "
                             f"({res.gap:.2e})", value=res.value, gap=res.gap)
    return res


def _pinned_input_entropy(problem, mset):
    ch = problem.channel
    st = State(mset.unrestrict(mset.psi_r), ch.in_space, check=False)
    taken = set(ch.in_space.labels) | set(ch.out_space.labels)
    stab = _fresh_label("R", taken)
    pure = st.purified(stab)
    out = ch.apply(pure)
    cond = [l for l in out.space.labels if l not in problem.target]
    value, info = cond_entropy_up(out, list(problem.target), cond,
                                  problem.alpha, return_info=True)
    witness = _purified_witness(problem, mset, mset.psi_r)
    return ChannelEntropyResult(value=float(value), witness=witness,
                                gap=float(info["gap"]), method="pinned-input")


def entropy_at_witness(channel: Channel, target, witness: State,
                       alpha) -> float:
    """Conditional entropy of the channel output at one explicit input.

    ``witness`` may carry extra (reference) registers beyond the channel
    input; they join the conditioning side.  This evaluates the objective at
    a feasible point, so it upper-bounds the optimized channel entropy.
    """
    target = as_labels(target)
    out = channel.apply(witness)
    cond = [l for l in out.space.labels if l not in target]
    return float(cond_entropy_up(out, list(target), cond, alpha))


# --------------------------------------------- optimized channel divergence

def _log_frechet_map(tau: np.ndarray):
    """Frechet derivative of log2 at tau (Daleckii-Krein kernel; spectrum
    below the support cut contributes nothing)."""
    lam, V = np.linalg.eigh(herm_part(tau))
    lam = np.clip(lam, 0.0, None)
    keep = lam > EIG_CUT * max(lam.max(initial=0.0), 1e-300)
    base = np.where(keep, lam, 1.0)
    Phi = divided_differences(lam, np.where(keep, np.log(base), 0.0),
                              np.where(keep, 1.0 / base, 0.0),
                              keep[:, None] & keep[None, :])

    def apply(X: np.ndarray) -> np.ndarray:
        Y = V.conj().T @ X @ V
        return LOG2E * (V @ (Phi * Y) @ V.conj().T)

    return apply


def _divergence_grads(omega, tau, alpha):
    """(grad_omega, grad_tau) of the sandwiched divergence, assembled."""
    if alpha.near_one:
        g_om = _floored_log2(omega) - _floored_log2(tau) + LOG2E * np.eye(len(omega))
        g_tau = -_log_frechet_map(tau)(omega)
        return g_om, g_tau
    a = alpha.value
    s = (1.0 - a) / (2.0 * a)
    tau_s, d_tau_s = _power_frechet_map(tau, s)
    G = herm_part(tau_s @ omega @ tau_s)
    gv, gU = np.linalg.eigh(G)
    gv = np.clip(gv, 0.0, None)
    keep = gv > EIG_CUT * max(gv.max(initial=0.0), 1e-300)
    t_tot = float(np.sum(gv[keep] ** a))
    pw = np.where(keep, np.power(np.where(keep, gv, 1.0), a - 1.0), 0.0)
    Gm1 = (gU * pw) @ gU.conj().T
    c = a / ((a - 1.0) * LN2 * max(t_tot, 1e-300))
    g_om = c * herm_part(tau_s @ Gm1 @ tau_s)
    Mx = omega @ tau_s @ Gm1
    g_tau = c * d_tau_s(Mx + Mx.conj().T)
    return g_om, g_tau


def minimized_channel_divergence(m: Channel, n: Channel, constraints,
                                 alpha) -> float:
    """Infimum of D_alpha(M[rho] || N[sigma]) over marginal-constrained
    inputs on both sides.

    ``m`` is a channel and ``n`` a completely positive map (trace scaling
    ones such as sigma -> 1 (x) sigma are allowed) with the same output
    registers; ``constraints`` is a pair of optional
    :class:`MarginalConstraint` for the two inputs.  Every finite order from
    1/2 up is one joint L-BFGS over a chart of each marginal set
    (:meth:`_JointDivergence.minimize`, which also polishes the channel
    entropy), certified by the joint Frank-Wolfe gap over both sets, taken
    on D_alpha for alpha <= 1 (jointly convex) and on Q_alpha for
    alpha > 1 (jointly convex, converted to bits); no SDP is solved there.
    ``alpha = inf`` is one covering SDP, certified by its duality gap.  The
    value is the divergence at the returned pair, and the infimum lies
    within the width below it.  :class:`NonConvergence` (with the value and
    the width) is raised when a run ends without a finite value and a width
    below ``CHANNEL_GAP_TOL`` times max(1, |value|), e.g. when the outputs
    at the start have orthogonal supports; orders below 1/2 raise
    :class:`UnsupportedOrder`.
    """
    alpha = as_order(alpha)
    if sorted(m.out_space.labels) != sorted(n.out_space.labels):
        raise InvalidRegister("the two maps must share their output registers")
    if not m.is_trace_preserving:
        raise InvalidState("the first argument must be trace preserving")
    if alpha.value < 0.5 - 1e-12:
        raise UnsupportedOrder("the divergence is not jointly convex in "
                               "any form below order 1/2")
    msets = [_MarginalSet(ch.in_space, c) for ch, c in zip((m, n), constraints)]
    P_out = _perm_matrix(n.out_space, m.out_space.labels)
    kraus = (msets[0].restrict_kraus(m.kraus),
             [P_out @ K for K in msets[1].restrict_kraus(n.kraus)])
    maps = [(partial(kraus_apply, ks), partial(kraus_pullback, ks))
            for ks in kraus]
    if alpha.is_infinite:
        value, width, _, _ = _covering_program(msets[0], [maps[0][0]],
                                               maps[1][0], msets[1])
    else:
        div = _JointDivergence(alpha, maps, [
            _InputChart(s.psi_r, s.dim // s.rank_a) for s in msets])
        d_m, d_n = msets[0].dim, msets[1].dim
        value, (_, _, width) = div.minimize(
            np.eye(d_m, dtype=complex), np.eye(d_n, dtype=complex),
            div.charts[1], np.eye(d_n))
    if not (math.isfinite(value)
            and width <= CHANNEL_GAP_TOL * max(1.0, abs(value))):
        raise NonConvergence("certified interval exceeds CHANNEL_GAP_TOL "
                             f"({width:.2e})", value=value, gap=width)
    return float(value)


def entropy_via_conjugate_divergence(channel: Channel, target, constraint,
                                     alpha) -> float:
    """Recompute the optimized channel entropy as a minimized divergence.

    The entropy of the target given the rest equals the divergence, at the
    conjugate order b = a/(2a-1), between the conditioning-traced dilation
    of the channel and sigma -> 1_target (x) sigma, minimized over the same
    constrained inputs.  The problem is built here apart from
    :func:`channel_cond_entropy`: the dilation comes from the Stinespring
    isometry through :func:`compose` and :func:`trace_out_channel`, the
    second map is a channel with Kraus operators e_k (x) 1, and no inner
    :func:`cond_entropy_up` runs.  The optimizer is shared with the entropy
    route: :func:`minimized_channel_divergence` runs the joint L-BFGS that
    polishes the entropy (or, at b = inf, the covering program of order
    1/2).  It serves as a test oracle.
    """
    target = as_labels(target)
    beta = as_order(alpha).conjugate()
    taken = set(channel.in_space.labels) | set(channel.out_space.labels)
    env = _fresh_label("Z", taken)
    iso = channel.stinespring(env)
    dil = Channel([iso.matrix], channel.in_space, iso.out_space)
    cond = [l for l in channel.out_space.labels if l not in target]
    m = compose(trace_out_channel(iso.out_space, cond), dil)
    pad = channel.out_space.keep(target)
    rest = m.out_space.drop(pad.labels)
    eye = np.eye(rest.dim)
    tensor = Channel([np.kron(e.reshape(-1, 1), eye) for e in np.eye(pad.dim)],
                     rest, pad.tensor(rest), require_tp=False)
    return minimized_channel_divergence(m, tensor, (constraint, None), beta)


# ----------------------------------------------------- inequality checkers

def _renamed_state(st: State, mapping: dict) -> State:
    sp = RegisterSpace((mapping.get(l, l), d) for l, d in st.space)
    return State(st.matrix, sp, check=False)


def _disjoin(e1: Channel, e2: Channel, phi: State):
    """Rename e2 (and its constraint state) away from e1's labels."""
    taken = set(e1.in_space.labels) | set(e1.out_space.labels)
    mapping = {}
    for l in e2.in_space.labels + e2.out_space.labels:
        if l in taken:
            mapping[l] = _fresh_label(f"{l}b", taken | set(mapping.values()))
    if not mapping:
        return e2, phi, mapping
    return e2.renamed(mapping), _renamed_state(phi, mapping), mapping


def _entropy(channel, target, alpha, constraint) -> float:
    return channel_cond_entropy(ChannelEntropyProblem(
        channel, target, alpha, constraint=constraint)).value


def verify_chain_rule(e1: Channel, e2: Channel, psi: State, phi: State,
                      alpha, *, target1, target2) -> float:
    """Slack of the chain rule on the wired composition: the entropy of
    ``e2 . e1`` with joint targets minus the sum of the single-round
    entropies.

    ``psi`` and ``phi`` pin the marginals of the two rounds on the registers
    their spaces name; ``target2`` must survive the composition.

    What has been measured: on two all-pinned instances (seeded qubit
    A -> T1 X, then X B -> T2, Kraus rank 2) the slack is 0.74-1.68 bits at
    orders 1/2, 0.75, 1, 2 and inf, at 0.03-1.2 s per call.  With a free
    input register it can be negative: two copies of a channel A F -> T
    wired in parallel (round one applies the first copy and passes A_1 F_1
    through, round two applies the second, A_0 and A_1 pinned to the same
    state, F_0 and F_1 free) give a slack of -1.43e-3 at order 1/2, six
    orders of magnitude beyond the widths of the three values, and zero
    within those widths at 0.75 and 2.  That is twice the per-copy gap of
    :func:`verify_weak_additivity` on the same channel.  The range of orders
    over which the slack is nonnegative for partly pinned inputs is open.
    """
    target1 = as_labels(target1)
    target2 = as_labels(target2)
    comp = compose(e2, e1)
    for l in target1 + target2:
        comp.out_space.position(l)
    c1 = MarginalConstraint(tuple(psi.space.labels), psi)
    c2 = MarginalConstraint(tuple(phi.space.labels), phi)
    cj = MarginalConstraint(c1.registers + c2.registers, psi.tensor(phi))
    h1 = _entropy(e1, target1, alpha, c1)
    h2 = _entropy(e2, target2, alpha, c2)
    hc = _entropy(comp, target1 + target2, alpha, cj)
    return float(hc - h1 - h2)


def verify_additivity(e1: Channel, e2: Channel, psi: State, phi: State,
                      alpha, *, target1, target2):
    """(joint, sum, gap) for the parallel composition: the entropy of
    ``e1 (x) e2`` under the product marginal against the sum of the parts.

    What has been measured: when ``psi`` and ``phi`` pin every input
    register, the gap closes to the certified widths at the orders tested
    (1/2, 0.75, 2 and inf).  With a free input register the joint infimum
    can fall below the sum near order 1/2, through inputs correlated across
    the two channels; see :func:`verify_weak_additivity`.  The range of
    orders over which the gap vanishes for partly pinned inputs is open.
    """
    target1 = as_labels(target1)
    target2 = as_labels(target2)
    e2d, phid, mapping = _disjoin(e1, e2, phi)
    target2d = tuple(mapping.get(l, l) for l in target2)
    ej = e1.tensor(e2d)
    c1 = MarginalConstraint(tuple(psi.space.labels), psi)
    c2 = MarginalConstraint(tuple(phid.space.labels), phid)
    cj = MarginalConstraint(c1.registers + c2.registers, psi.tensor(phid))
    h1 = _entropy(e1, target1, alpha, c1)
    h2 = _entropy(e2d, target2d, alpha, c2)
    hj = _entropy(ej, target1 + target2d, alpha, cj)
    return float(hj), float(h1 + h2), float(hj - h1 - h2)


def verify_weak_additivity(e: Channel, psi: State, alpha, *, target,
                           copies: int = 2):
    """(per-copy joint, single, gap) for ``copies`` parallel uses of one
    channel under the product marginal.

    What has been measured: when ``psi`` pins every input register, the gap
    closes to the certified widths at the orders tested (1/2, 0.75, 2 and
    inf).  With a free input register it can be negative near order 1/2:
    on the channel ``random_channel(space(("A", 2), ("F", 2)),
    space(("T", 2)), seed=12, kraus_rank=2)`` with only A pinned, two
    copies give a per-copy gap of -7.2e-4 at 1/2, where the joint optimal
    input is correlated across the copies, and at most 6e-10 in size at
    0.65, 0.75, 2 and inf.  The range of orders over which the gap
    vanishes is open.
    """
    target = as_labels(target)
    if copies < 2:
        raise InvalidState("weak additivity needs at least two copies")
    labels = e.in_space.labels + e.out_space.labels
    joint = None
    targets: list[str] = []
    con_regs: list[str] = []
    con_state = None
    for i in range(copies):
        mapping = {l: f"{l}_{i}" for l in labels}
        ei = e.renamed(mapping)
        psii = _renamed_state(psi, mapping)
        joint = ei if joint is None else joint.tensor(ei)
        targets.extend(mapping[l] for l in target)
        con_regs.extend(psii.space.labels)
        con_state = psii if con_state is None else con_state.tensor(psii)
    cj = MarginalConstraint(tuple(con_regs), con_state)
    c1 = MarginalConstraint(tuple(psi.space.labels), psi)
    hj = _entropy(joint, tuple(targets), alpha, cj)
    h1 = _entropy(e, target, alpha, c1)
    return float(hj / copies), float(h1), float(hj / copies - h1)
