"""Optimized conditional output entropies of channels.

Given a channel, a target slice of its output, and (optionally) a pinned
marginal on part of its input, :func:`channel_cond_entropy` computes the
infimum of the conditional Renyi entropy of the target given the rest of
the output *and* a stabilizing reference register that purifies the input.
The reference makes the infimum meaningful (without it, discarding input
correlations would be free) and is what the chain rule and additivity
statements below are about.

Routes, by order:

* generic finite orders run a projected quasi-Newton descent over input
  purification isometries, with the inner conditioning optimum supplied by
  the fixed-point/polish engine of :mod:`renyimeat.entropies` and analytic
  first-order information obtained by differentiating through that optimum;
* ``alpha = inf`` and ``alpha = 1/2`` each become one semidefinite program
  over *mixed* inputs of a reduced dilation of the channel, at the conjugate
  order 1/2 resp. inf: a root-fidelity program in Watrous's block form
  resp. a max-divergence covering program, exact and certified by the
  duality gap — this rewrite needs the default stabilizer dimension;
* inputs that are completely pinned by the constraint skip the outer
  optimization entirely (all purifications are related by an isometry on
  the reference, which the entropy cannot see).

The module also hosts the optimized channel divergence that generalizes the
entropy (:func:`minimized_channel_divergence`), builders for the primal/dual
SDP pairs behind the measured chain rule (:func:`build_sdp_individual`,
:func:`build_sdp_joint`), and numerical checks of the chain rule and
additivity statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _perm_matrix, compose, trace_out_channel
from .divergences import LN2, as_order, sandwiched_divergence
from .entropies import (_optimize_sigma, _power_frechet_map,
                        _support_isometry, cond_entropy_up,
                        von_neumann_entropy)
from .errors import (InfeasibleSpec, InvalidRegister, InvalidState,
                     NonConvergence, UnsupportedOrder)
from .registers import (EIG_CUT, LOG2E, RegisterSpace, State,
                        canonical_purification_vector, divided_differences,
                        embed_operator, herm_part, herm_power, ket_state,
                        space)
from .sampling import rng_from
from .sdp import SdpProblem, hermitian_basis, solve_sdp

#: outer stationarity target: the Riemannian gradient norm (relative to the
#: value scale) below which a descent run counts as converged
GRAD_TOL = 1e-6

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

class MarginalConstraint:
    """Pin the reduced state of the optimized input on named registers.

    ``register`` is a label or a sequence of labels; ``state`` must be a
    normalized density operator carrying exactly those registers.  The state
    is stored reordered to the ``register`` order given.
    """

    def __init__(self, register, state: State):
        regs = (register,) if isinstance(register, str) else tuple(register)
        if sorted(regs) != sorted(state.space.labels):
            raise InvalidRegister(
                f"constraint registers {regs} do not match the state's "
                f"registers {state.space.labels}")
        if tuple(state.space.labels) != regs:
            state = state.reorder(regs)
        if abs(state.trace() - 1.0) > 1e-9:
            raise InvalidState("constraint state must have unit trace")
        if float(np.linalg.eigvalsh(herm_part(state.matrix)).min()) < -1e-9:
            raise InvalidState("constraint state must be positive")
        self.registers = regs
        self.state = state

    def __repr__(self):
        return f"<MarginalConstraint on {list(self.registers)}>"


class ChannelEntropyProblem:
    """A channel, which output registers to treat as the target, the order,
    and (optionally) an input marginal constraint.

    ``stabilizer_dim`` is the dimension of the purifying reference register
    adjoined to the input; the default (the full input dimension) is always
    sufficient, and the convex rewrites at the endpoint orders require it.
    """

    def __init__(self, channel: Channel, target, alpha, *,
                 constraint: MarginalConstraint | None = None,
                 stabilizer_dim: int | None = None):
        target = (target,) if isinstance(target, str) else tuple(target)
        if not target:
            raise InvalidRegister("at least one target register is required")
        for l in target:
            channel.out_space.position(l)
        if constraint is not None:
            for l in constraint.registers:
                if channel.in_space.dim_of(l) != constraint.state.space.dim_of(l):
                    raise InvalidRegister(
                        f"constraint register {l!r} has the wrong dimension")
        if stabilizer_dim is None:
            stabilizer_dim = channel.in_space.dim
        if int(stabilizer_dim) < 1:
            raise InvalidState("stabilizer dimension must be positive")
        self.channel = channel
        self.target = target
        self.alpha = as_order(alpha)
        self.constraint = constraint
        self.stabilizer_dim = int(stabilizer_dim)


@dataclass
class ChannelEntropyResult:
    """Outcome of a channel entropy optimization.

    ``value`` is always achieved by ``witness`` (a pure input on the channel
    input plus the stabilizer register), so it upper-bounds the true infimum
    even on unconverged runs.  ``spread`` is the scatter between the best and
    runner-up restart (0 when the route is deterministic).  Unpacks as
    ``(value, witness)``.
    """
    value: float
    witness: State
    spread: float
    converged: bool
    method: str

    def __iter__(self):
        return iter((self.value, self.witness))


# ------------------------------------------------- input-set bookkeeping

class _MarginalSet:
    """Density operators on (constrained x free) input with a pinned marginal.

    Works in restricted coordinates: the constrained registers are cut to the
    support of the pinned state (this is lossless — any operator with that
    marginal lives inside the support — and keeps interior points strictly
    positive for the barrier solver).  Basis order is the constraint's
    register order followed by the remaining input registers in channel
    order; ``embed`` is the isometry back to the channel's own input basis.
    """

    def __init__(self, in_space: RegisterSpace, constraint, *, support=None):
        self.in_space = in_space
        self.constraint = constraint
        if constraint is not None:
            a_labels = constraint.registers
            for l in a_labels:
                if in_space.dim_of(l) != constraint.state.space.dim_of(l):
                    raise InvalidRegister(
                        f"constraint register {l!r} has the wrong dimension")
            U = support if support is not None \
                else _support_isometry(constraint.state.matrix)
            self.psi_r = herm_part(U.conj().T @ constraint.state.matrix @ U)
            self.rank_a = U.shape[1]
        else:
            a_labels = ()
            U = np.eye(1)
            self.psi_r = None
            self.rank_a = 1
        self.a_labels = tuple(a_labels)
        self.a_space = RegisterSpace(
            (l, in_space.dim_of(l)) for l in a_labels)
        self.free_space = in_space.drop(a_labels)
        self.ordered_space = self.a_space.tensor(self.free_space)
        P = _perm_matrix(self.ordered_space, in_space.labels) \
            if len(self.ordered_space) else np.eye(1)
        self.embed = P @ np.kron(U, np.eye(self.free_space.dim))
        self.dim = self.rank_a * self.free_space.dim

    @property
    def fixed(self) -> bool:
        return self.constraint is not None and self.free_space.dim == 1

    def start(self) -> np.ndarray:
        d_f = self.free_space.dim
        if self.constraint is None:
            return np.eye(self.dim) / self.dim
        return np.kron(self.psi_r, np.eye(d_f) / d_f)

    def restrict_kraus(self, kraus):
        return [K @ self.embed for K in kraus]

    def equalities(self):
        """(matrix-on-set, rhs) pairs pinning the marginal (or the trace)."""
        d_f = self.free_space.dim
        if self.constraint is None:
            return [(np.eye(self.dim), 1.0)]
        out = []
        for E in hermitian_basis(self.rank_a):
            out.append((np.kron(E, np.eye(d_f)),
                        float(np.real(np.trace(E @ self.psi_r)))))
        return out

    def lmo(self, G: np.ndarray):
        """Feasible point minimizing the linear functional tr[G rho]."""
        if self.fixed:
            return self.psi_r.copy()
        if self.constraint is None:
            v = np.linalg.eigh(herm_part(G))[1][:, 0]
            return np.outer(v, v.conj())
        prob = SdpProblem(sense="min")
        prob.add_block("rho", self.dim)
        prob.add_objective("rho", herm_part(G))
        for M, rhs in self.equalities():
            prob.add_eq_constraint({"rho": M}, rhs)
        sol = solve_sdp(prob, start={"rho": self.start()},
                        gap_tol=1e-9, gap_ceiling=1e-5)
        return herm_part(sol.variables["rho"])

    def unrestrict(self, rho_r: np.ndarray) -> np.ndarray:
        """Map a set element back to the channel's input basis."""
        return herm_part(self.embed @ rho_r @ self.embed.conj().T)


# ------------------------------------------------------- direct-route setup

class _DirectSetup:
    """Geometry for the optimization over purified inputs.

    The input is parametrized as ``(id (x) V) |can>`` with ``|can>`` the
    canonical purification of the pinned marginal and ``V`` an isometry from
    the purifying register into (free input) x (stabilizer); this reaches
    exactly the feasible pure inputs.  Kraus operators are pre-embedded so
    that the output is ordered target-first, conditioning (plus stabilizer)
    last, as the inner entropy engine expects.
    """

    def __init__(self, problem: ChannelEntropyProblem):
        ch = problem.channel
        self.problem = problem
        taken = set(ch.in_space.labels) | set(ch.out_space.labels)
        self.stab_label = _fresh_label("R", taken)
        self.cond_labels = tuple(l for l in ch.out_space.labels
                                 if l not in problem.target)

        con = problem.constraint
        if con is not None:
            vec, pspace = canonical_purification_vector(con.state, "_p")
            d_a = con.state.space.dim
            self.d_p = pspace.dim
            self.can = vec.reshape(d_a, self.d_p)
            a_regs = [(l, ch.in_space.dim_of(l)) for l in con.registers]
        else:
            self.d_p = 1
            self.can = np.eye(1, dtype=complex)
            a_regs = []
        free_regs = [(l, d) for l, d in ch.in_space
                     if con is None or l not in con.registers]
        d_s = problem.stabilizer_dim
        self.d_m = int(np.prod([d for _, d in free_regs], initial=1)) * d_s
        if self.d_m < self.d_p:
            raise InfeasibleSpec(
                f"free input x stabilizer (dim {self.d_m}) cannot carry the "
                f"purifying register (dim {self.d_p}); raise stabilizer_dim")
        self.ambient_in = RegisterSpace(
            a_regs + free_regs + [(self.stab_label, d_s)])

        ks, out_emb = ch.embedded_kraus(self.ambient_in)
        order = problem.target + self.cond_labels + (self.stab_label,)
        P = _perm_matrix(out_emb, order)
        self.kraus = [P @ K for K in ks]
        self.out_space = out_emb.reorder(order)
        self.d_q = int(np.prod(ch.out_space.dims_of(problem.target)))
        self.d_cond = self.out_space.dim // self.d_q

    # -- evaluation --------------------------------------------------------

    def input_vector(self, V: np.ndarray) -> np.ndarray:
        return (self.can @ V.T).reshape(-1)

    def output_factor(self, V: np.ndarray) -> np.ndarray:
        """Columns K_k |r(V)>; the output state is W W^dag."""
        r = self.input_vector(V)
        return np.column_stack([K @ r for K in self.kraus])

    def inner_entropy(self, W: np.ndarray, alpha, sigma0):
        """(H, sigma, converged) of the target given conditioning at W."""
        omega = herm_part(W @ W.conj().T)
        if alpha.near_one:
            cond = _partial_trace_first(omega, self.d_q, self.d_cond)
            return (von_neumann_entropy(omega) - von_neumann_entropy(cond),
                    None, True)
        a = alpha.value
        if self.d_cond == 1:
            ev = np.clip(np.linalg.eigvalsh(omega), 0.0, None)
            t = float(np.sum(ev[ev > EIG_CUT * max(ev.max(initial=0.0),
                                                   1e-300)] ** a))
            return -math.log2(max(t, 1e-300)) / (a - 1.0), np.eye(1), True
        # keep the warm start full-rank: a rank-deficient sigma0 that fails
        # to dominate the new conditioning marginal pins the engine at +inf
        d = self.d_cond
        sig0 = 0.99 * sigma0 + 0.01 * np.eye(d) / d
        log2_t, sigma, conv = _optimize_sigma([omega], [0.0], self.d_q,
                                              d, a, sig0)
        return -log2_t / (a - 1.0), sigma, conv

    def gradient(self, V: np.ndarray, W: np.ndarray, sigma, alpha):
        """Euclidean gradient of the entropy in V, in the convention
        dF = 2 Re tr[G^dag dV] (the inner optimum contributes no first-order
        term, so sigma is held fixed)."""
        omega = herm_part(W @ W.conj().T)
        if alpha.near_one:
            cond = _partial_trace_first(omega, self.d_q, self.d_cond)
            g_om = -_floored_log2(omega) \
                + np.kron(np.eye(self.d_q), _floored_log2(cond))
        else:
            a = alpha.value
            s = (1.0 - a) / (2.0 * a)
            sig_s = herm_power(sigma, s) if self.d_cond > 1 else np.eye(1)
            B = np.kron(np.eye(self.d_q), sig_s)
            M = B @ W
            hv, hU = np.linalg.eigh(herm_part(M.conj().T @ M))
            hv = np.clip(hv, 0.0, None)
            top = hv.max(initial=0.0)
            keep = hv > EIG_CUT * max(top, 1e-300)
            t_tot = float(np.sum(hv[keep] ** a))
            if t_tot <= 0.0:
                return np.zeros((self.d_m, self.d_p), dtype=complex)
            pw = np.where(keep, np.power(np.where(keep, hv, 1.0), a - 2.0), 0.0)
            M2 = np.kron(np.eye(self.d_q), sig_s) @ M  # tau^{2s}-dressed
            g_om = -(a / ((a - 1.0) * LN2 * t_tot)) \
                * (M2 @ ((hU * pw) @ hU.conj().T) @ M2.conj().T)
        g_r = np.zeros(self.ambient_in.dim, dtype=complex)
        for k, K in enumerate(self.kraus):
            g_r += K.conj().T @ (g_om @ W[:, k])
        g_mat = g_r.reshape(self.can.shape[0], self.d_m)
        return g_mat.T @ self.can.conj()

    def witness(self, V: np.ndarray) -> State:
        return ket_state(self.input_vector(V), self.ambient_in)


def _partial_trace_first(mat: np.ndarray, d_first: int, d_rest: int):
    return np.trace(mat.reshape(d_first, d_rest, d_first, d_rest),
                    axis1=0, axis2=2)


def _floored_log2(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(herm_part(mat))
    floor = _LOG_FLOOR * max(vals.max(initial=0.0), 1e-300)
    return (vecs * np.log2(np.clip(vals, floor, None))) @ vecs.conj().T


# ------------------------------------------------ direct route: optimization

def _polar_retract(M: np.ndarray) -> np.ndarray:
    U, _, Wt = np.linalg.svd(M, full_matrices=False)
    return U @ Wt


def _start_isometries(d_m: int, d_p: int, restarts: int, seed):
    rng = rng_from(seed)
    outs = [np.eye(d_m, d_p, dtype=complex)]
    for _ in range(max(0, restarts - 1)):
        G = rng.standard_normal((d_m, d_p)) + 1j * rng.standard_normal((d_m, d_p))
        Q, R = np.linalg.qr(G)
        outs.append(Q[:, :d_p] * np.sign(np.sign(np.real(np.diag(R))) + 0.5))
    return outs


def _descend_isometry(setup: _DirectSetup, alpha, V0, *, grad_tol, max_iters):
    """Quasi-Newton descent on the isometry manifold (L-BFGS directions,
    polar retraction, Armijo on the true objective with warm inner solves).

    Returns (value, V, sigma, converged); the value is always feasible, so
    an unconverged run still yields a valid upper bound.
    """
    d_cond = setup.d_cond
    sigma = np.eye(d_cond) / d_cond
    V = V0
    value, sigma, _ = setup.inner_entropy(setup.output_factor(V), alpha, sigma)
    if not np.isfinite(value):
        return value, V, sigma, False

    def riem(Vc, G):
        return G - Vc @ herm_part(Vc.conj().T @ G)

    def flat(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])

    def unflat(x):
        half = x.size // 2
        return (x[:half] + 1j * x[half:]).reshape(setup.d_m, setup.d_p)

    W = setup.output_factor(V)
    R = riem(V, setup.gradient(V, W, sigma, alpha))
    mem: list[tuple[np.ndarray, np.ndarray]] = []
    step = 1.0
    converged = False
    for _ in range(max_iters):
        gnorm = float(np.linalg.norm(R))
        if gnorm <= grad_tol * max(1.0, abs(value)):
            converged = True
            break
        # two-loop L-BFGS recursion on the flattened tangent vector
        q = flat(R)
        alphas = []
        for s_v, y_v in reversed(mem):
            rho_i = 1.0 / float(s_v @ y_v)
            a_i = rho_i * float(s_v @ q)
            alphas.append((rho_i, a_i, s_v, y_v))
            q = q - a_i * y_v
        if mem:
            s_l, y_l = mem[-1]
            q = q * (float(s_l @ y_l) / float(y_l @ y_l))
        for rho_i, a_i, s_v, y_v in reversed(alphas):
            b_i = rho_i * float(y_v @ q)
            q = q + (a_i - b_i) * s_v
        D = riem(V, -unflat(q))
        slope = 2.0 * float(np.real(np.sum(D.conj() * R)))
        if slope >= 0.0:
            D = -R
            slope = -2.0 * gnorm ** 2
            mem.clear()
        t = step
        accepted = False
        for _bt in range(40):
            Vc = _polar_retract(V + t * D)
            Wc = setup.output_factor(Vc)
            vc, sig_c, _ = setup.inner_entropy(Wc, alpha, sigma)
            if np.isfinite(vc) and vc <= value + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = gnorm <= 1e2 * grad_tol * max(1.0, abs(value))
            break
        R_new = riem(Vc, setup.gradient(Vc, Wc, sig_c, alpha))
        s_v = flat(Vc - V)
        y_v = flat(R_new - R)
        if float(s_v @ y_v) > 1e-12 * np.linalg.norm(s_v) * np.linalg.norm(y_v):
            mem.append((s_v, y_v))
            if len(mem) > 8:
                mem.pop(0)
        V, value, R = Vc, vc, R_new
        sigma = sig_c if sig_c is not None else sigma
        step = min(t * 2.0, 4.0)
    return value, V, sigma, converged


def _solve_direct(problem: ChannelEntropyProblem, *, restarts, seed,
                  grad_tol, max_iters) -> ChannelEntropyResult:
    setup = _DirectSetup(problem)
    alpha = problem.alpha
    runs = []
    for V0 in _start_isometries(setup.d_m, setup.d_p, restarts, seed):
        runs.append(_descend_isometry(setup, alpha, V0,
                                      grad_tol=grad_tol, max_iters=max_iters))
    finite = [r for r in runs if np.isfinite(r[0])]
    if not finite:
        raise NonConvergence("no isometry start produced a finite entropy")
    finite.sort(key=lambda r: r[0])
    value, V, _, conv = finite[0]
    if not any(r[3] for r in finite):
        raise NonConvergence(
            "isometry descent did not reach stationarity on any restart",
            value=value)
    spread = finite[1][0] - value if len(finite) > 1 else 0.0
    return ChannelEntropyResult(value=value, witness=setup.witness(V),
                                spread=float(spread),
                                converged=bool(conv or spread <= 1e-8),
                                method="isometry-descent")


# ----------------------------------- endpoint orders via the reduced dilation

class _ReducedDilation:
    """Kraus operators of (trace the conditioning output) o (dilate).

    Maps marginal-set coordinates to (target x environment); optimizing a
    divergence of this map against ``id (x) sigma`` over *mixed* inputs is
    the convex rewrite of the entropy at the endpoint orders, valid when the
    stabilizer is at least as large as the input.
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
        out = np.zeros((self.d_t * self.d_env,) * 2, dtype=complex)
        for J in self.kraus:
            out += J @ rho @ J.conj().T
        return herm_part(out)

    def pullback(self, G: np.ndarray) -> np.ndarray:
        acc = np.zeros((self.kraus[0].shape[1],) * 2, dtype=complex)
        for J in self.kraus:
            acc += J.conj().T @ G @ J
        return herm_part(acc)


def _partial_trace_last(mat, d_first, d_last):
    return np.trace(mat.reshape(d_first, d_last, d_first, d_last),
                    axis1=1, axis2=3)


def _solve_inf(problem: ChannelEntropyProblem,
               mset: _MarginalSet) -> ChannelEntropyResult:
    """alpha = inf is conjugate to the root fidelity: maximize Re tr[Z] over
    [[N[rho], Z], [Z^dag, I (x) sigma]] >= 0 with rho in the marginal set and
    tr[sigma] = 1 (Watrous's block form); the entropy is -2 log2 of the
    optimum.  One SDP, certified by its duality gap.

    Both diagonal blocks are compressed to the range of N at the interior
    start, which holds N[rho] for every feasible rho; the fidelity is
    unchanged, and the compressed start is strictly feasible even when the
    output is rank-deficient.
    """
    red = _ReducedDilation(problem, mset)
    rho0 = mset.start()
    omega0 = red.apply(rho0)
    U = _support_isometry(omega0)
    r = U.shape[1]
    prob = SdpProblem(sense="max")
    prob.add_block("rho", mset.dim)
    prob.add_block("sigma", red.d_env)
    prob.add_block("block", 2 * r)
    C = np.zeros((2 * r, 2 * r), dtype=complex)
    C[:r, r:] = C[r:, :r] = 0.5 * np.eye(r)
    prob.add_objective("block", C)
    for M, rhs in mset.equalities():
        prob.add_eq_constraint({"rho": M}, rhs)
    prob.add_eq_constraint({"sigma": np.eye(red.d_env)}, 1.0)
    for E in hermitian_basis(r):
        lifted = U @ E @ U.conj().T
        pin = np.zeros((2 * r, 2 * r), dtype=complex)
        pin[:r, :r] = E
        prob.add_eq_constraint({"block": pin, "rho": -red.pullback(lifted)},
                               0.0)
        link = np.zeros((2 * r, 2 * r), dtype=complex)
        link[r:, r:] = E
        prob.add_eq_constraint(
            {"block": link,
             "sigma": -_partial_trace_first(lifted, red.d_t, red.d_env)}, 0.0)
    sigma0 = np.eye(red.d_env) / red.d_env
    block0 = np.zeros((2 * r, 2 * r), dtype=complex)
    block0[:r, :r] = herm_part(U.conj().T @ omega0 @ U)
    block0[r:, r:] = herm_part(U.conj().T @ np.kron(np.eye(red.d_t), sigma0)
                               @ U)
    sol = solve_sdp(prob, start={"rho": rho0, "sigma": sigma0,
                                 "block": block0})
    value = -2.0 * math.log2(max(sol.value, 1e-300))
    witness = _purified_witness(problem, mset, _project_psd(sol.variables["rho"]))
    return ChannelEntropyResult(value=value, witness=witness, spread=0.0,
                                converged=True, method="fidelity-program")


def _solve_half(problem: ChannelEntropyProblem,
                mset: _MarginalSet) -> ChannelEntropyResult:
    """alpha = 1/2 is conjugate to a max-divergence program: minimize tr[S]
    over I (x) S >= N[rho] and the marginal set; the entropy is log2 of the
    optimum.  One SDP, certified by its duality gap."""
    red = _ReducedDilation(problem, mset)
    n = red.d_t * red.d_env
    nsp = space(("t", red.d_t), ("z", red.d_env))
    prob = SdpProblem(sense="min")
    prob.add_block("rho", mset.dim)
    prob.add_block("cover", red.d_env)
    prob.add_objective("cover", np.eye(red.d_env))
    for M, rhs in mset.equalities():
        prob.add_eq_constraint({"rho": M}, rhs)

    def cover_adj(E):
        return _partial_trace_first(E, red.d_t, red.d_env)

    prob.add_operator_inequality(
        [("cover", cover_adj), ("rho", lambda E: -red.pullback(E))],
        np.zeros((n, n)), slack="slack")
    rho0 = mset.start()
    omega0 = red.apply(rho0)
    c0 = float(np.linalg.eigvalsh(omega0).max()) + 0.5
    start = {"rho": rho0, "cover": c0 * np.eye(red.d_env),
             "slack": np.kron(np.eye(red.d_t), c0 * np.eye(red.d_env)) - omega0}
    sol = solve_sdp(prob, start=start)
    value = math.log2(max(sol.value, 1e-300))
    witness = _purified_witness(problem, mset, _project_psd(sol.variables["rho"]))
    return ChannelEntropyResult(value=value, witness=witness, spread=0.0,
                                converged=True, method="covering-program")


def _project_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(herm_part(mat))
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    return herm_part(out / max(float(np.real(np.trace(out))), 1e-300))


def _purified_witness(problem, mset: _MarginalSet, rho_r: np.ndarray) -> State:
    """Purify a mixed-input optimizer onto the stabilizer register."""
    ch = problem.channel
    st = State(mset.unrestrict(rho_r), ch.in_space, check=False)
    vec, pspace = canonical_purification_vector(st, "_p")
    d_in, r = ch.in_space.dim, pspace.dim
    d_s = problem.stabilizer_dim
    if r > d_s:
        raise InfeasibleSpec("stabilizer too small to purify the optimizer")
    mat = np.zeros((d_in, d_s), dtype=complex)
    mat[:, :r] = vec.reshape(d_in, r)
    taken = set(ch.in_space.labels) | set(ch.out_space.labels)
    stab = _fresh_label("R", taken)
    full = ch.in_space.tensor(space((stab, d_s)))
    return ket_state(mat.reshape(-1), full)


# ----------------------------------------------------------------- front door

def channel_cond_entropy(problem: ChannelEntropyProblem, *, restarts: int = 20,
                         seed=0, grad_tol: float = GRAD_TOL,
                         max_iters: int = 300) -> ChannelEntropyResult:
    """Infimum of the conditional entropy of the channel output target given
    the remaining output and the purifying reference, over feasible inputs.

    Returns a :class:`ChannelEntropyResult` (unpacks as ``(value, witness)``).
    Raises :class:`NonConvergence` — carrying the best feasible value — when
    no restart of the descent route reaches stationarity, and
    :class:`UnsupportedOrder` for the endpoint orders combined with a
    stabilizer smaller than the input (their convex rewrite needs the
    default).
    """
    alpha = problem.alpha
    full_stab = problem.stabilizer_dim >= problem.channel.in_space.dim

    mset = _MarginalSet(problem.channel.in_space, problem.constraint)
    if mset.fixed:
        # the input is pinned: every purification gives the same entropy
        return _pinned_input_entropy(problem, mset)
    if alpha.is_infinite:
        if not full_stab:
            raise UnsupportedOrder(
                "alpha=inf needs stabilizer_dim >= the input dimension")
        return _solve_inf(problem, mset)
    if alpha.is_half:
        if full_stab:
            return _solve_half(problem, mset)
    return _solve_direct(problem, restarts=restarts, seed=seed,
                         grad_tol=grad_tol, max_iters=max_iters)


def _pinned_input_entropy(problem, mset):
    ch = problem.channel
    st = State(mset.unrestrict(mset.psi_r), ch.in_space, check=False)
    taken = set(ch.in_space.labels) | set(ch.out_space.labels)
    stab = _fresh_label("R", taken)
    pure = st.purified(stab)
    out = ch.apply(pure)
    cond = [l for l in out.space.labels if l not in problem.target]
    value = cond_entropy_up(out, list(problem.target), cond, problem.alpha)
    witness = _purified_witness(problem, mset, mset.psi_r)
    return ChannelEntropyResult(value=float(value), witness=witness,
                                spread=0.0, converged=True,
                                method="pinned-input")


def entropy_at_witness(channel: Channel, target, witness: State,
                       alpha) -> float:
    """Conditional entropy of the channel output at one explicit input.

    ``witness`` may carry extra (reference) registers beyond the channel
    input; they join the conditioning side.  This evaluates the objective at
    a feasible point, so it upper-bounds the optimized channel entropy.
    """
    target = (target,) if isinstance(target, str) else tuple(target)
    out = channel.apply(witness)
    cond = [l for l in out.space.labels if l not in target]
    return float(cond_entropy_up(out, list(target), cond, alpha))


# --------------------------------------------- optimized channel divergence

class IdentityTensor:
    """Stands in for the map ``sigma -> I_pad (x) sigma`` as the second
    argument of :func:`minimized_channel_divergence` (the comparison maps of
    the entropy rewrites are of this shape).  Output registers are the pad
    registers followed by the input registers."""

    def __init__(self, pad_space: RegisterSpace, in_space: RegisterSpace):
        for l in pad_space.labels:
            if l in in_space.labels:
                raise InvalidRegister(f"pad register {l!r} shadows an input")
        self.pad_space = pad_space
        self.in_space = in_space
        self.out_space = pad_space.tensor(in_space)

    def apply_matrix(self, sigma: np.ndarray) -> np.ndarray:
        return np.kron(np.eye(self.pad_space.dim), sigma)

    def pullback(self, G: np.ndarray) -> np.ndarray:
        return _partial_trace_first(G, self.pad_space.dim, self.in_space.dim)


class _SecondArgument:
    """Uniform view of the sigma side: a Channel (possibly trace scaling) or
    an :class:`IdentityTensor`, with its own marginal set."""

    def __init__(self, n, constraint):
        self.mset = _MarginalSet(n.in_space, constraint)
        if isinstance(n, IdentityTensor):
            self.kraus = None
            self.ident = n
        else:
            self.kraus = self.mset.restrict_kraus(n.kraus)
            self.ident = None
        self.out_space = n.out_space

    def apply(self, sigma_r: np.ndarray) -> np.ndarray:
        if self.ident is not None:
            return self.ident.apply_matrix(self.mset.unrestrict(sigma_r))
        out_dim = self.out_space.dim
        out = np.zeros((out_dim, out_dim), dtype=complex)
        for K in self.kraus:
            out += K @ sigma_r @ K.conj().T
        return herm_part(out)

    def pullback(self, G: np.ndarray) -> np.ndarray:
        if self.ident is not None:
            full = self.ident.pullback(G)
            E = self.mset.embed
            return herm_part(E.conj().T @ full @ E)
        acc = np.zeros((self.mset.dim,) * 2, dtype=complex)
        for K in self.kraus:
            acc += K.conj().T @ G @ K
        return herm_part(acc)


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
    tau_s = herm_power(tau, s)
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
    g_tau = c * _power_frechet_map(tau, s)(Mx + Mx.conj().T)
    return g_om, g_tau


def minimized_channel_divergence(m: Channel, n, constraints, alpha, *,
                                 restarts: int = 3, seed=0,
                                 value_tol: float = 1e-6,
                                 max_iters: int = 3000) -> float:
    """Infimum of D_alpha(M[rho] || N[sigma]) over marginal-constrained
    inputs on both sides.

    ``n`` may be a :class:`Channel` (trace-scaling CP maps are allowed) or an
    :class:`IdentityTensor`; ``constraints`` is a pair of optional
    :class:`MarginalConstraint` for the two inputs.  Orders in [1/2, 1] are
    jointly convex, and the conditional-gradient gap then certifies the
    returned value; there :class:`NonConvergence` is raised when the run
    ends without a finite value and a gap below ``value_tol`` (e.g. when the
    outputs at the start have orthogonal supports).  For other orders the
    method is a multi-start descent and the result is the best stationary
    value found.
    """
    alpha = as_order(alpha)
    if sorted(m.out_space.labels) != sorted(n.out_space.labels):
        raise InvalidRegister("the two maps must share their output registers")
    cm, cn = constraints
    if not m.is_trace_preserving:
        raise InvalidState("the first argument must be trace preserving")
    mside = _MarginalSet(m.in_space, cm)
    m_kraus = mside.restrict_kraus(m.kraus)
    nside = _SecondArgument(n, cn)
    P_out = _perm_matrix(n.out_space, m.out_space.labels)

    if alpha.is_infinite:
        return _max_divergence_program(mside, m_kraus, nside, P_out, m)

    certified = (not alpha.near_one) and alpha.value <= 1.0 + 1e-12 \
        and alpha.value >= 0.5 - 1e-12
    certified = certified or alpha.near_one

    def m_apply(rho_r):
        d = m.out_space.dim
        out = np.zeros((d, d), dtype=complex)
        for K in m_kraus:
            out += K @ rho_r @ K.conj().T
        return herm_part(out)

    def value_at(rho_r, sig_r):
        tau = P_out @ nside.apply(sig_r) @ P_out.conj().T
        return sandwiched_divergence(m_apply(rho_r), tau, alpha)

    def run(rho, sig):
        best = value_at(rho, sig)
        gap = math.inf
        for _ in range(max_iters):
            if not np.isfinite(best):
                break
            omega = m_apply(rho)
            tau = P_out @ nside.apply(sig) @ P_out.conj().T
            g_om, g_tau = _divergence_grads(omega, tau, alpha)
            g_rho = np.zeros((mside.dim,) * 2, dtype=complex)
            for K in m_kraus:
                g_rho += K.conj().T @ g_om @ K
            g_sig = nside.pullback(P_out.conj().T @ g_tau @ P_out)
            v_rho = mside.lmo(herm_part(g_rho))
            v_sig = nside.mset.lmo(herm_part(g_sig))
            gap = float(np.real(np.trace(g_rho @ (rho - v_rho)))
                        + np.real(np.trace(g_sig @ (sig - v_sig))))
            if gap <= value_tol * max(1.0, abs(best)):
                break
            t, moved = 1.0, False
            for _bt in range(40):
                rc = (1.0 - t) * rho + t * v_rho
                sc = (1.0 - t) * sig + t * v_sig
                vc = value_at(rc, sc)
                if np.isfinite(vc) and vc <= best - 0.1 * t * gap:
                    rho, sig, best, moved = rc, sc, vc, True
                    break
                t *= 0.5
            if not moved:
                break
        return best, gap

    rho0, sig0 = mside.start(), nside.mset.start()
    best, gap = run(rho0, sig0)
    if certified:
        if not (math.isfinite(best) and math.isfinite(gap)) \
                or gap > value_tol * max(1.0, abs(best)):
            raise NonConvergence("conditional gradient stalled before its "
                                 "certificate", value=best, gap=gap)
        return float(best)
    rng = rng_from(seed)
    for _ in range(max(0, restarts - 1)):
        r0 = _random_feasible(mside, rng)
        s0 = _random_feasible(nside.mset, rng)
        v, _ = run(r0, s0)
        best = min(best, v)
    return float(best)


def entropy_via_conjugate_divergence(channel: Channel, target, constraint,
                                     alpha, **kw) -> float:
    """Recompute the optimized channel entropy as a minimized divergence.

    The entropy of the target given the rest equals the divergence — at the
    conjugate order b = a/(2a-1) — between the conditioning-traced dilation
    of the channel and ``I_target (x) id_env``, minimized over the same
    constrained inputs.  For a >= 1 the divergence program is convex, so
    this is an independent *certified* route to the descent result; keyword
    arguments pass through to :func:`minimized_channel_divergence`.
    """
    target = (target,) if isinstance(target, str) else tuple(target)
    beta = as_order(alpha).conjugate()
    taken = set(channel.in_space.labels) | set(channel.out_space.labels)
    env = _fresh_label("Z", taken)
    iso = channel.stinespring(env)
    dil = Channel([iso.matrix], channel.in_space, iso.out_space)
    cond = [l for l in channel.out_space.labels if l not in target]
    m = compose(trace_out_channel(iso.out_space, cond), dil)
    pad = channel.out_space.keep(target)
    ident = IdentityTensor(pad, m.out_space.drop(pad.labels))
    return minimized_channel_divergence(m, ident, (constraint, None), beta,
                                        **kw)


def _random_feasible(mset: _MarginalSet, rng) -> np.ndarray:
    d_f = mset.free_space.dim
    G = rng.standard_normal((d_f, d_f)) + 1j * rng.standard_normal((d_f, d_f))
    free = herm_part(G @ G.conj().T)
    free = free / float(np.real(np.trace(free)))
    free = 0.5 * free + 0.5 * np.eye(d_f) / d_f
    if mset.constraint is None:
        return free
    return np.kron(mset.psi_r, free)


def _max_divergence_program(mside, m_kraus, nside, P_out, m) -> float:
    """alpha = inf: min log2 tr[S] over N[S] >= M[rho] with S carrying the
    (scaled) sigma marginal — both sides are linear, so this is one SDP."""
    d_out = m.out_space.dim
    prob = SdpProblem(sense="min")
    prob.add_block("rho", mside.dim)
    prob.add_block("scaled", nside.mset.dim)
    prob.add_objective("scaled", np.eye(nside.mset.dim))
    for M, rhs in mside.equalities():
        prob.add_eq_constraint({"rho": M}, rhs)
    # the sigma marginal is pinned up to the overall scale t = tr[S]
    for M, rhs in nside.mset.equalities():
        if rhs == 1.0 and np.allclose(M, np.eye(nside.mset.dim)):
            continue
        prob.add_eq_constraint(
            {"scaled": M - rhs * np.eye(nside.mset.dim)}, 0.0)

    def n_adj(E):
        return nside.pullback(P_out.conj().T @ E @ P_out)

    def m_adj(E):
        acc = np.zeros((mside.dim,) * 2, dtype=complex)
        for K in m_kraus:
            acc += K.conj().T @ E @ K
        return -herm_part(acc)

    prob.add_operator_inequality([("scaled", n_adj), ("rho", m_adj)],
                                 np.zeros((d_out, d_out)), slack="slack")
    rho0 = mside.start()
    omega0 = np.zeros((d_out, d_out), dtype=complex)
    for K in m_kraus:
        omega0 += K @ rho0 @ K.conj().T
    sig0 = nside.mset.start()
    tau0 = P_out @ nside.apply(sig0) @ P_out.conj().T
    tv = np.linalg.eigvalsh(herm_part(tau0))
    if tv.min() <= 1e-12:
        raise InfeasibleSpec("the comparison map must have full-rank output "
                             "at an interior input")
    c0 = float(np.linalg.eigvalsh(herm_part(omega0)).max() / tv.min()) + 1.0
    start = {"rho": rho0, "scaled": c0 * sig0,
             "slack": herm_part(c0 * tau0 - omega0)}
    sol = solve_sdp(prob, start=start)
    return float(math.log2(max(sol.value, 1e-300)))


# ------------------------------------------------------------ SDP pair forms

@dataclass
class SdpPair:
    """A primal/dual SDP pair sharing one optimal value (both Slater-regular
    by construction), plus the data needed to re-check dual feasibility of
    externally supplied certificates."""
    primal: SdpProblem
    dual: SdpProblem
    primal_start: dict
    dual_start: dict
    dual_rhs: np.ndarray
    dual_space: RegisterSpace
    marginal_labels: tuple


def _pair_from_parts(mset: _MarginalSet, channel: Channel, gamma_op,
                     gamma_labels) -> SdpPair:
    out_sp = channel.out_space
    for l in gamma_labels:
        out_sp.position(l)
    big = embed_operator(out_sp, list(gamma_labels), gamma_op)
    ks = mset.restrict_kraus(channel.kraus)
    G = np.zeros((mset.dim,) * 2, dtype=complex)
    for K in ks:
        G += K.conj().T @ big @ K
    G = herm_part(G)

    primal = SdpProblem(sense="max")
    primal.add_block("rho", mset.dim)
    primal.add_objective("rho", G)
    for M, rhs in mset.equalities():
        primal.add_eq_constraint({"rho": M}, rhs)
    primal_start = {"rho": mset.start()}

    # restricted coordinates: constraint labels with the support rank folded
    # into the first one (the labels are bookkeeping; the ordering matters)
    a_regs = [(l, 1) for l in mset.a_labels]
    if a_regs:
        a_regs[0] = (mset.a_labels[0], mset.rank_a)
    dual_space = RegisterSpace(a_regs + list(mset.free_space))
    lam_dim = mset.rank_a

    dual = SdpProblem(sense="min")
    dual.add_block("Lambda", lam_dim)
    dual.add_objective("Lambda", mset.psi_r if mset.constraint is not None
                       else np.eye(1))

    d_f = mset.free_space.dim

    def lam_adj(E):
        return _partial_trace_last(E.reshape(lam_dim * d_f, lam_dim * d_f),
                                   lam_dim, d_f)

    dual.add_operator_inequality([("Lambda", lam_adj)], G, slack="slack")
    c = float(np.linalg.eigvalsh(G).max()) + 1.0
    dual_start = {"Lambda": c * np.eye(lam_dim),
                  "slack": c * np.eye(mset.dim) - G}
    return SdpPair(primal=primal, dual=dual, primal_start=primal_start,
                   dual_start=dual_start, dual_rhs=G, dual_space=dual_space,
                   marginal_labels=tuple(mset.a_labels))


def _as_gamma(gamma) -> tuple[np.ndarray, tuple]:
    if not isinstance(gamma, State):
        raise InvalidState("the test operator must be a labeled State")
    mat = herm_part(gamma.matrix)
    if float(np.linalg.eigvalsh(mat).min()) < -1e-9:
        raise InvalidState("the test operator must be positive semidefinite")
    return mat, tuple(gamma.space.labels)


def build_sdp_individual(gamma, channel: Channel,
                         marginal: MarginalConstraint) -> SdpPair:
    """Primal/dual pair for one round of the measured chain rule.

    Primal: maximize tr[rho . F^dag(Gamma (x) I_traced)] over rho >= 0 with
    the pinned input marginal.  Dual: minimize tr[psi Lambda] over
    Lambda (x) I >= F^dag(Gamma (x) I).  ``gamma`` is a labeled positive
    operator on a slice of the channel output; the other output registers
    are traced.
    """
    gmat, glabels = _as_gamma(gamma)
    mset = _MarginalSet(channel.in_space, marginal)
    return _pair_from_parts(mset, channel, gmat, glabels)


def build_sdp_joint(gamma0, gamma1, channels, marginals, *,
                    form: str = "composed") -> SdpPair:
    """Two-round pair: ``form="composed"`` wires the second channel onto the
    first (the chain-rule direction), ``form="tensor"`` runs them in parallel
    (the additivity direction).  The joint marginal is the product of the
    two pinned marginals."""
    if form not in ("composed", "tensor"):
        raise InvalidState("form must be 'composed' or 'tensor'")
    g0, l0 = _as_gamma(gamma0)
    g1, l1 = _as_gamma(gamma1)
    ch0, ch1 = channels
    c0, c1 = marginals
    if form == "composed":
        joint = compose(ch1, ch0)
    else:
        shared = set(ch0.in_space.labels + ch0.out_space.labels) \
            & set(ch1.in_space.labels + ch1.out_space.labels)
        if shared:
            raise InvalidRegister(
                f"tensor form needs disjoint registers (shared: {shared})")
        joint = ch0.tensor(ch1)
    overlap = set(l0) & set(l1)
    if overlap:
        raise InvalidRegister(f"test operators overlap on {overlap}")
    cj = MarginalConstraint(c0.registers + c1.registers,
                            c0.state.tensor(c1.state))
    # restrict with the tensor of the single-round support isometries, so
    # joint dual certificates live in the same coordinates as Lambda0 (x)
    # Lambda1 from the individual pairs
    sup = np.kron(_support_isometry(c0.state.matrix),
                  _support_isometry(c1.state.matrix))
    mset = _MarginalSet(joint.in_space, cj, support=sup)
    gop = np.kron(g0, g1)
    return _pair_from_parts(mset, joint, gop, l0 + l1)


def product_feasibility_slack(pair: SdpPair, lam0: np.ndarray,
                              lam1: np.ndarray) -> float:
    """Minimum eigenvalue of (Lambda_0 (x) Lambda_1) (x) I - G for a joint
    pair; nonnegative means the tensored individual dual optimizers are
    feasible for the joint dual (the feasibility transfer behind the
    measured chain rule)."""
    op = np.kron(lam0, lam1)
    lam_dim = op.shape[0]
    d_f = pair.dual_rhs.shape[0] // lam_dim
    big = np.kron(op, np.eye(d_f))
    return float(np.linalg.eigvalsh(herm_part(big - pair.dual_rhs)).min())


def solve_sdp_pair(pair: SdpPair, **kw):
    """Solve both sides; returns (primal_solution, dual_solution)."""
    p = solve_sdp(pair.primal, start=pair.primal_start, **kw)
    d = solve_sdp(pair.dual, start=pair.dual_start, **kw)
    return p, d


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


def verify_chain_rule(e1: Channel, e2: Channel, psi: State, phi: State,
                      alpha, *, target1, target2, restarts: int = 30,
                      seed=0) -> float:
    """Slack of the chain rule on the wired composition: the entropy of
    ``e2 . e1`` with joint targets minus the sum of the single-round
    entropies.  Nonnegative up to optimizer tolerance.

    ``psi`` and ``phi`` pin the marginals of the two rounds on the registers
    their spaces name; ``target2`` must survive the composition.
    """
    target1 = (target1,) if isinstance(target1, str) else tuple(target1)
    target2 = (target2,) if isinstance(target2, str) else tuple(target2)
    comp = compose(e2, e1)
    for l in target1 + target2:
        comp.out_space.position(l)
    c1 = MarginalConstraint(tuple(psi.space.labels), psi)
    c2 = MarginalConstraint(tuple(phi.space.labels), phi)
    cj = MarginalConstraint(c1.registers + c2.registers, psi.tensor(phi))
    h1 = channel_cond_entropy(
        ChannelEntropyProblem(e1, target1, alpha, constraint=c1),
        restarts=restarts, seed=seed).value
    h2 = channel_cond_entropy(
        ChannelEntropyProblem(e2, target2, alpha, constraint=c2),
        restarts=restarts, seed=_shift(seed, 1)).value
    hc = channel_cond_entropy(
        ChannelEntropyProblem(comp, target1 + target2, alpha, constraint=cj),
        restarts=restarts, seed=_shift(seed, 2)).value
    return float(hc - h1 - h2)


def verify_additivity(e1: Channel, e2: Channel, psi: State, phi: State,
                      alpha, *, target1, target2, restarts: int = 30,
                      seed=0):
    """(joint, sum, gap) for the parallel composition: the entropy of
    ``e1 (x) e2`` under the product marginal against the sum of the parts.
    The gap vanishes (to optimizer tolerance) — both inequality directions
    hold, the hard one via the chain rule with a trivial interface."""
    target1 = (target1,) if isinstance(target1, str) else tuple(target1)
    target2 = (target2,) if isinstance(target2, str) else tuple(target2)
    e2d, phid, mapping = _disjoin(e1, e2, phi)
    target2d = tuple(mapping.get(l, l) for l in target2)
    ej = e1.tensor(e2d)
    c1 = MarginalConstraint(tuple(psi.space.labels), psi)
    c2 = MarginalConstraint(tuple(phid.space.labels), phid)
    cj = MarginalConstraint(c1.registers + c2.registers, psi.tensor(phid))
    h1 = channel_cond_entropy(
        ChannelEntropyProblem(e1, target1, alpha, constraint=c1),
        restarts=restarts, seed=seed).value
    h2 = channel_cond_entropy(
        ChannelEntropyProblem(e2d, target2d, alpha, constraint=c2),
        restarts=restarts, seed=_shift(seed, 1)).value
    hj = channel_cond_entropy(
        ChannelEntropyProblem(ej, target1 + target2d, alpha, constraint=cj),
        restarts=restarts, seed=_shift(seed, 2)).value
    return float(hj), float(h1 + h2), float(hj - h1 - h2)


def verify_weak_additivity(e: Channel, psi: State, alpha, *, target,
                           copies: int = 2, restarts: int = 30, seed=0):
    """(per-copy joint, single, gap) for ``copies`` parallel uses of one
    channel under the product marginal."""
    target = (target,) if isinstance(target, str) else tuple(target)
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
    hj = channel_cond_entropy(
        ChannelEntropyProblem(joint, tuple(targets), alpha, constraint=cj),
        restarts=restarts, seed=seed).value
    h1 = channel_cond_entropy(
        ChannelEntropyProblem(e, target, alpha, constraint=c1),
        restarts=restarts, seed=_shift(seed, 1)).value
    return float(hj / copies), float(h1), float(hj / copies - h1)


def _shift(seed, k: int):
    try:
        return int(seed) + k
    except (TypeError, ValueError):
        return seed
