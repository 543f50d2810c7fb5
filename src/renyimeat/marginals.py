"""Inputs with a pinned marginal, their chart and L-BFGS, and every SDP over
them.

A :class:`MarginalConstraint` pins the reduced state of a channel input on
named registers; :class:`_MarginalSet` is the set of inputs that keep it,
in restricted coordinates, and is the feasible set of every channel entropy
program in :mod:`renyimeat.channel_entropy`.

Every entropy SDP of the package is one of two builders over such sets:
the max-divergence covering program (:func:`_covering_program`: the
channel entropy at order 1/2, the minimized divergence at order inf) and
the root-fidelity program in Watrous's block form
(:func:`_fidelity_program`: the channel entropy at order inf).  A state's
H^up runs the sigma solve of :mod:`renyimeat.entropies` at every order,
1/2 and inf included, so no state quantity builds an SDP.  A state's fixed
branch operators M_i can still enter either builder as the images
t -> t M_i of the one-point set ``_MarginalSet(space(("_", 1)), None)``,
whose 1 x 1 block is pinned to tr t = 1; the tests build the fidelity
program of a state's H^up_1/2 and the covering program of its H^up_inf
that way as independent checks.

Every smooth program over such a set runs :func:`_lbfgs` on its chart
:class:`_InputChart`, a map of square matrices G onto the set: the channel
entropy and the minimized divergence of :mod:`renyimeat.channel_entropy`
at generic orders, and the conditioning state sigma of H^up_a in
:mod:`renyimeat.entropies` (the chart of the unpinned set, sigma = G G^dag
/ tr[G G^dag]).  Each of their points carries the width of an interval
that holds the optimum, so every run stops at a width tolerance and
returns its accepted point of least width.

Over the same sets lives the measured chain rule's program, max tr[rho G]
over a pinned marginal (:func:`build_sdp_individual`, :func:`build_sdp_joint`);
one solve also gives its dual operator, Lambda (x) 1 >= G, in the pin's
multipliers (:func:`solve_sdp_pair`), and :func:`product_feasibility_slack`
checks that tensored single-round Lambdas stay feasible for the joint dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, _perm_matrix, compose
from .errors import (InfeasibleSpec, InvalidRegister, InvalidState,
                     NonConvergence)
from .registers import (RegisterSpace, State, _power_frechet_map, as_labels,
                        bipartite_partial_trace, embed_operator, herm_part,
                        herm_power, kraus_pullback, support_isometry,
                        tensor_identity)
from .sdp import SdpProblem, hunvec, solve_sdp


class MarginalConstraint:
    """Pin the reduced state of the optimized input on named registers.

    ``register`` is a label or a sequence of labels; ``state`` must be a
    normalized density operator carrying exactly those registers.  The state
    is stored reordered to the ``register`` order given.
    """

    def __init__(self, register, state: State):
        regs = as_labels(register)
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


class _MarginalSet:
    """Density operators on (constrained x free) input with a pinned marginal.

    Works in restricted coordinates: the constrained registers are cut to the
    support of the pinned state (this is lossless — any operator with that
    marginal lives inside the support — and keeps interior points strictly
    positive for the interior-point solver).  Basis order is the constraint's
    register order followed by the remaining input registers in channel
    order; ``embed`` is the isometry back to the channel's own input basis.
    ``psi_r`` is the pinned marginal in those coordinates, and the 1 x 1
    unit without a constraint, where the pin Tr_F rho = psi_r is tr rho = 1.
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
                else support_isometry(constraint.state.matrix)
            self.psi_r = herm_part(U.conj().T @ constraint.state.matrix @ U)
            self.rank_a = U.shape[1]
        else:
            a_labels = ()
            U = np.eye(1)
            self.psi_r = np.eye(1)
            self.rank_a = 1
        self.a_labels = tuple(a_labels)
        self.a_space = RegisterSpace(
            (l, in_space.dim_of(l)) for l in a_labels)
        self.free_space = in_space.drop(a_labels)
        self.ordered_space = self.a_space.tensor(self.free_space)
        P = _perm_matrix(self.ordered_space, in_space.labels) \
            if len(self.ordered_space) else np.eye(1)
        self.embed = P @ tensor_identity(U, self.free_space.dim)
        self.dim = self.rank_a * self.free_space.dim

    @property
    def fixed(self) -> bool:
        return self.constraint is not None and self.free_space.dim == 1

    def start(self) -> np.ndarray:
        d_f = self.free_space.dim
        return np.kron(self.psi_r, np.eye(d_f) / d_f)

    def restrict_kraus(self, kraus):
        return [K @ self.embed for K in kraus]

    def marginal(self, rho: np.ndarray) -> np.ndarray:
        """Tr_F rho (the trace, as a 1 x 1 matrix, without a constraint)."""
        return bipartite_partial_trace(rho, self.rank_a, self.free_space.dim,
                                       0)

    def pin(self, prob: SdpProblem, block: str) -> slice:
        """Constrain ``block`` of ``prob`` to the set: Tr_F rho = psi_r.
        Returns the slice of the pin's rows of the program's A
        (:meth:`SdpProblem.add_operator_equality`)."""
        return prob.add_operator_equality([(block, self.marginal)], self.psi_r)

    def unrestrict(self, rho_r: np.ndarray) -> np.ndarray:
        """Map a set element back to the channel's input basis."""
        return herm_part(self.embed @ rho_r @ self.embed.conj().T)


# ------------------------------------------- the chart and L-BFGS on it

class _InputChart:
    """Smooth map of square matrices G onto a :class:`_MarginalSet`,

        rho(G) = S N X N S,  X = G G^dag,  N = (Tr_F X)^(-1/2) (x) 1,
        S = psi^(1/2) (x) 1,

    with psi the pinned marginal on A and F the free factor of dimension
    ``d_f`` (psi is 1x1 without a constraint, and then rho = X / tr X).  Any
    rho with marginal psi is reached, at G = (psi^(-1/2) (x) 1) rho^(1/2),
    and G = 1 gives psi (x) 1/d_f.

    Every factor acts on A alone, so it is applied to G (rows on A F) as
    one d_a x d_a product on G reshaped to its A index, and Tr_F[Y Z^dag]
    is one d_a x d_a product of the reshaped Y and Z; no Kronecker product
    with an identity is formed.  Without a pin those factors are scalars.
    """

    def __init__(self, psi: np.ndarray, d_f: int):
        self.d_a = psi.shape[0]
        self.d_f = d_f
        self.root = herm_power(psi, 0.5) if self.d_a > 1 else np.sqrt(psi)
        self.psi_inv = np.linalg.inv(psi)

    def _on_a(self, M: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(M (x) 1_F) Y for a d_a x d_a matrix M."""
        return (M @ Y.reshape(self.d_a, -1)).reshape(Y.shape)

    def _trace_f(self, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Tr_F[Y Z^dag] for Y and Z with rows on A F."""
        return Y.reshape(self.d_a, -1) @ Z.reshape(self.d_a, -1).conj().T

    def point(self, G: np.ndarray):
        """rho(G) = Z Z^dag with Z = (B (x) 1) G, B = psi^(1/2) K^(-1/2)
        and K = Tr_F[G G^dag], and the intermediates :meth:`pullback`
        needs."""
        K = self._trace_f(G, G)
        if self.d_a == 1:
            k = K.real
            K_pow, dK_pow = k ** -0.5, lambda h: -0.5 * k ** -1.5 * h
        else:
            K_pow, dK_pow = _power_frechet_map(K, -0.5)
        B = self.root @ K_pow
        Z = self._on_a(B, G)
        return herm_part(Z @ Z.conj().T), (Z, B, dK_pow)

    def pullback(self, G: np.ndarray, parts, grad_rho: np.ndarray):
        """The gradient Gamma of f(rho(G)) in the convention
        df = 2 Re tr[Gamma^dag dG], given the Hermitian gradient of f in rho.

        With W = grad Z, Gamma = (B^dag (x) 1) W + (L[h] (x) 1) G, where L
        is the Frechet derivative of K -> K^(-1/2) and h = T psi^(1/2) +
        psi^(1/2) T^dag with T = Tr_F[G W^dag].
        """
        Z, B, dK_pow = parts
        W = grad_rho @ Z
        h = self._trace_f(G, W) @ self.root
        return self._on_a(B.conj().T, W) \
            + self._on_a(dK_pow(h + h.conj().T), G)

    def gap_bound(self, rho: np.ndarray, grad: np.ndarray) -> float:
        """Upper bound on the Frank-Wolfe gap tr[grad rho] - min_v tr[grad v]
        over the marginal set, for a Hermitian ``grad``, by weak duality:
        min_v tr[grad v] >= tr[psi L] for every L with L (x) 1 <= grad.  The
        point L = h + lambda_min(grad - h (x) 1), h = Herm(Tr_F[grad rho]
        psi^-1), is dual optimal when rho is optimal (then grad rho =
        (L (x) 1) rho), and tr[psi h] = tr[grad rho] leaves
        -lambda_min(grad - h (x) 1)."""
        h = herm_part(self._trace_f(grad, rho) @ self.psi_inv)
        shifted = grad.reshape(self.d_a, self.d_f, self.d_a, self.d_f).copy()
        free = np.arange(self.d_f)
        shifted[:, free, :, free] -= h
        return -float(np.linalg.eigvalsh(shifted.reshape(grad.shape))[0])


#: L-BFGS iterations per run
_LBFGS_MAX_ITERS = 4000
#: curvature pairs the L-BFGS keeps
_LBFGS_MEMORY = 8


def _lbfgs(fg, x, tol):
    """Minimize over flat real vectors: L-BFGS two-loop directions with
    Armijo backtracking on the true objective.

    ``fg(x)`` returns (value, gradient, data), with value inf where the
    objective is undefined and otherwise exact to rounding: a step that
    keeps the value within rounding while shrinking the gradient counts as
    progress.  The last entry of ``data`` is the width of the interval the
    point certifies.  Stops at the first accepted point (the start
    included) whose width is at most ``tol``, when the line search finds
    no decrease, or after ``_LBFGS_MAX_ITERS`` steps.  Returns (value,
    data) at the accepted point of least width.
    """
    value, g, data = fg(x)
    if not np.isfinite(value):
        raise NonConvergence("the objective is undefined at the start",
                             value=value, gap=math.inf)
    best = value, data
    # curvature pairs (s, y, 1 / s^T y)
    mem: list[tuple[np.ndarray, np.ndarray, float]] = []
    for _ in range(_LBFGS_MAX_ITERS):
        if data[-1] <= tol:
            break
        q = g
        coeffs = []
        for s_v, y_v, rho_i in reversed(mem):
            a_i = rho_i * float(s_v @ q)
            coeffs.append((rho_i, a_i, s_v, y_v))
            q = q - a_i * y_v
        gnorm = float(np.linalg.norm(g))
        if mem:
            s_l, y_l, _ = mem[-1]
            q = q * (float(s_l @ y_l) / float(y_l @ y_l))
        else:
            q = q / max(gnorm, 1.0)
        for rho_i, a_i, s_v, y_v in reversed(coeffs):
            b_i = rho_i * float(y_v @ q)
            q = q + (a_i - b_i) * s_v
        d = -q
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g / max(gnorm, 1.0)
            slope = float(g @ d)
            mem.clear()
        t = 1.0
        for _bt in range(30):
            xc = x + t * d
            vc, gc, dc = fg(xc)
            if vc <= value + 1e-4 * t * slope:
                break
            # at rounding level the value cannot show a decrease; a smaller
            # gradient then marks progress
            if vc <= value + 1e-14 * max(1.0, abs(value)) \
                    and np.linalg.norm(gc) < gnorm:
                break
            t *= 0.5
        else:
            break
        s_v, y_v = xc - x, gc - g
        sy = float(s_v @ y_v)
        if sy > 1e-12 * np.linalg.norm(s_v) * np.linalg.norm(y_v):
            mem.append((s_v, y_v, 1.0 / sy))
            if len(mem) > _LBFGS_MEMORY:
                mem.pop(0)
        x, value, g, data = xc, vc, gc, dc
        if data[-1] < best[1][-1]:
            best = value, data
    return best


def _flat(M: np.ndarray) -> np.ndarray:
    return np.concatenate([M.real.ravel(), M.imag.ravel()])


def _square(x: np.ndarray) -> np.ndarray:
    d = math.isqrt(x.size // 2)
    return (x[:d * d] + 1j * x[d * d:]).reshape(d, d)


# ---------------------------------------------------- the two SDP families

def _covering_program(mset: _MarginalSet, m_maps, n_map, sset: _MarginalSet):
    """min tr[S] over n_map(S) >= m_i(rho) for every i, with rho in ``mset``
    and S >= 0 on the coordinates of ``sset``; the inequalities share S.
    With one map M this is 2^D_max(M[rho] || N[sigma]) minimized over both
    inputs, since S = tr[S] sigma.  A constraint on ``sset`` pins S up to
    scale by a 1 x 1 block t: Tr_F S = t psi, and the objective is t.
    Returns (log2 of the optimum, the width in bits of the interval the
    duality gap certifies, the rho optimizer, sigma = S / tr[S])."""
    n0 = herm_part(n_map(sset.start()))
    if np.linalg.eigvalsh(n0).min() <= 1e-12:
        raise InfeasibleSpec("the comparison map must have full-rank output "
                             "at an interior input")
    prob = SdpProblem(sense="min")
    prob.add_block("rho", mset.dim)
    prob.add_block("S", sset.dim)
    mset.pin(prob, "rho")
    if sset.constraint is None:
        prob.add_objective("S", np.eye(sset.dim))
    else:
        prob.add_block("t", 1)
        prob.add_objective("t", np.eye(1))
        prob.add_operator_equality(
            [("S", sset.marginal), ("t", lambda t: -t[0, 0] * sset.psi_r)],
            np.zeros_like(sset.psi_r))
    for i, m_map in enumerate(m_maps):
        prob.add_operator_inequality(
            [("S", n_map), ("rho", lambda r, m_map=m_map: -m_map(r))],
            np.zeros_like(n0), slack=f"slack{i}")
    sol = solve_sdp(prob)
    cover = max(sol.value, 1e-300)
    width = -math.log2(1.0 - sol.gap / cover) if sol.gap < cover else math.inf
    S = sol.variables["S"]
    return (math.log2(cover), width, sol.variables["rho"],
            S / max(float(np.real(np.trace(S))), 1e-300))


def _fidelity_program(mset: _MarginalSet, p_maps, q_map, sset: _MarginalSet,
                      weights):
    """max sum_i w_i Re tr[Z_i] over [[P_i(rho), Z_i], [Z_i^dag, Q(sigma)]]
    >= 0 with rho in ``mset`` and sigma in ``sset``: the weighted root
    fidelities sum_i w_i F(P_i(rho), Q(sigma)) maximized over both inputs
    (Watrous's block form).

    Block i is compressed on both diagonals to the support of P_i at the
    interior point rho^0 = ``mset.start()``, which holds P_i(rho) for every
    rho of the set; the fidelity is unchanged, and the compressed program
    has an interior point even when P_i or Q is rank-deficient.  Returns
    (log2 of the optimum, the width in bits of the interval the duality gap
    certifies, the rho optimizer, the sigma optimizer)."""
    rho0 = mset.start()
    prob = SdpProblem(sense="max")
    prob.add_block("rho", mset.dim)
    prob.add_block("sigma", sset.dim)
    mset.pin(prob, "rho")
    sset.pin(prob, "sigma")
    for i, (p_map, w) in enumerate(zip(p_maps, weights)):
        U = support_isometry(p_map(rho0))
        r = U.shape[1]

        def first(rho, p_map=p_map, U=U):
            return U.conj().T @ p_map(rho) @ U

        def second(sigma, U=U):
            return U.conj().T @ q_map(sigma) @ U

        blk = f"block{i}"
        prob.add_block(blk, 2 * r)
        C = np.zeros((2 * r, 2 * r), dtype=complex)
        C[:r, r:] = C[r:, :r] = 0.5 * w * np.eye(r)
        prob.add_objective(blk, C)
        zero = np.zeros((r, r))
        prob.add_operator_equality([(blk, lambda V, r=r: V[:r, :r]),
                                    ("rho", lambda rho, f=first: -f(rho))],
                                   zero)
        prob.add_operator_equality([(blk, lambda V, r=r: V[r:, r:]),
                                    ("sigma", lambda sig, f=second: -f(sig))],
                                   zero)
    sol = solve_sdp(prob)
    fid = max(sol.value, 1e-300)
    return (math.log2(fid), math.log2(1.0 + sol.gap / fid),
            sol.variables["rho"], sol.variables["sigma"])


# ------------------------------------------- the measured chain rule's SDP

@dataclass
class SdpPair:
    """The program of one round (or of two joined) of the measured chain
    rule: ``primal`` maximizes tr[rho G] over the marginal set,
    G = ``dual_rhs``.  Its dual, min tr[psi Lambda] over
    Lambda (x) 1 >= G, is read off the same solve: Lambda is -hunvec of
    the multipliers of the marginal pin's rows of A, the slice ``pin``."""
    primal: SdpProblem
    dual_rhs: np.ndarray
    pin: slice


def _pair_from_parts(mset: _MarginalSet, channel: Channel, gamma_op,
                     gamma_labels) -> SdpPair:
    big = embed_operator(channel.out_space, list(gamma_labels), gamma_op)
    G = kraus_pullback(mset.restrict_kraus(channel.kraus), big)
    primal = SdpProblem(sense="max")
    primal.add_block("rho", mset.dim)
    primal.add_objective("rho", G)
    pin = mset.pin(primal, "rho")
    return SdpPair(primal=primal, dual_rhs=G, pin=pin)


def _as_gamma(gamma) -> tuple[np.ndarray, tuple]:
    if not isinstance(gamma, State):
        raise InvalidState("the test operator must be a labeled State")
    mat = herm_part(gamma.matrix)
    if float(np.linalg.eigvalsh(mat).min()) < -1e-9:
        raise InvalidState("the test operator must be positive semidefinite")
    return mat, tuple(gamma.space.labels)


def build_sdp_individual(gamma, channel: Channel,
                         marginal: MarginalConstraint) -> SdpPair:
    """The program of one round of the measured chain rule.

    Maximize tr[rho . F^dag(Gamma (x) I_traced)] over rho >= 0 with the
    pinned input marginal; its dual, minimize tr[psi Lambda] over
    Lambda (x) I >= F^dag(Gamma (x) I), comes from the same solve
    (:func:`solve_sdp_pair`).  ``gamma`` is a labeled positive operator on
    a slice of the channel output; the other output registers are traced.
    """
    gmat, glabels = _as_gamma(gamma)
    mset = _MarginalSet(channel.in_space, marginal)
    return _pair_from_parts(mset, channel, gmat, glabels)


def build_sdp_joint(gamma0, gamma1, channels, marginals, *,
                    form: str = "composed") -> SdpPair:
    """The program of two rounds joined: ``form="composed"`` wires the
    second channel onto the first (the chain-rule direction),
    ``form="tensor"`` runs them in parallel (the additivity direction).  The
    joint marginal is the product of the two pinned marginals."""
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
    sup = np.kron(support_isometry(c0.state.matrix),
                  support_isometry(c1.state.matrix))
    mset = _MarginalSet(joint.in_space, cj, support=sup)
    gop = np.kron(g0, g1)
    return _pair_from_parts(mset, joint, gop, l0 + l1)


def product_feasibility_slack(pair: SdpPair, lam0: np.ndarray,
                              lam1: np.ndarray) -> float:
    """Minimum eigenvalue of (Lambda_0 (x) Lambda_1) (x) I - G for a joint
    program; nonnegative means the tensored individual dual optimizers are
    feasible for the joint dual (the feasibility transfer behind the
    measured chain rule)."""
    op = np.kron(lam0, lam1)
    lam_dim = op.shape[0]
    d_f = pair.dual_rhs.shape[0] // lam_dim
    big = np.kron(op, np.eye(d_f))
    return float(np.linalg.eigvalsh(herm_part(big - pair.dual_rhs)).min())


def solve_sdp_pair(pair: SdpPair):
    """Solve the primal once; returns (primal_solution, dual_solution), the
    second the same solve read as the dual: value tr[psi Lambda], the checked
    dual value, and variables {"Lambda": -hunvec(y) on the pin's rows}."""
    sol = solve_sdp(pair.primal)
    lam = -hunvec(sol.y[pair.pin], math.isqrt(pair.pin.stop - pair.pin.start))
    return sol, replace(sol, value=sol.dual_value, variables={"Lambda": lam})
