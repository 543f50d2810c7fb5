"""A small dense-block semidefinite solver.

Problems are stated over named Hermitian PSD blocks with real linear
equality constraints

    min/max  sum_b <C_b, X_b>   s.t.   sum_b <M_b^(k), X_b> = r_k,   X_b >= 0,

where <A, B> = tr[A^dag B].  Builders state operator constraints
``sum_b L_b(X_b) = G`` and ``sum_b L_b(X_b) >= G`` by their forward maps
L_b and never by adjoints or basis elements: one lowering
(``SdpProblem.add_operator_equality``) probes each map on the Hermitian
basis of its block, and the column of basis element F_j is hvec(L_b(F_j)),
one row per coordinate of G.  An inequality is that equality plus a PSD
slack block (``add_operator_inequality``); a start that leaves the slack
out gets it derived as +-(sum_b L_b(X_b^0) - G), which must be positive
definite like every other block of the start.

The solver is a primal log-barrier interior-point method on the Hermitian
real vectorization: Newton centering steps on t*<c,x> - sum_b logdet(X_b)
with equality constraints kept by a KKT system, mu-reduction factor 0.2,
stopping once the barrier duality gap sum_b dim(X_b)/t drops below
``GAP_TOL`` times the value scale.  Dual variables come for free at a
centered point: y = -nu/t from the KKT multipliers and S_b = X_b^{-1}/t,
which certifies the value through weak duality.

Every element of the orthonormal Hermitian basis has at most two nonzero
entries, (i, j) and (j, i).  The basis is therefore kept in index form
(:func:`hermitian_index`: two positions and two coefficients per element),
and never as a dense n^2 x n^2 matrix: ``hvec``/``hunvec`` are O(n^2)
gathers and scatters, and the barrier Hessian of a block,
Re B^dag (X^{-1} (x) conj X^{-1}) B, is gathered entry by entry from
X^{-1} in O(n^4) (:func:`barrier_hessian`).  The KKT matrix
[[H, A^T], [A, 0]] is allocated once per solve; each Newton step rewrites
its H blocks in place and solves the whole system by LU with three
iterative-refinement passes.  The full system is kept on purpose: reducing
it to the Schur complement A H^{-1} A^T loses the precision the last
barrier rungs need (the KKT conditioning grows like t^2), so centering
breaks down earlier and the certified values move.

Blocks here are small (slack blocks included, at most a few dozen rows),
so everything is dense.  Strictly feasible starts are expected from the
problem builders (every family used in this package has an explicit
interior point); a least-squares fallback is attempted otherwise.

BLAS threads: the KKT systems are too small for a BLAS thread pool to pay
off.  With the default OpenBLAS pool on a 2-core machine, a solve burns
about twice its wall time in CPU and gains no wall time (H^up_1/2 of a
2x4 state: 1.74-2.08 s wall and 3.39-3.97 s CPU, against 1.89-1.90 s of
both with ``OPENBLAS_NUM_THREADS=1``), so set that variable where cores
are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import InfeasibleSpec, InvalidState, SolverFailure
from .registers import herm_part

#: target duality gap, relative to the value scale
GAP_TOL = 1e-8
#: widest gap accepted when centering breaks down before ``GAP_TOL``
GAP_CEILING = 1e-6
#: barrier rungs, and Newton steps per rung
MAX_OUTER = 80
MAX_INNER = 60
MU_REDUCTION = 0.2


# ----------------------------------------------------- Hermitian vectorization

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@lru_cache(maxsize=None)
def hermitian_index(n: int):
    """Index form ``(r1, r2, c1, c2)`` of the orthonormal Hermitian basis.

    Basis element k has row-major vec with ``c1[k]`` at position ``r1[k]``,
    ``c2[k]`` at ``r2[k]`` and zeros elsewhere; ``r2[k]`` is the transposed
    position of ``r1[k]`` (on the diagonal the two coincide and
    ``c2[k] = 0``).  Order: n diagonal units, then for each i<j the real
    pair (E_ij+E_ji)/sqrt2 followed by the imaginary pair i(E_ij-E_ji)/sqrt2.
    """
    d = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    pairs = len(iu)
    r1 = np.concatenate([d * n + d, np.repeat(iu * n + ju, 2)])
    r2 = np.concatenate([d * n + d, np.repeat(ju * n + iu, 2)])
    re_im = np.array([_INV_SQRT2, 1j * _INV_SQRT2])
    c1 = np.concatenate([np.ones(n), np.tile(re_im, pairs)])
    c2 = np.concatenate([np.zeros(n), np.tile(re_im.conj(), pairs)])
    return _frozen(r1, r2, c1, c2)


def _frozen(*arrays):
    """The arrays, made read-only (they are shared through a cache)."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def hvec(mat: np.ndarray) -> np.ndarray:
    """Real coordinates Re(B^dag vec M) in the orthonormal basis.

    For Hermitian ``mat`` these are its exact coordinates; for any other
    square matrix they are those of its Hermitian part.
    """
    n = mat.shape[0]
    r1, r2, c1, c2 = hermitian_index(n)
    m = np.asarray(mat, dtype=complex).reshape(-1)
    return np.real(c1.conj() * m[r1] + c2.conj() * m[r2])


def hunvec(v: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrix B v with real coordinates ``v``."""
    r1, r2, c1, c2 = hermitian_index(n)
    v = np.asarray(v, dtype=float)
    out = np.zeros(n * n, dtype=complex)
    np.add.at(out, r1, c1 * v)
    np.add.at(out, r2, c2 * v)
    return out.reshape(n, n)


def hermitian_basis(n: int):
    """Iterate the basis elements as n x n matrices, in coordinate order."""
    r1, r2, c1, c2 = hermitian_index(n)
    for k in range(n * n):
        E = np.zeros(n * n, dtype=complex)
        E[r1[k]] += c1[k]
        E[r2[k]] += c2[k]
        yield E.reshape(n, n)


@lru_cache(maxsize=None)
def _hessian_index(n: int):
    """Gather indices and coefficients for :func:`barrier_hessian`.

    Write r1[k] = (a_k, b_k), so r2[k] = (b_k, a_k), and G_xy for the
    n^2 x n^2 gather G_xy[k, l] = Y[x_k, y_l].  For Hermitian Y the four
    (r_s, r_t) terms of Re b_k^dag (Y (x) conj Y) b_l collapse into
    Re[U * G_aa * conj(G_bb) + V * G_ab * G_ab^T] (elementwise products)
    with U = conj(c1) c1^T + c2 c2^dag and V = conj(c1) c2^T + c2 c1^dag.
    """
    r1, _, c1, c2 = hermitian_index(n)
    a, b = np.divmod(r1, n)
    U = np.outer(c1.conj(), c1) + np.outer(c2, c2.conj())
    V = np.outer(c1.conj(), c2) + np.outer(c2, c1.conj())
    return _frozen(a, b, U, V)


def barrier_hessian(Y: np.ndarray) -> np.ndarray:
    """Re B^dag (Y (x) conj Y) B for Hermitian ``Y`` by O(n^4) gathers.

    At ``Y = X^{-1}`` this is the Hessian of -logdet X in the real
    coordinates of :func:`hvec`; its (k, l) entry is tr[E_k Y E_l Y].
    """
    a, b, U, V = _hessian_index(Y.shape[0])
    Ya = Y[a]
    Gab = Ya[:, b]
    return np.real(U * (Ya[:, a] * Y[b].conj()[:, b]) + V * (Gab * Gab.T))


# ----------------------------------------------------------- problem container

def _as_herm(mat, dim, what) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidState(f"{what}: expected shape {(dim, dim)}, got {m.shape}")
    if np.linalg.norm(m - m.conj().T) > 1e-9 * max(1.0, np.linalg.norm(m)):
        raise InvalidState(f"{what}: matrix is not Hermitian")
    return 0.5 * (m + m.conj().T)


class SdpProblem:
    """Block-diagonal SDP in equality standard form (see module docstring)."""

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise InvalidState("sense must be 'min' or 'max'")
        self.sense = sense
        self.blocks: dict[str, int] = {}
        self.objective: dict[str, np.ndarray] = {}
        #: one (block name -> row in hvec coordinates, rhs) per scalar row
        self.constraints: list[tuple[dict[str, np.ndarray], float]] = []
        #: slack block -> (terms, G, sign) of its operator inequality
        self.slacks: dict[str, tuple] = {}

    def add_block(self, name: str, dim: int) -> None:
        if name in self.blocks:
            raise InvalidState(f"duplicate block {name!r}")
        if dim < 1:
            raise InvalidState("block dimension must be >= 1")
        self.blocks[name] = int(dim)

    def add_objective(self, name: str, C) -> None:
        C = _as_herm(C, self.blocks[name], f"objective[{name}]")
        if name in self.objective:
            self.objective[name] = self.objective[name] + C
        else:
            self.objective[name] = C

    def add_eq_constraint(self, mats: dict, rhs: float) -> None:
        row = {}
        for name, M in mats.items():
            if name not in self.blocks:
                raise InvalidState(f"unknown block {name!r}")
            row[name] = hvec(_as_herm(M, self.blocks[name],
                                      f"constraint[{name}]"))
        self.constraints.append((row, float(rhs)))

    def add_operator_equality(self, terms, G) -> None:
        """Lower ``sum_b L_b(X_b) = G`` to one row per coordinate of ``G``.

        ``terms`` is a list of ``(block_name, L_b)`` with ``L_b`` a linear,
        Hermiticity-preserving map from the block to the space of ``G``.
        Row k is <E_k, sum_b L_b(X_b)> = <E_k, G> over the Hermitian basis
        E_k of that space; its coefficient on basis element F_j of block b
        is <E_k, L_b(F_j)>, so column j of the term is hvec(L_b(F_j)), and
        each map is probed once on the basis of its block.
        """
        G = np.asarray(G, dtype=complex)
        n = G.shape[0]
        G = _as_herm(G, n, "operator constraint rhs")
        cols = {}
        for name, fwd in terms:
            if name not in self.blocks:
                raise InvalidState(f"unknown block {name!r}")
            probed = np.stack([hvec(_as_herm(fwd(F), n, f"map of {name!r}"))
                               for F in hermitian_basis(self.blocks[name])],
                              axis=1)
            cols[name] = cols[name] + probed if name in cols else probed
        for k, rhs in enumerate(hvec(G)):
            self.constraints.append(({name: c[k] for name, c in cols.items()},
                                     float(rhs)))

    def add_operator_inequality(self, terms, G, *, slack: str,
                                sense: str = ">=") -> None:
        """``sum_b L_b(X_b) >= G`` (or <=): the equality of
        :meth:`add_operator_equality` with a PSD slack block ``slack``,
        which :func:`solve_sdp` derives when the start leaves it out."""
        G = np.asarray(G, dtype=complex)
        sign = 1.0 if sense == ">=" else -1.0
        self.add_block(slack, G.shape[0])
        self.slacks[slack] = (list(terms), G, sign)
        self.add_operator_equality(
            list(terms) + [(slack, lambda S: -sign * S)], G)


# ------------------------------------------------------------------- solution

@dataclass
class SdpSolution:
    value: float
    dual_value: float
    gap: float
    variables: dict = field(repr=False)
    dual_slacks: dict = field(repr=False)
    y: np.ndarray = field(repr=False)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0


# --------------------------------------------------------------------- solver

def _assemble(problem: SdpProblem):
    names = list(problem.blocks)
    dims = [problem.blocks[n] for n in names]
    sizes = [d * d for d in dims]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    N = int(offs[-1])
    sgn = 1.0 if problem.sense == "min" else -1.0
    c = np.zeros(N)
    for i, name in enumerate(names):
        if name in problem.objective:
            c[offs[i]:offs[i + 1]] = sgn * hvec(problem.objective[name])
    m = len(problem.constraints)
    A = np.zeros((m, N))
    b = np.zeros(m)
    for k, (row, rhs) in enumerate(problem.constraints):
        b[k] = rhs
        for i, name in enumerate(names):
            if name in row:
                A[k, offs[i]:offs[i + 1]] = row[name]
    return names, dims, offs, A, b, c, sgn


def _split(x, names, dims, offs):
    out = {}
    for i, name in enumerate(names):
        out[name] = hunvec(x[offs[i]:offs[i + 1]], dims[i])
    return out


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm_part(mat)).min())


def _refined_inverse(X: np.ndarray) -> np.ndarray:
    """Hermitian inverse with two Hotelling refinement steps.

    Near the end of the barrier path X has eigenvalues ~1/t; plain inv()
    then carries a relative error ~cond*eps which would dominate the dual
    certificate.  Xi <- Xi + Xi(I - X Xi) squares that error away.
    """
    Xi = np.linalg.inv(X)
    I = np.eye(X.shape[0])
    for _ in range(2):
        Xi = Xi + Xi @ (I - X @ Xi)
        Xi = herm_part(Xi)
    return Xi


def _refined_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with iterative refinement.

    The KKT systems get condition numbers ~t^2 near the end of the barrier
    path; a few refinement passes on the exactly-representable residual
    restore the Newton direction to near working precision.
    """
    try:
        lu, piv = scipy.linalg.lu_factor(M)
        sol = scipy.linalg.lu_solve((lu, piv), rhs)
        for _ in range(3):
            sol = sol + scipy.linalg.lu_solve((lu, piv), rhs - M @ sol)
    except (scipy.linalg.LinAlgError, ValueError):
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol


def _chol_logdet(mat: np.ndarray):
    """(ok, logdet) without raising; ok=False if not positive definite."""
    try:
        L = np.linalg.cholesky(herm_part(mat))
    except np.linalg.LinAlgError:
        return False, 0.0
    return True, 2.0 * float(np.sum(np.log(np.real(np.diag(L)))))


def _starting_point(problem, names, dims, offs, A, b, start):
    if start is not None:
        # a slack the start leaves out is +-(sum_b L_b(X_b) - G) at the start
        start = dict(start)
        for name, (terms, G, sign) in problem.slacks.items():
            if name not in start and all(blk in start for blk, _ in terms):
                start[name] = sign * (sum(
                    fwd(np.asarray(start[blk], dtype=complex))
                    for blk, fwd in terms) - G)
        xs = []
        for i, name in enumerate(names):
            if name not in start:
                raise InvalidState(f"start is missing block {name!r}")
            M = _as_herm(start[name], dims[i], f"start[{name}]")
            xs.append(hvec(M))
        x0 = np.concatenate(xs) if xs else np.zeros(0)
    else:
        x0, *_ = np.linalg.lstsq(A, b, rcond=None)
    if A.size and np.linalg.norm(A @ x0 - b) > 1e-6 * (1.0 + np.linalg.norm(b)):
        if start is None:
            raise InfeasibleSpec("equality constraints are inconsistent")
        raise SolverFailure("provided start violates the equality constraints",
                            diagnostics={"residual": float(np.linalg.norm(A @ x0 - b))})
    for i, name in enumerate(names):
        ok, _ = _chol_logdet(hunvec(x0[offs[i]:offs[i + 1]], dims[i]))
        if not ok:
            raise SolverFailure(
                f"no strictly feasible start (block {name!r} not positive "
                "definite); pass start=",
                diagnostics={"block": name})
    return x0


def _center(t, x, names, dims, offs, A, b, c, kkt):
    """Newton-center the barrier objective at weight ``t``.

    ``kkt`` is the solve's KKT matrix [[H, A^T], [A, 0]]; the diagonal H
    blocks are rewritten in place at every step.  Returns (x, invs,
    y_center, newton_steps).  Raises SolverFailure when the decrement cannot
    be driven below its stagnation thresholds.
    """
    m = A.shape[0]
    n = len(x)
    H = kkt[:n, :n]
    y_center = np.zeros(m)
    prev_lam2 = np.inf
    steps = 0
    for _inner in range(MAX_INNER):
        steps += 1
        invs = []
        grad = t * c.copy()
        for i, d in enumerate(dims):
            X = herm_part(hunvec(x[offs[i]:offs[i + 1]], d))
            Xi = _refined_inverse(X)
            invs.append(Xi)
            grad[offs[i]:offs[i + 1]] -= hvec(Xi)
            Hb = barrier_hessian(Xi)
            H[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = 0.5 * (Hb + Hb.T)
        if m:
            rhs = np.concatenate([-grad, b - A @ x])
            sol = _refined_solve(kkt, rhs)
            dx, y_center = sol[:n], sol[n:]
        else:
            dx = _refined_solve(H, -grad)
        lam2 = float(dx @ (H @ dx))
        if not np.isfinite(lam2):
            raise SolverFailure("Newton step diverged", diagnostics={"t": t})
        if lam2 / 2.0 <= 1e-10:
            return x, invs, y_center, steps
        # at extreme t the KKT solve hits its precision floor; a small,
        # stagnating decrement is an acceptably centered point
        if lam2 / 2.0 <= 1e-6 and lam2 > 0.5 * prev_lam2:
            return x, invs, y_center, steps
        prev_lam2 = lam2

        def merit(xv):
            val = t * float(c @ xv)
            for i, d in enumerate(dims):
                ok, ld = _chol_logdet(hunvec(xv[offs[i]:offs[i + 1]], d))
                if not ok:
                    return None
                val -= ld
            return val

        f0 = merit(x)
        slope = float(grad @ dx)
        beta = 1.0
        while beta > 1e-13:
            f1 = merit(x + beta * dx)
            if f1 is not None and f1 <= f0 + 0.01 * beta * slope + 1e-12 * abs(f0):
                break
            beta *= 0.5
        else:
            if lam2 / 2.0 <= 1e-5:
                return x, invs, y_center, steps
            raise SolverFailure("line search failed",
                                diagnostics={"t": t, "lambda2": lam2})
        x = x + beta * dx
    raise SolverFailure("Newton centering did not converge",
                        diagnostics={"t": t})


def solve_sdp(problem: SdpProblem, *, start: dict | None = None) -> SdpSolution:
    """Solve to a certified duality gap of ``GAP_TOL`` times the value scale.

    ``start`` maps block names to strictly feasible Hermitian PD matrices.
    The barrier path is pushed until the gap target is met; if centering
    breaks down first (the KKT systems carry condition ~t^2, so for some
    geometries double precision runs out a little before 1e-8), the last
    centered point is returned as long as its gap is below ``GAP_CEILING``
    times the value scale — the achieved gap is always reported in the
    solution.  Raises :class:`InfeasibleSpec` when the equalities are
    inconsistent and :class:`SolverFailure` when no acceptably centered
    point is ever reached.
    """
    if not problem.blocks:
        raise InvalidState("problem has no blocks")
    names, dims, offs, A, b, c, sgn = _assemble(problem)
    n_total = float(sum(dims))
    x = _starting_point(problem, names, dims, offs, A, b, start)
    m = A.shape[0]
    N = len(x)
    kkt = np.zeros((N + m, N + m))
    kkt[:N, N:] = A.T
    kkt[N:, :N] = A
    t = 1.0
    total_newton = 0
    good = None  # (x, invs, y_center, t) at the last centered rung

    for _outer in range(MAX_OUTER):
        try:
            x_c, invs, y_center, steps = _center(t, x, names, dims, offs,
                                                 A, b, c, kkt)
        except SolverFailure:
            if good is None:
                raise
            x, invs, y_center, t = good
            break
        total_newton += steps
        x = x_c
        good = (x, invs, y_center, t)
        scale = max(1.0, abs(float(c @ x)))
        if n_total / t <= GAP_TOL * scale:
            break
        t = t / MU_REDUCTION
    else:
        x, invs, y_center, t = good

    scale = max(1.0, abs(float(c @ x)))
    if n_total / t > GAP_CEILING * scale:
        raise SolverFailure("could not reach an acceptable duality gap",
                            diagnostics={"gap": n_total / t, "t": t})

    # dual recovery at the centered point: y = -nu/t from the KKT multiplier
    # and S_b = X_b^{-1}/t.  At an exactly centered point these satisfy
    # c - A^T y = s, and the identity <c,x> - <b,y> = sum dims / t makes the
    # reported gap equal the barrier bound.
    variables = _split(x, names, dims, offs)
    y = -y_center / t
    slacks = {}
    min_eig_S = np.inf
    for i, name in enumerate(names):
        S = invs[i] / t
        slacks[name] = S
        min_eig_S = min(min_eig_S, _min_eig(S))
    s_vec = np.concatenate([hvec(slacks[n]) for n in names])
    pval = float(c @ x)
    dval = float(b @ y)
    residuals = {
        "primal_eq": float(np.linalg.norm(A @ x - b)) if m else 0.0,
        "min_eig_X": min(_min_eig(variables[n]) for n in names),
        "min_eig_S": float(min_eig_S),
        "complementarity": n_total / t,
        # how well the recovered pair fits c - A^T y = s; limited by the KKT
        # conditioning at the final barrier weight, diagnostic only
        "dual_fit": float(np.linalg.norm(c - (A.T @ y if m else 0.0) - s_vec)),
    }
    return SdpSolution(
        value=sgn * pval,
        dual_value=sgn * dval,
        gap=abs(pval - dval),
        variables=variables,
        dual_slacks=slacks,
        y=y,
        residuals=residuals,
        iterations=total_newton,
    )
