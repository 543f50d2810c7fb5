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
slack block (``add_operator_inequality``).  Builders state no start.  A
problem keeps each constraint as its builder made it, one r x d_b^2 array
per block and r right-hand sides, its rows following those of the
constraints before it; :func:`_assemble` copies each array into A once.

The solver takes at least one equality row, and linearly independent
rows, as every builder states them: a problem without rows raises
:class:`InvalidState`, and :class:`InfeasibleSpec` is raised when the
Cholesky factorization of A A^T fails or the least entry of its diagonal
is 1e-6 of the greatest or less.  The builders' programs keep that ratio
at 0.5 or more (every solve of the test suite and of one pass of each
benchmark workload, seeds 0-2); tr X = 1 stated again at scale 1/2 to 3
on a 2 x 2 block brings it to 7.5e-9 - 4.2e-8, where the factorization
succeeds on a pivot at rounding level.

The solver is an infeasible-start primal-dual interior-point method on
the Hermitian real vectorization (Helmberg-Rendl-Vanderbei-Wolkowicz
direction, Mehrotra predictor-corrector as in SDPT3).  It starts from the
X of the next paragraph with y = 0 and S = xi I, takes separate primal
and dual step lengths (0.9 to 0.99 of the way to the boundary), and
typically certifies in 7-15 iterations whatever the problem size.

Start.  X is the identity e of every block projected onto the equalities,
x0 = e + A^T (A A^T)^{-1} (b - A e): two triangular solves with the
Cholesky factor of A A^T that the projected primal step needs anyway.
On a pinned marginal, Tr_F rho = psi, that is psi (x) 1/d_f, an interior
point of the set.  If Cholesky fails on a block of x0 (the test every
iterate passes, so a block at rounding level above zero counts as positive
definite), the start is e itself, off the equalities, and the primal
residual r_p of the step equations takes the iterates back to them.  The
traced endpoint workload (``bench/run.py --workload endpoint-sdp --trace
1``, 13 solves, none for a state) takes 122 / 122 / 124 Newton steps at
seeds 0 / 1 / 2 from this start; one of its solves starts from e, the
order-1/2 covering program of the pinned 4-dimensional channel input at
seed 1.

Stopping rule and certificate.  An iterate is checked once
|c.x - b.y| <= ``GAP_CEILING`` times the value scale max(1, |c.x|) and
the primal residual is <= 1e-9 (1 + |b|).  The check rebuilds
S_b = C_b - (A^T y)_b from y alone and computes its lowest eigenvalue per
block; lam_b below -``EIG_ROUND`` times the scale rejects the point, a
rounding-level negative lam_b lowers the bound by lam_b tr X_b.  The solve
stops at the first checked gap <= ``GAP_TOL`` times the scale, so the
reported ``gap`` and ``dual_value`` always come from a checked dual point.
If the iterates stall (no halving of max(mu, residuals) in ``STALL_ITER``
iterations), lose positive definiteness or reach ``MAX_ITER``, the best
checked point is returned if its gap is below ``GAP_CEILING`` times the
scale, else :class:`SolverFailure` is raised.  ``GAP_TOL`` is 1e-9: the
exact anchors of the test suite needed it while a state's H^up_inf was a
covering program (-1 on a Bell pair, to 1e-9), and reaching it costs one
or two iterations more than 1e-8.

Schur complement.  Eliminating dS and dX leaves (A K A^T) dy = rhs with K
the matrix of E -> sym(X E S^{-1}).  A K A^T is never formed: it is F F^T
for the square-root factor of :func:`schur_factor`, and a QR factorization
of F^T gives its Cholesky factor with the conditioning of F, the square
root of that of A K A^T.  Measured on the fidelity program of a
qubit-input channel at order inf whose optimum lies on the boundary (the
benchmark's ``fixed[2]``): factoring the formed A K A^T by Cholesky
stalls it at a relative gap of 9.4e-10 with its primal step blocked;
Cholesky of the formed Gram matrix F F^T fails outright on it (and on the
H^up_inf covering program of a 16-dimensional cq state); the augmented
system [[K, K A^T], [A K, 0]] by LU with refinement stalls at 4.4e-9;
the QR factor certified it at 4.8e-10 (all four with the per-block
kernels), and with the block stack below it certifies at 6.6e-10 in the
same 10 iterations.  That is this formulation's floor in double
precision: the step equations are then solved only to about 2e-8, and
iterative refinement against the unreduced residual does not lower it.
Rounding variants of the stack kernels (the factors inverted per block
by trtri, symmetrized step matrices, the Schur factor as two products,
coordinates read as s a + s b instead of s (a + b)) certify it between
5.8e-10 and 9.2e-10 in 10-12 iterations: where it lands below
``GAP_TOL`` follows the rounding, not the formulation.
Each primal step is projected back onto A dX = r_p with A A^T's Cholesky
factor, which keeps the primal residual at rounding level (without it
that program's residual grows to 1.6e-9).

Every element of the orthonormal Hermitian basis has at most two nonzero
entries, (i, j) and (j, i).  The basis is therefore kept in index form
(:func:`hermitian_index`: two positions per element, whose coefficients
follow from its place in the order), and never as a dense n^2 x n^2
matrix: ``hvec``/``hunvec`` are O(n^2) gathers and scatters without
repeated positions (:class:`BlockStack`), K is applied as
sym(X V S^{-1}) and never formed, and the square-root factor costs
O(m n^3) per block.

Blocks here are small: 1x1 to 16x16, one to four per program, slack
blocks included.  At that size a numpy call costs more than its
arithmetic, so the iterate is held as one :class:`BlockStack`, a
(k, n_max, n_max) array with each block top-left, padded with the
identity in X and S and with zeros in every direction.  One iteration
then makes one batched Cholesky of X and S, one batched inverse of the
factors, one batched product per application of K (K R_d once, shared by
predictor and corrector) and, for each pair of primal and dual step
lengths, one batched product and one ``eigvalsh`` of the X side and the
S side stacked, whatever the number of blocks.  What keeps exact block
sizes: the Schur square-root factor, built per block from the unpadded
rows (padded rows would widen it from m x 2N to m x 2 k n_max^2), and
the certificate.  On the 2x2 state of the endpoint workload (seed 2004),
``solve_sdp`` takes 10.3-10.8 ms median (9 iterations) on the
root-fidelity program of its H^up_1/2 and 10.1-10.7 ms on the covering
program of its H^up_inf (12 iterations), both built directly from the
state's branch operators (the public calls run the sigma solve at both
orders); single-thread BLAS on a shared 2-core host, four runs of 40
calls each.

BLAS threads: the step systems are too small for a BLAS thread pool to
pay off.  With the default OpenBLAS pool on a 2-core machine, the
root-fidelity program of H^up_1/2 of the 2x4 state of the endpoint
workload, built directly (a 16 x 16 block and 130 rows), takes
0.035-0.070 s wall and 0.070-0.105 s CPU per call, against 0.036-0.045 s
of both with ``OPENBLAS_NUM_THREADS=1`` (six runs of 20 calls each), so
set that variable where cores are shared.  The covering program of
H^up_inf of the same state, built directly, whose largest block is 8 x 8,
takes 0.017-0.018 s of both with the pool.
Small triangular solves and QR with the default blocking are the worst
cases (up to 30 times slower threaded), so the solver factors F^T with
narrow-panel dgeqrt and calls LAPACK's trtrs directly for its triangular
solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import InfeasibleSpec, InvalidState, SolverFailure
from .registers import herm_part

_dtrtrs = scipy.linalg.lapack.dtrtrs

#: target duality gap, relative to the value scale
GAP_TOL = 1e-9
#: widest checked gap accepted when the iterates stall before ``GAP_TOL``
GAP_CEILING = 1e-6
#: primal-dual iterations per solve
MAX_ITER = 100
#: negative dual-slack eigenvalues down to this, relative to the value
#: scale, are rounding and only correct the bound
EIG_ROUND = 1e-12
#: iterations without halving max(mu, relative residuals) that end a solve
STALL_ITER = 5


# ----------------------------------------------------- Hermitian vectorization

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@lru_cache(maxsize=None)
def hermitian_index(n: int):
    """Index form ``(r1, r2)`` of the orthonormal Hermitian basis.

    Basis element k is zero outside the row-major positions ``r1[k]`` and
    ``r2[k]``, the transposed position.  Order: n diagonal units E_ii
    (``r1 = r2``), then for each i<j, with ``r1`` at (i, j) and ``r2`` at
    (j, i), the real pair (E_ij+E_ji)/sqrt2 followed by the imaginary pair
    i(E_ij-E_ji)/sqrt2.
    """
    d = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    r1 = np.concatenate([d * n + d, np.repeat(iu * n + ju, 2)])
    r2 = np.concatenate([d * n + d, np.repeat(ju * n + iu, 2)])
    return _frozen(r1, r2)


def _frozen(*arrays):
    """The arrays, made read-only (they are shared through a cache)."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class BlockStack:
    """Hermitian blocks of sizes ``dims`` held as one padded stack.

    The stack has shape (k, n, n) with n = max(dims); block b sits top-left
    in ``stack[b]``.  Its coordinates are those of :func:`hvec`, block after
    block.  By :func:`hermitian_index`, each block's basis touches a
    diagonal entry through one coordinate and each pair of entries (i, j),
    (j, i), i < j, through one real and one imaginary coordinate.  On the
    stack's real and imaginary parts, read as one real array, :meth:`unvec`
    is therefore one scaled gather from the coordinates and one scatter to
    positions that never repeat, and :meth:`vec` two gathers, a sum and a
    scaling.  Both take any leading axes.
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        k, n = len(self.dims), max(self.dims)
        self.shape = (k, n, n)
        s = _INV_SQRT2
        parts = []
        off = 0
        for b, d in enumerate(self.dims):
            r1, r2 = hermitian_index(d)
            j = np.arange(d * d)
            diag, im = j < d, (j >= d) & ((j - d) % 2 == 1)
            # each coordinate's entries r1 (diagonal or upper) and r2
            # (diagonal or lower) as positions in the stack read as reals:
            # real parts, imaginary parts for the imaginary coordinates
            up = 2 * (b * n * n + (r1 // d) * n + r1 % d) + im
            lo = 2 * (b * n * n + (r2 // d) * n + r2 % d) + im
            sgn = np.where(im, -1.0, 1.0)
            parts.append((
                # vec: coordinate j is (stack[up_j] +- stack[lo_j]) times
                # 1/2 on the diagonal (read twice) and 1/sqrt2 off it
                up, lo, sgn, np.where(diag, 0.5, s),
                # unvec: stack[up_j] = x_j (s x_j off the diagonal), and
                # stack[lo_j] = +-s x_j off the diagonal
                np.concatenate([up, lo[~diag]]),
                off + np.concatenate([j, j[~diag]]),
                np.concatenate([np.where(diag, 1.0, s), s * sgn[~diag]]),
                2 * (b * n * n + (n + 1) * np.arange(d, n))))
            off += d * d
        self.size = off
        (self._pa, self._pb, self._sgn, self._scale, self._to, self._from,
         self._coef, self._pad) = _frozen(
             *(np.concatenate(col) for col in zip(*parts)))

    def unvec(self, x, *, pad: bool = False) -> np.ndarray:
        """The stack with coordinates ``x``, shape (..., size) -> (..., k,
        n, n); the padding is zero, or the identity with ``pad``."""
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        k, n, _ = self.shape
        out = np.zeros(lead + (2 * k * n * n,))
        out[..., self._to] = x.take(self._from, axis=-1) * self._coef
        if pad:
            out[..., self._pad] = 1.0
        return out.view(complex).reshape(lead + self.shape)

    def vec(self, stack) -> np.ndarray:
        """Coordinates Re(B^dag vec M_b) of every block, (..., k, n, n) ->
        (..., size): for a non-Hermitian block those of its Hermitian
        part; the padding is not read."""
        m = np.ascontiguousarray(stack, dtype=complex)
        m = m.reshape(m.shape[:-3] + (-1,)).view(float)
        return (m.take(self._pa, axis=-1)
                + m.take(self._pb, axis=-1) * self._sgn) * self._scale


@lru_cache(maxsize=None)
def block_stack(dims: tuple) -> BlockStack:
    """The cached :class:`BlockStack` of blocks of sizes ``dims``."""
    return BlockStack(dims)


def hvec(mat: np.ndarray) -> np.ndarray:
    """Real coordinates Re(B^dag vec M) in the orthonormal basis.

    For Hermitian ``mat`` these are its exact coordinates; for any other
    square matrix they are those of its Hermitian part.  A stack of
    matrices, shape (m, n, n), gives the stack of m coordinate rows.
    """
    m = np.asarray(mat)
    return block_stack((m.shape[-1],)).vec(m[..., None, :, :])


def hunvec(v: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrix B v with real coordinates ``v``; a stack of
    coordinate rows, shape (m, n^2), gives the stack of m matrices."""
    return block_stack((n,)).unvec(v)[..., 0, :, :]


def hermitian_basis(n: int):
    """Iterate the basis elements as n x n matrices, in coordinate order."""
    yield from hunvec(np.eye(n * n), n)


def schur_factor(LX: np.ndarray, LZ: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Real square-root factor of one block's share of the Schur complement.

    For X = LX LX^dag, Z = LZ LZ^dag and Hermitian rows A_k (``mats``,
    shape (m, n, n)) returns the real m x 2n^2 matrix F whose rows are the
    real and imaginary parts of G_k = LX^dag A_k LZ, so that
    (F F^T)_kl = Re tr[G_k^dag G_l] = Re tr[A_k X A_l Z]: F F^T is
    A Re B^dag (X (x) conj Z) B A^T in the coordinates of :func:`hvec`.
    """
    G = (LX.conj().T @ mats @ LZ).reshape(len(mats), LX.size)
    return np.concatenate([G.real, G.imag], axis=1)


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
        #: one (block name -> (r, d_b^2) rows in hvec coordinates, (r,)
        #: right-hand sides) per constraint, filling the rows of A in order
        self.constraints: list[tuple[dict[str, np.ndarray], np.ndarray]] = []
        #: the number of equality rows, summed over ``constraints``
        self.rows = 0

    def add_block(self, name: str, dim: int) -> None:
        if name in self.blocks:
            raise InvalidState(f"duplicate block {name!r}")
        if dim < 1:
            raise InvalidState("block dimension must be >= 1")
        self.blocks[name] = int(dim)

    def add_objective(self, name: str, C) -> None:
        if name in self.objective:
            raise InvalidState(f"objective of block {name!r} is already set")
        self.objective[name] = _as_herm(C, self.blocks[name],
                                        f"objective[{name}]")

    def _append(self, coefs: dict, rhs: np.ndarray) -> slice:
        """Store one constraint; returns the slice of its rows."""
        self.constraints.append((coefs, rhs))
        self.rows += len(rhs)
        return slice(self.rows - len(rhs), self.rows)

    def add_eq_constraint(self, mats: dict, rhs: float) -> slice:
        """One row, sum_b <M_b, X_b> = rhs for ``mats`` {b: M_b}; returns
        its slice of the rows of A."""
        row = {}
        for name, M in mats.items():
            if name not in self.blocks:
                raise InvalidState(f"unknown block {name!r}")
            row[name] = hvec(_as_herm(M, self.blocks[name],
                                      f"constraint[{name}]"))[None]
        return self._append(row, np.array([float(rhs)]))

    def add_operator_equality(self, terms, G) -> slice:
        """Lower ``sum_b L_b(X_b) = G`` to one row per coordinate of ``G``,
        and return the slice of the rows of A that hold them.

        ``terms`` is a list of ``(block_name, L_b)`` with ``L_b`` a linear,
        Hermiticity-preserving map from the block to the space of ``G``.
        Row k is <E_k, sum_b L_b(X_b)> = <E_k, G> over the Hermitian basis
        E_k of that space; its coefficient on basis element F_j of block b
        is <E_k, L_b(F_j)>, so column j of the term is hvec(L_b(F_j)), and
        each map is probed once on the basis of its block.  A term's probes
        are checked and vectorized as one stack.
        """
        G = np.asarray(G, dtype=complex)
        n = G.shape[0]
        G = _as_herm(G, n, "operator constraint rhs")
        cols = {}
        for name, fwd in terms:
            if name not in self.blocks:
                raise InvalidState(f"unknown block {name!r}")
            probes = [np.asarray(fwd(F), dtype=complex)
                      for F in hermitian_basis(self.blocks[name])]
            if any(p.shape != (n, n) for p in probes):
                raise InvalidState(f"map of {name!r}: expected shape "
                                   f"{(n, n)}, got {probes[0].shape}")
            out = np.stack(probes)
            asym = np.linalg.norm(out - out.conj().swapaxes(1, 2), axis=(1, 2))
            if np.any(asym > 1e-9 * np.maximum(
                    1.0, np.linalg.norm(out, axis=(1, 2)))):
                raise InvalidState(f"map of {name!r}: matrix is not Hermitian")
            probed = hvec(out).T
            cols[name] = cols[name] + probed if name in cols else probed
        return self._append(cols, hvec(G))

    def add_operator_inequality(self, terms, G, *, slack: str) -> slice:
        """``sum_b L_b(X_b) >= G``: the equality of
        :meth:`add_operator_equality` with ``-slack`` added on the left,
        for a new PSD block ``slack``; returns the slice of its rows."""
        self.add_block(slack, np.shape(G)[0])
        return self.add_operator_equality(
            list(terms) + [(slack, lambda S: -S)], G)


# ------------------------------------------------------------------- solution

@dataclass
class SdpSolution:
    """``value`` at the returned ``variables``, the ``dual_value`` certified
    from ``y``, and their ``gap``.  ``y`` holds one multiplier per row of
    A in the min-sense form, min c.x with c = +-C: on the slice ``sl`` of
    rows that :meth:`SdpProblem.add_operator_equality` returns,
    hunvec(y[sl]) is the dual operator of a ``"min"`` problem and
    -hunvec(y[sl]) that of a ``"max"`` one."""
    value: float
    dual_value: float
    gap: float
    variables: dict = field(repr=False)
    y: np.ndarray = field(repr=False)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0


# --------------------------------------------------------------------- solver

def _assemble(problem: SdpProblem):
    """(names, dims, slices, A, b, c, sgn): the program in the min-sense
    coordinates of the solver, each block's coordinates at its slice; one
    slice assignment per block of each constraint."""
    names = list(problem.blocks)
    dims = [problem.blocks[n] for n in names]
    offs = np.concatenate([[0], np.cumsum([d * d for d in dims])])
    slices = [slice(offs[i], offs[i + 1]) for i in range(len(dims))]
    cols = dict(zip(names, slices))
    sgn = 1.0 if problem.sense == "min" else -1.0
    c = np.zeros(offs[-1])
    for name, C in problem.objective.items():
        c[cols[name]] = sgn * hvec(C)
    A = np.zeros((problem.rows, offs[-1]))
    b = np.zeros(problem.rows)
    first = 0
    for coefs, rhs in problem.constraints:
        rows = slice(first, first + len(rhs))
        b[rows] = rhs
        for name, coef in coefs.items():
            A[rows, cols[name]] = coef
        first = rows.stop
    return names, dims, slices, A, b, c, sgn


def _split(x, names, dims, slices):
    return {n: hunvec(x[sl], d) for n, d, sl in zip(names, dims, slices)}


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm_part(mat)).min())


def _starting_point(A, b, LA, stack) -> np.ndarray:
    """The start of the module docstring: e, the identity of every block
    of ``stack``, projected onto the rows (A, b), with ``LA`` the Cholesky
    factor of A A^T, or e when Cholesky fails on the projection."""
    e = np.concatenate([hvec(np.eye(d)) for d in stack.dims])
    x0 = e + A.T @ _tri_solve(LA, b - A @ e, upper=False)
    try:
        np.linalg.cholesky(stack.unvec(x0, pad=True))
    except np.linalg.LinAlgError:
        return e
    return x0


def _row_factor(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of A A^T.

    Raises :class:`InfeasibleSpec` when the rows of A are linearly
    dependent: when the factorization fails, or when the least entry of
    its diagonal is 1e-6 of the greatest or less (module docstring).
    """
    try:
        L = np.linalg.cholesky(A @ A.T)
        d = np.diag(L)
        if d.min() > 1e-6 * d.max():
            return L
    except np.linalg.LinAlgError:
        pass
    raise InfeasibleSpec("equality rows are linearly dependent")


def _tri_solve(T: np.ndarray, v: np.ndarray, *, upper: bool) -> np.ndarray:
    """(T^T T)^{-1} v for upper-triangular T, (T T^T)^{-1} v for lower.

    LAPACK's trtrs on the Fortran-ordered transpose of the C-ordered factor,
    which is what ``scipy.linalg.solve_triangular`` calls, without its
    wrapper.  The factors come from QR and Cholesky with nonzero diagonals,
    so trtrs cannot fail.
    """
    Tt = T.T
    for trans in ((0, 1) if upper else (1, 0)):
        v = _dtrtrs(Tt, v, lower=int(upper), trans=trans)[0]
    return v


def _max_steps(Li: np.ndarray, dM: np.ndarray) -> tuple:
    """Largest a with M_j + a dM_j >= 0 in every block, for each pair j of
    stacks M_j = L_j L_j^dag and dM_j stacked on the leading axis of ``Li``
    = L^{-1} and ``dM`` (inf where dM_j >= 0).

    One ``eigvalsh`` of the stack Li dM Li^dag for all the pairs.
    Zero-padded dM gives zero eigenvalues in the padding, which cannot
    change -1/low for low < 0.
    """
    lows = np.linalg.eigvalsh(Li @ dM @ Li.conj().swapaxes(-1, -2)).min(
        axis=(-2, -1))
    return tuple(-1.0 / float(low) if low < 0.0 else np.inf for low in lows)


class _HkmSystem:
    """The step equations at one iterate (X, y, S), reduced to the Schur
    complement.

    With Z = S^{-1} and K the matrix of E -> sym(X E Z) in the coordinates
    of :func:`hvec`, the linearized optimality conditions A dX = r_p,
    A^T dy + dS = R_d and dX + K dS = R_c lose dS = R_d - A^T dy and
    dX = R_c - K dS, which leaves (A K A^T) dy = r_p + A (K R_d - R_c).
    The predictor and the corrector share r_p and R_d, so K R_d is applied
    once per iterate.

    X and S are padded :class:`BlockStack` stacks, factored and inverted
    in one batch each (module docstring); the inverse of a block-diagonal
    factor keeps the identity padding and each block's own factor.  A K A^T
    is F F^T for the blocks' :func:`schur_factor` (on the unpadded rows)
    side by side, and the R of a QR factorization of F^T is its Cholesky
    factor, shared by the predictor and the corrector.
    """

    def __init__(self, x, s, rp, Rd, stack, A, row_mats, LA):
        self.stack, self.A, self.LA, self.rp, self.Rd = stack, A, LA, rp, Rd
        self.R = None
        XS = stack.unvec(np.stack([x, s]), pad=True)
        try:
            L = np.linalg.cholesky(XS)
        except np.linalg.LinAlgError:
            return
        self.X = XS[0]
        #: the inverse factors of X and of S, stacked as the step lengths
        #: read them
        self.Li = np.linalg.inv(L)
        LSi = self.Li[1]
        self.Z = LSi.conj().swapaxes(1, 2) @ LSi
        F = np.concatenate([
            schur_factor(LX[:d, :d], Si[:d, :d].conj().T, mats)
            for LX, Si, d, mats in zip(L[0], LSi, stack.dims, row_mats)],
            axis=1)
        # compact-WY QR with narrow panels: at these sizes 2-3 times faster
        # than the default blocking single-threaded, 5-40 times under a
        # BLAS thread pool
        qr = scipy.linalg.lapack.dgeqrt(min(8, len(A)), F.T)[0]
        # R's upper triangle, copied once into the C order in which
        # _tri_solve hands it to trtrs; trtrs reads only that triangle, so
        # the reflectors below the diagonal stay
        R = np.ascontiguousarray(qr[:len(A)])
        diag = np.abs(np.diag(R))
        if diag.min() > 1e-13 * diag.max():
            self.R = R
            self.KRd = self.apply_K(Rd)

    def apply_K(self, v):
        """K v for the whole stack, as hvec(sym(X V Z))."""
        return self.stack.vec(self.X @ self.stack.unvec(v) @ self.Z)

    def direction(self, Rc):
        """(dx, dy, dS) for the complementarity target ``Rc``."""
        A, rp = self.A, self.rp
        dy = _tri_solve(self.R, rp + A @ (self.KRd - Rc), upper=True)
        dS = self.Rd - A.T @ dy
        dx = Rc - self.apply_K(dS)
        # project back onto A dx = r_p, which the solve keeps only to the
        # conditioning of R
        dx -= A.T @ _tri_solve(self.LA, A @ dx - rp, upper=False)
        return dx, dy, dS

    def max_steps(self, dx, dS):
        """Largest primal and dual step lengths that keep X and S >= 0, and
        the stack of (dX, dS) they were read from."""
        dXS = self.stack.unvec(np.stack([dx, dS]))
        return _max_steps(self.Li, dXS), dXS

    def corrector_target(self, x, mu, sigma, dXS):
        """R_c = sigma mu S^{-1} - X - sym(dX dS S^{-1}) (Mehrotra), for the
        predictor's stack ``dXS`` of :meth:`max_steps`."""
        dX, dSm = dXS
        return self.stack.vec(sigma * mu * self.Z - dX @ dSm @ self.Z) - x


def _certificate(x, y, A, b, c, dims, slices):
    """Weak-duality bound from ``y`` alone.

    S_b = C_b - (A^T y)_b is rebuilt blockwise and its lowest eigenvalue
    lam_b computed.  For every feasible X, c.x - b.y = sum_b <S_b, X_b>
    >= sum_b min(0, lam_b) tr X_b, so b.y + sum_b min(0, lam_b) tr X_b
    bounds the optimum from below, with tr X_b of the returned point
    standing in for tr X_b at the optimum (the two differ by O(gap), and
    the correction is only taken for lam_b at rounding level).  Returns
    (bound, correction, lowest eigenvalue).
    """
    s_chk = c - A.T @ y
    lam, corr = np.inf, 0.0
    for d, sl in zip(dims, slices):
        low = _min_eig(hunvec(s_chk[sl], d))
        lam = min(lam, low)
        if low < 0.0:
            corr -= low * float(np.sum(x[sl][:d]))  # the first d are diag X
    return float(b @ y) - corr, corr, lam


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Solve to a checked duality gap of ``GAP_TOL`` times the value scale.

    Starts from the identity projected onto the equalities and iterates
    until the stopping rule holds at a checked dual point (both in the
    module docstring).  If the iterates stall or lose positive
    definiteness first, the best checked point is returned as long as its
    gap is below ``GAP_CEILING`` times the value scale.  The reported gap
    and dual value always come from a y whose dual slacks C_b - (A^T y)_b
    had their lowest eigenvalue computed.  Raises :class:`InvalidState`
    for a problem without equality rows, :class:`InfeasibleSpec` when its
    rows are linearly dependent and :class:`SolverFailure` when no
    acceptable certificate is reached.
    """
    if not problem.blocks:
        raise InvalidState("problem has no blocks")
    if not problem.rows:
        raise InvalidState("problem has no equality rows")
    names, dims, slices, A, b, c, sgn = _assemble(problem)
    LA = _row_factor(A)
    n_total = float(sum(dims))
    stack = block_stack(tuple(dims))
    x = _starting_point(A, b, LA, stack)
    # the rows of A as Hermitian matrices, block by block
    row_mats = [hunvec(A[:, sl], d) for d, sl in zip(dims, slices)]
    # y = 0 and S = xi I, with xi weighing the objective against the start
    xi = max(1.0, float(np.linalg.norm(c)) / np.sqrt(n_total))
    y = np.zeros(len(b))
    s = np.concatenate([hvec(xi * np.eye(d)) for d in dims])
    b_norm, c_norm = float(np.linalg.norm(b)), float(np.linalg.norm(c))
    rp_tol = 1e-9 * (1.0 + b_norm)
    best = None  # (relative gap, gap, x, y, certificate) of the best point
    checked_low = None  # lowest dual-slack eigenvalue of the last check
    progress, stalled = np.inf, 0
    it = 0
    while True:
        pval, dval = float(c @ x), float(b @ y)
        scale = max(1.0, abs(pval))
        rp = b - A @ x
        rp_norm = float(np.linalg.norm(rp))
        if abs(pval - dval) <= GAP_CEILING * scale and rp_norm <= rp_tol:
            cert = _certificate(x, y, A, b, c, dims, slices)
            gap, checked_low = pval - cert[0], cert[2]
            if checked_low >= -EIG_ROUND * scale and (
                    best is None or gap / scale < best[0]):
                best = (gap / scale, gap, x, y, cert)
            if best is not None and best[0] <= GAP_TOL:
                break
        Rd = c - A.T @ y - s
        mu = float(x @ s) / n_total
        now = max(mu, rp_norm / (1.0 + b_norm),
                  float(np.linalg.norm(Rd)) / (1.0 + c_norm))
        if now < 0.5 * progress:
            progress, stalled = now, 0
        else:
            stalled += 1
        if it >= MAX_ITER or stalled >= STALL_ITER:
            break
        hkm = _HkmSystem(x, s, rp, Rd, stack, A, row_mats, LA)
        if hkm.R is None:
            break
        it += 1
        # predictor: the affine-scaling direction, R_c = -X
        dx, dy, dS = hkm.direction(-x)
        steps, dXS = hkm.max_steps(dx, dS)
        ap, ad = (min(1.0, a) for a in steps)
        mu_aff = max(float((x + ap * dx) @ (s + ad * dS)), 0.0) / n_total
        sigma = min(1.0, (mu_aff / mu) ** max(1.0, 3.0 * min(ap, ad) ** 2))
        # corrector: centering plus the second-order term of X S = sigma mu I
        dx, dy, dS = hkm.direction(hkm.corrector_target(x, mu, sigma, dXS))
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dS))):
            break
        (ap, ad), _ = hkm.max_steps(dx, dS)
        frac = 0.9 + 0.09 * min(1.0, ap, ad)
        ap, ad = min(1.0, frac * ap), min(1.0, frac * ad)
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * dS

    if best is None or best[0] > GAP_CEILING:
        raise SolverFailure(
            "could not reach an acceptable duality gap",
            diagnostics={"iterations": it, "gap": abs(pval - dval),
                         "primal_eq": rp_norm, "mu": mu,
                         "checked_min_eig_S": checked_low})
    _, gap, x, y, (bound, corr, lam) = best
    variables = _split(x, names, dims, slices)
    residuals = {
        "primal_eq": float(np.linalg.norm(A @ x - b)),
        "min_eig_X": min(_min_eig(variables[n]) for n in names),
        # lowest eigenvalue of the checked dual slacks C_b - (A^T y)_b
        "min_eig_S": float(lam),
        "complementarity": float(c @ x - b @ y),
        # what negative dual-slack eigenvalues took off b.y for the bound
        "dual_fit": float(corr),
    }
    return SdpSolution(value=sgn * float(c @ x), dual_value=sgn * bound,
                       gap=float(gap), variables=variables, y=y,
                       residuals=residuals, iterations=it)
