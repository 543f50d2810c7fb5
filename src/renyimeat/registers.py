"""Labeled tensor-product registers and density operators on them.

A ``RegisterSpace`` is an ordered list of ``(label, dim)`` pairs; basis
vectors are addressed lexicographically in register order (C order), so
``reshape`` on a ``dim x dim`` matrix exposes one (bra, ket) leg pair per
register.  A ``State`` is a density operator (possibly subnormalized)
together with its space.  Everything is dense ``complex128``; the intended
scale is desk-sized (total dimension in the tens).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidRegister, InvalidState

#: eigenvalues below EIG_CUT * (largest eigenvalue) count as zero everywhere
#: supports, ranks and pseudo-inverses are decided.
EIG_CUT = 1e-12

#: Frobenius norm of the off-diagonal blocks, relative to the state's, up
#: to which a state counts as classical on a register; also the relative
#: weight below which a classical branch carries no mass
CLASSICAL_TOL = 1e-10

#: log2(e), the factor between natural and base-2 logarithms
LOG2E = math.log2(math.e)


class RegisterSpace:
    """Ordered tensor product of labeled finite-dimensional registers."""

    __slots__ = ("_regs", "_index")

    def __init__(self, regs: Iterable[tuple[str, int]]):
        regs = tuple((str(lbl), int(d)) for lbl, d in regs)
        for lbl, d in regs:
            if d < 1:
                raise InvalidRegister(f"register {lbl!r} has dimension {d}")
        labels = [lbl for lbl, _ in regs]
        if len(set(labels)) != len(labels):
            raise InvalidRegister(f"duplicate register labels in {labels}")
        self._regs = regs
        self._index = {lbl: i for i, (lbl, _) in enumerate(regs)}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self._regs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self._regs)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self._regs:
            out *= d
        return out

    def __len__(self) -> int:
        return len(self._regs)

    def __iter__(self):
        return iter(self._regs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterSpace) and self._regs == other._regs

    def __hash__(self):
        return hash(self._regs)

    def __repr__(self) -> str:
        body = " ".join(f"{lbl}:{d}" for lbl, d in self._regs)
        return f"<RegisterSpace {body}>"

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidRegister(f"no register {label!r} in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self._regs[self.position(label)][1]

    def dims_of(self, labels: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.dim_of(l) for l in labels)

    def tensor(self, other: "RegisterSpace") -> "RegisterSpace":
        return RegisterSpace(self._regs + tuple(other))

    def keep(self, labels: Sequence[str]) -> "RegisterSpace":
        """Subspace of the named registers, in their *original* order."""
        wanted = set(labels)
        for l in labels:
            self.position(l)
        return RegisterSpace((lbl, d) for lbl, d in self._regs if lbl in wanted)

    def drop(self, labels: Sequence[str]) -> "RegisterSpace":
        for l in labels:
            self.position(l)
        out = set(labels)
        return RegisterSpace((lbl, d) for lbl, d in self._regs if lbl not in out)

    def reorder(self, labels: Sequence[str]) -> "RegisterSpace":
        if sorted(labels) != sorted(self.labels):
            raise InvalidRegister(f"{labels} is not a permutation of {self.labels}")
        return RegisterSpace((lbl, self.dim_of(lbl)) for lbl in labels)


def space(*regs: tuple[str, int]) -> RegisterSpace:
    """Shorthand: ``space(("A", 2), ("B", 3))``."""
    return RegisterSpace(regs)


def as_labels(labels) -> tuple[str, ...]:
    """One register label, or a sequence of them, as a tuple of labels."""
    return (labels,) if isinstance(labels, str) else tuple(labels)


def _permutation_matrix_action(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Conjugate ``mat`` by the register permutation ``perm`` (new order of axes)."""
    k = len(dims)
    ten = mat.reshape(*dims, *dims)
    axes = list(perm) + [p + k for p in perm]
    ten = np.transpose(ten, axes)
    d = int(np.prod(dims))
    return np.ascontiguousarray(ten).reshape(d, d)


def embed_operator(ambient: RegisterSpace, labels: Sequence[str],
                   mat: np.ndarray) -> np.ndarray:
    """``mat`` acting on ``labels`` tensored with identity elsewhere.

    The result's register order is that of ``ambient``; ``labels`` gives the
    leg order ``mat`` is written in.
    """
    labels = list(labels)
    rest = [l for l in ambient.labels if l not in labels]
    mat = np.asarray(mat, dtype=complex)
    d_lab = int(np.prod(ambient.dims_of(labels))) if labels else 1
    if mat.shape != (d_lab, d_lab):
        raise InvalidRegister(
            f"operator of shape {mat.shape} does not fit registers {labels}")
    big = np.kron(mat, np.eye(int(np.prod(ambient.dims_of(rest))) if rest else 1))
    inter = labels + rest
    dims = [ambient.dim_of(l) for l in inter]
    perm = [inter.index(l) for l in ambient.labels]
    return _permutation_matrix_action(big, dims, perm)


class State:
    """Density operator on a :class:`RegisterSpace` (possibly subnormalized)."""

    __slots__ = ("space", "matrix")

    def __init__(self, matrix, space: RegisterSpace, *, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise InvalidState(
                f"matrix shape {matrix.shape} does not match space dim {space.dim}"
            )
        if check:
            hierr = np.linalg.norm(matrix - matrix.conj().T)
            if hierr > 1e-8 * max(1.0, np.linalg.norm(matrix)):
                raise InvalidState(f"matrix is not Hermitian (deviation {hierr:.2e})")
            matrix = 0.5 * (matrix + matrix.conj().T)
            low = float(np.linalg.eigvalsh(matrix)[0])
            if low < -1e-10 * max(1.0, float(np.abs(matrix).max())):
                raise InvalidState(f"matrix is not PSD (min eigenvalue {low:.2e})")
        self.space = space
        self.matrix = matrix

    # ---------------------------------------------------------------- basics

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def tensor(self, other: "State") -> "State":
        return State(
            np.kron(self.matrix, other.matrix),
            self.space.tensor(other.space),
            check=False,
        )

    def reorder(self, labels: Sequence[str]) -> "State":
        """Permute registers into the given label order."""
        tgt = self.space.reorder(labels)
        perm = [self.space.position(l) for l in labels]
        return State(
            _permutation_matrix_action(self.matrix, self.space.dims, perm),
            tgt,
            check=False,
        )

    def partial_trace(self, *, keep: Sequence[str] | None = None,
                      drop: Sequence[str] | None = None) -> "State":
        """Trace out registers.  Exactly one of ``keep``/``drop`` is given;
        surviving registers keep their original order."""
        if (keep is None) == (drop is None):
            raise ValueError("give exactly one of keep= / drop=")
        if keep is not None:
            keep_set = set(keep)
            for l in keep:
                self.space.position(l)
        else:
            for l in drop:
                self.space.position(l)
            keep_set = set(self.space.labels) - set(drop)
        dims = self.space.dims
        k = len(dims)
        keep_pos = [i for i, lbl in enumerate(self.space.labels) if lbl in keep_set]
        ten = self.matrix.reshape(*dims, *dims)
        # einsum with integer subscripts: traced register pairs share an index
        sub = list(range(k)) + [
            (i if i not in keep_pos else i + k) for i in range(k)
        ]
        out_sub = keep_pos + [p + k for p in keep_pos]
        red = np.einsum(ten, sub, out_sub)
        newspace = self.space.keep([self.space.labels[i] for i in keep_pos])
        d = newspace.dim
        return State(red.reshape(d, d), newspace, check=False)

    def marginal(self, labels: Sequence[str]) -> "State":
        return self.partial_trace(keep=labels)

    # ------------------------------------------------------------- classical

    def is_classical_on(self, labels: Sequence[str]) -> bool:
        """True when the operator is block diagonal in the computational basis
        of the named registers (up to ``CLASSICAL_TOL`` in Frobenius norm)."""
        off = self._off_block_norm(labels)
        return off <= CLASSICAL_TOL * max(1.0, np.linalg.norm(self.matrix))

    def _off_block_norm(self, labels) -> float:
        # pinching zeroes exactly the off-diagonal blocks, so the difference
        # *is* the off-block part (no cancellation, unlike total^2 - diag^2)
        return float(np.linalg.norm(self.matrix - self.pinched(labels).matrix))

    def pinched(self, labels: Sequence[str]) -> "State":
        """Zero all off-diagonal blocks in the computational basis of the
        named registers (the dephasing/pinching channel on them)."""
        pos = [self.space.position(l) for l in labels]
        dims = self.space.dims
        k = len(dims)
        ten = self.matrix.reshape(*dims, *dims).copy()
        for p in pos:
            d = dims[p]
            shape = [1] * (2 * k)
            shape[p] = d
            shape[p + k] = d
            ten = ten * np.eye(d).reshape(shape)
        return State(ten.reshape(self.space.dim, self.space.dim),
                     self.space, check=False)

    def branches(self, labels: Sequence[str]):
        """Decompose a state classical on ``labels`` into branches.

        Returns a list of ``(outcome, weight, conditional)`` triples where
        ``outcome`` is a tuple of basis indices for ``labels``, ``weight`` the
        branch probability mass, and ``conditional`` the *normalized* state on
        the remaining registers (``None`` when the weight is ~0; such branches
        carry no mass and are skipped by every classical-mixture formula).
        """
        if not self.is_classical_on(labels):
            raise InvalidState(f"state is not classical on {list(labels)}")
        pos = [self.space.position(l) for l in labels]
        dims = self.space.dims
        k = len(dims)
        rest = [i for i in range(k) if i not in pos]
        newspace = self.space.keep([self.space.labels[i] for i in rest])
        d = max(newspace.dim, 1)
        ten = self.matrix.reshape(*dims, *dims)
        out = []
        total = self.trace()
        for idx in np.ndindex(*[dims[p] for p in pos]):
            sl = [slice(None)] * (2 * k)
            for p, v in zip(pos, idx):
                sl[p] = v
                sl[p + k] = v
            block = ten[tuple(sl)]
            # surviving axes are ordered (bra..., ket...) already
            block = block.reshape(d, d)
            w = float(np.real(np.trace(block)))
            if w <= CLASSICAL_TOL * max(total, 1e-300):
                out.append((idx, 0.0, None))
            else:
                out.append((idx, w, State(block / w, newspace, check=False)))
        return out

    # ----------------------------------------------------------- spectral

    def rank(self) -> int:
        vals = np.linalg.eigvalsh(self.matrix)
        top = max(vals.max(), 0.0)
        return int(np.sum(vals > EIG_CUT * max(top, 1e-300)))

    def purified(self, label: str = "P") -> "State":
        """Canonical purification, appending register ``label`` of dimension
        ``rank(rho)``.

        Eigenvalues are taken in descending order; each eigenvector's phase is
        fixed by making its first non-negligible component real positive, so
        the output is deterministic across runs.
        """
        vec, pspace = canonical_purification_vector(self, label)
        full = self.space.tensor(pspace)
        return State(np.outer(vec, vec.conj()), full, check=False)


def canonical_purification_vector(state: State, label: str = "P"):
    """Return ``(vector, purifying_space)`` of the canonical purification."""
    vals, vecs = np.linalg.eigh(state.matrix)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    top = max(vals[0], 0.0)
    r = int(np.sum(vals > EIG_CUT * max(top, 1e-300)))
    r = max(r, 1)
    d = state.space.dim
    vec = np.zeros(d * r, dtype=complex)
    for i in range(r):
        v = vecs[:, i]
        a = np.abs(v)
        nz = np.nonzero(a > 1e-12 * a.max())[0]
        j = nz[0] if len(nz) else 0
        phase = v[j] / abs(v[j]) if abs(v[j]) > 0 else 1.0
        v = v / phase
        lam = max(vals[i], 0.0)
        vec += np.sqrt(lam) * np.kron(v, _basis_vec(r, i))
    pspace = RegisterSpace([(label, r)])
    return vec, pspace


def _basis_vec(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def ket_state(vector, space: RegisterSpace) -> State:
    vector = np.asarray(vector, dtype=complex).reshape(-1)
    if vector.shape[0] != space.dim:
        raise InvalidState(
            f"vector length {vector.shape[0]} does not match space dim {space.dim}"
        )
    return State(np.outer(vector, vector.conj()), space, check=False)


def basis_ket(space: RegisterSpace, indices: Sequence[int]) -> np.ndarray:
    """Computational basis vector |i_1 ... i_k> for the given register indices."""
    if len(indices) != len(space):
        raise InvalidRegister("one index per register required")
    flat = int(np.ravel_multi_index(tuple(indices), space.dims))
    return _basis_vec(space.dim, flat)


def maximally_mixed(space: RegisterSpace) -> State:
    d = space.dim
    return State(np.eye(d) / d, space, check=False)


def classical_state(probs, space: RegisterSpace) -> State:
    """Diagonal state from a probability vector over the joint basis."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.shape[0] != space.dim:
        raise InvalidState("probability vector length mismatch")
    if p.min() < -1e-12:
        raise InvalidState("negative probabilities")
    return State(np.diag(p.astype(complex)), space, check=False)


def support_isometry(mat: np.ndarray) -> np.ndarray:
    """Columns span the eigenspaces with eigenvalue > EIG_CUT * max;
    shape (d, rank)."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    keep = vals > EIG_CUT * max(vals.max(initial=0.0), 1e-300)
    return vecs[:, keep]


def bipartite_partial_trace(mat: np.ndarray, d_first: int, d_second: int,
                            keep: int) -> np.ndarray:
    """Partial trace of a dense operator on a ``d_first x d_second`` product,
    keeping factor ``keep`` (0 or 1) and tracing the other."""
    traced = 1 - keep
    return np.trace(mat.reshape(d_first, d_second, d_first, d_second),
                    axis1=traced, axis2=traced + 2)


def kraus_apply(kraus, X: np.ndarray) -> np.ndarray:
    """The Hermitian part of sum_k K_k X K_k^dag."""
    return herm_part(sum(K @ X @ K.conj().T for K in kraus))


def kraus_pullback(kraus, G: np.ndarray) -> np.ndarray:
    """The adjoint map: the Hermitian part of sum_k K_k^dag G K_k."""
    return herm_part(sum(K.conj().T @ G @ K for K in kraus))


def log_sum_exp(x) -> float:
    """Natural log of sum_i exp(x_i), shifted by the largest entry so that
    no term overflows.

    The m entries equal to the largest contribute log(m), and the others
    log1p of their shifted sum over m, so a dominant term loses no digits.
    Entries of -inf add nothing; all of them (or none) give -inf,
    and a +inf or nan entry is returned as it is.
    """
    x = np.asarray(x, dtype=float)
    top = x.max(initial=-np.inf)
    if not np.isfinite(top):
        return float(top)
    at_top = x == top
    m = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, x - top)).sum() / m
    return float(np.log1p(rest) + np.log(m) + top)


def herm_part(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part (M + M^dag)/2 of a square matrix."""
    return 0.5 * (mat + mat.conj().T)


def herm_power(mat: np.ndarray, p: float) -> np.ndarray:
    """``mat**p`` through the eigendecomposition of a PSD matrix.

    Negative/zero eigenvalues below the support cut are treated as exact
    zeros; for negative powers the Moore-Penrose convention applies (zero
    stays zero).  Genuinely negative spectrum combined with a non-integer
    power is rejected rather than silently clipped.
    """
    vals, vecs = np.linalg.eigh(mat)
    top = max(vals.max(), 0.0)
    if not float(p).is_integer() and vals.min() < -1e-8 * max(top, 1.0):
        raise InvalidState(
            f"matrix is not PSD (eigenvalue {vals.min():.2e}); "
            f"non-integer power {p} undefined")
    cut = EIG_CUT * max(top, 1e-300)
    out = np.zeros_like(vals)
    pos = vals > cut
    out[pos] = vals[pos] ** p
    return (vecs * out) @ vecs.conj().T


def divided_differences(lam: np.ndarray, f: np.ndarray, df: np.ndarray,
                        keep: np.ndarray) -> np.ndarray:
    """Daleckii-Krein kernel of a spectral function at eigenvalues ``lam``.

    Entry (i, j) is (f_i - f_j) / (lam_i - lam_j), or the derivative at the
    larger of the two when they agree to 1e-12 relative; pairs outside the
    boolean mask ``keep`` are zero.  ``f`` and ``df`` hold the function and
    its derivative at ``lam`` and must be finite wherever ``keep`` can
    reach.  In the eigenbasis V of a matrix X, the Frechet derivative of f
    at X maps H to V (kernel * (V^dag H V)) V^dag.
    """
    a, b = lam[:, None], lam[None, :]
    diff = a - b
    close = np.abs(diff) <= 1e-12 * np.maximum(a, b)
    tangent = np.where(a >= b, df[:, None], df[None, :])
    secant = (f[:, None] - f[None, :]) / np.where(close, 1.0, diff)
    return np.where(keep, np.where(close, tangent, secant), 0.0)


def _power_frechet_map(sigma: np.ndarray, s: float):
    """sigma^s and the Frechet derivative of x -> x^s at sigma as a callable
    on Hermitian matrices, from one eigendecomposition (Daleckii-Krein:
    entrywise kernel in sigma's eigenbasis, with the pseudo-power convention
    0^s = 0 on the cut part of the spectrum)."""
    lam, V = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    lam = np.clip(lam, 0.0, None)
    keep = lam > EIG_CUT * max(lam.max(initial=0.0), 1e-300)
    base = np.where(keep, lam, 1.0)
    pows = np.where(keep, base ** s, 0.0)
    Phi = divided_differences(
        lam, pows, np.where(keep, s * base ** (s - 1.0), 0.0),
        keep[:, None] | keep[None, :])

    def apply(X: np.ndarray) -> np.ndarray:
        Y = V.conj().T @ X @ V
        return V @ (Phi * Y) @ V.conj().T

    return (V * pows) @ V.conj().T, apply
