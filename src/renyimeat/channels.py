"""Quantum channels in Kraus form, acting on labeled registers.

A channel consumes the registers of ``in_space`` and appends those of
``out_space``.  When applied to a state on a larger space, untouched
registers survive in their original order and the channel's output labels
are appended at the end — composite outputs are therefore deterministic:
surviving inputs first, new labels in declaration order.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRegister, InvalidState
from .registers import RegisterSpace, State, kraus_apply

#: Frobenius-norm defect of sum_k K_k^dag K_k = 1 (or V^dag V = 1) up to
#: which a map counts as trace preserving (an isometry)
TP_TOL = 1e-9

#: eigenvalues of a prepared state up to which it contributes no Kraus
#: operator
PREPARE_CUT = 1e-12


def _perm_matrix(space: RegisterSpace, new_order) -> np.ndarray:
    """Unitary permutation matrix sending ``space`` order to ``new_order``."""
    perm = [space.position(l) for l in new_order]
    d = space.dim
    # entry t of the permuted index array is the source index of target t
    src = np.arange(d).reshape(space.dims).transpose(perm).reshape(-1)
    P = np.zeros((d, d))
    P[np.arange(d), src] = 1.0
    return P


class Channel:
    """Completely positive map given by Kraus operators.

    ``kraus[k]`` has shape ``(out_space.dim, in_space.dim)``.  By default the
    constructor checks trace preservation; pass ``require_tp=False`` for a
    CP-only map (completeness is still recorded in ``is_trace_preserving``).
    """

    def __init__(self, kraus, in_space: RegisterSpace, out_space: RegisterSpace,
                 *, require_tp: bool = True):
        kraus = [np.asarray(K, dtype=complex) for K in kraus]
        if not kraus:
            raise InvalidState("a channel needs at least one Kraus operator")
        din, dout = in_space.dim, out_space.dim
        for K in kraus:
            if K.shape != (dout, din):
                raise InvalidState(
                    f"Kraus shape {K.shape} != ({dout}, {din})")
        acc = sum(K.conj().T @ K for K in kraus)
        self.completeness_defect = float(np.linalg.norm(acc - np.eye(din)))
        if require_tp and self.completeness_defect > TP_TOL:
            raise InvalidState(
                f"Kraus operators not trace preserving (defect "
                f"{self.completeness_defect:.2e})")
        self.kraus = kraus
        self.in_space = in_space
        self.out_space = out_space

    @property
    def is_trace_preserving(self) -> bool:
        return self.completeness_defect <= TP_TOL

    def __repr__(self):
        return (f"<Channel {list(self.in_space.labels)} -> "
                f"{list(self.out_space.labels)}, {len(self.kraus)} Kraus>")

    # -------------------------------------------------------------- algebra

    def renamed(self, mapping: dict) -> "Channel":
        """New channel with register labels renamed via ``mapping``."""
        re_in = RegisterSpace((mapping.get(l, l), d) for l, d in self.in_space)
        re_out = RegisterSpace((mapping.get(l, l), d) for l, d in self.out_space)
        return Channel(self.kraus, re_in, re_out, require_tp=False)

    def tensor(self, other: "Channel") -> "Channel":
        ks = [np.kron(K1, K2) for K1 in self.kraus for K2 in other.kraus]
        return Channel(ks, self.in_space.tensor(other.in_space),
                       self.out_space.tensor(other.out_space), require_tp=False)

    def embedded_kraus(self, ambient: RegisterSpace):
        """Kraus operators of ``id (x) self`` on ``ambient``.

        Returns ``(kraus_list, out_space)`` where the output registers are the
        surviving ambient registers (original order) followed by
        ``self.out_space``.
        """
        for l in self.in_space.labels:
            if ambient.dim_of(l) != self.in_space.dim_of(l):
                raise InvalidRegister(
                    f"dimension mismatch on register {l!r}")
        rest = ambient.drop(self.in_space.labels)
        for l in self.out_space.labels:
            if l in rest.labels:
                raise InvalidRegister(
                    f"output label {l!r} collides with a surviving register")
        pre = _perm_matrix(ambient, rest.labels + self.in_space.labels)
        out_space = rest.tensor(self.out_space)
        eye = np.eye(rest.dim)
        ks = [np.kron(eye, K) @ pre for K in self.kraus]
        return ks, out_space

    def apply(self, state: State) -> State:
        ks, out_space = self.embedded_kraus(state.space)
        return State(kraus_apply(ks, state.matrix), out_space, check=False)

    def stinespring(self, env_label: str = "Z") -> "Isometry":
        """Isometric dilation ``V = sum_k K_k (x) |k>_env`` (env dim = #Kraus)."""
        m = len(self.kraus)
        # row (out, k) of V is row out of K_k
        V = np.stack(self.kraus, axis=1).astype(complex, copy=False).reshape(
            self.out_space.dim * m, self.in_space.dim)
        env = RegisterSpace([(env_label, m)])
        return Isometry(V, self.in_space, self.out_space.tensor(env),
                        require_isometry=self.is_trace_preserving)

    def complementary(self, env_label: str = "Z") -> "Channel":
        """Channel to the Stinespring environment (the original output traced)."""
        m = len(self.kraus)
        din, dout = self.in_space.dim, self.out_space.dim
        ks = []
        for x in range(dout):
            C = np.zeros((m, din), dtype=complex)
            for k, K in enumerate(self.kraus):
                C[k, :] = K[x, :]
            ks.append(C)
        env = RegisterSpace([(env_label, m)])
        return Channel(ks, self.in_space, env, require_tp=self.is_trace_preserving)


class Isometry:
    """Isometry between register spaces; ``matrix`` is (out_dim x in_dim)."""

    def __init__(self, matrix, in_space: RegisterSpace, out_space: RegisterSpace,
                 *, require_isometry: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (out_space.dim, in_space.dim):
            raise InvalidState(f"isometry shape {matrix.shape} mismatched")
        defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(in_space.dim))
        if require_isometry and defect > TP_TOL:
            raise InvalidState(f"not an isometry (V*V - I = {defect:.2e})")
        self.matrix = matrix
        self.in_space = in_space
        self.out_space = out_space

    def as_channel(self) -> Channel:
        return Channel([self.matrix], self.in_space, self.out_space,
                       require_tp=False)

    def apply(self, state: State) -> State:
        return self.as_channel().apply(state)


# ------------------------------------------------------------ constructors

def identity_channel(space: RegisterSpace) -> Channel:
    return Channel([np.eye(space.dim)], space, space)


def trace_out_channel(in_space: RegisterSpace, drop) -> Channel:
    """Discard the registers ``drop``; the others survive in their order.

    One Kraus operator per basis state of the discarded registers:
    ``K_y = (I (x) <y|) P`` with P the permutation pushing ``drop`` last.
    """
    drop = list(drop)
    for l in drop:
        if l not in in_space.labels:
            raise InvalidRegister(f"register {l!r} not in the input space")
    keep = in_space.drop(drop)
    dropped = in_space.keep(drop)
    P = _perm_matrix(in_space, keep.labels + tuple(drop))
    dk, dy = keep.dim, dropped.dim
    ks = []
    for y in range(dy):
        bra = np.zeros((1, dy))
        bra[0, y] = 1.0
        ks.append(np.kron(np.eye(dk), bra) @ P)
    return Channel(ks, in_space, keep)


def compose(second: Channel, first: Channel) -> Channel:
    """``second . first``; ``second`` may consume outputs of ``first`` plus
    extra registers, which become additional inputs of the composite."""
    extra = [(l, d) for l, d in second.in_space
             if l not in first.out_space.labels]
    comp_in = first.in_space.tensor(RegisterSpace(extra))
    ambient1 = comp_in
    ks1, mid_space = Channel(first.kraus, first.in_space, first.out_space,
                             require_tp=False).embedded_kraus(ambient1)
    ks2, out_space = second.embedded_kraus(mid_space)
    ks = [K2 @ K1 for K1 in ks1 for K2 in ks2]
    return Channel(ks, comp_in, out_space, require_tp=False)


def measure_channel(in_space: RegisterSpace, out_label: str,
                    povm=None) -> Channel:
    """Destructive measurement of ``in_space``: computational basis when
    ``povm`` is None, else the given POVM list; the outcome is written to a
    fresh classical register ``out_label``."""
    d = in_space.dim
    if povm is None:
        ks = []
        for x in range(d):
            K = np.zeros((d, d), dtype=complex)
            K[x, x] = 1.0
            ks.append(K)
        out = RegisterSpace([(out_label, d)])
        return Channel(ks, in_space, out)
    povm = [np.asarray(E, dtype=complex) for E in povm]
    acc = sum(povm)
    if np.linalg.norm(acc - np.eye(d)) > 1e-9:
        raise InvalidState("POVM does not sum to the identity")
    m = len(povm)
    ks = []
    for x, E in enumerate(povm):
        # a rank-r element contributes one Kraus operator per row of sqrt(E_x),
        # each mapping into the classical record |x>
        ks.extend(_rows_as_kraus(_psd_sqrt(E), x, m))
    return Channel(ks, in_space, RegisterSpace([(out_label, m)]))


def _rows_as_kraus(root: np.ndarray, x: int, m: int):
    d = root.shape[0]
    out = []
    for r in range(d):
        K = np.zeros((m, d), dtype=complex)
        K[x, :] = root[r, :]
        if np.linalg.norm(K) > 1e-14:
            out.append(K)
    return out


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def classical_function_channel(in_space: RegisterSpace, out_space: RegisterSpace,
                               fn) -> Channel:
    """Deterministic classical map: basis index tuple of ``in_space`` ->
    basis index tuple of ``out_space`` (the input registers are consumed)."""
    din, dout = in_space.dim, out_space.dim
    ks = []
    for idx in np.ndindex(*in_space.dims):
        src = int(np.ravel_multi_index(idx, in_space.dims))
        tgt_idx = fn(idx)
        tgt = int(np.ravel_multi_index(tuple(tgt_idx), out_space.dims))
        K = np.zeros((dout, din), dtype=complex)
        K[tgt, src] = 1.0
        ks.append(K)
    return Channel(ks, in_space, out_space)


def prepare_channel(reader_space: RegisterSpace, states,
                    out_space: RegisterSpace) -> Channel:
    """Read-and-prepare: keep the (classical) reader registers and append a
    state on ``out_space`` chosen by the basis value read.

    ``states`` maps each basis index tuple of ``reader_space`` to a density
    matrix on ``out_space``.
    """
    din = reader_space.dim
    dD = out_space.dim
    ks = []
    for idx in np.ndindex(*reader_space.dims):
        src = int(np.ravel_multi_index(idx, reader_space.dims))
        tau = np.asarray(states[idx], dtype=complex)
        vals, vecs = np.linalg.eigh(tau)
        for lam, v in zip(vals, vecs.T):
            if lam <= PREPARE_CUT:
                continue
            K = np.zeros((din * dD, din), dtype=complex)
            col = np.zeros(din)
            col[src] = 1.0
            K[:, src] = np.kron(col, np.sqrt(lam) * v)
            ks.append(K)
    return Channel(ks, reader_space, reader_space.tensor(out_space))
