"""Independent numpy reference for the benchmark's correctness checks.

Nothing here imports ``renyimeat``: the checks in ``workloads.py`` compare
the package's outputs with these functions and with properties the method
must have, never with stored copies of earlier output.  All logarithms are
base 2.  ``python3 bench/reference.py`` runs the self-tests against closed
forms and exits non-zero if one fails.
"""

from __future__ import annotations

import math

import numpy as np

#: relative eigenvalue cut below which an eigenvalue counts as zero
EIG_CUT = 1e-12


def herm(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem of ``mat`` (on ``dims``) not in ``keep``.

    ``keep`` lists subsystem positions; the result keeps them in that order.
    """
    n = len(dims)
    keep = list(keep)
    drop = [i for i in range(n) if i not in keep]
    t = np.asarray(mat).reshape(tuple(dims) * 2)
    # move kept rows, dropped rows, kept cols, dropped cols into place
    t = t.transpose(keep + drop + [n + i for i in keep] + [n + i for i in drop])
    dk = int(np.prod([dims[i] for i in keep], initial=1))
    dd = int(np.prod([dims[i] for i in drop], initial=1))
    return np.einsum("ajbj->ab", t.reshape(dk, dd, dk, dd))


def _eig(mat: np.ndarray):
    vals, vecs = np.linalg.eigh(herm(mat))
    return vals, vecs


def _support(vals: np.ndarray) -> np.ndarray:
    return vals > EIG_CUT * max(float(vals.max(initial=0.0)), 1e-300)


def psd_power(mat: np.ndarray, p: float) -> np.ndarray:
    """``mat**p`` on the support of a positive semidefinite matrix."""
    vals, vecs = _eig(mat)
    on = _support(vals)
    return (vecs[:, on] * vals[on] ** p) @ vecs[:, on].conj().T


def _contained(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """Is the support of ``rho`` inside the support of ``sigma``?"""
    vals, vecs = _eig(sigma)
    out = vecs[:, ~_support(vals)]
    leak = float(np.real(np.trace(out.conj().T @ rho @ out))) if out.size else 0.0
    return leak <= 1e-10 * max(float(np.real(np.trace(rho))), 1e-300)


def von_neumann(mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(herm(mat))
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def renyi_entropy(mat: np.ndarray, alpha: float) -> float:
    """H_alpha of a density matrix (alpha = 1 is von Neumann)."""
    if alpha == 1.0:
        return von_neumann(mat)
    vals = np.linalg.eigvalsh(herm(mat))
    vals = vals[vals > 1e-15]
    if math.isinf(alpha):
        return float(-np.log2(vals.max()))
    return float(np.log2(np.sum(vals ** alpha)) / (1.0 - alpha))


def max_divergence(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D_inf = log2 || sigma^{-1/2} rho sigma^{-1/2} ||."""
    if not _contained(rho, sigma):
        return math.inf
    isq = psd_power(sigma, -0.5)
    return float(np.log2(np.linalg.eigvalsh(herm(isq @ rho @ isq)).max()))


def umegaki(rho: np.ndarray, sigma: np.ndarray) -> float:
    if not _contained(rho, sigma):
        return math.inf
    vals, vecs = _eig(sigma)
    on = _support(vals)
    log_sigma = (vecs[:, on] * np.log2(vals[on])) @ vecs[:, on].conj().T
    t = float(np.real(np.trace(rho)))
    return (-von_neumann(rho / t) * t
            - float(np.real(np.trace(rho @ log_sigma)))) / t


def sandwiched(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi divergence D_alpha(rho || sigma), any alpha >= 1/2.

    ``alpha`` may be ``math.inf``; alpha = 1 is the Umegaki divergence.
    """
    if math.isinf(alpha):
        return max_divergence(rho, sigma)
    if alpha == 1.0:
        return umegaki(rho, sigma)
    if alpha > 1.0 and not _contained(rho, sigma):
        return math.inf
    s = (1.0 - alpha) / (2.0 * alpha)
    sp = psd_power(sigma, s)
    vals = np.clip(np.linalg.eigvalsh(herm(sp @ rho @ sp)), 0.0, None)
    top = float(vals.max())
    if top <= 0.0:
        return math.inf
    # log2 tr[X^alpha], scaled by the top eigenvalue so large orders stay finite
    log_q = alpha * math.log2(top) + math.log2(float(np.sum((vals / top) ** alpha)))
    t = float(np.real(np.trace(rho)))
    return (log_q - math.log2(t)) / (alpha - 1.0)


def classical_renyi(p, q, alpha: float) -> float:
    """Classical Renyi divergence of two probability vectors (q > 0)."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    if math.isinf(alpha):
        return float(np.log2(np.max(p / q)))
    if alpha == 1.0:
        on = p > 0
        return float(np.sum(p[on] * np.log2(p[on] / q[on])))
    return float(np.log2(np.sum(p ** alpha * q ** (1.0 - alpha)))
                 / (alpha - 1.0))


def dual_order(alpha: float) -> float:
    """beta with 1/alpha + 1/beta = 2 (1/2 <-> inf, 1 <-> 1)."""
    if math.isinf(alpha):
        return 0.5
    if alpha == 0.5:
        return math.inf
    return alpha / (2.0 * alpha - 1.0)


def cond_value_at(rho: np.ndarray, d_a: int, sigma: np.ndarray,
                  alpha: float) -> float:
    """-D_alpha(rho_AB || 1_A (x) sigma_B): a lower bound on H^up_alpha(A|B)
    for every density sigma, equal to it at the optimal sigma."""
    return -sandwiched(rho, np.kron(np.eye(d_a), sigma), alpha)


def h_down(rho: np.ndarray, d_a: int, alpha: float) -> float:
    """Closed-form H^down_alpha(A|B) = -D_alpha(rho_AB || 1_A (x) rho_B)."""
    d_b = rho.shape[0] // d_a
    return cond_value_at(rho, d_a, partial_trace(rho, (d_a, d_b), [1]), alpha)


def stinespring(kraus) -> np.ndarray:
    """V = sum_k K_k (x) |k>: input -> output (x) environment."""
    m = len(kraus)
    d_out, d_in = kraus[0].shape
    V = np.zeros((d_out * m, d_in), dtype=complex)
    for k, K in enumerate(kraus):
        V += np.kron(K, np.eye(m)[:, [k]])
    return V


def apply_stinespring(kraus, rho: np.ndarray, d_ref: int) -> np.ndarray:
    """(V (x) 1_R) rho (V (x) 1_R)^dag: an input on (input, reference) sent
    to (output, environment, reference)."""
    big = np.kron(stinespring(kraus), np.eye(d_ref))
    return big @ rho @ big.conj().T


# --------------------------------------------------------------- self-tests

def _rand_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def self_test() -> list[str]:
    """Check the reference against closed forms; return the failures."""
    rng = np.random.default_rng(20250204)
    bad = []

    def expect(name, got, want, tol=1e-10):
        if not abs(got - want) <= tol:
            bad.append(f"{name}: {got!r} != {want!r}")

    # commuting inputs reduce to the classical Renyi divergence
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    for a in (0.5, 0.7, 1.0, 2.0, 6.0, math.inf):
        expect(f"commuting D_{a}", sandwiched(np.diag(p), np.diag(q), a),
               classical_renyi(p, q, a))
    # a unitary rotation of both arguments changes nothing
    U, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    for a in (0.5, 2.0, math.inf):
        expect(f"unitary D_{a}",
               sandwiched(U @ np.diag(p) @ U.conj().T,
                          U @ np.diag(q) @ U.conj().T, a),
               classical_renyi(p, q, a))
    # large finite orders approach the max divergence
    r, s = _rand_density(rng, 3), _rand_density(rng, 3)
    expect("D_a -> D_inf", sandwiched(r, s, 1e6), max_divergence(r, s), 1e-4)
    # D(rho || rho) = 0 and support violation gives inf
    expect("D(rho||rho)", sandwiched(r, r, 2.0), 0.0)
    if not math.isinf(sandwiched(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), 2.0)):
        bad.append("support violation is not inf")
    # partial trace of a product returns the factor
    a2, b3 = _rand_density(rng, 2), _rand_density(rng, 3)
    expect("Tr_B(a x b)", float(np.abs(partial_trace(np.kron(a2, b3), (2, 3),
                                                     [0]) - a2).max()), 0.0)
    expect("Tr_A(a x b)", float(np.abs(partial_trace(np.kron(a2, b3), (2, 3),
                                                     [1]) - b3).max()), 0.0)
    # H^down of a product state is the Renyi entropy of the target
    for a in (0.5, 0.7, 2.0, math.inf):
        expect(f"H_down product {a}", h_down(np.kron(a2, b3), 2, a),
               renyi_entropy(a2, a), 1e-9)
    # the maximally entangled qubit pair has H(A|B) = -1 at every order
    phi = np.zeros(4)
    phi[[0, 3]] = 2 ** -0.5
    bell = np.outer(phi, phi)
    for a in (0.5, 0.8, 1.0, 3.0, math.inf):
        expect(f"Bell H_{a}", cond_value_at(bell, 2, np.eye(2) / 2, a), -1.0,
               1e-9)
    # the identity channel's Stinespring output is its input
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    expect("Stinespring of identity", float(np.abs(
        apply_stinespring([np.eye(3)], pure, 2) - pure).max()), 0.0)
    # amplitude damping: the reduced output of the dilation is N(rho_A)
    ks = [np.array([[1, 0], [0, math.sqrt(0.3)]]),
          np.array([[0, math.sqrt(0.7)], [0, 0]])]
    ab = _rand_density(rng, 4)
    want = sum(K @ partial_trace(ab, (2, 2), [0]) @ K.conj().T for K in ks)
    out = apply_stinespring(ks, ab, 2)  # on (output, environment, B)
    expect("Stinespring marginal",
           float(np.abs(partial_trace(out, (2, 2, 2), [0]) - want).max()),
           0.0, 1e-12)
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("reference self-test:", "failed" if failures else "ok")
    raise SystemExit(1 if failures else 0)
