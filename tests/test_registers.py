"""Registers, partial traces, purification and Hermitian matrix functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyimeat.channel_entropy import _log_frechet_map
from renyimeat.entropies import _power_frechet_map
from renyimeat.errors import InvalidRegister, InvalidState
from renyimeat.registers import (
    EIG_CUT,
    RegisterSpace,
    State,
    basis_ket,
    classical_state,
    embed_operator,
    herm_power,
    ket_state,
    maximally_mixed,
    space,
    support_projector,
)
from renyimeat.sampling import random_density, random_pure


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return ket_state(v, space(("A", 2), ("B", 2)))


# ---------------------------------------------------------------- spaces


def test_space_basics():
    sp = space(("A", 2), ("B", 3))
    assert sp.dim == 6
    assert sp.labels == ("A", "B")
    assert sp.dims_of(["B", "A"]) == (3, 2)
    assert sp.keep(["B"]).dim == 3
    assert sp.drop(["B"]).labels == ("A",)


def test_space_rejects_duplicates_and_bad_dims():
    with pytest.raises(InvalidRegister):
        space(("A", 2), ("A", 3))
    with pytest.raises(InvalidRegister):
        space(("A", 0))
    with pytest.raises(InvalidRegister):
        space(("A", 2)).position("B")


def test_reorder_is_a_permutation_conjugation():
    rho = random_density(space(("A", 2), ("B", 3)), seed=1)
    back = rho.reorder(["B", "A"]).reorder(["A", "B"])
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)
    with pytest.raises(InvalidRegister):
        rho.reorder(["A"])


# ---------------------------------------------------------- state checks


def test_state_rejects_non_hermitian_and_non_psd():
    sp = space(("A", 2))
    with pytest.raises(InvalidState):
        State(np.array([[0.0, 1.0], [0.0, 0.0]]), sp)
    with pytest.raises(InvalidState):
        State(np.diag([1.0, -0.2]), sp)
    # tiny negative eigenvalues from rounding are tolerated
    State(np.diag([1.0, -1e-14]), sp)


def test_tensor_product_example():
    a = State(np.diag([1.0, 0.0]), space(("A", 2)))
    b = maximally_mixed(space(("B", 2)))
    out = a.tensor(b)
    np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))
    assert out.space.labels == ("A", "B")


# --------------------------------------------------------- partial trace


def naive_partial_trace(mat, d1, d2, drop_first):
    """Quadruple-loop index contraction, the slow reference."""
    if drop_first:
        out = np.zeros((d2, d2), dtype=complex)
        for i in range(d2):
            for j in range(d2):
                for k in range(d1):
                    out[i, j] += mat[k * d2 + i, k * d2 + j]
    else:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    out[i, j] += mat[i * d2 + k, j * d2 + k]
    return out


@pytest.mark.parametrize("drop_first", [True, False])
def test_partial_trace_against_naive_contraction(drop_first):
    rho = random_density(space(("A", 2), ("B", 3)), seed=7)
    want = naive_partial_trace(rho.matrix, 2, 3, drop_first)
    got = rho.partial_trace(drop=["A" if drop_first else "B"])
    np.testing.assert_allclose(got.matrix, want, atol=1e-13)
    assert abs(got.trace() - rho.trace()) < 1e-12


def test_partial_trace_bell_marginal():
    out = bell_state().partial_trace(drop=["B"])
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keeps_original_register_order():
    rho = random_density(space(("A", 2), ("B", 2), ("C", 2)), seed=3)
    red = rho.partial_trace(keep=["C", "A"])
    assert red.space.labels == ("A", "C")


def test_double_bell_marginal_returns_single_bell():
    second = State(bell_state().matrix, space(("C", 2), ("D", 2)), check=False)
    red = bell_state().tensor(second).partial_trace(drop=["C", "D"])
    np.testing.assert_allclose(red.matrix, bell_state().matrix, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    da=st.integers(1, 3),
    db=st.integers(1, 3),
)
def test_partial_trace_is_trace_preserving(seed, da, db):
    rho = random_density(space(("A", da), ("B", db)), seed=seed)
    assert abs(rho.partial_trace(drop=["B"]).trace() - rho.trace()) < 1e-12


# ---------------------------------------------------------- purification


def test_purify_pure_input_is_pure_product():
    psi = random_pure(space(("A", 3)), seed=11)
    out = psi.purified("P")
    assert out.space.dims == (3, 1)
    np.testing.assert_allclose(
        out.partial_trace(drop=["P"]).matrix, psi.matrix, atol=1e-9
    )


def test_purify_maximally_mixed_qubit():
    out = maximally_mixed(space(("A", 2))).purified("P")
    assert out.rank() == 1
    np.testing.assert_allclose(
        out.partial_trace(drop=["P"]).matrix, np.eye(2) / 2, atol=1e-9
    )
    # with both marginals maximally mixed the purification is Bell-like
    np.testing.assert_allclose(
        out.partial_trace(drop=["A"]).matrix, np.eye(2) / 2, atol=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.integers(1, 3))
def test_purify_roundtrip_random(seed, rank):
    rho = random_density(space(("Q", 3)), seed=seed, rank=rank)
    out = rho.purified("P")
    assert out.rank() == 1
    assert out.space.dim_of("P") == rho.rank()
    np.testing.assert_allclose(
        out.partial_trace(drop=["P"]).matrix, rho.matrix, atol=1e-9
    )


def test_purify_is_deterministic():
    rho = random_density(space(("Q", 3)), seed=5, rank=2)
    np.testing.assert_array_equal(
        rho.purified("P").matrix, rho.purified("P").matrix
    )


# -------------------------------------------------------------- pinching


def test_pinch_plus_state():
    plus = State(np.full((2, 2), 0.5), space(("A", 2)))
    np.testing.assert_allclose(plus.pinched(["A"]).matrix, np.eye(2) / 2)


def test_pinch_fixes_classical_states_and_is_idempotent():
    rho = random_density(space(("C", 2), ("Q", 2)), seed=9)
    once = rho.pinched(["C"])
    np.testing.assert_allclose(
        once.pinched(["C"]).matrix, once.matrix, atol=1e-14
    )
    assert once.is_classical_on(["C"])
    cls = classical_state([0.2, 0.3, 0.5], space(("C", 3)))
    np.testing.assert_allclose(cls.pinched(["C"]).matrix, cls.matrix)


def test_pinch_commutes_with_disjoint_partial_trace():
    rho = random_density(space(("C", 2), ("Q", 3)), seed=10)
    lhs = rho.pinched(["C"]).partial_trace(drop=["Q"])
    rhs = rho.partial_trace(drop=["Q"]).pinched(["C"])
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)


# ---------------------------------------------------------- classicality


def test_branches_of_a_cq_state():
    b0 = random_density(space(("Q", 2)), seed=21).matrix
    b1 = random_density(space(("Q", 2)), seed=22).matrix
    mat = np.zeros((4, 4), dtype=complex)
    mat[:2, :2] = 0.25 * b0
    mat[2:, 2:] = 0.75 * b1
    rho = State(mat, space(("C", 2), ("Q", 2)))
    assert rho.is_classical_on(["C"])
    out = rho.branches(["C"])
    assert [w for _, w, _ in out] == pytest.approx([0.25, 0.75])
    np.testing.assert_allclose(out[0][2].matrix, b0, atol=1e-12)


def test_branches_rejects_coherent_states():
    with pytest.raises(InvalidState):
        bell_state().branches(["A"])


def test_zero_probability_branch_is_reported_empty():
    rho = classical_state([0.0, 1.0], space(("C", 2)))
    out = rho.branches(["C"])
    assert out[0][1] == 0.0 and out[0][2] is None
    assert out[1][1] == pytest.approx(1.0)


# ------------------------------------------------------- matrix functions


def test_herm_power_simple_values():
    np.testing.assert_allclose(
        herm_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0])
    )
    M = random_density(space(("A", 3)), seed=2).matrix
    np.testing.assert_allclose(herm_power(M, 1.0), M, atol=1e-12)
    np.testing.assert_allclose(
        herm_power(np.diag([2.0, 0.0]), -0.5), np.diag([2 ** -0.5, 0.0])
    )


@pytest.mark.parametrize("a,b", [(0.5, 2.0), (2.0, -1.0), (-1.0, 0.5)])
def test_herm_power_composes(a, b):
    M = random_density(space(("A", 4)), seed=14).matrix + 0.1 * np.eye(4)
    np.testing.assert_allclose(
        herm_power(herm_power(M, a), b), herm_power(M, a * b), atol=1e-8
    )


def test_herm_power_rejects_indefinite_with_fractional_power():
    with pytest.raises(InvalidState):
        herm_power(np.diag([1.0, -1.0]), 0.5)


def test_support_projector_threshold():
    M = np.diag([1.0, 0.5, 1e-15])
    P = support_projector(M)
    np.testing.assert_allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert State(M, space(("A", 3)), check=False).rank() == 2
    assert EIG_CUT == 1e-12


# --------------------------------------------------------------- plumbing


def test_embed_operator_layout():
    sp = space(("A", 2), ("B", 2), ("C", 2))
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    # operator on B only: kron(I_A, X, I_C)
    want = np.kron(np.eye(2), np.kron(X, np.eye(2)))
    np.testing.assert_allclose(embed_operator(sp, ["B"], X), want)


def test_basis_ket_indexing():
    sp = space(("A", 2), ("B", 3))
    v = basis_ket(sp, (1, 2))
    assert v[5] == 1.0 and np.count_nonzero(v) == 1


# ------------------------------------------------------ Frechet derivatives


def _psd(rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    return g @ g.conj().T / np.trace(g @ g.conj().T).real


def _hermitian(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return h + h.conj().T


def _log2_on_support(mat):
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > EIG_CUT * vals.max()
    return (vecs[:, keep] * np.log2(vals[keep])) @ vecs[:, keep].conj().T


@pytest.mark.parametrize("rank", [4, 2])
@pytest.mark.parametrize("s", [0.3, -0.25])
def test_power_frechet_map_matches_finite_differences(rank, s):
    """Off the support the pseudo-power is differentiated along directions
    that leave the kernel block at zero, so the kernel stays below the cut."""
    x = _psd(rank, 5)
    kernel = np.eye(4) - support_projector(x)
    h = _hermitian(6)
    h = h - kernel @ h @ kernel
    t = 1e-6
    fd = (herm_power(x + t * h, s) - herm_power(x - t * h, s)) / (2 * t)
    got = _power_frechet_map(x, s)(h)
    np.testing.assert_allclose(got, fd, atol=1e-6 * np.abs(fd).max())


@pytest.mark.parametrize("rank", [4, 2])
def test_log_frechet_map_matches_finite_differences(rank):
    """The log map keeps only pairs inside the support: it is the derivative
    along directions supported there."""
    x = _psd(rank, 7)
    proj = support_projector(x)
    h = proj @ _hermitian(8) @ proj
    t = 1e-6
    fd = (_log2_on_support(x + t * h) - _log2_on_support(x - t * h)) / (2 * t)
    got = _log_frechet_map(x)(h)
    np.testing.assert_allclose(got, fd, atol=1e-6 * np.abs(fd).max())
