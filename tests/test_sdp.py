"""Interior-point solver: its start, closed-form oracles, duality certificates
and lowering."""

import numpy as np
import pytest

from conftest import _branch_programs
from renyimeat import sdp
from renyimeat.channel_entropy import MarginalConstraint
from renyimeat.errors import InfeasibleSpec, InvalidState, SolverFailure
from renyimeat.marginals import _fidelity_program, _MarginalSet
from renyimeat.registers import space
from renyimeat.sampling import random_channel, random_density, rng_from
from renyimeat.sdp import (
    SdpProblem,
    block_stack,
    hermitian_basis,
    hunvec,
    hvec,
    schur_factor,
    solve_sdp,
)


def random_hermitian(n, seed):
    rng = rng_from(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (G + G.conj().T)


def dense_basis(n):
    """Oracle: columns are row-major vec's of the basis, built entry by entry
    (n diagonal units, then per i<j the real and the imaginary pair)."""
    cols = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        cols.append(E.reshape(-1))
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = E[j, i] = r
            cols.append(E.reshape(-1))
            E = np.zeros((n, n), dtype=complex)
            E[i, j], E[j, i] = 1j * r, -1j * r
            cols.append(E.reshape(-1))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_index_kernels_match_the_dense_basis(n):
    B = dense_basis(n)
    rng = rng_from(40 + n)
    M = random_hermitian(n, rng)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal(n * n)
    for k, E in enumerate(hermitian_basis(n)):
        np.testing.assert_array_equal(E, B[:, k].reshape(n, n))
    np.testing.assert_allclose(hvec(M), np.real(B.conj().T @ M.reshape(-1)),
                               rtol=0, atol=1e-12)
    # a non-Hermitian input keeps the Re(B^dag vec M) semantics
    np.testing.assert_allclose(hvec(G), np.real(B.conj().T @ G.reshape(-1)),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(hunvec(v, n), (B @ v).reshape(n, n),
                               rtol=0, atol=1e-12)
    rows = rng.standard_normal((3, n * n))
    mats = hunvec(rows, n)
    for k in range(3):
        np.testing.assert_allclose(mats[k], (B @ rows[k]).reshape(n, n),
                                   rtol=0, atol=1e-12)
    # the Schur complement's square-root factor for X != Z: F F^T must be
    # A Re B^dag (X (x) conj Z) B A^T
    X = G @ G.conj().T + 0.1 * np.eye(n)
    Z = np.linalg.inv(M @ M + 0.1 * np.eye(n))
    F = schur_factor(np.linalg.cholesky(X), np.linalg.cholesky(Z), mats)
    K = np.real(B.conj().T @ np.kron(X, Z.conj()) @ B)
    np.testing.assert_allclose(F @ F.T, rows @ K @ rows.T, rtol=0, atol=1e-12)


MIXED_DIMS = (1, 2, 3, 5)


def test_block_stack_matches_the_blocks_one_by_one():
    """The padded stack of blocks 1, 2, 3, 5: each block's slice of
    ``unvec`` is ``hunvec`` of its coordinates (and the dense basis), its
    padding is zero or exactly the identity, and ``vec`` reads each block
    as ``hvec`` does, whatever the padding holds."""
    st = block_stack(MIXED_DIMS)
    offs = np.cumsum((0,) + tuple(d * d for d in MIXED_DIMS))
    rng = rng_from(60)
    v = rng.standard_normal(st.size)
    assert st.shape == (4, 5, 5) and st.size == offs[-1]
    np.testing.assert_allclose(st.vec(st.unvec(v)), v, rtol=0, atol=1e-15)
    stack, padded = st.unvec(v), st.unvec(v, pad=True)
    junk = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    outside = np.ones((4, 5, 5), dtype=bool)
    for b, d in enumerate(MIXED_DIMS):
        outside[b, :d, :d] = False
    assert not np.any(stack[outside])
    eyes = np.broadcast_to(np.eye(5), (4, 5, 5))
    np.testing.assert_array_equal(padded[outside], eyes[outside])
    for b, d in enumerate(MIXED_DIMS):
        block = stack[b, :d, :d]
        np.testing.assert_array_equal(block, hunvec(v[offs[b]:offs[b + 1]], d))
        np.testing.assert_allclose(
            block, (dense_basis(d) @ v[offs[b]:offs[b + 1]]).reshape(d, d),
            rtol=0, atol=1e-15)
        np.testing.assert_array_equal(padded[b, :d, :d], block)
        # a non-Hermitian block is read as its Hermitian part
        junk_block = junk[b, :d, :d]
        np.testing.assert_array_equal(
            st.vec(junk)[offs[b]:offs[b + 1]], hvec(junk_block))
    # the padding is not read
    np.testing.assert_array_equal(st.vec(np.where(outside, junk, stack)),
                                  st.vec(stack))
    # leading axes: one row per coordinate vector
    rows = rng.standard_normal((3, st.size))
    np.testing.assert_array_equal(st.unvec(rows)[1], st.unvec(rows[1]))
    np.testing.assert_array_equal(st.vec(st.unvec(rows))[2],
                                  st.vec(st.unvec(rows[2])))


def per_block_max_step(Li, dM):
    """Oracle: the largest a with M + a dM >= 0 for one block, from
    Li = L^{-1}, M = L L^dag."""
    low = np.linalg.eigvalsh(Li @ dM @ Li.conj().T).min()
    return -1.0 / low if low < 0.0 else np.inf


@pytest.mark.parametrize("shift", [0.0, 10.0], ids=["blocked", "unblocked"])
def test_batched_step_length_is_the_least_block_step(shift):
    """``_max_steps`` on the identity-padded factors and the zero-padded
    directions of blocks 1, 2, 3, 5 equals the least per-block step; with
    every direction positive definite (shift 10) both are inf.  A second
    pair stacked with it, the same factors and a zero direction, reads
    inf and leaves the first pair's step as it is."""
    st = block_stack(MIXED_DIMS)
    rng = rng_from(61)
    Ms, dMs = [], []
    for d in MIXED_DIMS:
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Ms.append(G @ G.conj().T + 0.1 * np.eye(d))
        dMs.append(random_hermitian(d, rng) + shift * np.eye(d))
    Lis = [np.linalg.inv(np.linalg.cholesky(M)) for M in Ms]
    want = min(per_block_max_step(Li, dM) for Li, dM in zip(Lis, dMs))
    x = np.concatenate([hvec(M) for M in Ms])
    dx = np.concatenate([hvec(dM) for dM in dMs])
    Li = np.linalg.inv(np.linalg.cholesky(st.unvec(x, pad=True)))
    got, idle = sdp._max_steps(np.stack([Li, Li]),
                               st.unvec(np.stack([dx, np.zeros_like(dx)])))
    assert idle == np.inf
    if shift:
        assert want == got == np.inf
    else:
        assert np.isfinite(want)
        assert got == pytest.approx(want, rel=1e-12)


def test_hermitian_basis_is_orthonormal():
    mats = list(hermitian_basis(3))
    assert len(mats) == 9
    for i, E in enumerate(mats):
        np.testing.assert_allclose(E, E.conj().T, atol=1e-14)
        for j, F in enumerate(mats):
            want = 1.0 if i == j else 0.0
            assert np.real(np.trace(E.conj().T @ F)) == pytest.approx(want, abs=1e-13)


def test_hvec_roundtrip():
    M = random_hermitian(4, 0)
    np.testing.assert_allclose(hunvec(hvec(M), 4), M, atol=1e-13)
    # isometry of the vectorization
    assert np.linalg.norm(hvec(M)) == pytest.approx(np.linalg.norm(M))


def test_scalar_box():
    # max x subject to x <= 3 (and x >= 0 from the PSD block)
    p = SdpProblem(sense="max")
    p.add_block("x", 1)
    p.add_block("s", 1)
    p.add_objective("x", np.array([[1.0]]))
    p.add_eq_constraint({"x": np.array([[1.0]]), "s": np.array([[1.0]])}, 3.0)
    sol = solve_sdp(p)
    assert sol.value == pytest.approx(3.0, abs=1e-7)
    assert sol.gap <= 1e-6


def test_top_eigenvalue_program():
    H = random_hermitian(3, 7)
    p = SdpProblem(sense="max")
    p.add_block("X", 3)
    p.add_objective("X", H)
    p.add_eq_constraint({"X": np.eye(3)}, 1.0)
    sol = solve_sdp(p)
    top = float(np.linalg.eigvalsh(H)[-1])
    assert sol.value == pytest.approx(top, abs=1e-7)
    assert sol.residuals["primal_eq"] < 1e-9
    assert sol.residuals["min_eig_X"] > -1e-9


def test_psd_completion_oracle():
    """min tr[psi L] s.t. L >= G, L >= 0 equals tr[psi G_+] for psi = I/2."""
    G = random_hermitian(3, 11) - 0.5 * np.eye(3)  # force indefiniteness
    assert np.linalg.eigvalsh(G)[0] < 0
    psi = np.eye(3) / 2
    p = SdpProblem(sense="min")
    p.add_block("L", 3)
    p.add_objective("L", psi)
    p.add_operator_inequality([("L", lambda E: E)], G, slack="S")
    sol = solve_sdp(p)
    w = np.linalg.eigvalsh(G)
    want = 0.5 * float(np.sum(w[w > 0]))
    assert sol.value == pytest.approx(want, abs=1e-6)
    # the returned variable really dominates G
    slack_eig = np.linalg.eigvalsh(sol.variables["L"] - G).min()
    assert slack_eig > -1e-8


def dominance_program(seed):
    """min tr[psi L] s.t. L >= G, L >= 0 for random psi > 0 and G, with its
    optimum: L' = psi^{1/2} L psi^{1/2} turns it
    into min tr L' s.t. L' >= psi^{1/2} G psi^{1/2}, L' >= 0, whose optimum
    is the sum of the positive eigenvalues of psi^{1/2} G psi^{1/2}."""
    rng = rng_from(100 + seed)
    n = int(rng.integers(2, 5))
    G = random_hermitian(n, rng)
    psi = random_density(space(("A", n)), seed=rng).matrix + 0.05 * np.eye(n)
    psi /= np.real(np.trace(psi))
    p = SdpProblem(sense="min")
    p.add_block("L", n)
    p.add_objective("L", psi)
    p.add_operator_inequality([("L", lambda E: E)], G, slack="S")
    w, v = np.linalg.eigh(psi)
    root = (v * np.sqrt(w)) @ v.conj().T
    h = np.linalg.eigvalsh(root @ G @ root)
    return p, float(np.sum(h[h > 0]))


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_certify_small_gaps(seed):
    """Paired primal/dual residuals on random dominance programs."""
    p, _ = dominance_program(seed)
    sol = solve_sdp(p)
    scale = max(1.0, abs(sol.value))
    assert sol.gap <= 1e-6 * scale
    assert sol.residuals["primal_eq"] <= 1e-8
    assert sol.residuals["min_eig_X"] >= -1e-9
    assert sol.residuals["min_eig_S"] >= -1e-12
    # weak duality for the recovered pair (min problem: dual <= primal)
    assert sol.dual_value <= sol.value + 1e-7 * scale


def phi_plus():
    phi = np.zeros(4)
    phi[[0, 3]] = 1.0 / np.sqrt(2.0)
    return np.outer(phi, phi)


def hmin_program():
    """min tr X s.t. 1 (x) X >= Phi+ is 2^(-H_min(A|B)) = 2 on a maximally
    entangled pair."""
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    p.add_operator_inequality([("X", lambda X: np.kron(np.eye(2), X))],
                              phi_plus(), slack="S")
    return p


def rebuilt_dual_slack_min_eig(problem, y):
    """Lowest eigenvalue over the blocks of C_b - sum_k y_k M_b^(k), rebuilt
    from the problem's objective and the rows of its assembled A through
    the dense basis oracle (min sense, so C_b is the objective as stated)."""
    names, dims, slices, A, _, _, _ = sdp._assemble(problem)
    low = np.inf
    for name, n, sl in zip(names, dims, slices):
        B = dense_basis(n)
        S = problem.objective.get(name, np.zeros((n, n))).astype(complex)
        for row, yk in zip(A[:, sl], y):
            S = S - yk * (B @ row).reshape(n, n)
        low = min(low, float(np.linalg.eigvalsh(0.5 * (S + S.conj().T))[0]))
    return low


@pytest.mark.parametrize("case",
                         ["hmin"] + [f"dominance-{s}" for s in range(10)])
def test_returned_dual_point_is_checked(case):
    """The returned y is dual feasible up to rounding when S = C - A^T y is
    rebuilt outside the solver, and the reported dual value and value
    bracket the closed-form optimum."""
    if case == "hmin":
        p, opt = hmin_program(), 2.0
    else:
        p, opt = dominance_program(int(case.split("-")[1]))
    sol = solve_sdp(p)
    scale = max(1.0, abs(sol.value))
    assert rebuilt_dual_slack_min_eig(p, sol.y) >= -1e-12 * scale
    assert sol.dual_value <= opt + 1e-12 * scale
    assert opt <= sol.value + 1e-12 * scale
    assert sol.gap == pytest.approx(sol.value - sol.dual_value, abs=1e-15)
    assert sol.gap <= sdp.GAP_TOL * scale


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
def test_repeated_rows_raise(c):
    """tr X = 1 and c tr X = c are one row stated twice: the solver takes
    independent rows only, whether the factor of A A^T fails or succeeds
    on a pivot at rounding level."""
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    p.add_eq_constraint({"X": np.eye(2)}, 1.0)
    p.add_eq_constraint({"X": c * np.eye(2)}, c)
    with pytest.raises(InfeasibleSpec, match="linearly dependent"):
        solve_sdp(p)


def test_problem_without_rows_raises():
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    with pytest.raises(InvalidState, match="no equality rows"):
        solve_sdp(p)


def test_second_objective_on_a_block_raises():
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    with pytest.raises(InvalidState, match="already set"):
        p.add_objective("X", np.eye(2))
    np.testing.assert_array_equal(p.objective["X"], np.eye(2))


def test_unbounded_program_raises_with_diagnostics():
    """max tr X s.t. X_11 - X_22 + s = 1 is unbounded (X_22 grows freely):
    no dual point exists, so no certificate does, and the solve raises."""
    p = SdpProblem(sense="max")
    p.add_block("X", 2)
    p.add_block("s", 1)
    p.add_objective("X", np.eye(2))
    p.add_eq_constraint({"X": np.diag([1.0, -1.0]), "s": np.eye(1)}, 1.0)
    with pytest.raises(SolverFailure) as err:
        solve_sdp(p)
    assert err.value.diagnostics["checked_min_eig_S"] is None
    assert err.value.diagnostics["iterations"] >= 1


def test_infeasible_equalities_detected():
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    p.add_eq_constraint({"X": np.eye(2)}, 1.0)
    p.add_eq_constraint({"X": np.eye(2)}, 2.0)
    with pytest.raises(InfeasibleSpec):
        solve_sdp(p)


def start_of(problem):
    """The solver's start for ``problem``, block by block."""
    names, dims, slices, A, b, _, _ = sdp._assemble(problem)
    x0 = sdp._starting_point(A, b, sdp._row_factor(A),
                             block_stack(tuple(dims)))
    return sdp._split(x0, names, dims, slices)


def test_boundary_only_feasibility_reported():
    """tr X = 0 forces X = 0, so no interior point exists.  The identity
    projects to about 1e-16 I, on which Cholesky succeeds: that counts as
    positive definite, as it does for every iterate, so the solve starts
    there, at the optimum, and certifies 0 without a step."""
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    p.add_eq_constraint({"X": np.eye(2)}, 0.0)
    w = np.linalg.eigvalsh(start_of(p)["X"])
    assert 0.0 < w[0] and w[-1] < 1e-15
    sol = solve_sdp(p)
    assert sol.iterations == 0
    assert abs(sol.value) <= 1e-15 and sol.dual_value == 0.0
    assert 0.0 <= sol.gap <= 1e-15
    assert rebuilt_dual_slack_min_eig(p, sol.y) >= 0.0


def test_start_is_the_identity_when_its_projection_is_not_positive():
    """X_11 - X_22 = 4 projects the identity to diag(3, -1): the solve
    starts from the identity itself, off the equality, and certifies the
    optimum diag(4, 0) of min tr X."""
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    p.add_objective("X", np.eye(2))
    p.add_eq_constraint({"X": np.diag([1.0, -1.0])}, 4.0)
    np.testing.assert_array_equal(start_of(p)["X"], np.eye(2))
    sol = solve_sdp(p)
    assert sol.value == pytest.approx(4.0, abs=1e-8)
    assert sol.gap <= sdp.GAP_TOL * max(1.0, abs(sol.value))
    assert rebuilt_dual_slack_min_eig(p, sol.y) >= -1e-12 * sol.value


@pytest.mark.parametrize("dims, pin", [((2, 3), 70), ((3, 2), 71),
                                       ((2, 1), 72), ((2, 2), None)])
def test_projected_start_of_a_pin_is_the_sets_interior_point(dims, pin):
    """Tr_F rho = psi maps the identity to d_f 1, so projecting it onto the
    pin gives psi (x) 1/d_f, the point ``_MarginalSet.start`` names (1/d
    without a constraint, where the pin is tr rho = 1)."""
    d_a, d_f = dims
    inp = space(("A", d_a), ("F", d_f))
    con = None if pin is None else MarginalConstraint(
        "A", random_density(space(("A", d_a)), seed=pin))
    mset = _MarginalSet(inp, con)
    p = SdpProblem(sense="max")
    p.add_block("rho", mset.dim)
    mset.pin(p, "rho")
    np.testing.assert_allclose(start_of(p)["rho"], mset.start(), rtol=0,
                               atol=1e-12)


def test_fidelity_program_certifies_from_the_identity(sdp_solves):
    """The root-fidelity program at order 1/2 of the pinned-input instance
    of ``check_pinned_input`` in the channel tests, built directly on the
    channel output T | Y R (its Y R marginal has full rank): its identity
    projects to a point that is not positive definite, so it starts from
    the identity; it still certifies to the target gap with a checked dual
    point."""
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=21,
                        kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=22)
    out = ch.apply(psi.purified("R")).reorder(["T", "Y", "R"]).matrix
    _fidelity_program(*_branch_programs([out], 2, 4), [1.0])
    ((p, sol),) = sdp_solves
    for name, block in start_of(p).items():
        np.testing.assert_array_equal(block, np.eye(p.blocks[name]))
    scale = max(1.0, abs(sol.value))
    assert sol.gap <= sdp.GAP_TOL * scale
    assert rebuilt_dual_slack_min_eig(p, sol.y) >= -1e-12 * scale


def test_operator_constraint_rows_match_the_adjoint_formula():
    """X -> 1_A (x) X with dim A = 2 maps 2x2 blocks to 4x4 operators and is
    not self-adjoint; its adjoint is E -> Tr_A E, so the row of basis
    element E_k must hold the coordinates of Tr_A E_k."""
    B4, B2 = dense_basis(4), dense_basis(2)
    G = random_hermitian(4, 6)
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    rows = p.add_operator_equality([("X", lambda X: np.kron(np.eye(2), X))],
                                   G)
    _, _, _, A, b, _, _ = sdp._assemble(p)
    assert rows == slice(0, 16) and A.shape == (16, 4)
    for k, (row, rhs) in enumerate(zip(A, b)):
        E = B4[:, k].reshape(4, 4)
        adj = np.trace(E.reshape(2, 2, 2, 2), axis1=0, axis2=2)
        want = np.real(B2.conj().T @ adj.reshape(-1))
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-14)
        assert rhs == pytest.approx(np.real(np.vdot(E, G)), abs=1e-14)


def test_constraints_take_contiguous_row_slices_in_call_order():
    """Interleaved scalar rows, operator equalities and inequalities over
    three blocks take consecutive slices of the rows of A, in the order of
    the calls, and A and b on each slice are that constraint's arrays."""
    G = random_hermitian(3, 5)
    p = SdpProblem(sense="min")
    for name, dim in (("X", 2), ("Y", 3), ("t", 1)):
        p.add_block(name, dim)
    got = [
        p.add_eq_constraint({"X": np.eye(2), "t": -np.eye(1)}, 0.5),
        p.add_operator_equality([("Y", lambda Y: Y),
                                 ("t", lambda t: t[0, 0] * np.eye(3))], G),
        p.add_eq_constraint({"Y": np.diag([1.0, 2.0, 3.0])}, 1.0),
        p.add_operator_inequality([("X", lambda X: np.kron(np.eye(2), X))],
                                  np.eye(4), slack="S"),
        p.add_operator_equality([("X", lambda X: X[:1, :1])], np.eye(1)),
    ]
    assert got == [slice(0, 1), slice(1, 10), slice(10, 11), slice(11, 27),
                   slice(27, 28)]
    assert p.rows == 28 and len(p.constraints) == len(got)
    names, _, slices, A, b, _, _ = sdp._assemble(p)
    assert A.shape == (28, 4 + 9 + 1 + 16)
    cols = dict(zip(names, slices))
    for rows, (coefs, rhs) in zip(got, p.constraints):
        np.testing.assert_array_equal(b[rows], rhs)
        for name, sl in cols.items():
            want = coefs.get(name, np.zeros((len(rhs), sl.stop - sl.start)))
            np.testing.assert_array_equal(A[rows, sl], want)


def test_operator_equality_rejects_a_non_hermitian_map():
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidState, match="not Hermitian"):
        p.add_operator_equality([("X", lambda X: X + X[0, 0] * shift)],
                                np.eye(2))
    assert not p.constraints


def test_operator_equality_rejects_a_map_of_the_wrong_shape():
    p = SdpProblem(sense="min")
    p.add_block("X", 2)
    with pytest.raises(InvalidState, match="expected shape"):
        p.add_operator_equality([("X", lambda X: np.kron(np.eye(2), X))],
                                np.eye(2))
    assert not p.constraints


def covering_program():
    """A covering program with a 1x1 scale block and a slack block:
    min t over tr rho = 1, tr S = t and 1_2 (x) S >= V rho V^dag, with
    blocks rho (2x2), S (2x2), t (1x1) and the 4x4 slack."""
    V = np.linalg.qr(random_hermitian(4, 12)[:, :2])[0]
    p = SdpProblem(sense="min")
    for name, dim in (("rho", 2), ("S", 2), ("t", 1)):
        p.add_block(name, dim)
    p.add_objective("t", np.eye(1))
    p.add_eq_constraint({"rho": np.eye(2)}, 1.0)
    p.add_eq_constraint({"S": np.eye(2), "t": -np.eye(1)}, 0.0)
    p.add_operator_inequality([("S", lambda S: np.kron(np.eye(2), S)),
                               ("rho", lambda r: -V @ r @ V.conj().T)],
                              np.zeros((4, 4)), slack="slack")
    return p


def test_solver_calls_per_iteration_do_not_grow_with_the_blocks(monkeypatch):
    """One iteration factors and steps the whole block stack at once: at
    most 2 Cholesky and 2 ``eigvalsh`` calls per iteration on the 4 blocks
    of the covering program, one per pair of step lengths.  Per solve come A A^T's factor and the start's
    check of the stack (Cholesky), and one lowest eigenvalue per block in
    each certificate and in the returned residuals (eigvalsh)."""
    p = covering_program()
    counts = dict.fromkeys(("cholesky", "eigvalsh", "certificates"), 0)

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "cholesky",
                        counted(np.linalg.cholesky, "cholesky"))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted(np.linalg.eigvalsh, "eigvalsh"))
    monkeypatch.setattr(sdp, "_certificate",
                        counted(sdp._certificate, "certificates"))
    sol = solve_sdp(p)
    k, it = len(p.blocks), sol.iterations
    assert k == 4 and it >= 5
    assert sol.gap <= sdp.GAP_TOL * max(1.0, abs(sol.value))
    assert counts["cholesky"] <= 2 * it + 2
    assert counts["eigvalsh"] <= 2 * it + k * (counts["certificates"] + 1)
