import numpy as np
import pytest

from renyimeat.channels import (
    Channel,
    _perm_matrix,
    classical_function_channel,
    compose,
    identity_channel,
    measure_channel,
    prepare_channel,
    trace_out_channel,
)
from renyimeat.errors import InvalidRegister, InvalidState
from renyimeat.registers import State, ket_state, maximally_mixed, space
from renyimeat.sampling import random_channel, random_density, random_povm


def bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return ket_state(v, space(("A", 2), ("B", 2)))


def depolarizing(p):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0, -1.0]).astype(complex)
    ks = [
        np.sqrt(1 - 3 * p / 4) * np.eye(2),
        np.sqrt(p / 4) * X,
        np.sqrt(p / 4) * Y,
        np.sqrt(p / 4) * Z,
    ]
    return Channel(ks, space(("B", 2)), space(("B", 2)))


def test_channel_shape_and_tp_validation():
    with pytest.raises(InvalidState):
        Channel([np.eye(3)], space(("A", 2)), space(("B", 3)))
    with pytest.raises(InvalidState):
        Channel([0.5 * np.eye(2)], space(("A", 2)), space(("A", 2)))
    ch = Channel([0.5 * np.eye(2)], space(("A", 2)), space(("A", 2)),
                 require_tp=False)
    assert not ch.is_trace_preserving


def test_identity_channel_is_identity():
    rho = random_density(space(("A", 2), ("B", 3)), seed=0)
    out = identity_channel(space(("B", 3))).apply(rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)
    assert out.space.labels == ("A", "B")


def test_apply_matches_direct_kraus_sum():
    ch = random_channel(space(("B", 2)), space(("B", 2)), seed=1)
    rho = random_density(space(("A", 2), ("B", 2)), seed=2)
    want = np.zeros((4, 4), dtype=complex)
    for K in ch.kraus:
        big = np.kron(np.eye(2), K)
        want += big @ rho.matrix @ big.conj().T
    np.testing.assert_allclose(ch.apply(rho).matrix, want, atol=1e-12)


def test_full_depolarizing_on_half_bell():
    out = depolarizing(1.0).apply(bell())
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


def test_output_register_order_survivors_then_new():
    ch = random_channel(space(("B", 2)), space(("Y", 3)), seed=3)
    rho = random_density(space(("A", 2), ("B", 2), ("C", 2)), seed=4)
    out = ch.apply(rho)
    assert out.space.labels == ("A", "C", "Y")
    assert abs(out.trace() - 1.0) < 1e-10


def test_output_label_collision_rejected():
    ch = random_channel(space(("B", 2)), space(("A", 2)), seed=5)
    rho = random_density(space(("A", 2), ("B", 2)), seed=6)
    with pytest.raises(InvalidRegister):
        ch.apply(rho)


# ------------------------------------------------------------- dilations


def test_stinespring_of_unitary_has_trivial_environment():
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    ch = Channel([H], space(("A", 2)), space(("A", 2)))
    V = ch.stinespring("Z")
    assert V.out_space.dim_of("Z") == 1
    np.testing.assert_allclose(
        V.matrix.conj().T @ V.matrix, np.eye(2), atol=1e-10
    )


@pytest.mark.parametrize("seed", range(10))
def test_stinespring_marginal_reproduces_channel(seed):
    ch = random_channel(space(("A", 2)), space(("B", 2)), seed=17, kraus_rank=2)
    V = ch.stinespring("Z")
    np.testing.assert_allclose(
        V.matrix.conj().T @ V.matrix, np.eye(2), atol=1e-10
    )
    rho = random_density(space(("A", 2)), seed=seed)
    dilated = V.apply(rho).partial_trace(drop=["Z"])
    np.testing.assert_allclose(dilated.matrix, ch.apply(rho).matrix, atol=1e-9)


def test_complementary_channel_matches_environment_marginal():
    ch = random_channel(space(("A", 2)), space(("B", 3)), seed=23, kraus_rank=2)
    rho = random_density(space(("A", 2)), seed=24)
    env = ch.stinespring("Z").apply(rho).partial_trace(keep=["Z"])
    comp = ch.complementary("Z").apply(rho)
    np.testing.assert_allclose(comp.matrix, env.matrix, atol=1e-9)


@pytest.mark.parametrize("drop", [["B"], ["A", "C"], ["C"]])
def test_trace_out_channel_is_the_partial_trace(drop):
    rho = random_density(space(("A", 2), ("B", 3), ("C", 2)), seed=4)
    got = trace_out_channel(rho.space, drop).apply(rho)
    want = rho.partial_trace(drop=drop)
    assert got.space.labels == want.space.labels
    np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-13)


def test_compose_agrees_with_sequential_application():
    first = random_channel(space(("A", 2)), space(("B", 2)), seed=31)
    second = random_channel(space(("B", 2)), space(("C", 3)), seed=32)
    rho = random_density(space(("A", 2), ("R", 2)), seed=33)
    direct = second.apply(first.apply(rho))
    fused = compose(second, first).apply(rho)
    np.testing.assert_allclose(
        fused.reorder(direct.space.labels).matrix, direct.matrix, atol=1e-11
    )


def test_tensor_of_channels():
    c1 = random_channel(space(("A", 2)), space(("X", 2)), seed=41)
    c2 = random_channel(space(("B", 2)), space(("Y", 2)), seed=42)
    rho = random_density(space(("A", 2), ("B", 2)), seed=43)
    joint = c1.tensor(c2).apply(rho)
    seq = c2.apply(c1.apply(rho))
    np.testing.assert_allclose(
        joint.reorder(seq.space.labels).matrix, seq.matrix, atol=1e-11
    )


# ----------------------------------------------------- classical plumbing


def test_measure_channel_computational_basis():
    plus = State(np.full((2, 2), 0.5), space(("Q", 2)))
    out = measure_channel(space(("Q", 2)), "X").apply(plus)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
    assert out.space.labels == ("X",)


def test_measure_channel_with_povm_statistics():
    povm = random_povm(2, 3, seed=51)
    ch = measure_channel(space(("Q", 2)), "X", povm)
    rho = random_density(space(("Q", 2)), seed=52)
    out = ch.apply(rho)
    want = [float(np.real(np.trace(E @ rho.matrix))) for E in povm]
    np.testing.assert_allclose(np.diag(out.matrix).real, want, atol=1e-10)
    assert out.is_classical_on(["X"])
    with pytest.raises(InvalidState):
        measure_channel(space(("Q", 2)), "X", [np.eye(2) * 0.3])


def test_classical_function_channel_copies_and_relabels():
    ch = classical_function_channel(
        space(("C", 2)), space(("C2", 2), ("D", 2)), lambda idx: (idx[0], idx[0])
    )
    rho = State(np.diag([0.25, 0.75]), space(("C", 2)))
    out = ch.apply(rho)
    np.testing.assert_allclose(
        np.diag(out.matrix).real, [0.25, 0.0, 0.0, 0.75], atol=1e-12
    )


def test_prepare_channel_reads_without_disturbing():
    """Read-and-prepare: classical reader kept intact, new register appended."""
    tau = {(0,): np.diag([1.0, 0.0]), (1,): np.eye(2) / 2}
    ch = prepare_channel(space(("C", 2)), tau, space(("D", 2)))
    assert ch.is_trace_preserving
    rho = random_density(space(("C", 2), ("Q", 2)), seed=61).pinched(["C"])
    out = ch.apply(rho)
    # the original registers survive untouched
    np.testing.assert_allclose(
        out.partial_trace(drop=["D"]).matrix, rho.reorder(["Q", "C"]).matrix,
        atol=1e-10,
    )
    # and each classical branch carries its prepared state
    for (c,), w, cond in out.partial_trace(keep=["C", "D"]).branches(["C"]):
        np.testing.assert_allclose(cond.matrix, tau[(c,)], atol=1e-10)


def test_prepare_channel_disturbs_coherences_only_via_reading():
    # reading a register that is *not* classical necessarily pinches it
    plus = State(np.full((2, 2), 0.5), space(("C", 2)))
    tau = {(0,): np.diag([1.0, 0.0]), (1,): np.diag([0.0, 1.0])}
    out = prepare_channel(space(("C", 2)), tau, space(("D", 2))).apply(plus)
    np.testing.assert_allclose(
        out.partial_trace(drop=["D"]).matrix, np.eye(2) / 2, atol=1e-12
    )


@pytest.mark.parametrize("dims, order", [
    ((3,), (0,)),
    ((2, 3), (1, 0)),
    ((2, 3, 4), (2, 0, 1)),
    ((3, 1, 2, 2), (3, 1, 0, 2)),
])
def test_perm_matrix_matches_the_index_loop(dims, order):
    """The register permutation matrix, against P[tgt, src] = 1 built one
    basis index at a time."""
    sp = space(*[(f"R{i}", d) for i, d in enumerate(dims)])
    new_order = [f"R{i}" for i in order]
    want = np.zeros((sp.dim, sp.dim))
    for idx in np.ndindex(*dims):
        src = np.ravel_multi_index(idx, dims)
        tgt = np.ravel_multi_index(tuple(idx[p] for p in order),
                                   [dims[p] for p in order])
        want[tgt, src] = 1.0
    np.testing.assert_array_equal(_perm_matrix(sp, new_order), want)
