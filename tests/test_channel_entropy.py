"""Channel conditional entropies: pinned inputs, SDP pairs, chain rule and
additivity, the alpha = 1/2 and alpha = inf programs, and the convex
program at every other order, on seeded qubit instances and closed forms."""

import math

import numpy as np
import pytest

from renyimeat.channel_entropy import (
    CHANNEL_GAP_TOL,
    ChannelEntropyProblem,
    MarginalConstraint,
    build_sdp_individual,
    build_sdp_joint,
    channel_cond_entropy,
    entropy_at_witness,
    entropy_via_conjugate_divergence,
    minimized_channel_divergence,
    product_feasibility_slack,
    solve_sdp_pair,
    verify_additivity,
    verify_chain_rule,
    verify_weak_additivity,
)
from renyimeat.channels import Channel, identity_channel
from renyimeat.divergences import as_order, sandwiched_divergence
from renyimeat.entropies import (alpha_entropy, cond_entropy_up,
                                 von_neumann_entropy)
from renyimeat.errors import InvalidRegister, NonConvergence
from renyimeat.registers import RegisterSpace, State, space, support_isometry
from renyimeat.sampling import random_channel, random_density, random_isometry
from renyimeat import channel_entropy, entropies, marginals, sdp
from renyimeat.sdp import SdpProblem, solve_sdp

HALF = 0.5
TOL = 1e-6


def pinned(label, seed):
    return MarginalConstraint(label, random_density(space((label, 2)),
                                                    seed=seed))


def measured_rounds(seed):
    """Round 0 maps (A, F) to (T0, X) with A pinned; round 1 consumes X and
    the pinned B and emits T1; random test operators on T0 and T1."""
    r0 = random_channel(space(("A", 2), ("F", 2)), space(("T0", 2), ("X", 2)),
                        seed=seed, kraus_rank=2)
    r1 = random_channel(space(("X", 2), ("B", 2)), space(("T1", 2)),
                        seed=seed + 1, kraus_rank=2)
    g0 = random_density(space(("T0", 2)), seed=seed + 2)
    g1 = random_density(space(("T1", 2)), seed=seed + 3)
    g0 = State(2.0 * g0.matrix, g0.space)
    g1 = State(2.0 * g1.matrix, g1.space)
    return (r0, r1), (pinned("A", seed + 4), pinned("B", seed + 5)), (g0, g1)


def check_pinned_input(alpha):
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=21,
                        kraus_rank=2)
    con = pinned("A", 22)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", alpha,
                                                     constraint=con))
    out = ch.apply(con.state.purified("R"))
    want = cond_entropy_up(out, ["T"], ["Y", "R"], alpha)
    assert res.method == "pinned-input" and res.gap <= CHANNEL_GAP_TOL
    # two purifications related by an isometry on R, each value certified
    # by its own program (fidelity SDP or duality interval, ~1e-8)
    assert res.value == pytest.approx(want, abs=1e-7)


def test_constraint_of_the_wrong_dimension_raises():
    ch = random_channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=1,
                        kraus_rank=2)
    con = MarginalConstraint("A", random_density(space(("A", 3)), seed=2))
    with pytest.raises(InvalidRegister, match="wrong dimension"):
        channel_cond_entropy(ChannelEntropyProblem(ch, "T", 2.0,
                                                   constraint=con))


def test_pinned_input_equals_entropy_of_the_purified_output():
    check_pinned_input(HALF)


@pytest.mark.parametrize("alpha", [0.8, 2.0])
def test_pinned_input_at_generic_orders(alpha):
    check_pinned_input(alpha)


@pytest.mark.parametrize("seed", [30, 40])
def test_measured_chain_rule_pairs(seed):
    (r0, r1), (m0, m1), (g0, g1) = measured_rounds(seed)
    pairs = [build_sdp_individual(g0, r0, m0),
             build_sdp_individual(g1, r1, m1),
             build_sdp_joint(g0, g1, (r0, r1), (m0, m1), form="composed")]
    solved = [solve_sdp_pair(pair) for pair in pairs]
    for primal, dual in solved:
        # strong duality: both sides meet within their certified gaps
        assert abs(primal.value - dual.value) <= primal.gap + dual.gap + 1e-9
    slack = product_feasibility_slack(pairs[2],
                                      solved[0][1].variables["Lambda"],
                                      solved[1][1].variables["Lambda"])
    assert slack >= -TOL


@pytest.mark.parametrize("seed", [7, 8, 9, 30])
def test_measured_dual_is_read_from_the_pin(seed, sdp_solves):
    """One solve per program; its pin multipliers give a Lambda that is
    feasible for the dual and attains the reported dual value, and the
    rounds' Lambdas tensor into a feasible joint dual point."""
    (r0, r1), (m0, m1), (g0, g1) = measured_rounds(seed)
    pairs = [build_sdp_individual(g0, r0, m0),
             build_sdp_individual(g1, r1, m1),
             build_sdp_joint(g0, g1, (r0, r1), (m0, m1), form="composed")]
    lams = []
    for pair in pairs:
        del sdp_solves[:]
        primal, dual = solve_sdp_pair(pair)
        assert len(sdp_solves) == 1
        lam = dual.variables["Lambda"]
        k, n = lam.shape[0], pair.dual_rhs.shape[0]
        lifted = np.kron(lam, np.eye(n // k))
        assert np.linalg.eigvalsh(lifted - pair.dual_rhs).min() >= -1e-9
        psi = sdp.hunvec(sdp._assemble(pair.primal)[4][pair.pin], k)
        assert abs(np.trace(psi @ lam).real - dual.value) <= primal.gap
        lams.append(lam)
    assert product_feasibility_slack(pairs[2], lams[0], lams[1]) >= 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tensor_joint_is_the_product_of_the_rounds(seed):
    """Two rounds run in parallel, A F -> T Y and B G -> U with A and B
    pinned: the joint optimum is the product of the rounds' optima within
    the certified gaps, and the rounds' Lambdas tensor into a feasible
    joint dual point."""
    r0 = random_channel(space(("A", 2), ("F", 2)), space(("T", 2), ("Y", 2)),
                        seed=seed, kraus_rank=2)
    r1 = random_channel(space(("B", 2), ("G", 2)), space(("U", 2)),
                        seed=seed + 50, kraus_rank=2)
    g0 = random_density(space(("T", 2)), seed=seed + 2)
    g1 = random_density(space(("U", 2)), seed=seed + 3)
    g0 = State(2.0 * g0.matrix, g0.space)
    g1 = State(2.0 * g1.matrix, g1.space)
    m0, m1 = pinned("A", seed + 4), pinned("B", seed + 5)
    pairs = [build_sdp_individual(g0, r0, m0),
             build_sdp_individual(g1, r1, m1),
             build_sdp_joint(g0, g1, (r0, r1), (m0, m1), form="tensor")]
    (p0, d0), (p1, d1), (pj, _) = [solve_sdp_pair(pair) for pair in pairs]
    v0, v1 = p0.value, p1.value
    assert abs(pj.value - v0 * v1) <= pj.gap + v1 * p0.gap + v0 * p1.gap
    slack = product_feasibility_slack(pairs[2], d0.variables["Lambda"],
                                      d1.variables["Lambda"])
    assert slack >= -1e-9


# order 1/2 keeps the bare seed as its id
@pytest.mark.parametrize("seed, alpha", [
    pytest.param(s, a, id=str(s) if a == HALF else f"{s}-{a}")
    for a in (HALF, 0.75, 2.0, "inf") for s in (50, 60)])
def test_chain_rule_slack_is_nonnegative(seed, alpha):
    e1 = random_channel(space(("A", 2)), space(("T1", 2), ("X", 2)),
                        seed=seed, kraus_rank=2)
    e2 = random_channel(space(("X", 2), ("B", 2)), space(("T2", 2)),
                        seed=seed + 1, kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=seed + 2)
    phi = random_density(space(("B", 2)), seed=seed + 3)
    slack = verify_chain_rule(e1, e2, psi, phi, alpha, target1="T1",
                              target2="T2")
    assert slack >= -TOL


@pytest.mark.parametrize("seed", [70, 80])
def test_additivity_gap_vanishes(seed):
    e1 = random_channel(space(("A", 2)), space(("T1", 2)), seed=seed,
                        kraus_rank=2)
    e2 = random_channel(space(("B", 2)), space(("T2", 2)), seed=seed + 1,
                        kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=seed + 2)
    phi = random_density(space(("B", 2)), seed=seed + 3)
    joint, total, gap = verify_additivity(e1, e2, psi, phi, HALF,
                                          target1="T1", target2="T2")
    assert abs(gap) <= TOL
    assert joint - total == pytest.approx(gap, abs=1e-12)


def test_near_half_order_takes_the_sdp_route():
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=91,
                        kraus_rank=2)
    at_half = channel_cond_entropy(ChannelEntropyProblem(ch, "T", HALF))
    near = channel_cond_entropy(ChannelEntropyProblem(ch, "T", HALF + 1e-13))
    assert near.method == at_half.method == "covering-program"
    assert near.value == pytest.approx(at_half.value, abs=1e-9)


def test_conjugate_divergence_just_below_half_is_order_half():
    """An order within ``HALF_WINDOW`` below 1/2 runs the divergence at
    infinity, as 1/2 does, to the last bit."""
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=91,
                        kraus_rank=2)
    assert entropy_via_conjugate_divergence(ch, "T", None, HALF - 1e-13) \
        == entropy_via_conjugate_divergence(ch, "T", None, HALF)


def test_repeated_target_labels_are_rejected():
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=91,
                        kraus_rank=2)
    with pytest.raises(InvalidRegister):
        ChannelEntropyProblem(ch, ["T", "T"], 2.0)


def test_orthogonal_outputs_raise_instead_of_certifying_inf():
    """Maps onto |0> and onto |1>: every pair of outputs is orthogonal, the
    divergence is +inf at every start and no certificate exists."""
    a, t = space(("A", 2)), space(("T", 2))
    to0 = Channel([np.outer(np.eye(2)[0], np.eye(2)[i]) for i in range(2)],
                  a, t)
    to1 = Channel([np.outer(np.eye(2)[1], np.eye(2)[i]) for i in range(2)],
                  a, t)
    with pytest.raises(NonConvergence) as err:
        minimized_channel_divergence(to0, to1, (None, None), 0.75)
    assert err.value.value == math.inf
    assert not math.isfinite(err.value.gap)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_infinite_order_is_attained_by_its_witness(seed):
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)),
                        seed=seed, kraus_rank=2)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", "inf"))
    assert res.method == "fidelity-program" and res.gap <= CHANNEL_GAP_TOL
    # the witness is a feasible input: its entropy bounds the infimum from
    # above, and the duality gap of the program bounds it from below
    assert res.value == pytest.approx(
        entropy_at_witness(ch, "T", res.witness, "inf"), abs=1e-7)
    half = channel_cond_entropy(ChannelEntropyProblem(ch, "T", HALF))
    assert res.value <= half.value + TOL
    # independent route: the minimized order-1/2 divergence of the dilation,
    # certified by its joint Frank-Wolfe gap (1e-6)
    conj = entropy_via_conjugate_divergence(ch, "T", None, "inf")
    assert res.value == pytest.approx(conj, abs=1e-6)


CH4 = dict(inp=(("A", 2), ("F", 2)), out=(("T", 2), ("Y", 2)), seed=3,
           kraus_rank=2, pin=5)


@pytest.mark.parametrize("inst", [
    dict(inp=(("A", 2),), out=(("T", 2),), seed=1, kraus_rank=2, pin=None),
    dict(inp=(("A", 2),), out=(("T", 2), ("Y", 2)), seed=1560023975,
         kraus_rank=2, pin=None),
    dict(inp=(("A", 2),), out=(("T", 2), ("Y", 2)), seed=1, kraus_rank=3,
         pin=None),
    CH4,
], ids=["qubit-to-qubit", "seed-1560023975", "kraus-rank-3", "ch4-pinned"])
def test_infinite_order_certifies_rank_deficient_and_pinned_inputs(inst):
    """Instances where the output is rank-deficient at every input, or the
    input is partly pinned: the program must still certify its value."""
    ch = random_channel(space(*inst["inp"]), space(*inst["out"]),
                        seed=inst["seed"], kraus_rank=inst["kraus_rank"])
    con = None if inst["pin"] is None else pinned("A", inst["pin"])
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", "inf",
                                                     constraint=con))
    assert res.method == "fidelity-program" and res.gap <= CHANNEL_GAP_TOL
    assert res.value == pytest.approx(
        entropy_at_witness(ch, "T", res.witness, "inf"), abs=1e-7)
    if con is not None:
        np.testing.assert_allclose(res.witness.marginal(["A"]).matrix,
                                   con.state.matrix, atol=1e-7)


# ---------------------------------------------- generic orders: convex route

ORDERS = [0.6, 0.75, 1.0, 1.1, 2.0, 10.0]


@pytest.mark.parametrize("alpha", ORDERS)
def test_identity_channel_closed_forms(alpha):
    """The identity channel has a pure output and a trivial environment:
    with A pinned to psi the value is -H_b(psi), 1/a + 1/b = 2; with no
    constraint it is -log2 d_T."""
    psi = random_density(space(("A", 2)), seed=5)
    ident = Channel([np.eye(4)], space(("A", 2), ("F", 2)),
                    space(("T", 2), ("Y", 2)))
    res = channel_cond_entropy(ChannelEntropyProblem(
        ident, "T", alpha, constraint=MarginalConstraint("A", psi)))
    beta = as_order(alpha).conjugate()
    assert res.method == "convex-program" and res.gap <= CHANNEL_GAP_TOL
    assert res.value == pytest.approx(-alpha_entropy(psi.matrix, beta),
                                      abs=1e-9)
    free = Channel([np.eye(3)], space(("A", 3)), space(("T", 3)))
    res = channel_cond_entropy(ChannelEntropyProblem(free, "T", alpha))
    assert res.value == pytest.approx(-math.log2(3), abs=1e-9)


def test_reference_channel_is_certified_and_monotone_in_the_order():
    """CH4: values fall with the order and lie between the 1/2 and inf
    programs; the values at 0.75 and 2 were reached independently by a
    non-convex descent over input isometries."""
    ch = random_channel(space(*CH4["inp"]), space(*CH4["out"]),
                        seed=CH4["seed"], kraus_rank=CH4["kraus_rank"])
    con = pinned("A", CH4["pin"])
    orders = [HALF, 0.6, 0.75, 1.0, 2.0, "inf"]
    results = [channel_cond_entropy(ChannelEntropyProblem(
        ch, "T", a, constraint=con)) for a in orders]
    values = [r.value for r in results]
    assert all(r.gap <= CHANNEL_GAP_TOL for r in results)
    assert all(hi >= lo - TOL for hi, lo in zip(values, values[1:]))
    assert values[2] == pytest.approx(-0.6397997765, abs=1e-6)
    assert values[4] == pytest.approx(-0.746947, abs=1e-6)
    for res, a in zip(results[1:-1], orders[1:-1]):
        # the witness is feasible, keeps the pinned marginal, and its own
        # entropy lies in the certified interval
        np.testing.assert_allclose(res.witness.marginal(["A"]).matrix,
                                   con.state.matrix, atol=1e-9)
        at = entropy_at_witness(ch, "T", res.witness, a)
        assert res.value - res.gap - 1e-7 <= at <= res.value + 1e-7


@pytest.mark.parametrize("alpha, want",
                         [(HALF, -0.494707), ("inf", -0.792461)])
def test_reference_channel_endpoints_certify_within_the_iteration_budget(
        alpha, want, sdp_solves):
    """CH4 at 1/2 and infinity: each program certifies to the solver's
    target gap in at most 40 primal-dual iterations, at the frozen value."""
    ch = random_channel(space(*CH4["inp"]), space(*CH4["out"]),
                        seed=CH4["seed"], kraus_rank=CH4["kraus_rank"])
    res = channel_cond_entropy(ChannelEntropyProblem(
        ch, "T", alpha, constraint=pinned("A", CH4["pin"])))
    assert res.value == pytest.approx(want, abs=TOL)
    assert sdp_solves
    for _, sol in sdp_solves:
        assert sol.iterations <= 40
        assert sol.gap <= sdp.GAP_TOL * max(1.0, abs(sol.value))


def test_boundary_optimum_certifies_to_the_target_gap(sdp_solves):
    """A qubit-input channel whose fidelity program has its optimum on the
    boundary: the program certifies to the target gap itself, not to the
    wider ``GAP_CEILING`` accepted when the iterates lose precision."""
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=3,
                        kraus_rank=2)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", "inf"))
    assert res.method == "fidelity-program"
    ((_, sol),) = sdp_solves
    assert sol.gap <= sdp.GAP_TOL * max(1.0, abs(sol.value))
    assert sol.residuals["min_eig_S"] >= 0.0


@pytest.mark.parametrize("kw, alpha, want", [
    (dict(out=(("T", 2), ("Y", 2)), seed=3, kraus_rank=2), 0.75, -0.512201),
    (dict(out=(("T", 2),), seed=3, kraus_rank=4), 2.0, 0.108036),
], ids=["local-point-0.48788", "stationary-start-0.17708"])
def test_instances_where_the_descent_stopped_early(kw, alpha, want):
    """The isometry descent stopped at -0.48788 (one restart) and at
    0.17708 (its identity start) on these channels; the convex program has
    no stationary point other than the optimum."""
    ch = random_channel(space(("A", 2)), space(*kw["out"]), seed=kw["seed"],
                        kraus_rank=kw["kraus_rank"])
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", alpha))
    assert res.gap <= CHANNEL_GAP_TOL
    assert res.value == pytest.approx(want, abs=1e-6)


def first_step_only(monkeypatch):
    """Cut every L-BFGS run after its first step."""
    monkeypatch.setattr(marginals, "_LBFGS_MAX_ITERS", 1)


def test_unconverged_program_raises_with_its_interval(monkeypatch):
    """A run cut after its first step carries a wide interval, and the front
    door raises with the value and the width instead of returning it."""
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=3,
                        kraus_rank=2)
    problem = ChannelEntropyProblem(ch, "T", 2.0)
    best = channel_cond_entropy(problem).value
    first_step_only(monkeypatch)
    with pytest.raises(NonConvergence) as err:
        channel_cond_entropy(problem)
    assert err.value.gap > CHANNEL_GAP_TOL
    # the interval of the early point still holds the optimum
    assert err.value.value - err.value.gap <= best + 1e-7 <= \
        err.value.value + 2e-7


def test_conjugate_divergence_above_order_one_is_certified():
    """alpha = 0.75 runs the divergence at b = 1.5 with the Frank-Wolfe gap
    on Q_b; it agrees with the convex program within the two widths."""
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=2,
                        kraus_rank=2)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", 0.75))
    conj = entropy_via_conjugate_divergence(ch, "T", None, 0.75)
    assert abs(res.value - conj) <= res.gap + 1e-6 * max(1.0, abs(conj))


@pytest.mark.parametrize("alpha", [HALF, 2.0, "inf"])
def test_weak_additivity_gap_vanishes(alpha):
    e = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=12,
                       kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=13)
    per_copy, single, gap = verify_weak_additivity(e, psi, alpha, target="T")
    assert abs(gap) <= TOL
    assert per_copy - single == pytest.approx(gap, abs=1e-12)


@pytest.mark.parametrize("alpha", [
    HALF, 2.0,
    # H_up_inf(T0 T1 T2 | Y0 Y1 Y2 R) of the 3-copy output (rank 8 on 512
    # dimensions) runs the 1/2 solve on the complement, which stops at a
    # width of 2.5e-7 to 3.4e-7 (by the BLAS threads), above UP_GAP_TOL;
    # two copies certify
    pytest.param("inf", marks=pytest.mark.xfail(strict=True,
                                                raises=NonConvergence))])
def test_weak_additivity_of_three_copies(alpha, monkeypatch):
    """The pinned channel of :func:`test_weak_additivity_gap_vanishes` in
    three copies: the per-copy gap lies within the widths of the joint and
    the single value."""
    results = []

    def recording(problem):
        results.append(channel_cond_entropy(problem))
        return results[-1]

    monkeypatch.setattr(channel_entropy, "channel_cond_entropy", recording)
    e = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=12,
                       kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=13)
    per_copy, single, gap = verify_weak_additivity(e, psi, alpha, target="T",
                                                   copies=3)
    joint, one = results
    assert joint.witness.space.dim == 8 ** 2
    assert abs(gap) <= joint.gap / 3 + one.gap
    assert per_copy - single == pytest.approx(gap, abs=1e-12)


@pytest.mark.parametrize("alpha", [HALF, 0.75])
def test_additivity_renames_colliding_labels(alpha):
    """A channel against itself: the second copy's registers are renamed
    apart, and the result is, to the last bit, that of a copy renamed by
    hand."""
    e = random_channel(space(("A", 2)), space(("T", 2)), seed=70,
                       kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=72)
    same = verify_additivity(e, e, psi, psi, alpha, target1="T",
                             target2="T")
    apart = verify_additivity(e, e.renamed({"A": "B", "T": "U"}), psi,
                              State(psi.matrix, space(("B", 2))), alpha,
                              target1="T", target2="U")
    assert same == apart


def test_additivity_renames_apart_from_both_channels():
    """The fresh label for the second channel's A avoids its own Ab too;
    the gap of the fully pinned product closes."""
    e1 = random_channel(space(("A", 2)), space(("T", 2)), seed=70,
                        kraus_rank=2)
    e2 = random_channel(space(("A", 2), ("Ab", 2)), space(("U", 2)),
                        seed=71, kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=72)
    phi = random_density(space(("A", 2), ("Ab", 2)), seed=73)
    _, _, gap = verify_additivity(e1, e2, psi, phi, HALF, target1="T",
                                  target2="U")
    assert abs(gap) <= TOL


def _indexed(st: State, i: int) -> State:
    sp = RegisterSpace((f"{l}_{i}", d) for l, d in st.space)
    return State(st.matrix, sp, check=False)


def test_free_register_breaks_weak_additivity_at_half():
    """Two copies of a channel whose input register F is free: at order 1/2
    the joint optimum beats every product input, and the solver is not at
    fault.  Its witness meets the product marginal, the product of the
    single witnesses attains twice the single value, and the joint optimal
    input is correlated across the copies."""
    e = random_channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=12,
                       kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=13)
    copies = [e.renamed({l: f"{l}_{i}" for l in ("A", "F", "T")})
              for i in range(2)]
    both = copies[0].tensor(copies[1])
    joint = channel_cond_entropy(ChannelEntropyProblem(
        both, ("T_0", "T_1"), HALF,
        constraint=MarginalConstraint(
            ("A_0", "A_1"), _indexed(psi, 0).tensor(_indexed(psi, 1)))))
    single = channel_cond_entropy(ChannelEntropyProblem(
        e, "T", HALF, constraint=MarginalConstraint("A", psi)))
    assert joint.value / 2 - single.value < -5e-4

    w = joint.witness
    np.testing.assert_allclose(w.marginal(["A_0", "A_1"]).matrix,
                               np.kron(psi.matrix, psi.matrix), atol=1e-8)

    product = _indexed(single.witness, 0).tensor(_indexed(single.witness, 1))
    at_product = entropy_at_witness(both, ("T_0", "T_1"), product, HALF)
    assert at_product == pytest.approx(2 * single.value, abs=1e-8)

    rho = w.marginal(["A_0", "F_0", "A_1", "F_1"])
    mutual = (von_neumann_entropy(rho.marginal(["A_0", "F_0"]).matrix)
              + von_neumann_entropy(rho.marginal(["A_1", "F_1"]).matrix)
              - von_neumann_entropy(rho.matrix))
    assert mutual > 0.05


@pytest.mark.parametrize("alpha", [HALF, 0.75, 2.0])
def test_chain_rule_with_a_free_register(alpha, monkeypatch):
    """The parallel wiring of two copies of a channel A F -> T whose input
    register F is free: round one applies the first copy and passes A_1 F_1
    through, round two applies the second copy, and A_0, A_1 are pinned to
    the same psi.  At 1/2 the slack is about -1.43e-3, far below the widths
    of the three values, so the chain rule fails there; at 0.75 and 2 it is
    zero within them."""
    results = []

    def recording(problem):
        results.append(channel_cond_entropy(problem))
        return results[-1]

    monkeypatch.setattr(channel_entropy, "channel_cond_entropy", recording)
    e = random_channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=12,
                       kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=13)
    copies = [e.renamed({l: f"{l}{i}" for l in ("A", "F", "T")})
              for i in range(2)]
    e1 = copies[0].tensor(identity_channel(space(("A1", 2), ("F1", 2))))
    slack = verify_chain_rule(e1, copies[1],
                              State(psi.matrix, space(("A0", 2))),
                              State(psi.matrix, space(("A1", 2))), alpha,
                              target1=["T0"], target2=["T1"])
    assert len(results) == 3
    if alpha == HALF:
        assert slack < -1e-3
        assert max(r.gap for r in results) <= 1e-8
    else:
        assert abs(slack) <= sum(r.gap for r in results)


@pytest.mark.parametrize("seed", [50, 60])
def test_chain_rule_at_order_one(seed):
    e1 = random_channel(space(("A", 2)), space(("T1", 2), ("X", 2)),
                        seed=seed, kraus_rank=2)
    e2 = random_channel(space(("X", 2), ("B", 2)), space(("T2", 2)),
                        seed=seed + 1, kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=seed + 2)
    phi = random_density(space(("B", 2)), seed=seed + 3)
    slack = verify_chain_rule(e1, e2, psi, phi, 1.0, target1="T1",
                              target2="T2")
    assert slack >= -1e-7


@pytest.mark.parametrize("pin", [None, 7])
def test_input_chart_jacobian_and_gap_bound(pin, monkeypatch):
    """The closed-form pullback of the chart rho(G) matches central
    differences, every chart point keeps the pinned marginal, and the
    closed-form dual bound on the Frank-Wolfe gap is at least the gap the
    SDP linear minimization oracle certifies."""
    from renyimeat.marginals import _InputChart, _MarginalSet
    con = None if pin is None else pinned("A", pin)
    mset = _MarginalSet(space(("A", 2), ("F", 2)), con)
    psi = np.eye(1) if con is None else mset.psi_r
    chart = _InputChart(psi, mset.dim // psi.shape[0])
    rng = np.random.default_rng(3)
    n = mset.dim
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    grad = random_density(space(("X", n)), seed=4).matrix - np.eye(n) / 3
    rho, parts = chart.point(G)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    if con is not None:
        marg = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        np.testing.assert_allclose(marg, mset.psi_r, atol=1e-12)
    gam = chart.pullback(G, parts, grad)
    for _ in range(3):
        dG = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 1e-6
        f = [np.trace(grad @ chart.point(G + s * h * dG)[0]).real
             for s in (1, -1)]
        assert (f[0] - f[1]) / (2 * h) == pytest.approx(
            2 * np.real(np.sum(gam.conj() * dG)), abs=1e-7)
    # the linear minimization oracle: min tr[grad v] over the marginal set,
    # exact (the lowest eigenvector) without a constraint, else the SDP
    # solved to a 1e-9 duality gap
    if con is None:
        v = np.linalg.eigh(grad)[1][:, 0]
        vertex, slack = np.outer(v, v.conj()), 0.0
    else:
        monkeypatch.setattr(sdp, "GAP_TOL", 1e-9)
        monkeypatch.setattr(sdp, "GAP_CEILING", 1e-5)
        lmo = SdpProblem(sense="min")
        lmo.add_block("rho", n)
        lmo.add_objective("rho", grad)
        mset.pin(lmo, "rho")
        sol = solve_sdp(lmo)
        vertex, slack = sol.variables["rho"], sol.gap
    lmo_gap = np.trace(grad @ (rho - vertex)).real
    assert chart.gap_bound(rho, grad) >= lmo_gap - slack - 1e-9


def _kernel_pair(case):
    """(omega, tau, P_omega, P_tau): omega of trace one, tau of trace two,
    and the projectors onto their supports.  "full-rank" is a full-rank
    pair, "rank-deficient-omega" an omega of rank 2 against a full-rank
    tau, and "rank-deficient-pair" an omega of rank 2 inside the support of
    a tau of rank 3."""
    d = 4
    U = np.eye(d) if case != "rank-deficient-pair" \
        else random_isometry(3, d, seed=60)
    k = U.shape[1]
    tau = U @ (2.0 * random_density(space(("X", k)), seed=61).matrix) \
        @ U.conj().T
    rank = k if case == "full-rank" else 2
    omega = U @ random_density(space(("X", k)), seed=62, rank=rank).matrix \
        @ U.conj().T
    projectors = []
    for mat in (omega, tau):
        V = support_isometry(mat)
        projectors.append(V @ V.conj().T)
    return omega, tau, *projectors


@pytest.mark.parametrize("beta", [2.0 / 3.0, 1.0, 4.0 / 3.0, 2.0],
                         ids=["2/3", "1", "4/3", "2"])
@pytest.mark.parametrize("case", ["full-rank", "rank-deficient-omega",
                                  "rank-deficient-pair"])
def test_divergence_kernel_matches_the_divergence_and_its_differences(
        case, beta):
    """The value of the chart programs' kernel is sandwiched_divergence to
    1e-12 relative, and both gradients match central differences of it:
    in omega along traceless directions inside its support, in tau along
    directions inside its support."""
    omega, tau, p_om, p_tau = _kernel_pair(case)
    order = as_order(beta)
    value, g_om, g_tau = channel_entropy._divergence_with_grads(
        omega, tau, order)
    assert value == pytest.approx(sandwiched_divergence(omega, tau, order),
                                  rel=1e-12)
    rng = np.random.default_rng(63)
    t = 1e-6
    for _ in range(3):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = X + X.conj().T
        h_om = p_om @ H @ p_om
        h_om -= np.trace(h_om).real / np.trace(p_om).real * p_om
        h_tau = p_tau @ H @ p_tau
        for grad, h, move in (
                (g_om, h_om, lambda s: (omega + s * h_om, tau)),
                (g_tau, h_tau, lambda s: (omega, tau + s * h_tau))):
            fd = (sandwiched_divergence(*move(t), order)
                  - sandwiched_divergence(*move(-t), order)) / (2.0 * t)
            assert np.real(np.trace(grad @ h)) == pytest.approx(
                fd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("beta", [2.0 / 3.0, 1.0, 2.0], ids=["2/3", "1", "2"])
def test_divergence_kernel_is_infinite_without_support(beta):
    """For b >= 1 an omega outside the support of tau, and for b < 1 an
    omega orthogonal to it, give +inf and no gradients, as
    sandwiched_divergence does; for b < 1 an omega with weight both on
    and off the support keeps a finite value, the same as the
    divergence's."""
    order = as_order(beta)
    tau = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    if beta < 1.0:
        omega = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
        mixed = random_density(space(("X", 4)), seed=64).matrix
        value = channel_entropy._divergence_with_grads(mixed, tau, order)[0]
        assert value == pytest.approx(
            sandwiched_divergence(mixed, tau, order), rel=1e-12)
    else:
        omega = random_density(space(("X", 4)), seed=64).matrix
    assert sandwiched_divergence(omega, tau, order) == math.inf
    assert channel_entropy._divergence_with_grads(omega, tau, order) \
        == (math.inf, None, None)


def test_chart_program_eigendecomposition_budget(monkeypatch):
    """A deterministic cost guard on CH4 at order 1, where the chart
    program runs without an inner sigma solve: one ``eigh`` of omega and
    one of omega_Z per point, and one ``eigvalsh`` for the rho side of the
    Frank-Wolfe gap (367 calls in all).  The limit is under the 458 calls
    of the solve that took the divergence of omega against 1 (x) omega_Z,
    with a second ``eigvalsh`` per point for a sigma side that is zero, and
    under the 641 ``eigh`` calls alone of the one before it, whose kernel
    decomposed omega twice and tau three times per point."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, f=getattr(np.linalg, name), **k:
                            calls.append(1) or f(*a, **k))
    ch = random_channel(space(*CH4["inp"]), space(*CH4["out"]),
                        seed=CH4["seed"], kraus_rank=CH4["kraus_rank"])
    res = channel_cond_entropy(ChannelEntropyProblem(
        ch, "T", 1.0, constraint=pinned("A", CH4["pin"])))
    assert res.gap <= CHANNEL_GAP_TOL
    assert res.value == pytest.approx(-0.6868801777, abs=1e-9)
    assert len(calls) <= 400


#: (value, width) on GEN, channel-opt's generic channel, from the route
#: whose inner sigma solves stopped on their value width alone
GEN_BEFORE = {0.8: (-0.09567186953699712, 6.606213776339382e-09),
              2.0: (-0.17215673477535812, 6.958777414334264e-09)}


@pytest.mark.parametrize("alpha,solves,most", [(0.8, 7, 200), (2.0, 5, 160)])
def test_chart_program_newton_inner_solves(alpha, solves, most, monkeypatch):
    """A deterministic cost guard on GEN at 0.8 and 2, where the inner
    sigma solves stop on their first-order gap as well: at most 7 and 5
    inner solves (10 and 11 when they stopped on the value width, with the
    first stage stalling on sigma's first-order error and a joint polish
    after it) and at most 200 and 160 ``eigh`` and ``eigvalsh`` calls
    (295 and 376 then).  The call certifies, its value agrees with the
    earlier route's within the two widths, and at the last chart
    point the inner sigma's sigma-side Frank-Wolfe gap is at most 1e-10,
    the target of the chart program's inner solves."""
    calls, inner = [], []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, f=getattr(np.linalg, name), **k:
                            calls.append(1) or f(*a, **k))

    def recording(omega, d_t, beta, gap, start=None,
                  _fn=channel_entropy._conditional_sigma):
        inner.append((omega, d_t, beta, _fn(omega, d_t, beta, gap, start)))
        return inner[-1][3]

    monkeypatch.setattr(channel_entropy, "_conditional_sigma", recording)
    ch, _ = order_one_instance("GEN")
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", alpha))
    assert len(inner) <= solves
    assert len(calls) <= most
    assert res.gap <= CHANNEL_GAP_TOL
    before, width = GEN_BEFORE[alpha]
    assert abs(res.value - before) <= width + res.gap
    monkeypatch.undo()
    omega, d_t, beta, sigma = inner[-1]
    ev = entropies._SigmaEvaluator(entropies._purifiers([omega], d_t), [0.0],
                                   beta.value)
    grad = ev.at(sigma, grad=True)[2]
    assert entropies._frank_wolfe_gap(grad, sigma) <= 1e-10


ORDER_ONE = {
    "CH4": (dict(inp=CH4["inp"], out=CH4["out"], seed=CH4["seed"],
                 kraus_rank=2), CH4["pin"]),
    "GEN": (dict(inp=(("A", 2),), out=(("T", 2),), seed=1, kraus_rank=2),
            None),
    "QS5": (dict(inp=(("A", 2),), out=(("T", 2), ("Y", 2)), seed=5,
                 kraus_rank=2), None),
}


def order_one_instance(name):
    kw, pin = ORDER_ONE[name]
    ch = random_channel(space(*kw["inp"]), space(*kw["out"]), seed=kw["seed"],
                        kraus_rank=kw["kraus_rank"])
    return ch, None if pin is None else pinned("A", pin)


@pytest.mark.parametrize("name", list(ORDER_ONE))
def test_order_one_route_matches_its_witness_and_the_divergence_oracle(name):
    """At order 1 each chart point is H(Z) - H(TZ) in closed form: the value
    is the entropy of the returned witness, and it agrees within the two
    widths with the minimized divergence of the conjugate form, which
    still runs the order-1 divergence kernel over (rho, sigma)."""
    ch, con = order_one_instance(name)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", 1.0,
                                                     constraint=con))
    assert res.method == "convex-program" and res.gap <= CHANNEL_GAP_TOL
    assert res.value == pytest.approx(
        entropy_at_witness(ch, "T", res.witness, 1.0), abs=1e-12)
    oracle = entropy_via_conjugate_divergence(ch, "T", con, 1.0)
    assert abs(res.value - oracle) \
        <= res.gap + CHANNEL_GAP_TOL * max(1.0, abs(oracle))
    if name == "CH4":
        assert res.value == pytest.approx(-0.6868801777, abs=1e-9)


@pytest.mark.parametrize("name", list(ORDER_ONE))
def test_order_one_route_forms_no_divergence_and_no_kronecker_product(
        name, monkeypatch):
    """Neither the divergence kernel nor ``np.kron`` runs in an order-1
    channel entropy, whether its L-BFGS certifies or is cut after its first
    step and raises: sigma = omega_Z is never formed as 1 (x) sigma, and
    no second optimizer takes over a run that falls short."""
    ch, con = order_one_instance(name)
    problem = ChannelEntropyProblem(ch, "T", 1.0, constraint=con)
    calls = []
    kernel = channel_entropy._divergence_with_grads
    monkeypatch.setattr(channel_entropy, "_divergence_with_grads",
                        lambda *a: calls.append("kernel") or kernel(*a))
    kron = np.kron
    monkeypatch.setattr(np, "kron",
                        lambda *a: calls.append("kron") or kron(*a))
    assert channel_cond_entropy(problem).gap <= CHANNEL_GAP_TOL
    first_step_only(monkeypatch)
    with pytest.raises(NonConvergence):
        channel_cond_entropy(problem)
    assert calls == []


def test_ch32_at_order_one_certifies():
    """CH32, the 32-dimensional reference input (A 4 x F 8 -> T 4 x Y 4,
    Kraus rank 4, A pinned), at order 1: one chart L-BFGS run certifies to
    the program's width target, and the value lies inside the interval
    [-1.9999340584, -1.9999310584] of the earlier route, whose first stage
    stopped after 500 steps and whose joint polish followed: it raised
    with widths of 1.4e-6 to 5.2e-6 on this instance and its rotations."""
    ch = random_channel(space(("A", 4), ("F", 8)), space(("T", 4), ("Y", 4)),
                        seed=3, kraus_rank=4)
    con = MarginalConstraint("A", random_density(space(("A", 4)), seed=5))
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", 1.0,
                                                     constraint=con))
    assert res.method == "convex-program"
    assert res.gap <= 1e-2 * CHANNEL_GAP_TOL
    assert -1.9999340584 <= res.value <= -1.9999310584


def pinned_second_argument():
    """M and N on qubit and two-qubit inputs, sigma pinned on B."""
    m = random_channel(space(("A", 2)), space(("T", 2)), seed=1, kraus_rank=2)
    n = random_channel(space(("B", 2), ("G", 2)), space(("T", 2)), seed=2,
                       kraus_rank=4)
    psi = random_density(space(("B", 2)), seed=4)
    return m, n, psi, (None, MarginalConstraint("B", psi))


def test_max_divergence_with_a_pinned_second_argument():
    """With sigma pinned on B, the scaled sigma of the alpha = inf program
    carries its marginal through a scale block; the value lies between the
    order-10 value (the divergence grows with the order) and D_max at the
    start pair, the maximally mixed rho and psi_B (x) 1_G / 2."""
    m, n, psi, cons = pinned_second_argument()
    at_two, at_five, at_ten, at_inf = (minimized_channel_divergence(
        m, n, cons, a) for a in (2.0, 5.0, 10.0, "inf"))
    rho0 = State(np.eye(2) / 2, space(("A", 2)))
    sig0 = psi.tensor(State(np.eye(2) / 2, space(("G", 2))))
    start = sandwiched_divergence(m.apply(rho0).matrix, n.apply(sig0).matrix,
                                  "inf")
    assert at_ten <= at_inf + 1e-6 <= start + 2e-6
    assert at_inf == pytest.approx(0.268612927, abs=1e-7)
    assert at_ten == pytest.approx(0.218048846, abs=2e-6)
    assert at_two <= at_five + 1e-6 and at_five <= at_ten + 1e-6


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
def test_divergence_of_a_channel_to_itself_vanishes(alpha):
    """M = N with the first input pinned and the second free: sigma = rho
    attains 0, and the divergence of two states is not negative, so the
    value, which lies within its width above the infimum 0, is in
    [0, CHANNEL_GAP_TOL]."""
    ch = random_channel(space(("A", 2), ("F", 2)), space(("T", 2)), seed=8,
                        kraus_rank=2)
    value = minimized_channel_divergence(ch, ch, (pinned("A", 9), None), alpha)
    assert -1e-12 <= value <= CHANNEL_GAP_TOL


def test_unconverged_divergence_raises_with_its_interval(monkeypatch):
    """The joint program cut after its first step raises with the value and
    a width whose interval still holds the optimum."""
    m, n, _, cons = pinned_second_argument()
    best = minimized_channel_divergence(m, n, cons, 2.0)
    first_step_only(monkeypatch)
    with pytest.raises(NonConvergence) as err:
        minimized_channel_divergence(m, n, cons, 2.0)
    assert err.value.gap > CHANNEL_GAP_TOL
    assert err.value.value - err.value.gap <= best <= err.value.value
