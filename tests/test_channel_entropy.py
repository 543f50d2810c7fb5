"""Channel conditional entropies at alpha = 1/2: pinned inputs, SDP pairs,
chain rule and additivity, on seeded qubit instances."""

import math

import numpy as np
import pytest

from renyimeat.channel_entropy import (
    ChannelEntropyProblem,
    MarginalConstraint,
    build_sdp_individual,
    build_sdp_joint,
    channel_cond_entropy,
    minimized_channel_divergence,
    product_feasibility_slack,
    solve_sdp_pair,
    verify_additivity,
    verify_chain_rule,
)
from renyimeat.channels import Channel
from renyimeat.entropies import cond_entropy_up
from renyimeat.errors import NonConvergence
from renyimeat.registers import State, space
from renyimeat.sampling import random_channel, random_density

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


def test_pinned_input_equals_entropy_of_the_purified_output():
    ch = random_channel(space(("A", 2)), space(("T", 2), ("Y", 2)), seed=21,
                        kraus_rank=2)
    con = pinned("A", 22)
    res = channel_cond_entropy(ChannelEntropyProblem(ch, "T", HALF,
                                                     constraint=con))
    out = ch.apply(con.state.purified("R"))
    want = cond_entropy_up(out, ["T"], ["Y", "R"], HALF)
    assert res.method == "pinned-input"
    # two purifications related by an isometry on R, each value certified
    # by its own fidelity SDP (duality gap ~1e-8)
    assert res.value == pytest.approx(want, abs=1e-7)


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


@pytest.mark.parametrize("seed", [50, 60])
def test_chain_rule_slack_is_nonnegative(seed):
    e1 = random_channel(space(("A", 2)), space(("T1", 2), ("X", 2)),
                        seed=seed, kraus_rank=2)
    e2 = random_channel(space(("X", 2), ("B", 2)), space(("T2", 2)),
                        seed=seed + 1, kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=seed + 2)
    phi = random_density(space(("B", 2)), seed=seed + 3)
    slack = verify_chain_rule(e1, e2, psi, phi, HALF, target1="T1",
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
