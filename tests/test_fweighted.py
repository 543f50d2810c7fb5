"""Tradeoff-weighted conditional entropies and the entropy-encoding register.

The frozen values below were cross-checked two independent ways while they
were generated: the structured per-branch evaluation against the generic
optimizer run on the register-extended state (agreement ~1e-12 at alpha = 2),
and the trivial-secret case against a hand-rolled log-mean-exponential of
per-branch entropies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from renyimeat import entropies
from renyimeat.channels import Isometry
from renyimeat.divergences import classical_renyi_entropy
from renyimeat.entropies import cond_entropy_up, two_sided_classmix
from renyimeat.errors import (DomainMismatch, InfeasibleSpec, InvalidRegister,
                              InvalidState, NonConvergence, NotClassical,
                              UnsupportedOrder)
from renyimeat.fweighted import (DRegisterSpec, TradeoffFunction,
                                 _mixture_weight, build_d_channel,
                                 fweighted_cs_conditioned, fweighted_entropy,
                                 lme, verify_createD)
from renyimeat.registers import State, classical_state, space
from renyimeat.sampling import random_channel, random_cq_state, random_density

LOG2E = math.log2(math.e)


def four_register_state():
    rng = np.random.default_rng(7)
    pr = rng.dirichlet(np.ones(4))
    sp4 = space(("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2))
    blocks = np.zeros((sp4.dim, sp4.dim), dtype=complex)
    k = 0
    for cb in range(2):
        for ch in range(2):
            b = random_density(space(("Q", 2), ("Qp", 2)), seed=100 + k)
            st_ = State(np.kron(np.outer(np.eye(2)[cb], np.eye(2)[cb]),
                                np.kron(np.outer(np.eye(2)[ch], np.eye(2)[ch]),
                                        b.matrix)),
                        space(("Cb", 2), ("Ch", 2), ("Q", 2), ("Qp", 2)),
                        check=False).reorder(["Q", "Cb", "Ch", "Qp"])
            blocks += pr[k] * st_.matrix
            k += 1
    return State(blocks, sp4)


RHO4 = four_register_state()
KW = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
          classical_target=["Cb"], classical_cond=["Ch"])
F = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])


# ------------------------------------------------------------ tradeoff tables


def test_tradeoff_lookup_and_bounds():
    assert F.value(0, 1) == pytest.approx(-0.4)
    assert F.value(1, 0) == pytest.approx(0.7)
    # singleton tuples collapse to their element (branch outcomes are tuples)
    assert F.value((0,), (1,)) == pytest.approx(-0.4)
    assert F.max_value == pytest.approx(0.7)
    assert F.min_value == pytest.approx(-0.4)


def test_tradeoff_domain_errors():
    with pytest.raises(DomainMismatch):
        F.value(2, 0)
    with pytest.raises(DomainMismatch):
        F.value(0, "x")
    with pytest.raises(DomainMismatch):
        TradeoffFunction([0, 0], [0], [[1.0], [2.0]])
    with pytest.raises(DomainMismatch):
        TradeoffFunction([0, 1], [0], [[1.0]])
    with pytest.raises(InvalidState):
        TradeoffFunction([0], [0], [[math.inf]])


def test_tradeoff_shift_and_json_roundtrip():
    g = F.shifted(0.5)
    assert g.value(0, 0) == pytest.approx(0.7)
    data = F.to_jsonable()
    back = TradeoffFunction.from_jsonable(data)
    np.testing.assert_allclose(back.values, F.values)
    assert back.alphabet_cs == F.alphabet_cs

    pub = TradeoffFunction.on_public([0, 1, 2], [0.3, -0.2, 0.5])
    back = TradeoffFunction.from_jsonable(pub.to_jsonable())
    assert back.alphabet_cs == ((),)
    assert back.value((), 2) == pytest.approx(0.5)


# -------------------------------------------------------- log-mean-exponential


def test_lme_anchors():
    assert lme([0.2, 0.8], [1.7, 1.7], 0.5) == pytest.approx(1.7, abs=1e-12)
    assert lme([0.0, 1.0], [5.0, -2.0], 3.0) == pytest.approx(-2.0, abs=1e-12)
    # uniform on {0,1}, g = identity, base 1/2: log_{1/2}(3/4)
    assert lme([0.5, 0.5], [0.0, 1.0], 0.5) \
        == pytest.approx(0.4150374992788438, abs=1e-12)


def test_lme_rejects_bad_input():
    with pytest.raises(InvalidState):
        lme([0.5, 0.5], [0.0, 1.0], 1.0)
    with pytest.raises(InvalidState):
        lme([0.5, 0.5], [0.0, 1.0], -2.0)
    with pytest.raises(InvalidState):
        lme([0.7, 0.7], [0.0, 1.0], 0.5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-5.0, 5.0)),
                min_size=1, max_size=5),
       st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_lme_between_extremes(pairs, base):
    raw = np.array([p for p, _ in pairs])
    probs = raw / raw.sum()
    vals = [v for _, v in pairs]
    out = lme(probs, vals, base)
    assert min(vals) - 1e-9 <= out <= max(vals) + 1e-9


# ------------------------------------------------------------- frozen values

FWEIGHTED_UP = [
    (0.5, 1.555177776199),
    (0.6, 1.487101099964),
    (2.0, 1.058533260614),
    (3.0, 0.954659858738),
]


@pytest.mark.parametrize("alpha,want", FWEIGHTED_UP)
def test_fweighted_frozen(alpha, want):
    got = fweighted_entropy(RHO4, F, alpha, **KW)
    assert got == pytest.approx(want, abs=2e-9)


def test_half_order_matches_its_per_outcome_fidelity_programs(
        sigma_extrema):
    """At 1/2 each public outcome's extremum over sigma, a tilted two-branch
    sum, agrees with its root-fidelity program built directly within the
    sum of the two widths, and so does the value within the widest sums."""
    got, seen = sigma_extrema(lambda: fweighted_entropy(RHO4, F, 0.5, **KW))
    want, oracle = sigma_extrema(lambda: fweighted_entropy(RHO4, F, 0.5, **KW),
                                 oracle=True)
    assert len(seen) == len(oracle) == 2
    for (log2_T, width), (log2_T_sdp, width_sdp) in zip(seen, oracle):
        assert width <= entropies.UP_GAP_TOL
        assert 2.0 * abs(log2_T - log2_T_sdp) <= width + width_sdp
    assert abs(got - want) <= max(w for _, w in seen) \
        + max(w for _, w in oracle)


def test_infinite_order_matches_its_per_outcome_covering_programs(
        sigma_extrema, sdp_solves):
    """At infinity each public outcome's extremum, a tilted two-branch
    covering, runs the sigma solve at 1/2 on its complement without an SDP,
    and agrees with its covering program built directly within the sum of
    the two widths, and so does the value within the widest sums."""
    got, seen = sigma_extrema(lambda: fweighted_entropy(RHO4, F, "inf", **KW))
    assert not sdp_solves
    want, oracle = sigma_extrema(
        lambda: fweighted_entropy(RHO4, F, "inf", **KW), oracle=True)
    assert len(seen) == len(oracle) == len(sdp_solves) == 2
    for (log2_t, width), (log2_t_sdp, width_sdp) in zip(seen, oracle):
        assert width <= entropies.UP_GAP_TOL
        assert abs(log2_t - log2_t_sdp) <= width + width_sdp
    assert abs(got - want) <= max(w for _, w in seen) \
        + max(w for _, w in oracle)


def test_unsolved_sigma_raises_with_its_duality_gap(monkeypatch):
    def stop_at_start(ev, sigma0):
        log2_T = ev.at(sigma0)[0]
        return log2_T, sigma0, ev.width(sigma0, log2_T)

    monkeypatch.setattr(entropies, "_optimize_sigma", stop_at_start)
    with pytest.raises(NonConvergence) as err:
        fweighted_entropy(RHO4, F, 2.0, **KW)
    assert entropies.UP_GAP_TOL < err.value.gap < math.inf


def test_fweighted_infinite_order():
    got = fweighted_entropy(RHO4, F, "inf", **KW)
    assert got == pytest.approx(0.690678808388, abs=1e-6)


def test_fweighted_down_infinite_order_closed_form():
    """At a = infinity the down variant is
    -log2 sum_cp p(cp) max_cs p(cs|cp) 2^f(cs,cp) lambda_max(S rho S), with
    rho the branch state on Q Q' and S = id_Q (x) rho_{Q'|cp}^(-1/2)."""
    parts = {}
    for (cb, ch), w, branch in RHO4.branches(["Cb", "Ch"]):
        parts.setdefault(ch, []).append((cb, w, branch.matrix))
    total = 0.0
    for ch, entries in parts.items():
        p_cp = sum(w for _, w, _ in entries)
        marg = sum(w / p_cp * np.trace(m.reshape(2, 2, 2, 2), axis1=0,
                                       axis2=2) for _, w, m in entries)
        vals, vecs = np.linalg.eigh(marg)
        S = np.kron(np.eye(2), (vecs / np.sqrt(vals)) @ vecs.conj().T)
        total += p_cp * max(
            w / p_cp * 2.0 ** F.value(cb, ch)
            * np.linalg.eigvalsh(S @ m @ S).max() for cb, w, m in entries)
    want = -math.log2(total)
    got = fweighted_entropy(RHO4, F, "inf", variant="down", **KW)
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(0.527973507627, abs=1e-9)


@pytest.mark.parametrize("alpha,want", [(0.6, 1.483105134278),
                                        (2.0, 1.048914582629)])
def test_fweighted_down_frozen(alpha, want):
    got = fweighted_entropy(RHO4, F, alpha, variant="down", **KW)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("alpha,want", [(0.8, 0.446791226664),
                                        (2.0, 0.155896868826)])
def test_cs_conditioned_frozen(alpha, want):
    got = fweighted_cs_conditioned(RHO4, F, alpha, **KW)
    assert got == pytest.approx(want, abs=2e-9)


# ---------------------------------------------------------------- reductions


def test_zero_tradeoff_is_the_plain_entropy():
    zero = TradeoffFunction([0, 1], [0, 1], np.zeros((2, 2)))
    for alpha in (0.6, 2.0):
        got = fweighted_entropy(RHO4, zero, alpha, **KW)
        want = two_sided_classmix(RHO4, alpha=alpha, **KW)
        assert got == pytest.approx(want, abs=1e-10)


def test_constant_tradeoff_shifts():
    zero = TradeoffFunction([0, 1], [0, 1], np.zeros((2, 2)))
    const = zero.shifted(0.37)
    for alpha in (0.6, 2.0):
        base = fweighted_entropy(RHO4, zero, alpha, **KW)
        got = fweighted_entropy(RHO4, const, alpha, **KW)
        assert got == pytest.approx(base - 0.37, abs=1e-10)


def test_normalization_shift_general_table():
    for alpha in (0.6, 2.0):
        base = fweighted_entropy(RHO4, F, alpha, **KW)
        got = fweighted_entropy(RHO4, F.shifted(-1.2), alpha, **KW)
        assert got == pytest.approx(base + 1.2, abs=1e-10)


def test_trivial_secret_matches_lme_form():
    rho = random_cq_state(space(("Ch", 3)), space(("Q", 2), ("Qp", 2)),
                          seed=11)
    fp = TradeoffFunction.on_public([0, 1, 2], [0.3, -0.2, 0.5])
    alpha = 2.0
    got = fweighted_entropy(rho, fp, alpha, target=["Q"],
                            conditioning=["Ch", "Qp"], classical_cond=["Ch"])
    probs, vals = [], []
    for outcome, w, br in rho.branches(["Ch"]):
        if br is None:
            continue
        probs.append(w)
        vals.append(cond_entropy_up(br, ["Q"], ["Qp"], alpha)
                    - fp.value((), outcome))
    want = lme(probs, vals, 2.0 ** ((1.0 - alpha) / alpha))
    assert got == pytest.approx(want, abs=1e-8)
    assert got == pytest.approx(-0.238526201996, abs=1e-8)


def test_single_outcome_is_entropy_minus_f():
    rho = random_density(space(("Q", 2), ("Qp", 2)), seed=19)
    tagged = classical_state([1.0], space(("Ch", 1))).tensor(rho)
    fp = TradeoffFunction.on_public([0], [0.45])
    got = fweighted_entropy(tagged, fp, 2.0, target=["Q"],
                            conditioning=["Ch", "Qp"], classical_cond=["Ch"])
    want = cond_entropy_up(rho, ["Q"], ["Qp"], 2.0) - 0.45
    assert got == pytest.approx(want, abs=1e-9)


# -------------------------------------------------------------------- errors


def test_orders_outside_domain_rejected():
    for alpha in (1.0, 1.0 + 1e-7, 0.4):
        with pytest.raises(UnsupportedOrder):
            fweighted_entropy(RHO4, F, alpha, **KW)


def test_order_just_below_half_is_order_half():
    """An order within ``HALF_WINDOW`` below 1/2 is accepted and gives the
    entropy at 1/2."""
    assert fweighted_entropy(RHO4, F, 0.5 - 1e-13, **KW) == pytest.approx(
        fweighted_entropy(RHO4, F, 0.5, **KW), abs=1e-12)


def test_nonclassical_register_rejected():
    rho = random_density(space(("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2)),
                         seed=23)
    with pytest.raises(NotClassical):
        fweighted_entropy(rho, F, 2.0, **KW)


def test_state_outside_domain_rejected():
    small = TradeoffFunction([0, 1], [0], [[0.1], [0.2]])
    with pytest.raises(DomainMismatch):
        fweighted_entropy(RHO4, small, 2.0, **KW)


def test_bad_labels_rejected():
    with pytest.raises(InvalidRegister):
        fweighted_entropy(RHO4, F, 2.0, target=["Q"], conditioning=["Ch", "Qp"],
                          classical_target=["Cb"], classical_cond=["Ch"])
    with pytest.raises(InvalidState):
        fweighted_entropy(RHO4, F, 2.0, variant="sideways", **KW)


# --------------------------------------------------- the D-register channel


def test_spec_invariants():
    with pytest.raises(InfeasibleSpec):
        DRegisterSpec(TradeoffFunction([0], [0], [[1.0]]), "exact", offset=0.5)
    with pytest.raises(InfeasibleSpec):
        DRegisterSpec(TradeoffFunction([0], [0], [[0.6]]), "dyadic", offset=1.0)
    with pytest.raises(InvalidState):
        DRegisterSpec(F, "sideways")
    spec = DRegisterSpec(F, "exact")
    assert spec.offset == pytest.approx(1.7)   # max f + 1
    np.testing.assert_allclose(spec.entropy_table, 1.7 - F.values)
    spec = DRegisterSpec(F, "dyadic")
    assert spec.offset == pytest.approx(3.4)   # 2 (max f + 1)


def prepared_states(chan, reader_space, out_label="D"):
    """Apply the channel to the flat classical reader state and read the
    per-outcome prepared blocks back out."""
    n = reader_space.dim
    flat = classical_state(np.full(n, 1.0 / n), reader_space)
    out = chan.apply(flat)
    got = {}
    for outcome, w, branch in out.branches(list(reader_space.labels)):
        assert w == pytest.approx(1.0 / n, abs=1e-12)
        got[outcome] = branch.matrix
    return got


def test_exact_unit_gap_prepares_maximally_mixed():
    spec = DRegisterSpec(TradeoffFunction.on_public([0], [0.0]), "exact",
                         offset=1.0)
    reader = space(("Ch", 1))
    chan = build_d_channel(spec, reader, public=["Ch"], alpha=2.0)
    taus = prepared_states(chan, reader)
    np.testing.assert_allclose(taus[(0,)], np.eye(2) / 2.0, atol=1e-12)


def test_exact_half_gap_mixing_weight():
    # H_2(diag((1+w)/2, (1-w)/2)) = 1/2 solves to w = sqrt(sqrt(2) - 1)
    spec = DRegisterSpec(TradeoffFunction.on_public([0], [0.5]), "exact",
                         offset=1.0)
    reader = space(("Ch", 1))
    chan = build_d_channel(spec, reader, public=["Ch"], alpha=2.0)
    taus = prepared_states(chan, reader)
    w = math.sqrt(math.sqrt(2.0) - 1.0)
    want = np.diag([(1.0 + w) / 2.0, (1.0 - w) / 2.0])
    np.testing.assert_allclose(taus[(0,)], want, atol=1e-11)


def _mixed_with_pure(u, d):
    probs = np.full(d, u / d)
    probs[0] = 1.0 - u * (d - 1) / d
    return probs


@pytest.mark.parametrize("alpha", [0.5, 2.0, "inf"])
@pytest.mark.parametrize("d", [2, 4, 7])
def test_mixture_weight_hits_its_target(alpha, d):
    """Targets from 1e-6 to just below log2(d), the two ends of the
    bracket, each met to 1e-9 of itself and to 1e-10."""
    for h in (1e-6, 1e-3, 0.05, 0.5, 1.0, math.log2(d) - 1e-3,
              math.log2(d) - 1e-9):
        u = _mixture_weight(h, d, alpha)
        assert 0.0 < u <= 1.0
        got = classical_renyi_entropy(_mixed_with_pure(u, d), alpha)
        assert abs(got - h) <= min(1e-10, 1e-9 * h)

        def gap(v):
            return classical_renyi_entropy(_mixed_with_pure(v, d), alpha) - h

        assert u == pytest.approx(bisect(gap, 0.0, 1.0, xtol=1e-12), abs=1e-11)
    assert _mixture_weight(math.log2(d), d, alpha) == 1.0
    with pytest.raises(InfeasibleSpec):
        _mixture_weight(math.log2(d) + 1e-9, d, alpha)


def test_dyadic_support_size():
    # M - f = 1.3 at M = 2.4: flat on ceil(2^1.3) = 3 points, and log2(3)
    # sits inside [1.3, 1.3 + 2^-1.2 log2 e]
    spec = DRegisterSpec(TradeoffFunction.on_public([0], [1.1]), "dyadic",
                         offset=2.4)
    reader = space(("Ch", 1))
    chan = build_d_channel(spec, reader, public=["Ch"])
    taus = prepared_states(chan, reader)
    diag = np.diag(taus[(0,)]).real
    assert np.count_nonzero(diag > 1e-12) == 3
    np.testing.assert_allclose(diag[:3], 1.0 / 3.0, atol=1e-12)
    assert 1.3 <= math.log2(3.0) <= 1.3 + 2.0 ** -1.2 * LOG2E


def test_dimension_cap():
    spec = DRegisterSpec(TradeoffFunction([0], [0], [[-19.0]]), "exact",
                         offset=1.0)
    with pytest.raises(InfeasibleSpec):
        build_d_channel(spec, space(("Ch", 1)), public=["Ch"], alpha=2.0)


def test_exact_mode_needs_an_order():
    spec = DRegisterSpec(F, "exact")
    reader = space(("Cb", 2), ("Ch", 2))
    with pytest.raises(UnsupportedOrder):
        build_d_channel(spec, reader, secret=["Cb"], public=["Ch"])
    with pytest.raises(InvalidRegister):
        build_d_channel(spec, reader, secret=["Cb"], public=["Cb"], alpha=2.0)


@pytest.mark.parametrize("alpha", [0.6, 2.0])
def test_createD_exact_identity(alpha):
    res = verify_createD(RHO4, F, alpha, mode="exact", **KW)
    assert res <= 1e-7


def test_createD_zero_tradeoff_normalization():
    zero = TradeoffFunction([0, 1], [0, 1], np.zeros((2, 2)))
    spec = DRegisterSpec(zero, "exact", offset=1.0)
    reader = RHO4.space.keep(["Cb", "Ch"])
    chan = build_d_channel(spec, reader, secret=["Cb"], public=["Ch"],
                           alpha=2.0)
    ext = chan.apply(RHO4)
    lhs = two_sided_classmix(ext, target=["D", "Q", "Cb"],
                             conditioning=["Ch", "Qp"],
                             classical_target=["D", "Cb"],
                             classical_cond=["Ch"], alpha=2.0)
    want = two_sided_classmix(RHO4, alpha=2.0, **KW)
    assert lhs - 1.0 == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.6, 2.0])
def test_createD_dyadic_interval(alpha):
    lo, hi = verify_createD(RHO4, F, alpha, mode="dyadic", **KW)
    assert lo >= -1e-8
    assert hi >= -1e-8
    width = 2.0 ** (-3.4 / 2.0) * LOG2E
    assert lo <= width + 1e-8


# ------------------------------------------------------------------ lemmas


def test_monotone_in_order():
    grid = [0.5, 0.9, 1.5, 4.0]
    vals = [fweighted_entropy(RHO4, F, a, **KW) for a in grid]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-9


@pytest.mark.parametrize("alpha,alpha_hat", [(0.6, 1.0 / 1.4), (2.0, "inf")])
def test_up_down_sandwich(alpha, alpha_hat):
    up = fweighted_entropy(RHO4, F, alpha, **KW)
    down = fweighted_entropy(RHO4, F, alpha, variant="down", **KW)
    up_hat = fweighted_entropy(RHO4, F, alpha_hat,
                               **KW)
    assert up >= down - 1e-8
    assert down >= up_hat - 1e-8


def test_data_processing_on_conditioning():
    before = fweighted_entropy(RHO4, F, 2.0, **KW)
    after = fweighted_entropy(RHO4.pinched(["Qp"]), F, 2.0, **KW)
    assert after >= before - 1e-8

    iso_mat = np.zeros((4, 2), dtype=complex)
    iso_mat[0, 0] = 1.0
    iso_mat[2, 1] = 1.0
    iso = Isometry(iso_mat, space(("Qp", 2)), space(("Qp", 2), ("N", 2)))
    widened = iso.as_channel().apply(RHO4)
    same = fweighted_entropy(widened, F, 2.0, target=["Q", "Cb"],
                             conditioning=["Ch", "Qp", "N"],
                             classical_target=["Cb"], classical_cond=["Ch"])
    assert same == pytest.approx(before, abs=1e-8)


def test_classical_conditioning_on_extra_register():
    """An extra classical register in the conditioning (outside f's domain)
    decomposes the value as an lme over its branches."""
    rng = np.random.default_rng(21)
    pz = rng.dirichlet(np.ones(2))
    parts, blocks5 = [], None
    sp5 = space(("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2), ("Z", 2))
    blocks5 = np.zeros((sp5.dim, sp5.dim), dtype=complex)
    for z in range(2):
        rngz = np.random.default_rng(300 + z)
        przz = rngz.dirichlet(np.ones(4))
        blocks = np.zeros((16, 16), dtype=complex)
        k = 0
        for cb in range(2):
            for ch in range(2):
                b = random_density(space(("Q", 2), ("Qp", 2)),
                                   seed=400 + 4 * z + k)
                st_ = State(np.kron(np.outer(np.eye(2)[cb], np.eye(2)[cb]),
                                    np.kron(np.outer(np.eye(2)[ch],
                                                     np.eye(2)[ch]),
                                            b.matrix)),
                            space(("Cb", 2), ("Ch", 2), ("Q", 2), ("Qp", 2)),
                            check=False).reorder(["Q", "Cb", "Ch", "Qp"])
                blocks += przz[k] * st_.matrix
                k += 1
        parts.append(State(blocks, space(("Q", 2), ("Cb", 2), ("Ch", 2),
                                         ("Qp", 2))))
        blocks5 += pz[z] * np.kron(blocks, np.outer(np.eye(2)[z],
                                                    np.eye(2)[z]))
    rho5 = State(blocks5, sp5)

    alpha = 2.0
    got = fweighted_entropy(rho5, F, alpha, target=["Q", "Cb"],
                            conditioning=["Ch", "Qp", "Z"],
                            classical_target=["Cb"], classical_cond=["Ch"])
    per_z = [fweighted_entropy(parts[z], F, alpha, **KW)
             for z in range(2)]
    want = lme(pz, per_z, 2.0 ** ((1.0 - alpha) / alpha))
    assert got == pytest.approx(want, abs=1e-8)


def _third_order(ap, app):
    t = ap / (ap - 1.0) + app / (app - 1.0)
    return t / (t - 1.0)


def test_chain_rule_with_conditioned_secret():
    """alpha/(alpha-1) = alpha'/(alpha'-1) + alpha''/(alpha''-1) splits the
    weighted entropy into a secret-conditioned part plus a plain entropy of
    the secret register, with the direction set by the orders' sign."""
    for ap, app in [(2.0, 3.0), (0.8, 0.9)]:
        al = _third_order(ap, app)
        sign = (al - 1.0) * (ap - 1.0) * (app - 1.0)
        lhs = fweighted_entropy(RHO4, F, al, **KW)
        mid = fweighted_cs_conditioned(RHO4, F, ap, **KW)
        tail = cond_entropy_up(RHO4, ["Cb"], ["Ch", "Qp"], app)
        slack = (lhs - mid - tail) * (1.0 if sign > 0 else -1.0)
        assert slack >= -1e-7


def test_chain_rule_with_extra_register():
    sp5r = space(("R", 2), ("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2))
    rngr = np.random.default_rng(9)
    prr = rngr.dirichlet(np.ones(4))
    blocks_r = np.zeros((sp5r.dim, sp5r.dim), dtype=complex)
    k = 0
    for cb in range(2):
        for ch in range(2):
            b = random_density(space(("R", 2), ("Q", 2), ("Qp", 2)),
                               seed=500 + k)
            st_ = State(np.kron(np.kron(np.outer(np.eye(2)[cb], np.eye(2)[cb]),
                                        np.outer(np.eye(2)[ch], np.eye(2)[ch])),
                                b.matrix),
                        space(("Cb", 2), ("Ch", 2), ("R", 2), ("Q", 2),
                              ("Qp", 2)),
                        check=False).reorder(["R", "Q", "Cb", "Ch", "Qp"])
            blocks_r += prr[k] * st_.matrix
            k += 1
    rho5r = State(blocks_r, sp5r)

    ap, app = 2.0, 3.0
    al = _third_order(ap, app)   # 1.4, all three orders above 1
    lhs = fweighted_entropy(rho5r, F, al, target=["R", "Q", "Cb"],
                            conditioning=["Ch", "Qp"],
                            classical_target=["Cb"], classical_cond=["Ch"])
    mid = fweighted_entropy(rho5r, F, ap, target=["Q", "Cb"],
                            conditioning=["Ch", "Qp", "R"],
                            classical_target=["Cb"], classical_cond=["Ch"])
    tail = cond_entropy_up(rho5r, ["R"], ["Ch", "Qp"], app)
    assert lhs - mid - tail >= -1e-7


def test_purified_input_convexity():
    chan = random_channel(space(("Qt", 2)),
                          space(("S", 2), ("E", 2), ("Cb", 2), ("Ch", 2)),
                          seed=77, kraus_rank=2)
    f = TradeoffFunction([0, 1], [0, 1], [[0.1, -0.3], [0.4, 0.0]])

    def functional(omega):
        out = chan.apply(omega.purified("Et")).pinched(["Cb", "Ch"])
        return fweighted_entropy(out, f, 1.5, target=["S", "Cb"],
                                 conditioning=["Ch", "E", "Et"],
                                 classical_target=["Cb"],
                                 classical_cond=["Ch"])

    w1 = random_density(space(("Qt", 2)), seed=61)
    w2 = random_density(space(("Qt", 2)), seed=62)
    f1, f2 = functional(w1), functional(w2)
    for t in (0.25, 0.5, 0.75):
        mix = State(t * w1.matrix + (1.0 - t) * w2.matrix, w1.space)
        assert t * f1 + (1.0 - t) * f2 - functional(mix) >= -1e-7

    # any extension with the same marginal carries at least as much entropy
    ext = random_density(space(("Qt", 2), ("Et", 2)), seed=88)
    out_ext = chan.apply(ext).pinched(["Cb", "Ch"])
    h_ext = fweighted_entropy(out_ext, f, 1.5, target=["S", "Cb"],
                              conditioning=["Ch", "E", "Et"],
                              classical_target=["Cb"], classical_cond=["Ch"])
    assert h_ext - functional(ext.partial_trace(keep=["Qt"])) >= -1e-8
