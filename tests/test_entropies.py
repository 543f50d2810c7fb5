"""Conditional Renyi entropies: the optimized ("up") and plain ("down")
variants, classical-mixture decompositions, and the dual pairing on pure
tripartite states.

Optimizer values are pinned against an independent Nelder-Mead oracle run
(direct simplex search over a Cholesky parametrization of the conditioning
state, fatol 1e-13); the frozen literals below agree with that oracle to
better than 1e-12.
"""

import math
import sys

import numpy as np
import pytest

from conftest import _branch_programs
from renyimeat import entropies, fweighted, sdp
from renyimeat.entropies import (
    UP_GAP_TOL,
    alpha_entropy,
    check_duality,
    classmix_down,
    classmix_up,
    cond_entropy_down,
    cond_entropy_up,
    renyi_branch_mix,
    two_sided_classmix,
    von_neumann_entropy,
)
from renyimeat.errors import (InvalidRegister, NonConvergence, NotClassical,
                              NotPure, UnsupportedOrder)
from renyimeat.fweighted import (TradeoffFunction, fweighted_cs_conditioned,
                                 fweighted_entropy, lme)
from renyimeat.divergences import LN2, SUPPORT_TOL, sandwiched_divergence
from renyimeat.marginals import (_covering_program, _fidelity_program,
                                 _InputChart)
from renyimeat.registers import (EIG_CUT, State, _power_frechet_map,
                                 bipartite_partial_trace, herm_part,
                                 herm_power, ket_state, space)
from renyimeat.sampling import (random_cq_state, random_density,
                                random_isometry, random_pure)

ALPHAS = [0.5, 0.75, 1.0, 2.0, 5.0, "inf"]


def bell():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return ket_state(v, space(("A", 2), ("B", 2)))


def copy_state(probs):
    """Classical perfectly-correlated state sum_x p(x) |xx><xx| on A,B."""
    d = len(probs)
    sp = space(("A", d), ("B", d))
    mat = np.zeros((d * d, d * d))
    for x, p in enumerate(probs):
        mat[x * d + x, x * d + x] = p
    return State(mat, sp)


# ------------------------------------------------------- unconditioned forms


def test_alpha_entropy_uniform():
    for a in ALPHAS:
        assert alpha_entropy(np.eye(4) / 4.0, a) == pytest.approx(2.0, abs=1e-12)


def test_alpha_entropy_known_spectrum():
    mat = np.diag([0.75, 0.25])
    # H_2 = -log2(9/16 + 1/16) = log2(8/5)
    assert alpha_entropy(mat, 2.0) == pytest.approx(math.log2(1.6), abs=1e-12)
    assert alpha_entropy(mat, "inf") == pytest.approx(math.log2(4.0 / 3.0),
                                                      abs=1e-12)
    h1 = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert alpha_entropy(mat, 1.0) == pytest.approx(h1, abs=1e-12)
    assert von_neumann_entropy(mat) == pytest.approx(h1, abs=1e-12)


def test_branch_mix_limits():
    probs = [0.25, 0.75]
    values = [1.0, 3.0]
    # alpha = 1 is the plain expectation in both variants
    for variant in ("up", "down"):
        assert renyi_branch_mix(probs, values, 1.0, variant=variant) \
            == pytest.approx(2.5, abs=1e-12)
    # alpha = inf: the up variant soft-mins through the weights, the down
    # variant is the exact minimum over branches of positive probability
    assert renyi_branch_mix(probs, values, "inf", variant="down") \
        == pytest.approx(1.0, abs=1e-12)
    up_inf = renyi_branch_mix(probs, values, "inf", variant="up")
    assert up_inf == pytest.approx(-math.log2(0.25 * 0.5 + 0.75 * 0.125),
                                   abs=1e-12)


def test_branch_mix_skips_zero_probability():
    base = renyi_branch_mix([0.5, 0.5], [1.0, 2.0], 2.0, variant="up")
    padded = renyi_branch_mix([0.5, 0.0, 0.5], [1.0, -50.0, 2.0], 2.0,
                              variant="up")
    assert padded == pytest.approx(base, abs=1e-12)


def test_branch_mix_hand_value():
    # up:   (a/(1-a)) log2 sum p 2^{h (1-a)/a}  with a = 2
    got = renyi_branch_mix([0.25, 0.75], [1.0, 3.0], 2.0, variant="up")
    want = -2.0 * math.log2(0.25 * 2.0 ** -0.5 + 0.75 * 2.0 ** -1.5)
    assert got == pytest.approx(want, abs=1e-12)
    # down: (1/(1-a)) log2 sum p 2^{h (1-a)}
    got = renyi_branch_mix([0.25, 0.75], [1.0, 3.0], 2.0, variant="down")
    want = -math.log2(0.25 * 0.5 + 0.75 * 0.125)
    assert got == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------ exact anchors


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bell_state_conditional_entropy(alpha):
    """Maximally entangled qubits: H_a(A|B) = -1 for every order."""
    psi = bell()
    assert cond_entropy_down(psi, ["A"], ["B"], alpha) \
        == pytest.approx(-1.0, abs=1e-9)
    assert cond_entropy_up(psi, ["A"], ["B"], alpha) \
        == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_product_state_reduces_to_marginal_entropy(alpha):
    rho_a = random_density(space(("A", 2)), seed=5)
    rho_b = random_density(space(("B", 3)), seed=6)
    prod = rho_a.tensor(rho_b)
    want = alpha_entropy(rho_a.matrix, alpha)
    assert cond_entropy_down(prod, ["A"], ["B"], alpha) \
        == pytest.approx(want, abs=1e-8)
    assert cond_entropy_up(prod, ["A"], ["B"], alpha) \
        == pytest.approx(want, abs=1e-8)


def test_copy_state_has_zero_conditional_entropy():
    rho = copy_state([0.3, 0.7])
    for alpha in ALPHAS:
        assert cond_entropy_up(rho, ["A"], ["B"], alpha) \
            == pytest.approx(0.0, abs=1e-8)


def test_trivial_conditioning_is_the_plain_entropy():
    rho = random_density(space(("A", 3)), seed=9)
    for alpha in [0.6, 2.0, "inf"]:
        want = alpha_entropy(rho.matrix, alpha)
        got, info = cond_entropy_up(rho, ["A"], [], alpha, return_info=True)
        assert got == pytest.approx(want, abs=1e-12)
        assert info["method"] == "unconditioned"


# ------------------------------------------------- frozen optimizer values

# Independent oracle: scipy Nelder-Mead over a Cholesky parametrization of
# the conditioning state (8 random starts, fatol 1e-13).  Values frozen from
# that run; the production optimizer must land on the same optima.
HUP_ORACLE = [
    (2, 101, 0.6, 0.499356163062),
    (2, 101, 2.0, 0.000870586044),
    (2, 101, 3.0, -0.125352936345),
    (3, 202, 0.6, 0.491327924238),
    (3, 202, 2.0, 0.183704790699),
    (3, 202, 3.0, 0.104017849855),
]


@pytest.mark.parametrize("d_b,seed,alpha,want", HUP_ORACLE)
def test_optimized_entropy_matches_simplex_oracle(d_b, seed, alpha, want):
    rho = random_density(space(("A", 2), ("B", d_b)), seed=seed)
    got = cond_entropy_up(rho, ["A"], ["B"], alpha)
    assert got == pytest.approx(want, abs=2e-9)


def test_alpha_one_is_the_von_neumann_difference():
    rho = random_density(space(("A", 2), ("B", 3)), seed=17)
    evs_ab = np.linalg.eigvalsh(rho.matrix)
    evs_b = np.linalg.eigvalsh(rho.partial_trace(keep=["B"]).matrix)

    def shannon(v):
        v = v[v > 1e-15]
        return float(-(v * np.log2(v)).sum())

    want = shannon(evs_ab) - shannon(evs_b)
    assert cond_entropy_down(rho, ["A"], ["B"], 1.0) \
        == pytest.approx(want, abs=1e-10)
    got, info = cond_entropy_up(rho, ["A"], ["B"], 1.0, return_info=True)
    assert got == pytest.approx(want, abs=1e-10)
    assert info["method"] == "spectral"


def test_method_dispatch():
    rho = random_density(space(("A", 2), ("B", 2)), seed=3)
    _, info = cond_entropy_up(rho, ["A"], ["B"], "inf", return_info=True)
    assert info["method"] == "fixed-point"
    _, info = cond_entropy_up(rho, ["A"], ["B"], 0.5, return_info=True)
    assert info["method"] == "fixed-point"
    _, info = cond_entropy_up(rho, ["A"], ["B"], 2.0, return_info=True)
    assert info["method"] == "fixed-point"
    assert info["gap"] <= UP_GAP_TOL


@pytest.mark.parametrize("alpha", [0.7, 0.9, 0.99, 1.01, 1.1, 2.0, 6.0])
def test_classical_state_matches_closed_form_within_its_gap(alpha):
    """For a diagonal p(a, b), H^up_a(A|B) =
    a/(1-a) log2 sum_b (sum_a p(a, b)^a)^(1/a); the returned value must sit
    within its own certified interval of it."""
    p = np.random.default_rng(23).dirichlet(np.ones(9)).reshape(3, 3)
    rho = State(np.diag(p.reshape(-1)), space(("A", 3), ("B", 3)))
    want = alpha / (1.0 - alpha) * math.log2(
        np.sum(np.sum(p ** alpha, axis=0) ** (1.0 / alpha)))
    got, info = cond_entropy_up(rho, ["A"], ["B"], alpha, return_info=True)
    assert abs(got - want) <= info["gap"] + 1e-12


@pytest.mark.parametrize("alpha", [0.51, 0.55, 0.6])
def test_rank_deficient_input_is_invariant_under_local_unitaries(alpha):
    """Eigenvalues of G at rounding level would add (1e-17)^a to T for a < 1
    and move the value by up to 1e-8 under a change of local basis."""
    for seed in range(300, 306):
        psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=seed)
        rho = psi.marginal(["A", "B"])
        u = np.kron(random_isometry(2, 2, seed=seed),
                    random_isometry(2, 2, seed=seed + 1))
        turned = State(u @ rho.matrix @ u.conj().T, rho.space, check=False)
        assert cond_entropy_up(turned, ["A"], ["B"], alpha) == pytest.approx(
            cond_entropy_up(rho, ["A"], ["B"], alpha), abs=1e-11)


def _stop_at_start(ev, sigma0):
    """A sigma solve that returns its start unmoved, with its honest width."""
    log2_T = ev.at(sigma0)[0]
    return log2_T, sigma0, ev.width(sigma0, log2_T)


def test_unsolved_sigma_raises_with_its_duality_gap(monkeypatch):
    monkeypatch.setattr(entropies, "_optimize_sigma", _stop_at_start)
    rho = random_density(space(("A", 2), ("B", 3)), seed=202)
    with pytest.raises(NonConvergence) as err:
        cond_entropy_up(rho, ["A"], ["B"], 2.0)
    assert UP_GAP_TOL < err.value.gap < math.inf
    with pytest.raises(NonConvergence) as err:
        two_sided_classmix(four_register_state(), target=["Q", "Cb"],
                           conditioning=["Ch", "Qp"], classical_target=["Cb"],
                           classical_cond=["Ch"], alpha=2.0)
    assert UP_GAP_TOL < err.value.gap < math.inf


def test_near_half_order_takes_the_sigma_route(sigma_extrema, sdp_solves):
    """An order within ``HALF_WINDOW`` of 1/2 runs the same sigma solve as
    1/2 itself, one extremum and no root-fidelity program."""
    rho = random_density(space(("A", 2), ("B", 2)), seed=3)
    at_half = cond_entropy_up(rho, ["A"], ["B"], 0.5)
    (near, info), seen = sigma_extrema(lambda: cond_entropy_up(
        rho, ["A"], ["B"], 0.5 + 1e-13, return_info=True))
    assert len(seen) == 1
    assert not sdp_solves
    assert info["method"] == "fixed-point"
    assert near == pytest.approx(at_half, abs=1e-9)


HALF_STATES = {
    "bell": bell,
    "quarter": lambda: State(np.eye(4) / 4.0, space(("A", 2), ("B", 2))),
    "cq": lambda: random_cq_state(space(("A", 2)), space(("B", 3)), seed=31),
    **{f"{d_a}x4-rank{rank or 'full'}": (
        lambda d_a=d_a, rank=rank: random_density(
            space(("A", d_a), ("B", 4)), seed=30 + d_a, rank=rank))
       for d_a in (2, 4) for rank in (1, 2, 3, None)},
}


@pytest.mark.parametrize("case", list(HALF_STATES))
def test_sigma_route_matches_the_fidelity_program_at_half(
        case, sigma_extrema, sdp_solves):
    """At 1/2 the sigma solve and the root-fidelity program of the same
    extremum, built directly, agree within the sum of their widths, and the
    sigma solve makes no SDP (on the 16-dimensional states too).  Bell is
    -1 and the maximally mixed 2x2 state 1."""
    rho = HALF_STATES[case]()
    (got, info), seen = sigma_extrema(lambda: cond_entropy_up(
        rho, ["A"], ["B"], 0.5, return_info=True))
    assert len(seen) == 1 and info["method"] == "fixed-point"
    assert not sdp_solves
    (want, oracle), _ = sigma_extrema(lambda: cond_entropy_up(
        rho, ["A"], ["B"], 0.5, return_info=True), oracle=True)
    assert len(sdp_solves) == 1
    assert info["gap"] <= UP_GAP_TOL and oracle["gap"] <= UP_GAP_TOL
    assert abs(got - want) <= info["gap"] + oracle["gap"]
    exact = {"bell": -1.0, "quarter": 1.0}.get(case)
    if exact is not None:
        assert abs(got - exact) <= info["gap"] + 1e-12


INF_STATES = {
    **{f"{d_a}x{d_b}-rank{rank or 'full'}-seed{seed}": (
        lambda d_a=d_a, d_b=d_b, rank=rank, seed=seed: (random_density(
            space(("A", d_a), ("B", d_b)), seed=seed, rank=rank),
            ["A"], ["B"]))
       for d_a, d_b in ((2, 2), (2, 4), (4, 4), (2, 8))
       for rank in (1, 2, None) for seed in (9, 11)},
    "cq": lambda: (random_cq_state(space(("A", 2)), space(("B", 3)), seed=31),
                   ["A"], ["B"]),
    "rho4": lambda: (four_register_state(), ["Q", "Cb"], ["Ch", "Qp"]),
}


@pytest.mark.parametrize("case", list(INF_STATES))
def test_sigma_route_matches_the_covering_program_at_inf(
        case, sigma_extrema, sdp_solves):
    """At infinity the sigma solve at 1/2 on the complement and the
    covering program of the same extremum, built directly, agree within the
    sum of their widths, and the sigma solve makes no SDP.  The returned
    sigma is the closed-form dual point, at which -D_max(rho || 1 (x) sigma)
    is the value."""
    rho, target, cond = INF_STATES[case]()
    (got, info), seen = sigma_extrema(lambda: cond_entropy_up(
        rho, target, cond, "inf", return_info=True))
    assert len(seen) == 1 and info["method"] == "fixed-point"
    assert not sdp_solves
    (want, oracle), _ = sigma_extrema(lambda: cond_entropy_up(
        rho, target, cond, "inf", return_info=True), oracle=True)
    assert len(sdp_solves) == 1
    assert info["gap"] <= UP_GAP_TOL and oracle["gap"] <= UP_GAP_TOL
    assert abs(got - want) <= info["gap"] + oracle["gap"]
    d_t = rho.matrix.shape[0] // info["sigma"].shape[0]
    at_sigma = -sandwiched_divergence(
        rho.matrix, np.kron(np.eye(d_t), info["sigma"]), "inf")
    assert at_sigma == pytest.approx(got, abs=1e-12)


def test_state_entropies_at_inf_make_no_sdp(sdp_solves):
    """No state quantity at infinity builds an SDP: H^up, the classical
    mixtures and the f-weighted entropy all run the sigma solve."""
    cab = cab_state()
    rho = four_register_state()
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    cond_entropy_up(cab, ["A"], ["B"], "inf")
    cond_entropy_up(rho, ["Q", "Cb"], ["Ch", "Qp"], "inf")
    classmix_up(cab, ["A"], ["C", "B"], ["C"], "inf")
    two_sided_classmix(rho, alpha="inf", **kw)
    fweighted_entropy(rho, f, "inf", **kw)
    assert not sdp_solves


# ------------------------------------------------------- order and variants


def test_up_dominates_down():
    for seed in range(4):
        rho = random_density(space(("A", 2), ("B", 2)), seed=40 + seed)
        for alpha in [0.5, 0.8, 2.0, 4.0, "inf"]:
            up = cond_entropy_up(rho, ["A"], ["B"], alpha)
            down = cond_entropy_down(rho, ["A"], ["B"], alpha)
            assert up >= down - 1e-9


def test_monotone_in_alpha():
    rho = random_density(space(("A", 2), ("B", 2)), seed=77)
    grid = [0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 16.0, "inf"]
    ups = [cond_entropy_up(rho, ["A"], ["B"], a) for a in grid]
    downs = [cond_entropy_down(rho, ["A"], ["B"], a) for a in grid]
    for lo, hi in zip(ups, ups[1:]):
        assert hi <= lo + 1e-9
    for lo, hi in zip(downs, downs[1:]):
        assert hi <= lo + 1e-9


def test_dimension_bounds():
    for seed in range(3):
        rho = random_density(space(("A", 3), ("B", 2)), seed=60 + seed)
        for alpha in [0.5, 2.0, "inf"]:
            for fn in (cond_entropy_up, cond_entropy_down):
                h = fn(rho, ["A"], ["B"], alpha)
                assert -math.log2(3.0) - 1e-9 <= h <= math.log2(3.0) + 1e-9


def test_data_processing_on_conditioning():
    """A channel on the conditioning register cannot decrease H_a(A|B)."""
    from renyimeat.channels import Channel

    def dephased(st):
        return st.pinched(["B"])

    for seed in range(3):
        rho = random_density(space(("A", 2), ("B", 2)), seed=80 + seed)
        out = dephased(rho)
        for alpha in [0.5, 1.0, 2.0, "inf"]:
            before_up = cond_entropy_up(rho, ["A"], ["B"], alpha)
            after_up = cond_entropy_up(out, ["A"], ["B"], alpha)
            assert after_up >= before_up - 1e-8
            before_dn = cond_entropy_down(rho, ["A"], ["B"], alpha)
            after_dn = cond_entropy_down(out, ["A"], ["B"], alpha)
            assert after_dn >= before_dn - 1e-8


# -------------------------------------------------------------------- duality


@pytest.mark.parametrize("alpha", [2.0, 1.0, "inf"])
def test_duality_on_pure_states(alpha):
    for seed in (1, 2):
        psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=seed)
        lhs, rhs, resid = check_duality(psi, alpha)
        assert resid <= 1e-6
        assert lhs == pytest.approx(-rhs, abs=1e-6)


def test_duality_rejects_mixed_states():
    rho = random_density(space(("A", 2), ("B", 2), ("C", 2)), seed=4)
    with pytest.raises(NotPure):
        check_duality(rho, 2.0)


def test_duality_rejects_small_orders():
    psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=4)
    with pytest.raises(UnsupportedOrder):
        check_duality(psi, 0.3)


def test_duality_just_below_half_is_duality_at_half():
    """An order within ``HALF_WINDOW`` below 1/2 pairs with infinity and
    gives the values of 1/2."""
    psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=1)
    assert check_duality(psi, 0.5 - 1e-13) == pytest.approx(
        check_duality(psi, 0.5), abs=1e-12)


# --------------------------------------------------------------------- errors


def test_nonpositive_orders_rejected():
    rho = random_density(space(("A", 2), ("B", 2)), seed=1)
    with pytest.raises(UnsupportedOrder):
        cond_entropy_up(rho, ["A"], ["B"], 0.0)
    with pytest.raises(UnsupportedOrder):
        cond_entropy_down(rho, ["A"], ["B"], -1.0)


def test_unknown_register_rejected():
    rho = random_density(space(("A", 2), ("B", 2)), seed=1)
    with pytest.raises(InvalidRegister):
        cond_entropy_up(rho, ["Z"], ["B"], 2.0)


def test_nonconvergence_carries_diagnostics():
    err = NonConvergence("spread too large", value=0.25, gap=3e-4)
    assert err.value == 0.25
    assert err.gap == pytest.approx(3e-4)


# -------------------------------------------------- classical decompositions


def cab_state():
    """C-classical mixture of two random two-qubit blocks (weights .3/.7)."""
    b0 = random_density(space(("A", 2), ("B", 2)), seed=31)
    b1 = random_density(space(("A", 2), ("B", 2)), seed=32)
    e0 = np.outer(np.eye(2)[0], np.eye(2)[0])
    e1 = np.outer(np.eye(2)[1], np.eye(2)[1])
    mat = 0.3 * np.kron(e0, b0.matrix) + 0.7 * np.kron(e1, b1.matrix)
    return State(mat, space(("C", 2), ("A", 2), ("B", 2)))


CLASSMIX_UP = [
    (0.5, 0.645988069273),
    (0.6, 0.586337187805),
    (2.0, 0.225088874043),
    (3.0, 0.153048387201),
    ("inf", -0.045787726609),
]

CLASSMIX_DOWN = [
    (0.6, 0.578118813485),
    (2.0, 0.202995964040),
    (3.0, 0.098358114532),
]


@pytest.mark.parametrize("alpha,want", CLASSMIX_UP)
def test_classmix_up_frozen(alpha, want):
    got = classmix_up(cab_state(), ["A"], ["C", "B"], ["C"], alpha)
    assert got == pytest.approx(want, abs=2e-9)


@pytest.mark.parametrize("alpha,want", CLASSMIX_DOWN)
def test_classmix_down_frozen(alpha, want):
    got = classmix_down(cab_state(), ["A"], ["C", "B"], ["C"], alpha)
    assert got == pytest.approx(want, abs=1e-9)


def test_classmix_agrees_with_direct_evaluation():
    """classmix_up against the optimizer blind to C; classmix_down (which
    evaluates the whole state) against its per-branch decomposition."""
    rho = random_cq_state(space(("C", 3)), space(("A", 2), ("B", 2)), seed=55)
    for alpha in [0.6, 2.0]:
        via_mix = classmix_up(rho, ["A"], ["C", "B"], ["C"], alpha)
        direct = cond_entropy_up(rho, ["A"], ["C", "B"], alpha)
        assert via_mix == pytest.approx(direct, abs=1e-7)
        via_mix = classmix_down(rho, ["A"], ["C", "B"], ["C"], alpha)
        probs, values = _branch_values(rho, cond_entropy_down, alpha)
        per_branch = renyi_branch_mix(probs, values, alpha, variant="down")
        assert via_mix == pytest.approx(per_branch, abs=1e-9)


def _branch_values(rho, entropy, alpha):
    """Branch weights of the C-classical state on (C, A, B) and the values
    entropy(branch, A | B, alpha)."""
    probs, values = [], []
    for _outcome, w, branch in rho.branches(["C"]):
        probs.append(w)
        values.append(entropy(branch, ["A"], ["B"], alpha))
    return probs, values


@pytest.fixture
def mix_runs(monkeypatch):
    """Every result (value, width, sigmas) of the two-sided mixture, from
    whichever module calls it."""
    runs = []
    mix = entropies._two_sided_mix

    def spy(*args, **kw):
        runs.append(mix(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(entropies, "_two_sided_mix", spy)
    monkeypatch.setattr(fweighted, "_two_sided_mix", spy)
    return runs


@pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0, "inf"])
def test_classmix_matches_its_branch_decomposition(alpha, mix_runs):
    """Per-branch H^up (H_a) combined by the "up" ("down") branch mix, each
    within the widths of both routes."""
    rho = random_cq_state(space(("C", 3)), space(("A", 2), ("B", 2)), seed=55)
    probs, ups = _branch_values(
        rho, lambda *a: cond_entropy_up(*a, return_info=True), alpha)
    mix_runs.clear()
    want = renyi_branch_mix(probs, [h for h, _ in ups], alpha, variant="up")
    got = classmix_up(rho, ["A"], ["C", "B"], ["C"], alpha)
    (_, width, _), = mix_runs
    assert abs(got - want) <= width + max(i["gap"] for _, i in ups) + 1e-12
    probs, values = _branch_values(rho, cond_entropy_down, alpha)
    want = renyi_branch_mix(probs, values, alpha, variant="down")
    assert classmix_down(rho, ["A"], ["C", "B"], ["C"], alpha) \
        == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0, "inf"])
def test_cs_conditioned_matches_its_branch_decomposition(alpha, mix_runs):
    """The lme at base 2^((1-a)/a) of H^up_a(Q|Qp) - f over the joint
    outcomes, within the widths of both routes."""
    rho = four_register_state()
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    probs, values, widths = [], [], []
    for (cb, ch), w, branch in rho.branches(["Cb", "Ch"]):
        h, info = cond_entropy_up(branch, ["Q"], ["Qp"], alpha,
                                  return_info=True)
        probs.append(w)
        values.append(h - f.value(cb, ch))
        widths.append(info["gap"])
    mix_runs.clear()
    want = lme(probs, values,
               0.5 if alpha == "inf" else 2.0 ** ((1 - alpha) / alpha))
    got = fweighted_cs_conditioned(rho, f, alpha, target=["Q", "Cb"],
                                   conditioning=["Ch", "Qp"],
                                   classical_target=["Cb"],
                                   classical_cond=["Ch"])
    (_, width, _), = mix_runs
    assert abs(got - want) <= width + max(widths) + 1e-12


def test_every_optimized_entropy_runs_the_two_sided_mixture(monkeypatch,
                                                            mix_runs):
    """One call of the mixture per public call, and the inner programs run
    only inside it."""
    callers = []
    def inner(*args, _fn=entropies._sup_sigma):
        callers.append(sys._getframe(1).f_code.co_name)
        return _fn(*args)

    monkeypatch.setattr(entropies, "_sup_sigma", inner)
    cab = cab_state()
    rho = four_register_state()
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    calls = [
        lambda a: cond_entropy_up(cab, ["A"], ["B"], a),
        lambda a: classmix_up(cab, ["A"], ["C", "B"], ["C"], a),
        lambda a: two_sided_classmix(rho, alpha=a, **kw),
        lambda a: fweighted_entropy(rho, f, a, **kw),
        lambda a: fweighted_cs_conditioned(rho, f, a, **kw),
    ]
    for alpha in [0.5, 2.0, "inf"]:
        for call in calls:
            mix_runs.clear()
            call(alpha)
            assert len(mix_runs) == 1
    assert set(callers) == {"_two_sided_mix"}


def test_no_entropy_writes_into_a_reordered_state(monkeypatch):
    """``State.reorder`` to a state's own order returns the state itself,
    so its callers must not write into the result: with every reordered
    matrix made read-only, each entropy that reorders its branches returns
    the same bits."""
    cab = cab_state()
    rho = four_register_state()
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    calls = [
        lambda a: cond_entropy_up(cab, ["A"], ["B"], a),
        lambda a: cond_entropy_up(cab, ["A"], ["C", "B"], a),
        lambda a: classmix_up(cab, ["A"], ["C", "B"], ["C"], a),
        lambda a: two_sided_classmix(rho, alpha=a, **kw),
        lambda a: fweighted_entropy(rho, f, a, **kw),
        lambda a: fweighted_entropy(rho, f, a, variant="down", **kw),
    ]
    orders = [0.5, 0.7, 2.0, "inf"]
    want = [call(a) for a in orders for call in calls]
    reorder, seen = State.reorder, []

    def read_only(self, labels):
        out = reorder(self, labels)
        out.matrix.flags.writeable = False
        seen.append(out is self)
        return out

    monkeypatch.setattr(State, "reorder", read_only)
    assert [call(a) for a in orders for call in calls] == want
    assert any(seen) and not all(seen)


def test_every_state_entropy_checks_classicality_once(monkeypatch):
    """A public call pinches its state once per classicality check, and
    checks once: not at all without classical registers, once with them
    (the mixture reads the branches that the split has checked)."""
    pinches = []
    pinched = State.pinched
    monkeypatch.setattr(State, "pinched", lambda self, labels:
                        pinches.append(list(labels)) or pinched(self, labels))
    cab = cab_state()
    rho = four_register_state()
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    calls = [
        (lambda a: cond_entropy_up(cab, ["A"], ["B"], a), 0),
        (lambda a: classmix_up(cab, ["A"], ["C", "B"], ["C"], a), 1),
        (lambda a: two_sided_classmix(rho, alpha=a, **kw), 1),
        (lambda a: fweighted_entropy(rho, f, a, **kw), 1),
        (lambda a: fweighted_cs_conditioned(rho, f, a, **kw), 1),
    ]
    for alpha in [0.5, 2.0, "inf"]:
        for call, checks in calls:
            pinches.clear()
            call(alpha)
            assert len(pinches) == checks


def test_endpoint_programs_report_their_widths():
    """At 1/2 and infinity the sigma solve reports a positive width, and so
    does the covering program of H^up_inf(A|C), built directly; on a pure
    state H^up_1/2(A|B) + H^up_inf(A|C) = 0 holds within the sum of the
    two widths, with H^up_inf from either route, and both routes at
    infinity agree within theirs."""
    for seed in range(3):
        psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=seed)
        half, i_half = cond_entropy_up(psi, ["A"], ["B"], 0.5,
                                       return_info=True)
        inf, i_inf = cond_entropy_up(psi, ["A"], ["C"], "inf",
                                     return_info=True)
        log2_t, width, _, _ = _covering_program(*_branch_programs(
            [psi.marginal(["A", "C"]).matrix], 2, 2))
        assert 0.0 < i_half["gap"] <= UP_GAP_TOL
        assert 0.0 < i_inf["gap"] <= UP_GAP_TOL
        assert 0.0 < width <= UP_GAP_TOL
        assert abs(half + inf) <= i_half["gap"] + i_inf["gap"]
        assert abs(half - log2_t) <= i_half["gap"] + width
        assert abs(inf + log2_t) <= i_inf["gap"] + width


@pytest.mark.parametrize("seed", [9, 10])
def test_the_two_sdp_families_cross_check_on_a_purification(seed):
    """H^up_1/2(A|B) is the sigma solve, whose bound from above is the
    max-divergence of the dual order, and H^up_inf(A|C) the covering program
    on the purifying register C (of dimension 8), built directly; on a pure
    state they sum to zero within the two widths."""
    rho = random_density(space(("A", 2), ("B", 4)), seed=seed)
    half, i_half = cond_entropy_up(rho, ["A"], ["B"], 0.5, return_info=True)
    log2_t, width, _, _ = _covering_program(*_branch_programs(
        [rho.purified("C").marginal(["A", "C"]).matrix], 2, 8))
    assert abs(half - log2_t) <= i_half["gap"] + width


def test_orders_above_the_ladder_threshold():
    """Above 64 the value at 1000 is certified and lies between those at
    64 and infinity."""
    rho = random_density(space(("A", 2), ("B", 2)), seed=77)
    at = {a: cond_entropy_up(rho, ["A"], ["B"], a, return_info=True)
          for a in (64.0, 1000.0, "inf")}
    assert at[1000.0][1]["gap"] <= UP_GAP_TOL
    assert at[64.0][0] + at[64.0][1]["gap"] >= at[1000.0][0]
    assert at[1000.0][0] + at[1000.0][1]["gap"] >= at["inf"][0]
    assert at[1000.0][0] > at["inf"][0] + at["inf"][1]["gap"]


@pytest.mark.parametrize("seed", [4, 5])
def test_very_large_order_certifies(seed):
    """The sigma solve certifies orders 1e3, 1e4 and 1e5 on a 2x3 state,
    and the values fall with the order within their widths (each value is
    the lower end of its interval)."""
    rho = random_density(space(("A", 2), ("B", 3)), seed=seed)
    runs = [cond_entropy_up(rho, ["A"], ["B"], a, return_info=True)
            for a in (1e3, 1e4, 1e5)]
    for _, info in runs:
        assert info["gap"] <= UP_GAP_TOL
    for (low, info), (high, _) in zip(runs, runs[1:]):
        assert high <= low + info["gap"]


#: the cases of the two evaluator tests below: two tilted branches at three
#: orders (every eigenvalue kept), one live branch next to one of weight
#: zero, and, at an order below 1, a sigma with an eigenvalue below the cut
#: and a full-rank branch whose Gram matrix has modes at rounding level
#: beside a rank-two branch whose Gram matrix keeps every mode
EVALUATOR_CASES = [
    pytest.param(0.7, "two", id="0.7"), pytest.param(2.0, "two", id="2.0"),
    pytest.param(1e4, "two", id="10000.0"),
    pytest.param(2.0, "one live", id="one-live-branch"),
    pytest.param(0.7, "cut", id="cut-modes")]


def _with_a_cut_eigenvalue(sigma):
    """sigma with its smallest eigenvalue set to 1e-14 of its largest
    (below ``EIG_CUT``), and the projector onto the other eigenvectors."""
    lam, V = np.linalg.eigh(sigma)
    lam[0] = 1e-14 * lam[-1]
    lam /= lam.sum()
    return (V * lam) @ V.conj().T, V[:, 1:] @ V[:, 1:].conj().T


def _assert_cut_paths(ev, sigma):
    """The cut case runs the masked paths: sigma's spectrum is cut, the
    first branch keeps fewer Gram modes than its purification has, and the
    second keeps them all."""
    _, _, _, keep, _, _, parts = ev._point(sigma)
    assert keep is not True and int(np.sum(keep)) == 2
    assert parts[0][2].size < ev.M[0].shape[2]
    assert parts[1][2].size == ev.M[1].shape[2]


@pytest.mark.parametrize("alpha,case", EVALUATOR_CASES)
def test_sigma_gradient_matches_central_differences(alpha, case):
    """The gradient the sigma solve descends on matches central differences
    of its value in random Hermitian directions, on two tilted branches
    whose log2 weights differ by 50.  The second branch is scaled by
    2^(50/a), so both move the gradient at 0.7 and 2; at 1e4 the terms
    lambda^a of T underflow in plain floating point.  With one live branch
    the second has weight zero; in the cut case (:data:`EVALUATOR_CASES`)
    the directions lie in supp(sigma), the face on which the value is
    smooth."""
    sp = space(("Q", 2), ("P", 3))
    if case == "cut":
        branches = [random_density(sp, seed=31).matrix,
                    random_density(sp, seed=32, rank=2).matrix]
        log2_probs = [0.0, -1.0]
    else:
        branches = [random_density(sp, seed=31).matrix,
                    2.0 ** (50.0 / alpha) * random_density(sp, seed=32).matrix]
        log2_probs = [0.0, -50.0 / alpha if case == "two" else -math.inf]
    ev = entropies._SigmaEvaluator(entropies._purifiers(branches, 2),
                                   log2_probs, alpha)
    sigma = random_density(space(("P", 3)), seed=33).matrix
    face = np.eye(3)
    if case == "cut":
        sigma, face = _with_a_cut_eigenvalue(sigma)
        _assert_cut_paths(ev, sigma)
    grad = ev.at(sigma, grad=True)[2]
    rng = np.random.default_rng(34)
    t = 1e-7
    for _ in range(3):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = face @ (X + X.conj().T) @ face
        fd = (ev.at(sigma + t * H)[0] - ev.at(sigma - t * H)[0]) \
            / (2.0 * t * (alpha - 1.0))
        assert np.real(np.trace(grad @ H)) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("alpha,case", EVALUATOR_CASES)
def test_sigma_evaluator_matches_a_direct_construction(alpha, case):
    """At a random sigma the evaluator's value is
    -D_a(omega || id (x) sigma) of the normalized block state
    omega = (+)_i p_i rho_i, and its update is sum_i Tr_Q[(p_i G_i)^a],
    with G_i = (id (x) sigma^s) rho_i (id (x) sigma^s) formed by kron and
    powered through its own eigendecomposition, its eigenvalues at or below
    ``EIG_CUT`` of its largest cut (both scaled by the largest eigenvalue,
    so that 1e4 stays representable).  sigma^s is the pseudo-power, so in
    the cut case (:data:`EVALUATOR_CASES`) it drops sigma's small
    eigenvalue; with one live branch p = (1, 0)."""
    sp = space(("Q", 2), ("P", 3))
    p = np.array([1.0, 0.0] if case == "one live" else [0.3, 0.7])
    branches = [random_density(sp, seed=41).matrix,
                random_density(sp, seed=42,
                               rank=2 if case == "cut" else None).matrix]
    sigma = random_density(space(("P", 3)), seed=43).matrix
    log2_probs = [0.0, -math.inf] if case == "one live" \
        else list(np.log2(p))
    ev = entropies._SigmaEvaluator(entropies._purifiers(branches, 2),
                                   log2_probs, alpha)
    if case == "cut":
        sigma, _ = _with_a_cut_eigenvalue(sigma)
        _assert_cut_paths(ev, sigma)
    log2_T, update, _ = ev.at(sigma, update=True)

    omega = np.zeros((12, 12), dtype=complex)
    omega[:6, :6], omega[6:, 6:] = p[0] * branches[0], p[1] * branches[1]
    ref = np.kron(np.eye(2), np.kron(np.eye(2), sigma))
    want = -sandwiched_divergence(omega, ref, alpha)
    assert -log2_T / (alpha - 1.0) == pytest.approx(want, abs=1e-12)

    W = np.kron(np.eye(2), herm_power(sigma, (1.0 - alpha) / (2.0 * alpha)))
    spectra = []
    for w, rho in zip(p, branches):
        vals, vecs = np.linalg.eigh(W @ (w * rho) @ W)
        vals = np.clip(vals, 0.0, None)
        spectra.append((np.where(vals > EIG_CUT * vals.max(), vals, 0.0),
                        vecs))
    top = max(vals.max() for vals, _ in spectra)
    direct = sum(bipartite_partial_trace(
        (vecs * (vals / top) ** alpha) @ vecs.conj().T, 2, 3, 1)
        for vals, vecs in spectra)
    np.testing.assert_allclose(update / np.trace(update),
                               direct / np.trace(direct), atol=1e-12)


def _half_branches(n: int):
    """n branches on Q P (dimensions 2 and 3), their log2 weights and a
    random interior root H of sigma on P."""
    sp = space(("Q", 2), ("P", 3))
    branches = [random_density(sp, seed=51 + i).matrix for i in range(n)]
    p = np.random.default_rng(50 + n).dirichlet(np.ones(n))
    rng = np.random.default_rng(60 + n)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return branches, list(np.log2(p)), H


def _half_through_sigma(branches, log2_probs, H):
    """log2 T, its gradient in H and the width at order 1/2, computed
    through sigma on the chart sigma = H H^dag / tr[H H^dag]: G_i, Gamma_i =
    M_i^dag (id (x) sigma) M_i and their powers formed from sigma, and the
    gradient in sigma (Daleckii-Krein on sigma^(1/2)) pulled back through
    the chart, as the order-1/2 solve ran before it worked on H."""
    chart = _InputChart(np.eye(1), 3)
    sigma, parts = chart.point(H)
    root, d_root = _power_frechet_map(sigma, 0.5)
    W = np.kron(np.eye(2), root)
    purs = entropies._purifiers(branches, 2)
    c = sum(2.0 ** lp * np.trace(rho).real
            for rho, lp in zip(branches, log2_probs))
    T, grad_sigma, z, X = 0.0, 0.0, 0.0, 0.0
    for rho, lp, M in zip(branches, log2_probs, purs):
        w = 2.0 ** (0.5 * lp)
        G = W @ rho @ W
        tr_root = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(G), 0.0, None)))
        T += w * tr_root
        # d tr[G^(1/2)] = tr[Herm Tr_Q[rho W G^(-1/2)] d sigma^(1/2)]
        C = bipartite_partial_trace(rho @ W @ herm_power(G, -0.5), 2, 3, 1)
        grad_sigma = grad_sigma + w * d_root(herm_part(C))
        Mf = M.reshape(6, -1)
        Gamma = Mf.conj().T @ np.kron(np.eye(2), sigma) @ Mf
        z += (2.0 ** lp / c) ** 0.5 * tr_root
        X = X + (2.0 ** lp / c) ** 0.5 * bipartite_partial_trace(
            Mf @ herm_power(Gamma, -0.5) @ Mf.conj().T, 2, 3, 1)
    log2_T = math.log2(T)
    grad = chart.pullback(H, parts, grad_sigma / (T * LN2 * (0.5 - 1.0)))
    up = math.log2(z) + math.log2(np.linalg.eigvalsh(herm_part(X)).max())
    low = 2.0 * (log2_T - 0.5 * math.log2(c))
    return log2_T, grad, max(up - low, 0.0)


@pytest.mark.parametrize("n", [1, 3])
def test_half_root_form_matches_the_sigma_route(n):
    """At order 1/2 the evaluator works on the root H of sigma = H H^dag /
    tr[H H^dag]; at a random interior H its value, gradient in H and width
    match those computed through sigma and pulled back through the chart.
    Near rank-deficient optima the root form is what keeps the gradient's
    factors of order one; ``test_weak_additivity_gap_vanishes[inf]`` in the
    channel tests runs it on a Gram matrix whose kept eigenvalues reach
    1e-6 of the largest."""
    branches, log2_probs, H = _half_branches(n)
    ev = entropies._RootEvaluator(entropies._purifiers(branches, 2),
                                  log2_probs)
    log2_T, _, grad = ev.at(H, grad=True)
    want_T, want_grad, want_width = _half_through_sigma(branches, log2_probs,
                                                        H)
    assert log2_T == pytest.approx(want_T, rel=1e-12)
    assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(
        want_grad)
    assert ev.width(H, log2_T) == pytest.approx(want_width, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_half_root_gradient_matches_central_differences(n):
    """The gradient in H at order 1/2, in the convention
    d phi = 2 Re tr[grad^dag dH], matches central differences of
    phi = log2 T / (a - 1) along random complex directions."""
    branches, log2_probs, H = _half_branches(n)
    ev = entropies._RootEvaluator(entropies._purifiers(branches, 2),
                                  log2_probs)
    grad = ev.at(H, grad=True)[2]
    rng = np.random.default_rng(70 + n)
    t = 1e-6
    for _ in range(3):
        D = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fd = (ev.at(H + t * D)[0] - ev.at(H - t * D)[0]) / (2.0 * t * -0.5)
        assert 2.0 * np.real(np.vdot(grad, D)) == pytest.approx(fd, rel=1e-6)


def test_near_half_order_is_solved_at_half():
    """The sigma solve at an order within ``HALF_WINDOW`` of 1/2 gives the
    log2 T, sigma and width of 1/2 itself, to the last bit."""
    branches, log2_probs, _ = _half_branches(3)
    purs = entropies._purifiers(branches, 2)
    (v, sigma, width), (v_near, sigma_near, width_near) = (
        entropies._sup_sigma(purs, log2_probs, a) for a in (0.5, 0.5 + 1e-13))
    assert v_near == v
    assert width_near == width
    assert np.array_equal(sigma_near, sigma)


@pytest.mark.parametrize("alpha", [0.5, "inf"])
def test_endpoint_sigma_solve_decomposes_no_sigma(alpha, monkeypatch):
    """At 1/2 and infinity (the 1/2 solve of the complement) a sigma point
    costs one ``eigh`` per branch and none of sigma: the sigma route's
    point (``_SigmaEvaluator._point``) never runs, and H^up of the 2x4 state
    stays under a budget of ``eigh`` and ``eigvalsh`` calls (50 and 104
    when every point decomposed sigma, 31 and 50 on the root)."""
    rho = random_density(space(("A", 2), ("B", 4)), seed=9)
    counts = dict.fromkeys(("eigh", "eigvalsh", "_point"), 0)

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted(np.linalg.eigvalsh, "eigvalsh"))
    monkeypatch.setattr(entropies._SigmaEvaluator, "_point", counted(
        entropies._SigmaEvaluator._point, "_point"))
    _, info = cond_entropy_up(rho, ["A"], ["B"], alpha, return_info=True)
    assert info["gap"] <= UP_GAP_TOL
    assert counts["_point"] == 0
    budget = 40 if alpha == 0.5 else 77
    assert counts["eigh"] + counts["eigvalsh"] <= budget


def test_sigma_evaluator_detects_a_missed_support():
    """For a > 1 a sigma that misses part of a branch's support gives +inf:
    the pseudo-powers alone would drop that weight and report a finite
    value."""
    rho = random_density(space(("Q", 2), ("P", 3)), seed=44).matrix
    ev = entropies._SigmaEvaluator(entropies._purifiers([rho], 2), [0.0], 2.0)
    assert ev.at(np.diag([0.5, 0.5, 0.0]).astype(complex))[0] == math.inf
    assert np.isfinite(ev.at(np.diag([0.4, 0.3, 0.3]).astype(complex))[0])


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_sigma_evaluator_and_divergence_share_the_support_rule(scale):
    """A pure branch with weight w = scale * ``SUPPORT_TOL`` outside
    supp(sigma): at a = 2 the sigma evaluator is infinite exactly where
    D_2(rho || 1 (x) sigma) is, on both sides of the tolerance."""
    w = scale * SUPPORT_TOL
    rng = np.random.default_rng(5)
    inside, outside = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
                       for _ in range(2))
    inside[:, 2] = 0.0
    outside[:, :2] = 0.0
    psi = (math.sqrt(1.0 - w) * inside / np.linalg.norm(inside)
           + math.sqrt(w) * outside / np.linalg.norm(outside)).reshape(-1)
    rho = np.outer(psi, psi.conj())
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    ev = entropies._SigmaEvaluator(entropies._purifiers([rho], 2), [0.0], 2.0)
    div = sandwiched_divergence(rho, np.kron(np.eye(2), sigma), 2.0)
    assert math.isinf(ev.at(sigma)[0]) == math.isinf(div) == (scale > 1.0)


def _width_at(rho, alpha, sigma):
    """The duality interval of H^up_a(A|B) at a conditioning state sigma,
    recomputed on the unreduced state."""
    ev = entropies._SigmaEvaluator(
        entropies._purifiers([rho.matrix], rho.space.dim_of("A")), [0.0],
        alpha)
    return ev.width(sigma, ev.at(sigma)[0])


@pytest.mark.parametrize("alpha", [0.7, 0.9, 1.5, 2.0])
def test_fixed_point_stop_returns_the_width_at_its_sigma(alpha, monkeypatch):
    """At ordinary orders the fixed point already meets the stop, so the
    L-BFGS never runs, and the reported width is the interval at the
    returned sigma."""
    def no_lbfgs(*args, **kwargs):
        raise AssertionError("the L-BFGS ran")

    monkeypatch.setattr(entropies, "_lbfgs", no_lbfgs)
    rho = random_density(space(("A", 2), ("B", 3)), seed=4)
    _, info = cond_entropy_up(rho, ["A"], ["B"], alpha, return_info=True)
    assert info["gap"] <= 1e-2 * UP_GAP_TOL
    assert info["gap"] == pytest.approx(_width_at(rho, alpha, info["sigma"]),
                                        abs=1e-13)


def test_lbfgs_returns_the_width_at_its_sigma():
    """At 1e4 the two ends of the interval are sums of terms of size
    a log2(.), so each carries rounding near 1e-12; the widths of the
    points before the last one differ from its width by 1e-9 or more."""
    rho = random_density(space(("A", 2), ("B", 3)), seed=4)
    _, info = cond_entropy_up(rho, ["A"], ["B"], 1e4, return_info=True)
    assert info["gap"] == pytest.approx(_width_at(rho, 1e4, info["sigma"]),
                                        abs=1e-11)


@pytest.mark.parametrize("alpha,most", [(1e4, 765), (2.0, 34), (0.5, 50),
                                        (0.75, 25), (0.9, 20)])
def test_sigma_solve_eigendecomposition_budget(alpha, most, monkeypatch):
    """A deterministic cost guard: one eigendecomposition of sigma and one
    per branch per sigma point.  The limits are half of the 1,529 calls of
    the solve at 1e4 that decomposed sigma four times and each branch twice
    per point, and fewer than its 35 at 2.  At 1/2 the limit is under the
    70 calls of the solve whose fixed point ran all its steps without
    meeting its stop.  At 0.75 and 0.9 the limits are under the 44 and 40
    calls of the fixed point that damped every step by 1/2 below order 1,
    where the undamped map contracts (18 and 12 with full steps)."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    rho = random_density(space(("A", 2), ("B", 3)), seed=4)
    cond_entropy_up(rho, ["A"], ["B"], alpha)
    assert len(calls) <= most


@pytest.mark.parametrize("case", ["half-2x4", "inf-rho4"])
def test_state_endpoint_programs_certify_within_the_iteration_budget(
        case, sdp_solves):
    """The root-fidelity program of H^up_1/2 on the largest state of the
    endpoint workload (a 16 x 16 block and 130 rows) and the covering
    program of H^up_inf of the four-register cq state on Q Cb | Ch Qp, both
    built directly, since a state runs the sigma solve at every order,
    certify to the solver's target gap in at most 40 primal-dual
    iterations."""
    if case == "half-2x4":
        rho = random_density(space(("A", 2), ("B", 4)), seed=9)
        _fidelity_program(*_branch_programs([rho.matrix], 2, 4), [1.0])
        ((problem, _),) = sdp_solves
        assert sdp._assemble(problem)[3].shape[0] == 130
    else:
        _covering_program(*_branch_programs(
            [four_register_state().matrix], 4, 4))
    assert sdp_solves
    for _, sol in sdp_solves:
        assert sol.iterations <= 40
        assert sol.gap <= sdp.GAP_TOL * max(1.0, abs(sol.value))


def test_classmix_requires_classical_register():
    psi = bell().tensor(random_density(space(("C", 2)), seed=2))
    with pytest.raises(NotClassical):
        classmix_up(psi, ["A"], ["C", "B"], ["B"], 2.0)


# ------------------------------------------ classical data on both sides


def four_register_state():
    """Random cq state with classical registers split across the divide:
    Cb sits with the target, Ch with the conditioning."""
    rng = np.random.default_rng(7)
    pr = rng.dirichlet(np.ones(4))
    sp4 = space(("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2))
    blocks = np.zeros((sp4.dim, sp4.dim), dtype=complex)
    k = 0
    for cb in range(2):
        for ch in range(2):
            b = random_density(space(("Q", 2), ("Qp", 2)), seed=100 + k)
            st = State(np.kron(np.outer(np.eye(2)[cb], np.eye(2)[cb]),
                               np.kron(np.outer(np.eye(2)[ch], np.eye(2)[ch]),
                                       b.matrix)),
                       space(("Cb", 2), ("Ch", 2), ("Q", 2), ("Qp", 2)),
                       check=False).reorder(["Q", "Cb", "Ch", "Qp"])
            blocks += pr[k] * st.matrix
            k += 1
    return State(blocks, sp4)


TWO_SIDED = [
    (0.5, 1.611193802031),
    (0.6, 1.548353168026),
    (1.0, 1.360346524008),
    (2.0, 1.128448323277),
    (3.0, 1.019806488253),
]


@pytest.mark.parametrize("alpha,want", TWO_SIDED)
def test_two_sided_classmix_frozen(alpha, want):
    got = two_sided_classmix(four_register_state(), target=["Q", "Cb"],
                             conditioning=["Ch", "Qp"],
                             classical_target=["Cb"], classical_cond=["Ch"],
                             alpha=alpha)
    assert got == pytest.approx(want, abs=2e-9)


def test_two_sided_classmix_matches_unstructured_optimizer():
    rho = four_register_state()
    for alpha in [0.6, 2.0]:
        structured = two_sided_classmix(rho, target=["Q", "Cb"],
                                        conditioning=["Ch", "Qp"],
                                        classical_target=["Cb"],
                                        classical_cond=["Ch"],
                                        alpha=alpha)
        direct = cond_entropy_up(rho, ["Q", "Cb"], ["Ch", "Qp"], alpha)
        assert structured == pytest.approx(direct, abs=1e-7)


def test_two_sided_infinite_order_cross_check():
    """The structured route and the unstructured optimizer must agree at
    a = infinity.

    The structured route solves one extremum per conditioning outcome, each
    over the two branches of the classical target; the unstructured one
    solves one extremum over the whole state as a single branch, blind to
    its classical registers.  The two complements that the order-1/2 sigma
    solve runs on differ in shape and in start, so agreement pins both.
    """
    rho = four_register_state()
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    structured = two_sided_classmix(rho, alpha="inf", **kw)
    assert structured == pytest.approx(0.664498827364, abs=1e-9)
    unstructured = cond_entropy_up(rho, ["Q", "Cb"], ["Ch", "Qp"], "inf")
    assert structured == pytest.approx(unstructured, abs=1e-7)


# ------------------------------------------- the Newton stage of the solve

def _evaluator(d_sigma, alpha, branches=1, gap=None):
    """A sigma evaluator on branches rho_i on A B, A a qubit and B of
    dimension ``d_sigma``, with weights 0.3 and 0.7 for two branches."""
    probs = [1.0] if branches == 1 else [0.3, 0.7]
    rhos = [random_density(space(("A", 2), ("B", d_sigma)), seed=30 + i)
            .matrix for i in range(branches)]
    return entropies._SigmaEvaluator(
        entropies._purifiers(rhos, 2),
        [alpha * math.log2(p) for p in probs], alpha, gap)


@pytest.mark.parametrize("d_sigma,alpha,branches", [
    (2, 2.0 / 3.0, 1), (2, 4.0 / 3.0, 1), (3, 6.0, 1), (4, 0.7, 1),
    (4, 1.5, 1), (3, 1.5, 2)])
def test_sigma_hessian_matches_central_differences(d_sigma, alpha, branches):
    """The Daleckii-Krein Hessian of log2 T / (a - 1) on the trace-zero
    directions agrees with central differences (h = 1e-5) of the analytic
    gradient projected on the same directions, and its gradient with the
    analytic one."""
    ev = _evaluator(d_sigma, alpha, branches)
    sigma = random_density(space(("B", d_sigma)), seed=99).matrix
    v, _, g = ev.at(sigma, grad=True)
    grad, H, lift = ev.hessian(sigma)
    dirs = [lift(e) for e in np.eye(len(grad))]

    def projected(s):
        g_s = ev.at(s, grad=True)[2]
        return np.array([np.vdot(g_s, e).real for e in dirs])

    h = 1e-5
    fd = np.column_stack([(projected(sigma + h * e)
                           - projected(sigma - h * e)) / (2.0 * h)
                          for e in dirs])
    assert np.abs(H - fd).max() <= 1e-5 * np.abs(fd).max()
    assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
    assert np.abs(grad - projected(sigma)).max() \
        <= 1e-10 * np.abs(grad).max()


def test_sigma_hessian_needs_a_sigma_of_full_rank():
    """No Hessian at a sigma with an eigenvalue below the cut, nor on a
    sigma larger than the dense cap, and the Newton stage started there
    hands its point back without raising."""
    ev = _evaluator(2, 1.5, gap=1e-10)
    edge = np.diag([1.0 - 1e-14, 1e-14]).astype(complex)
    assert ev.hessian(edge) is None
    _, sigma, width = entropies._newton_sigma(ev, edge, 1e-10, 1e-9)
    assert width is None and sigma is edge
    big = entropies._NEWTON_MAX_DIM + 1
    ev = _evaluator(big, 1.5)
    assert ev.hessian(np.eye(big, dtype=complex) / big) is None


@pytest.mark.parametrize("case", ["indefinite", "boundary"])
def test_newton_stage_falls_back_to_lbfgs(case, monkeypatch):
    """Where the Hessian is not positive definite, or missing as at a sigma
    on the boundary of the cone, the solve with a gap target runs the
    L-BFGS from the Newton stage's last point and still certifies."""
    hessian = entropies._SigmaEvaluator.hessian

    def patched(self, point):
        if case == "boundary":
            return None
        grad, H, lift = hessian(self, point)
        return grad, -H, lift

    lbfgs_runs = []

    def counted(ev, root, _fn=entropies._root_lbfgs):
        lbfgs_runs.append(1)
        return _fn(ev, root)

    monkeypatch.setattr(entropies._SigmaEvaluator, "hessian", patched)
    monkeypatch.setattr(entropies, "_root_lbfgs", counted)
    for alpha in (0.7, 1.5):
        ev = _evaluator(3, alpha, gap=1e-10)
        v, sigma, width = entropies._optimize_sigma(
            ev, np.eye(3, dtype=complex) / 3.0)
        assert width <= 1e-2 * UP_GAP_TOL
    assert len(lbfgs_runs) == 2


def test_newton_stage_meets_the_gap_target_inside_the_cone():
    """From a sigma near the boundary of the cone (an eigenvalue of 1e-9),
    the solve with a gap target returns a sigma of full rank whose
    sigma-side Frank-Wolfe gap is at most the target, and without a
    target the same extremum to within both widths."""
    for alpha in (0.7, 1.5, 6.0):
        start = np.diag([0.6, 0.4 - 1e-9, 1e-9]).astype(complex)
        ev = _evaluator(3, alpha, gap=1e-10)
        v, sigma, width = entropies._optimize_sigma(ev, start)
        g = ev.at(sigma, grad=True)[2]
        assert entropies._frank_wolfe_gap(g, sigma) <= 1e-10
        assert width <= 1e-2 * UP_GAP_TOL
        assert np.linalg.eigvalsh(sigma).min() > 0.0
        plain = _evaluator(3, alpha)
        v0, _, w0 = entropies._optimize_sigma(plain, start)
        assert abs(v - v0) / abs(alpha - 1.0) <= width + w0 + 1e-12
