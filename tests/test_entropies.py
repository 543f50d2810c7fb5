"""Conditional Renyi entropies: the optimized ("up") and plain ("down")
variants, classical-mixture decompositions, and the dual pairing on pure
tripartite states.

Optimizer values are pinned against an independent Nelder-Mead oracle run
(direct simplex search over a Cholesky parametrization of the conditioning
state, fatol 1e-13); the frozen literals below agree with that oracle to
better than 1e-12.
"""

import math

import numpy as np
import pytest

from renyimeat import entropies
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
from renyimeat.registers import State, ket_state, space
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
    assert info["method"] == "sdp"
    _, info = cond_entropy_up(rho, ["A"], ["B"], 0.5, return_info=True)
    assert info["method"] == "sdp-fidelity"
    _, info = cond_entropy_up(rho, ["A"], ["B"], 2.0, return_info=True)
    assert info["method"] == "fixed-point"
    assert info["gap"] <= UP_GAP_TOL


@pytest.mark.parametrize("alpha", [0.7, 2.0, 6.0])
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


def _stop_at_start(branches, log2_weights, d_q, d_qp, alpha, sigma0, *,
                   polish=True):
    """A sigma solve that returns its start unmoved."""
    return (entropies._evaluate_log2_T(branches, log2_weights, d_q, sigma0,
                                       alpha), sigma0, False)


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


def test_near_half_order_takes_the_sdp_route(monkeypatch):
    rho = random_density(space(("A", 2), ("B", 2)), seed=3)
    at_half = cond_entropy_up(rho, ["A"], ["B"], 0.5)
    calls = []
    sdp = entropies._t_max_half_sdp
    monkeypatch.setattr(entropies, "_t_max_half_sdp",
                        lambda *a: calls.append(a) or sdp(*a))
    near, info = cond_entropy_up(rho, ["A"], ["B"], 0.5 + 1e-13,
                                 return_info=True)
    assert len(calls) == 1
    assert info["method"] == "sdp-fidelity"
    assert near == pytest.approx(at_half, abs=1e-9)


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
    rho = random_cq_state(space(("C", 3)), space(("A", 2), ("B", 2)), seed=55)
    for alpha in [0.6, 2.0]:
        via_mix = classmix_up(rho, ["A"], ["C", "B"], ["C"], alpha)
        direct = cond_entropy_up(rho, ["A"], ["C", "B"], alpha)
        assert via_mix == pytest.approx(direct, abs=1e-7)
        via_mix = classmix_down(rho, ["A"], ["C", "B"], ["C"], alpha)
        direct = cond_entropy_down(rho, ["A"], ["C", "B"], alpha)
        assert via_mix == pytest.approx(direct, abs=1e-9)


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

    The structured route solves one max-divergence covering program per
    conditioning outcome; the unstructured one solves the H^up_inf program
    of the whole state, blind to its classical registers.  These are
    independent computations, so agreement pins both.
    """
    rho = four_register_state()
    kw = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
              classical_target=["Cb"], classical_cond=["Ch"])
    structured = two_sided_classmix(rho, alpha="inf", **kw)
    assert structured == pytest.approx(0.664498824743, abs=1e-9)
    unstructured = cond_entropy_up(rho, ["Q", "Cb"], ["Ch", "Qp"], "inf")
    assert structured == pytest.approx(unstructured, abs=1e-7)
