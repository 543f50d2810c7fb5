"""Divergences: support conventions, special orders, classical reductions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyimeat.channel_entropy import _divergence_with_grads
from renyimeat.divergences import (
    RenyiOrder,
    as_order,
    classical_renyi_divergence,
    classical_renyi_entropy,
    frequency,
    max_divergence,
    measured_divergence_bound,
    sandwiched_divergence,
    umegaki_divergence,
    ORTHO_CUT,
    SUPPORT_TOL,
)
from renyimeat.errors import InvalidState, UnsupportedOrder
from renyimeat.registers import space, State
from renyimeat.sampling import (
    random_channel,
    random_density,
    random_isometry,
    random_povm,
)

ALPHA_GRID = [0.5, 0.75, 1.0, 1.5, 2.0, 5.0, "inf"]


# ----------------------------------------------------------------- orders


def test_order_construction_and_tags():
    assert as_order(2).value == 2.0
    assert as_order("inf").is_infinite
    assert as_order(math.inf).is_infinite
    assert RenyiOrder(1.0).is_one
    assert RenyiOrder(1.0 + 5e-6).near_one and not RenyiOrder(1.0 + 5e-6).is_one
    for bad in (0.0, -1.0, math.nan, "abc", None):
        with pytest.raises(UnsupportedOrder):
            RenyiOrder(bad)
    assert RenyiOrder(2) != None  # noqa: E711


def test_order_conjugate_map():
    assert as_order(1).conjugate().is_one
    assert as_order("inf").conjugate().value == 0.5
    assert as_order(0.5).conjugate().is_infinite
    assert as_order(2).conjugate().value == pytest.approx(2 / 3)
    # involution: b(b(a)) = a
    assert as_order(as_order(1.7).conjugate()).conjugate().value == pytest.approx(1.7)
    with pytest.raises(UnsupportedOrder):
        as_order(0.4).conjugate()


def test_order_half_window():
    assert as_order(0.5).is_half and as_order(0.5 + 1e-13).is_half
    assert not as_order(0.5 + 1e-9).is_half
    assert as_order(0.5 + 1e-13).conjugate().is_infinite
    # below 1/2 the window holds too: not below 1/2, and the dual order is
    # infinite
    near = as_order(0.5 - 1e-13)
    assert near.is_half and not near.below_half
    assert near.conjugate().is_infinite
    assert as_order(0.5 - 1e-9).below_half


def test_order_hat_map():
    assert as_order(1).hat().is_one
    assert as_order(2).hat().is_infinite
    assert as_order(1.5).hat().value == pytest.approx(2.0)
    with pytest.raises(UnsupportedOrder):
        as_order(3).hat()


# ------------------------------------------------------------ basic values


def test_divergence_of_state_with_itself_is_zero():
    rho = random_density(space(("A", 3)), seed=0)
    for alpha in ALPHA_GRID:
        assert abs(sandwiched_divergence(rho, rho, alpha)) < 1e-10


def test_commuting_pair_matches_classical_value():
    rho = np.diag([0.7, 0.3])
    sig = np.diag([0.5, 0.5])
    got = sandwiched_divergence(rho, sig, 2)
    assert got == pytest.approx(0.21412480535284734, abs=1e-12)
    assert classical_renyi_divergence([0.7, 0.3], [0.5, 0.5], 2) == pytest.approx(
        got, abs=1e-12
    )


def test_umegaki_hand_value():
    assert umegaki_divergence(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(
        1.0, abs=1e-12
    )
    rho = random_density(space(("A", 3)), seed=1)
    assert abs(umegaki_divergence(rho, rho)) < 1e-12


def test_near_one_dispatch_consistency():
    rho = random_density(space(("A", 3)), seed=2)
    sig = random_density(space(("A", 3)), seed=3)
    exact = umegaki_divergence(rho, sig)
    for eps in (1e-6, -1e-6):
        assert sandwiched_divergence(rho, sig, 1 + eps) == pytest.approx(
            exact, abs=1e-4
        )
    # just outside the window the generic formula is used and still close
    assert sandwiched_divergence(rho, sig, 1 + 1e-4) == pytest.approx(exact, abs=1e-3)


def test_support_violation_gives_infinity():
    rho = np.diag([0.5, 0.5, 0.0])
    sig = np.diag([1.0, 0.0, 0.0])
    assert sandwiched_divergence(rho, sig, 2) == math.inf
    assert umegaki_divergence(rho, sig) == math.inf
    assert max_divergence(rho, sig) == math.inf
    # alpha < 1 only requires non-orthogonality
    assert math.isfinite(sandwiched_divergence(rho, sig, 0.5))
    assert sandwiched_divergence(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5) \
        == math.inf


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_support_contained_at_its_tolerance(scale):
    # rho puts the weight eps (relative to its trace) outside supp(sigma);
    # both rotated by one unitary
    U = random_isometry(3, 3, seed=2)
    sig = U @ np.diag([0.4, 0.6, 0.0]) @ U.conj().T
    for eps, inside in ((0.9 * SUPPORT_TOL, True), (1.1 * SUPPORT_TOL, False)):
        rho = scale * U @ np.diag([0.5, 0.5 - eps, eps]) @ U.conj().T
        for value in (sandwiched_divergence(rho, sig, 2),
                      umegaki_divergence(rho, sig), max_divergence(rho, sig)):
            assert math.isfinite(value) is inside


@pytest.mark.parametrize("alpha", [0.5, 0.75])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_overlap_at_its_cut(scale, alpha):
    """Below order 1, rho with the weight w (relative to its trace) on
    supp(sigma) is orthogonal to sigma up to w = ORTHO_CUT: the public
    divergence and the chart kernel both give +inf there, and a finite
    value past it."""
    U = random_isometry(3, 3, seed=2)
    sig = U @ np.diag([1.0, 0.0, 0.0]) @ U.conj().T
    for w, orthogonal in ((0.9 * ORTHO_CUT, True), (1.1 * ORTHO_CUT, False)):
        psi = U @ np.array([math.sqrt(w), math.sqrt(1.0 - w), 0.0])
        rho = scale * np.outer(psi, psi.conj())
        public = sandwiched_divergence(rho, sig, alpha)
        kernel, g_rho, g_sig = _divergence_with_grads(rho, sig, as_order(alpha))
        for value in (public, kernel):
            assert math.isfinite(value) is not orthogonal
        assert (g_rho is None) is orthogonal and (g_sig is None) is orthogonal


def test_zero_trace_rejected():
    with pytest.raises(InvalidState):
        sandwiched_divergence(np.zeros((2, 2)), np.eye(2) / 2, 2)


@pytest.mark.parametrize("alpha", [1.0, 0.99999, 0.5, 2.0])
def test_negative_sigma_rejected(alpha):
    """Order 1 takes log sigma, so a sigma with negative spectrum raises
    there as at the fractional powers, inside the near-one window too,
    although rho lies in the span of sigma's positive eigenvector."""
    rho, sigma = np.diag([1.0, 0.0]), np.diag([0.7, -0.3])
    with pytest.raises(InvalidState):
        sandwiched_divergence(rho, sigma, alpha)
    if alpha == 1.0:
        with pytest.raises(InvalidState):
            umegaki_divergence(rho, sigma)


def test_max_divergence_known_value():
    # sigma^{-1/2} rho sigma^{-1/2} = diag(1.6, 0.4) for this pair
    rho = np.diag([0.8, 0.2])
    sig = np.eye(2) / 2
    assert max_divergence(rho, sig) == pytest.approx(math.log2(1.6), abs=1e-12)
    assert sandwiched_divergence(rho, sig, "inf") == pytest.approx(
        math.log2(1.6), abs=1e-12
    )


def test_subnormalized_rho_normalization_convention():
    rho = random_density(space(("A", 2)), seed=4)
    sig = random_density(space(("A", 2)), seed=5)
    for alpha in (0.5, 2.0):
        a = sandwiched_divergence(rho, sig, alpha)
        b = sandwiched_divergence(0.3 * rho.matrix, sig, alpha)
        # D(c*rho || sigma) = D(rho || sigma) + log2(c) * a/(a-1) ... not a
        # clean shift; instead check the documented Tr-normalization directly:
        s = (1 - alpha) / (2 * alpha)
        from renyimeat.registers import herm_power

        A = herm_power(sig.matrix, s) @ (0.3 * rho.matrix) @ herm_power(sig.matrix, s)
        val = np.linalg.eigvalsh(A)
        q = float(np.sum(np.clip(val, 0, None) ** alpha))
        want = (math.log2(q) - math.log2(0.3)) / (alpha - 1)
        assert b == pytest.approx(want, abs=1e-10)
        del a


# -------------------------------------------------------------- properties


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1, 2, "inf"])
def test_data_processing_under_random_channels(alpha):
    for seed in range(8):
        rho = random_density(space(("A", 3)), seed=3 * seed)
        sig = random_density(space(("A", 3)), seed=3 * seed + 1)
        ch = random_channel(space(("A", 3)), space(("B", 2)), seed=3 * seed + 2)
        before = sandwiched_divergence(rho, sig, alpha)
        after = sandwiched_divergence(ch.apply(rho), ch.apply(sig), alpha)
        assert after <= before + 1e-8


def test_isometric_invariance():
    rho = random_density(space(("A", 3)), seed=30)
    sig = random_density(space(("A", 3)), seed=31)
    V = random_isometry(3, 5, seed=32)
    for alpha in ALPHA_GRID:
        a = sandwiched_divergence(rho, sig, alpha)
        b = sandwiched_divergence(
            V @ rho.matrix @ V.conj().T, V @ sig.matrix @ V.conj().T, alpha
        )
        assert b == pytest.approx(a, abs=1e-9)


def test_monotone_in_alpha():
    rho = random_density(space(("A", 4)), seed=40)
    sig = random_density(space(("A", 4)), seed=41)
    vals = [sandwiched_divergence(rho, sig, a) for a in ALPHA_GRID]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-10


def test_classical_conditioning_decomposition():
    """D_a of cq-states decomposes into the branch mixture formula."""
    rng = np.random.default_rng(50)
    for _ in range(5):
        p = rng.dirichlet([1, 1, 1])
        q = rng.dirichlet([1, 1, 1])
        # make one branch of rho have zero probability
        p = np.array([p[0] + p[1], p[2], 0.0])
        branches_r = [random_density(space(("Q", 2)), seed=s).matrix
                      for s in rng.integers(0, 2**31, 3)]
        branches_s = [random_density(space(("Q", 2)), seed=s).matrix
                      for s in rng.integers(0, 2**31, 3)]
        rho = np.zeros((6, 6), dtype=complex)
        sig = np.zeros((6, 6), dtype=complex)
        for c in range(3):
            rho[2 * c:2 * c + 2, 2 * c:2 * c + 2] = p[c] * branches_r[c]
            sig[2 * c:2 * c + 2, 2 * c:2 * c + 2] = q[c] * branches_s[c]
        for alpha in (0.6, 2.0):
            direct = sandwiched_divergence(rho, sig, alpha)
            terms = [
                alpha * math.log(p[c]) + (1 - alpha) * math.log(q[c])
                + (alpha - 1) * LN2 * sandwiched_divergence(
                    branches_r[c], branches_s[c], alpha)
                for c in range(3) if p[c] > 0
            ]
            mix = float(np.logaddexp.reduce(terms) / LN2 / (alpha - 1))
            assert direct == pytest.approx(mix, abs=1e-8)


LN2 = math.log(2.0)


# ------------------------------------------------------------ trace powers


def rotated(diag, seed):
    """U diag(diag) U^dag for a random unitary U."""
    U = random_isometry(len(diag), len(diag), seed=seed)
    return U @ np.diag(diag) @ U.conj().T


def test_trace_power_form_rank_deficient():
    # against the identity, D_a(M || 1) = (log2 tr M^a - log2 tr M) / (a - 1)
    M = rotated([0.5, 0.25, 0.0, 0.0], seed=3)
    eye = np.eye(4)
    assert sandwiched_divergence(M, eye, 2.0) == pytest.approx(
        math.log2(0.3125) - math.log2(0.75), abs=1e-13)
    assert sandwiched_divergence(M, eye, 0.5) == pytest.approx(
        (math.log2(math.sqrt(0.5) + 0.5) - math.log2(0.75)) / -0.5,
        abs=1e-13)


def test_trace_power_form_at_a_very_large_order():
    # tr[(P/2)^a] = 2^(1-a) for a rank-2 projector P; 0.5^1e4 underflows
    M = rotated([0.5, 0.5, 0.0], seed=4)
    assert sandwiched_divergence(M, np.eye(3), 1e4) == pytest.approx(
        (1.0 - 1e4) / (1e4 - 1.0), rel=1e-12)
    # the largest eigenvalue dominates: log2 tr = a log2 0.6 + O(2^-5849)
    M = rotated([0.6, 0.4, 0.0], seed=5)
    assert sandwiched_divergence(M, np.eye(3), 1e4) == pytest.approx(
        1e4 * math.log2(0.6) / (1e4 - 1.0), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1, 2, "inf"])
def test_one_spectrum_per_divergence(monkeypatch, alpha):
    """A divergence costs one eigh of sigma and one spectrum, and no norm."""
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    rho = random_density(space(("A", 3)), seed=6)
    sig = random_density(space(("A", 3)), seed=7)
    sandwiched_divergence(rho, sig, alpha)
    assert len(calls) <= 2 and "norm" not in calls


# --------------------------------------------------------------- classical


def test_classical_entropy_values():
    assert classical_renyi_entropy([0.5, 0.5], 7) == pytest.approx(1.0)
    assert classical_renyi_entropy([1.0, 0.0], 0.5) == 0.0
    assert classical_renyi_entropy([0.75, 0.25], "inf") == pytest.approx(
        -math.log2(0.75)
    )


def test_classical_divergence_edge_cases():
    assert classical_renyi_divergence([1.0, 0.0], [0.5, 0.5], 1) == pytest.approx(1.0)
    assert classical_renyi_divergence([0.5, 0.5], [1.0, 0.0], 2) == math.inf
    # below 1 an overlapping (non-orthogonal) pair stays finite
    assert math.isfinite(classical_renyi_divergence([0.5, 0.5], [1.0, 0.0], 0.5))
    assert classical_renyi_divergence([0.5, 0.5], [0.0, 1.0], 0.5) != math.inf
    assert classical_renyi_divergence([1.0, 0.0], [0.0, 1.0], 0.5) == math.inf
    with pytest.raises(InvalidState):
        classical_renyi_divergence([0.0, 0.0], [0.5, 0.5], 2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.01, 1), min_size=2, max_size=5),
    st.lists(st.floats(0.01, 1), min_size=2, max_size=5),
    st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.0]),
)
def test_classical_matches_diagonal_quantum(pv, qv, alpha):
    n = min(len(pv), len(qv))
    p = np.array(pv[:n]) / sum(pv[:n])
    q = np.array(qv[:n]) / sum(qv[:n])
    cl = classical_renyi_divergence(p, q, alpha)
    qu = sandwiched_divergence(np.diag(p), np.diag(q), alpha)
    assert cl == pytest.approx(qu, abs=1e-10)


# ---------------------------------------------------------------- measured


def test_measured_divergence_trivial_povm_is_zero():
    rho = random_density(space(("A", 2)), seed=60)
    sig = random_density(space(("A", 2)), seed=61)
    assert measured_divergence_bound(rho, sig, [np.eye(2)], 2) == pytest.approx(
        0.0, abs=1e-12
    )


def test_measured_divergence_eigenbasis_saturates_commuting_case():
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    povm = [np.diag([1.0 if i == j else 0.0 for j in range(3)]) for i in range(3)]
    got = measured_divergence_bound(np.diag(p), np.diag(q), povm, 2)
    assert got == pytest.approx(sandwiched_divergence(np.diag(p), np.diag(q), 2))


@pytest.mark.parametrize("alpha", [0.5, 1, 2, "inf"])
def test_measured_divergence_is_a_lower_bound(alpha):
    rho = random_density(space(("A", 3)), seed=70)
    sig = random_density(space(("A", 3)), seed=71)
    povm = random_povm(3, 4, seed=72)
    assert measured_divergence_bound(rho, sig, povm, alpha) <= (
        sandwiched_divergence(rho, sig, alpha) + 1e-9
    )


def test_measured_divergence_rejects_incomplete_povm():
    with pytest.raises(InvalidState):
        measured_divergence_bound(np.eye(2) / 2, np.eye(2) / 2, [np.eye(2) / 2], 2)


# --------------------------------------------------------------- frequency


def test_frequency_counts():
    alph, probs = frequency("aab")
    assert alph == ["a", "b"]
    assert probs == [Fraction(2, 3), Fraction(1, 3)]
    assert frequency("zzzz") == (["z"], [Fraction(1)])


def test_frequency_exact_normalization_and_alphabet():
    alph, probs = frequency("abcabcabz", alphabet=list("abcyz"))
    assert sum(probs) == 1  # exact, Fractions
    assert probs[3] == 0
    with pytest.raises(InvalidState):
        frequency("")
    with pytest.raises(InvalidState):
        frequency("ax", alphabet=["a"])
