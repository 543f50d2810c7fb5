"""The benchmark's three workloads: inputs made from a seed, the fixed call
list of one pass, and the correctness checks of every call.

A workload is built by ``build(name, seed)``, which returns a
:class:`Workload`: a list of :class:`Op` (one public ``renyimeat`` call
each, always in the same order) and a ``check`` function.  ``check`` takes
the results of one pass and returns, per operation, the list of failed
checks; it may call public entry points itself to obtain certificates
(conditioning states), whose quality the benchmark's own numpy reference
(``reference.py``) then judges.  The checks compare with that reference and
with properties the method must have, never with stored values.

Every instance comes from ``numpy.random.default_rng(seed)`` except the
named fixed reference instances (see ``FIXED``), used where the program's
cost varies by orders of magnitude between random instances: a seeded mix
of those would make the run length depend on the seed (README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

import reference as ref
from renyimeat.channel_entropy import (ChannelEntropyProblem,
                                       MarginalConstraint, build_sdp_individual,
                                       build_sdp_joint, channel_cond_entropy,
                                       product_feasibility_slack,
                                       solve_sdp_pair, verify_additivity,
                                       verify_chain_rule)
from renyimeat.entropies import cond_entropy_up
from renyimeat.fweighted import TradeoffFunction, fweighted_entropy
from renyimeat.registers import State, space
from renyimeat.sampling import random_channel, random_density, random_pure

INF = math.inf

#: |value - certificate| tolerance at the orders solved by fixed-point
#: iteration, and at the convex-program orders 1/2 and inf
TOL = 1e-7
SDP_TOL = 1e-6

#: keyword arguments of the four-register classical-quantum states
FW_KW = dict(target=["Q", "Cb"], conditioning=["Ch", "Qp"],
             classical_target=["Cb"], classical_cond=["Ch"])

#: fixed reference instances (random_channel arguments), used instead of
#: seeded ones where per-instance cost is heavy-tailed
FIXED = {
    # generic orders on channels: one qubit-to-qubit channel
    "descent": dict(out=(("T", 2),), seed=1, kraus_rank=2),
    # alpha = inf on qubit-input channels: three instances
    "inf": [dict(out=(("T", 2), ("Y", 2)), seed=s, kraus_rank=2)
            for s in (1, 2, 3)],
    # alpha = 1 on qubit-input channels: eight instances
    "order-one": [dict(out=(("T", 2), ("Y", 2)), seed=s, kraus_rank=2)
                  for s in range(1, 9)],
    # the chain rule at alpha = 1: rounds drawn by _chain_pair from this seed
    "chain": 1,
    # the 2x4 state whose 1/2 program is the largest (random_density seed)
    "2x4": 9,
}


@dataclass
class Op:
    """One public call.  ``value`` extracts the number(s) that must repeat
    exactly from pass to pass."""
    label: str
    call: object
    value: object = lambda r: r


@dataclass
class Workload:
    name: str
    ops: list
    check: object


def spread(*groups) -> list:
    """Merge op groups into one call list, each group's ops spaced evenly
    over the pass in their own order, so that cheap and costly calls
    alternate and the median call samples the whole pass."""
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups)
             for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _sub(rng) -> int:
    return int(rng.integers(2 ** 31))


def _qubit_channel(rng=None, *, out=(("T", 2), ("Y", 2)), seed=None,
                   kraus_rank=2):
    s = _sub(rng) if seed is None else seed
    return random_channel(space(("A", 2)), space(*out), seed=s,
                          kraus_rank=kraus_rank)


def cq4_state(rng) -> State:
    """Four-register classical-quantum state on (Q, Cb, Ch, Qp), built like
    the ``RHO4`` state of the f-weighted tests, from ``rng``."""
    pr = rng.dirichlet(np.ones(4))
    return _cq4(pr, [_sub(rng) for _ in range(4)])


def rho4():
    """The f-weighted tests' reference state RHO4 and tradeoff table F."""
    pr = np.random.default_rng(7).dirichlet(np.ones(4))
    f = TradeoffFunction([0, 1], [0, 1], [[0.2, -0.4], [0.7, 0.1]])
    return _cq4(pr, [100 + k for k in range(4)]), f


def _cq4(pr, block_seeds) -> State:
    """sum_k pr[k] |cb><cb| (x) |ch><ch| (x) rho_k with random rho_k on
    (Q, Qp), over the four (cb, ch), ordered (Q, Cb, Ch, Qp)."""
    sp4 = space(("Q", 2), ("Cb", 2), ("Ch", 2), ("Qp", 2))
    mat = np.zeros((sp4.dim, sp4.dim), dtype=complex)
    for k, (cb, ch) in enumerate(product(range(2), range(2))):
        b = random_density(space(("Q", 2), ("Qp", 2)), seed=block_seeds[k])
        mat += pr[k] * _cq_block(cb, ch, b.matrix)
    return State(mat, sp4)


def _cq_block(cb: int, ch: int, block: np.ndarray) -> np.ndarray:
    """|cb><cb| (x) |ch><ch| (x) block, reordered to (Q, Cb, Ch, Qp)."""
    return State(np.kron(np.diag(np.eye(2)[cb]),
                         np.kron(np.diag(np.eye(2)[ch]), block)),
                 space(("Cb", 2), ("Ch", 2), ("Q", 2), ("Qp", 2)),
                 check=False).reorder(["Q", "Cb", "Ch", "Qp"]).matrix


def fw_down_reference(state: State, f, alpha: float) -> float:
    """The "down" f-weighted entropy from its definition: the conditioning
    state of each public value cp is the actual conditional marginal."""
    t = state.matrix.reshape((2,) * 8)  # Q Cb Ch Qp, rows then columns
    outer = []
    for cp in range(2):
        branches, weights, fs = [], [], []
        for cs in range(2):
            blk = t[:, cs, cp, :, :, cs, cp, :].reshape(4, 4)
            w = float(np.real(np.trace(blk)))
            branches.append(blk / w)
            weights.append(w)
            fs.append(f.value(cs, cp))
        p_cp = sum(weights)
        sigma = sum(w * ref.partial_trace(b, (2, 2), [1])
                    for w, b in zip(weights, branches)) / p_cp
        inner = sum((w / p_cp) ** alpha * 2.0 ** (
            (alpha - 1.0) * (fv + ref.sandwiched(b, np.kron(np.eye(2), sigma),
                                                 alpha)))
            for w, b, fv in zip(weights, branches, fs))
        outer.append(p_cp * inner ** (1.0 / alpha))
    return alpha / (1.0 - alpha) * math.log2(sum(outer))


# ------------------------------------------------------------ shared checks

class Checks:
    """Collects failed checks per operation label."""

    def __init__(self, labels):
        self.failed = {label: [] for label in labels}

    def expect(self, label, ok: bool, what: str):
        if not ok:
            self.failed[label].append(what)

    def has(self, results, *labels) -> bool:
        """All named operations returned (did not raise)."""
        return all(not isinstance(results[l], BaseException) for l in labels)


def _check_cond_value(c: Checks, label, res, rho, d_a, alpha, tol):
    """H^up equals -D_alpha(rho || 1 (x) sigma) at its own sigma, lies above
    the closed-form H^down, and within +-log2 d_A."""
    value, info = res
    at_sigma = ref.cond_value_at(rho, d_a, info["sigma"], alpha)
    c.expect(label, abs(at_sigma - value) <= tol,
             f"value {value:.12g} != -D(rho||1 x sigma) {at_sigma:.12g}")
    c.expect(label, value >= ref.h_down(rho, d_a, alpha) - tol,
             "H_up below the closed-form H_down")
    c.expect(label, abs(value) <= math.log2(d_a) + tol, "|H| > log2 d_A")


def _h_up_op(label, st, cond, alpha):
    return Op(label, lambda: cond_entropy_up(st, ["A"], cond, alpha,
                                             return_info=True),
              lambda r: r[0])


def _pure_marginals(psi: State):
    """(rho_AB, rho_AC) of a pure state on (A, B, C)."""
    dims = psi.space.dims
    return (ref.partial_trace(psi.matrix, dims, [0, 1]),
            ref.partial_trace(psi.matrix, dims, [0, 2]))


# ------------------------------------------------------------- sigma-sweep

SWEEP_DIMS = [(2, 2), (2, 3), (3, 3), (3, 4)]
SWEEP_ORDERS = [0.7, 1.5, 2.0, 3.0, 6.0]
DUAL_PAIRS = [(0.75, 1.5), (2.0, 2.0 / 3.0)]
FW_ORDERS = [0.7, 2.0]


def sigma_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    states = [random_density(space(("A", a), ("B", b)), seed=_sub(rng))
              for a, b in SWEEP_DIMS]
    pures = [random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=_sub(rng))
             for _ in range(2)]
    cqs = [cq4_state(rng) for _ in range(2)]
    f = TradeoffFunction([0, 1], [0, 1], rng.uniform(-1.0, 1.0, (2, 2)))

    sweep = [_h_up_op(f"H_up[{i}] a={a}", st, ["B"], a)
             for i, st in enumerate(states) for a in SWEEP_ORDERS]
    duals = [op for i, psi in enumerate(pures) for a, b in DUAL_PAIRS
             for op in (_h_up_op(f"pure[{i}] A|B a={a}", psi, ["B"], a),
                        _h_up_op(f"pure[{i}] A|C a={b:.6g}", psi, ["C"], b))]
    fws = [Op(f"fw[{i}] {v} a={a}", lambda st=st, a=a, v=v:
              fweighted_entropy(st, f, a, variant=v, **FW_KW))
           for i, st in enumerate(cqs) for a in FW_ORDERS
           for v in ("up", "down")]
    ops = spread(sweep, duals, fws)

    def check(results):
        c = Checks(results)
        for i, st in enumerate(states):
            prev = None
            for a in SWEEP_ORDERS:
                label = f"H_up[{i}] a={a}"
                if not c.has(results, label):
                    prev = None
                    continue
                _check_cond_value(c, label, results[label], st.matrix,
                                  SWEEP_DIMS[i][0], a, TOL)
                value = results[label][0]
                c.expect(label, prev is None or value <= prev + TOL,
                         "H_up increases with alpha")
                prev = value
        for i, psi in enumerate(pures):
            rho_ab, rho_ac = _pure_marginals(psi)
            for a, b in DUAL_PAIRS:
                la, lb = f"pure[{i}] A|B a={a}", f"pure[{i}] A|C a={b:.6g}"
                if not c.has(results, la, lb):
                    continue
                _check_cond_value(c, la, results[la], rho_ab, 2, a, TOL)
                _check_cond_value(c, lb, results[lb], rho_ac, 2, b, TOL)
                total = results[la][0] + results[lb][0]
                c.expect(la, abs(total) <= TOL,
                         f"duality: H_a(A|B) + H_b(A|C) = {total:.3g}")
        for i, st in enumerate(cqs):
            for a in FW_ORDERS:
                up, down = f"fw[{i}] up a={a}", f"fw[{i}] down a={a}"
                if c.has(results, down):
                    want = fw_down_reference(st, f, a)
                    c.expect(down, abs(results[down] - want) <= TOL,
                             f"down value {results[down]:.12g} != "
                             f"reference {want:.12g}")
                if c.has(results, up, down):
                    c.expect(up, results[up] >= results[down] - TOL,
                             "f-weighted up value below the down value")
        return c.failed

    return Workload("sigma-sweep", ops, check)


# ------------------------------------------------------------ endpoint-sdp

def _chain_pair(rng):
    """Two rounds for the chain rule: e1 maps A to (T1, X); e2 consumes X
    and a second pinned input B and emits T2.  Alone, e2 has the free
    register X beside the pinned B."""
    e1 = random_channel(space(("A", 2)), space(("T1", 2), ("X", 2)),
                        seed=_sub(rng), kraus_rank=2)
    e2 = random_channel(space(("X", 2), ("B", 2)), space(("T2", 2)),
                        seed=_sub(rng), kraus_rank=2)
    psi = random_density(space(("A", 2)), seed=_sub(rng))
    phi = random_density(space(("B", 2)), seed=_sub(rng))
    return e1, e2, psi, phi


def _gamma(rng, label):
    g = random_density(space((label, 2)), seed=_sub(rng))
    return State(g.matrix * 2.0, g.space)  # a test operator, not a state


def _channel_op(label, ch, alpha, constraint=None):
    return Op(label, lambda: channel_cond_entropy(ChannelEntropyProblem(
        ch, "T", alpha, constraint=constraint)), lambda r: r.value)


def endpoint_sdp(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    small = random_density(space(("A", 2), ("B", 2)), seed=_sub(rng))
    big = random_density(space(("A", 2), ("B", 4)), seed=FIXED["2x4"])
    psi = random_pure(space(("A", 2), ("B", 2), ("C", 2)), seed=_sub(rng))
    cq, f = rho4()
    half_chs = [_qubit_channel(rng) for _ in range(2)]
    ch4 = random_channel(space(("A", 2), ("F", 2)), space(("T", 2), ("Y", 2)),
                         seed=_sub(rng), kraus_rank=2)
    pin = MarginalConstraint("A", random_density(space(("A", 2)),
                                                 seed=_sub(rng)))
    inf_chs = [_qubit_channel(**kw) for kw in FIXED["inf"]]
    e1, e2, cpsi, cphi = _chain_pair(rng)
    # additivity: two fully pinned qubit rounds
    a1 = random_channel(space(("A", 2)), space(("T1", 2)), seed=_sub(rng),
                        kraus_rank=2)
    a2 = random_channel(space(("B", 2)), space(("T2", 2)), seed=_sub(rng),
                        kraus_rank=2)
    # measured chain rule: round 0 maps (A, F) to (T0, X) with A pinned,
    # round 1 consumes X and the pinned B and emits T1
    r0 = random_channel(space(("A", 2), ("F", 2)), space(("T0", 2), ("X", 2)),
                        seed=_sub(rng), kraus_rank=2)
    r1 = random_channel(space(("X", 2), ("B", 2)), space(("T1", 2)),
                        seed=_sub(rng), kraus_rank=2)
    m0 = MarginalConstraint("A", random_density(space(("A", 2)),
                                                seed=_sub(rng)))
    m1 = MarginalConstraint("B", random_density(space(("B", 2)),
                                                seed=_sub(rng)))
    g0, g1 = _gamma(rng, "T0"), _gamma(rng, "T1")

    states = [_h_up_op(f"H_up[{name}] a={a}", st, ["B"], a)
              for name, st in (("2x2", small), ("2x4", big))
              for a in (0.5, INF)]
    duals = [_h_up_op(f"pure A|{cond} a={a}", psi, [cond], a)
             for cond, a in (("B", 0.5), ("C", INF), ("B", INF), ("C", 0.5))]
    fws = [Op(f"fw {v} a=0.5", lambda v=v: fweighted_entropy(
        cq, f, 0.5, variant=v, **FW_KW)) for v in ("up", "down")]
    halves = [_channel_op(f"channel[{i}] a=0.5", ch, 0.5)
              for i, ch in enumerate(half_chs)]
    halves.append(_channel_op("ch4 pinned a=0.5", ch4, 0.5, pin))
    infs = [_channel_op(f"fixed[{i}] a={a}", ch, a)
            for i, ch in enumerate(inf_chs) for a in (0.5, INF)]
    rules = [Op("chain rule a=0.5", lambda: verify_chain_rule(
                 e1, e2, cpsi, cphi, 0.5, target1="T1", target2="T2")),
             Op("additivity a=0.5", lambda: verify_additivity(
                 a1, a2, cpsi, cphi, 0.5, target1="T1", target2="T2"),
                lambda r: r[2])]

    # the measured chain rule: build the three pairs, solve them, then test
    # the product of the rounds' dual optimizers in the joint dual
    pairs, solved = {}, {}

    def build(label, fn):
        def call():
            pairs[label] = fn()
            return pairs[label]
        return Op(f"build {label}", call,
                  lambda r: float(np.real(np.trace(r.dual_rhs))))

    def solve(label):
        def call():
            solved[label] = solve_sdp_pair(pairs[label])
            return solved[label]
        return Op(f"solve {label}", call, lambda r: (r[0].value, r[1].value))

    def slack():
        return product_feasibility_slack(
            pairs["joint"], solved["round0"][1].variables["Lambda"],
            solved["round1"][1].variables["Lambda"])

    measured = [
        build("round0", lambda: build_sdp_individual(g0, r0, m0)),
        build("round1", lambda: build_sdp_individual(g1, r1, m1)),
        build("joint", lambda: build_sdp_joint(g0, g1, (r0, r1), (m0, m1),
                                               form="composed")),
        solve("round0"), solve("round1"), solve("joint"),
        Op("product feasibility", slack)]
    ops = spread(states, duals, fws, halves, infs, rules, measured)

    def check(results):
        c = Checks(results)
        for name, st in (("2x2", small), ("2x4", big)):
            for a in (0.5, INF):
                label = f"H_up[{name}] a={a}"
                if c.has(results, label):
                    _check_cond_value(c, label, results[label], st.matrix, 2,
                                      a, SDP_TOL)
        rho_ab, rho_ac = _pure_marginals(psi)
        for cond, a in (("B", 0.5), ("C", INF), ("B", INF), ("C", 0.5)):
            label = f"pure A|{cond} a={a}"
            if c.has(results, label):
                _check_cond_value(c, label, results[label],
                                  rho_ab if cond == "B" else rho_ac, 2, a,
                                  SDP_TOL)
        for x, y in (("B", "C"), ("C", "B")):
            la, lb = f"pure A|{x} a=0.5", f"pure A|{y} a=inf"
            if c.has(results, la, lb):
                total = results[la][0] + results[lb][0]
                c.expect(la, abs(total) <= SDP_TOL,
                         f"duality: H_1/2(A|{x}) + H_inf(A|{y}) = {total:.3g}")
        if c.has(results, "fw up a=0.5", "fw down a=0.5"):
            c.expect("fw up a=0.5",
                     results["fw up a=0.5"] >= results["fw down a=0.5"] - SDP_TOL,
                     "f-weighted up value below the down value")
        if c.has(results, "fw down a=0.5"):
            want = fw_down_reference(cq, f, 0.5)
            c.expect("fw down a=0.5", abs(results["fw down a=0.5"] - want)
                     <= SDP_TOL, "down value differs from the reference")
        for i in range(len(inf_chs)):
            lh, li = f"fixed[{i}] a=0.5", f"fixed[{i}] a=inf"
            if c.has(results, lh, li):
                c.expect(li, results[li].value <= results[lh].value + SDP_TOL,
                         "channel H_inf above H_1/2")
        for op in halves + infs:
            if c.has(results, op.label):
                c.expect(op.label, abs(results[op.label].value) <= 1.0 + SDP_TOL,
                         "|H(T|...)| > log2 d_T")
        if c.has(results, "chain rule a=0.5"):
            c.expect("chain rule a=0.5", results["chain rule a=0.5"] >= -SDP_TOL,
                     f"chain-rule slack {results['chain rule a=0.5']:.3g} < 0")
        if c.has(results, "additivity a=0.5"):
            gap = results["additivity a=0.5"][2]
            c.expect("additivity a=0.5", abs(gap) <= SDP_TOL,
                     f"additivity gap {gap:.3g}")
        for label in ("round0", "round1", "joint"):
            s = f"solve {label}"
            if c.has(results, s):
                p, d = results[s]
                c.expect(s, abs(p.value - d.value) <= p.gap + d.gap + SDP_TOL,
                         f"primal {p.value:.12g} != dual {d.value:.12g}")
        if c.has(results, "product feasibility"):
            c.expect("product feasibility",
                     results["product feasibility"] >= -SDP_TOL,
                     f"product slack {results['product feasibility']:.3g}")
        if c.has(results, "solve round0", "solve round1", "solve joint"):
            v0 = results["solve round0"][1].value
            v1 = results["solve round1"][1].value
            vj = results["solve joint"][0].value
            c.expect("solve joint", vj <= v0 * v1 * (1 + SDP_TOL) + SDP_TOL,
                     "joint optimum exceeds the product of the rounds")
        return c.failed

    return Workload("endpoint-sdp", ops, check)


# -------------------------------------------------------------- channel-opt

DESCENT_ORDERS = [0.8, 1.0, 2.0]


def _witness_output(ch, witness: State):
    """Pure output on (outputs..., Z, R) of the channel's Stinespring
    dilation applied to the witness on (input, R), with its dimensions."""
    d_r = witness.space.dim // ch.in_space.dim
    out = ref.apply_stinespring(ch.kraus, witness.matrix, d_r)
    return out, tuple(ch.out_space.dims) + (len(ch.kraus), d_r)


def _t_given(out, dims, keep):
    """Marginal with T (position 0) first, then ``keep``."""
    return ref.partial_trace(out, dims, [0] + list(keep))


def certified_interval(ch, witness: State, alpha: float, *, upper=True):
    """Interval holding H^up_alpha(T | rest, R) of the witness output.

    Lower end: -D_alpha(rho_T,rest,R || 1 (x) sigma); upper end, by duality
    on the pure output: D_beta(rho_TZ || 1 (x) tau).  sigma and tau come
    from ``cond_entropy_up``; the reference computes both divergences.
    With ``upper=False`` the upper end is left out (``inf``).
    """
    out, dims = _witness_output(ch, witness)
    n_out = len(ch.out_space.dims)
    cond = list(range(1, n_out)) + [n_out + 1]  # rest of the output, R
    rho_c = _t_given(out, dims, cond)
    rho_z = _t_given(out, dims, [n_out])
    if alpha == 1.0:
        d_c = rho_c.shape[0] // 2
        h = ref.von_neumann(rho_c) - ref.von_neumann(
            ref.partial_trace(rho_c, (2, d_c), [1]))
        return h, h
    beta = ref.dual_order(alpha)
    sp_c = space(("T", 2), ("C", rho_c.shape[0] // 2))
    sp_z = space(("T", 2), ("Z", rho_z.shape[0] // 2))
    _, info_c = cond_entropy_up(State(rho_c, sp_c, check=False), ["T"], ["C"],
                                alpha, return_info=True)
    lower = ref.cond_value_at(rho_c, 2, info_c["sigma"], alpha)
    if not upper:
        return lower, INF
    _, info_z = cond_entropy_up(State(rho_z, sp_z, check=False), ["T"], ["Z"],
                                beta, return_info=True)
    return lower, -ref.cond_value_at(rho_z, 2, info_z["sigma"], beta)


def other_inputs(rng, d_in: int, d_r: int):
    """Feasible pure inputs on (input, R): maximally entangled, product and
    one random state."""
    me = np.eye(d_in, d_r).reshape(-1) / math.sqrt(min(d_in, d_r))
    prod = np.zeros(d_in * d_r)
    prod[0] = 1.0
    g = rng.standard_normal(d_in * d_r) + 1j * rng.standard_normal(d_in * d_r)
    return [v / np.linalg.norm(v) for v in (me, prod, g)]


def channel_opt(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    generic = _qubit_channel(**FIXED["descent"])
    order_one = [_qubit_channel(**kw) for kw in FIXED["order-one"]]
    e1, e2, cpsi, cphi = _chain_pair(np.random.default_rng(FIXED["chain"]))
    probes = other_inputs(rng, 2, 2)  # stabilizer R has the input's dimension

    families = [("generic", generic, DESCENT_ORDERS)] + [
        (f"qubit[{i}]", ch, [1.0]) for i, ch in enumerate(order_one)]
    ops = spread([_channel_op(f"{name} a={a}", ch, a)
                  for name, ch, orders in families[:1] for a in orders],
                 [_channel_op(f"{name} a=1.0", ch, 1.0)
                  for name, ch, _ in families[1:]],
                 [Op("chain rule a=1", lambda: verify_chain_rule(
                     e1, e2, cpsi, cphi, 1.0, target1="T1", target2="T2"))])

    def endpoint(ch, alpha):
        return channel_cond_entropy(ChannelEntropyProblem(ch, "T", alpha)).value

    def check(results):
        c = Checks(results)
        for name, ch, orders in families:
            labels = [f"{name} a={a}" for a in orders]
            if not c.has(results, *labels):
                continue
            # the certified endpoint values bound every order; alpha = inf
            # is left out on the qubit-to-qubit channel, where it does not
            # converge
            try:
                top = endpoint(ch, 0.5)
                bottom = endpoint(ch, INF) if name != "generic" else -INF
            except Exception as exc:
                c.expect(labels[0], False, f"endpoint order raised {exc!r}")
                continue
            prev = top
            for a, label in zip(orders, labels):
                res = results[label]
                c.expect(label, bottom - TOL <= res.value <= prev + TOL,
                         f"value {res.value:.12g} not monotone in alpha "
                         f"between H_inf {bottom:.12g} and H_1/2 {top:.12g}")
                prev = res.value
                try:
                    lo, hi = certified_interval(ch, res.witness, a)
                    c.expect(label, lo - TOL <= res.value <= hi + TOL
                             and hi - lo <= 10 * TOL,
                             f"value {res.value:.12g} outside its witness's "
                             f"certified interval [{lo:.12g}, {hi:.12g}]")
                    for k, v in enumerate(probes):
                        other = State(np.outer(v, v.conj()), res.witness.space,
                                      check=False)
                        lo_k = certified_interval(ch, other, a, upper=False)[0]
                        c.expect(label, res.value <= lo_k + TOL,
                                 f"value above the entropy {lo_k:.12g} at "
                                 f"feasible input {k}")
                except Exception as exc:
                    c.expect(label, False, f"certificate raised {exc!r}")
        if c.has(results, "chain rule a=1"):
            c.expect("chain rule a=1", results["chain rule a=1"] >= -TOL,
                     f"chain-rule slack {results['chain rule a=1']:.3g} < 0")
        return c.failed

    return Workload("channel-opt", ops, check)


WORKLOADS = {
    "sigma-sweep": sigma_sweep,
    "endpoint-sdp": endpoint_sdp,
    "channel-opt": channel_opt,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
