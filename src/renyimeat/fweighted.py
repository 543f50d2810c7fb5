"""f-weighted conditional Renyi entropies.

A tradeoff function assigns a real score f(cs, cp) to each joint outcome of
two classical registers (a "secret" one grouped with the target and a
"public" one grouped with the conditioning).  The f-weighted entropy tilts
every classical branch of H^up_a by 2^{(a-1) f} before the per-public-outcome
optimization, which is exactly what makes entropy-accumulation statements
composable round by round.

The weighted value can always be traded for an unweighted one by appending a
register D whose own entropy encodes f: H^up_a(D Q Cs | Cp Q') = M + H^{up,f}
for a suitable read-and-prepare channel (:func:`build_d_channel`).  Both the
equality-grade construction and the order-uniform dyadic relaxation are
implemented, and :func:`verify_createD` measures how well the identity holds
on an actual state.
"""

import math

import numpy as np
from scipy.optimize import bisect
from scipy.special import logsumexp

from .channels import Channel, prepare_channel
from .divergences import as_order, classical_renyi_entropy
from .entropies import (_two_sided_mix, _two_sided_split, cond_entropy_up,
                        renyi_branch_mix, two_sided_classmix)
from .errors import (DomainMismatch, InfeasibleSpec, InvalidRegister,
                     InvalidState, UnsupportedOrder)
from .registers import LOG2E, RegisterSpace, State, space

#: Largest dimension build_d_channel will give the appended register.
D_DIM_CAP = 2 ** 16


def _canon_symbol(sym):
    """Normalize an outcome symbol: sequences become tuples, singleton
    sequences collapse to their element, numpy ints become ints."""
    if isinstance(sym, (list, tuple)):
        t = tuple(_canon_symbol(s) for s in sym)
        return t[0] if len(t) == 1 else t
    if isinstance(sym, np.integer):
        return int(sym)
    return sym


class TradeoffFunction:
    """Real table f(cs, cp) over the product of two classical alphabets.

    Either factor may be trivial: use a single empty-tuple symbol ``()`` for
    it (:meth:`on_public` builds that case directly).  Values must be finite.
    """

    def __init__(self, alphabet_cs, alphabet_cp, values):
        self.alphabet_cs = tuple(_canon_symbol(s) for s in alphabet_cs)
        self.alphabet_cp = tuple(_canon_symbol(s) for s in alphabet_cp)
        if len(set(self.alphabet_cs)) != len(self.alphabet_cs) \
                or len(set(self.alphabet_cp)) != len(self.alphabet_cp):
            raise DomainMismatch("alphabet symbols repeat")
        vals = np.asarray(values, dtype=float)
        want = (len(self.alphabet_cs), len(self.alphabet_cp))
        if vals.shape != want:
            raise DomainMismatch(
                f"value table has shape {vals.shape}, alphabets need {want}")
        if not np.all(np.isfinite(vals)):
            raise InvalidState("tradeoff values must be finite")
        self.values = vals
        self._row = {s: i for i, s in enumerate(self.alphabet_cs)}
        self._col = {s: j for j, s in enumerate(self.alphabet_cp)}

    @classmethod
    def on_public(cls, alphabet_cp, values):
        """Tradeoff depending only on the public register (trivial secret)."""
        return cls([()], alphabet_cp, [list(values)])

    def value(self, cs, cp) -> float:
        cs, cp = _canon_symbol(cs), _canon_symbol(cp)
        if cs not in self._row:
            raise DomainMismatch(f"secret symbol {cs!r} not in the domain")
        if cp not in self._col:
            raise DomainMismatch(f"public symbol {cp!r} not in the domain")
        return float(self.values[self._row[cs], self._col[cp]])

    def shifted(self, kappa: float) -> "TradeoffFunction":
        """The tradeoff function f + kappa."""
        return TradeoffFunction(self.alphabet_cs, self.alphabet_cp,
                                self.values + float(kappa))

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    def to_jsonable(self):
        def enc(sym):
            return list(sym) if isinstance(sym, tuple) else sym
        return {"alphabet_cs": [enc(s) for s in self.alphabet_cs],
                "alphabet_cp": [enc(s) for s in self.alphabet_cp],
                "values": [[float(v) for v in row] for row in self.values]}

    @classmethod
    def from_jsonable(cls, data):
        return cls(data["alphabet_cs"], data["alphabet_cp"], data["values"])


# -------------------------------------------------------- log-mean-exponential


def lme(probs, values, base) -> float:
    """log-mean-exponential log_base( sum_x p(x) base^(g(x)) ).

    Interpolates between min(g) (base -> 0), the mean (base -> 1) and max(g)
    (base -> infinity); the f-weighted entropy with trivial secret register
    is an lme of per-branch entropies at base 2^((1-a)/a).
    """
    b = float(base)
    if not b > 0.0 or b == 1.0:
        raise InvalidState("lme base must be positive and different from 1")
    p = np.asarray(probs, dtype=float)
    g = np.asarray(values, dtype=float)
    if p.shape != g.shape:
        raise InvalidState("probability and value tables differ in length")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidState("lme needs a normalized distribution")
    keep = p > 0.0
    lnb = math.log(b)
    return float(logsumexp(np.log(p[keep]) + g[keep] * lnb) / lnb)


# ------------------------------------------------------- the weighted entropy


def _check_order(alpha):
    a = as_order(alpha)
    if a.near_one or (not a.is_infinite and a.value < 0.5):
        raise UnsupportedOrder("f-weighted entropies are defined for orders "
                               "in [1/2, 1) and (1, oo]")
    return a


def fweighted_entropy(state: State, f: TradeoffFunction, alpha, *,
                      target, conditioning, classical_target=(),
                      classical_cond=(), variant: str = "up") -> float:
    """H^{up,f}_a(Q Cs | Cp Q'), the tradeoff-weighted conditional entropy.

        (a/(1-a)) log2 sum_cp p(cp) *
            opt_sigma [ sum_cs p(cs|cp)^a 2^{(a-1)(f(cs,cp) + D_a(rho_{QQ'|cs cp}
                        || id_Q (x) sigma))} ]^{1/a}

    The inner optimization is a minimum for a > 1 and a maximum for a < 1;
    f enters each branch as an extra log-weight of ((a-1)/a) f, so the whole
    machinery of the unweighted two-sided mixture carries over.  a = infinity
    is its limit, the max-divergence program
    -log2 sum_cp p(cp) min{tr X : id_Q (x) X >= p(cs|cp) 2^f(cs,cp)
    rho_{QQ'|cs cp} for every cs}.

    ``variant="down"`` replaces the optimized sigma^(cp) by the actual
    conditional marginal rho_{Q'|cp} (no optimization); since that is a
    feasible point of the inner extremum, the down value never exceeds the
    up value, which is the comparison the up/down lemma is stated against.
    At a = infinity the down value is a closed form in the largest
    eigenvalues of the branches sandwiched by rho_{Q'|cp}^(-1/2).
    """
    if variant not in ("up", "down"):
        raise InvalidState(f"unknown variant {variant!r}")
    a = _check_order(alpha)
    rho, q_labels, qp_labels, classical_target, classical_cond = \
        _two_sided_split(state, target, conditioning, classical_target,
                         classical_cond)
    return _two_sided_mix(rho, q_labels, qp_labels, classical_target,
                          classical_cond, a, f.value, variant=variant)


def fweighted_cs_conditioned(state: State, f: TradeoffFunction, alpha, *,
                             target, conditioning, classical_target=(),
                             classical_cond=()) -> float:
    """The chain-rule companion with *both* classical registers conditioning:

        H^{up,f}_a(Q | Cs Cp Q')
            = (a/(1-a)) log2 sum_{cs cp} p(cs cp)
                2^{((1-a)/a)(H^up_a(Q|Q')_{rho|cs cp} - f(cs,cp))}

    i.e. an lme at base 2^((1-a)/a) of the shifted per-branch entropies over
    the joint outcome distribution.
    """
    a = _check_order(alpha)
    rho, q_labels, qp_labels, classical_target, classical_cond = \
        _two_sided_split(state, target, conditioning, classical_target,
                         classical_cond)
    probs, values = [], []
    for outcome, w, branch in rho.branches(classical_target + classical_cond):
        if branch is None:
            continue
        n_cs = len(classical_target)
        cs, cp = outcome[:n_cs], outcome[n_cs:]
        h = cond_entropy_up(branch, q_labels, qp_labels,
                            "inf" if a.is_infinite else a.value)
        probs.append(w)
        values.append(h - f.value(cs, cp))
    return renyi_branch_mix(probs, values,
                            "inf" if a.is_infinite else a.value, variant="up")


# ------------------------------------------------- the D-register construction


class DRegisterSpec:
    """Recipe for a register whose entropy encodes M - f(cs, cp).

    ``mode="exact"`` pins H_a(D) to M - f exactly at one order (a mixture of
    a pure state with the maximally mixed state, mixing weight found by
    bisection); ``mode="dyadic"`` uses a flat distribution on ceil(2^(M-f))
    points, whose Renyi entropy is order-independent and lands within
    2^(-M/2) log2(e) above the target simultaneously for every order.
    """

    def __init__(self, tradeoff: TradeoffFunction, mode: str,
                 offset: float | None = None):
        if mode not in ("exact", "dyadic"):
            raise InvalidState(f"unknown mode {mode!r}")
        self.tradeoff = tradeoff
        self.mode = mode
        if offset is None:
            top = tradeoff.max_value
            offset = top + 1.0 if mode == "exact" else 2.0 * (top + 1.0)
        self.offset = float(offset)
        gaps = self.offset - tradeoff.values
        if mode == "exact":
            if gaps.min() <= 0.0:
                raise InfeasibleSpec("exact mode needs M - f > 0 everywhere")
        else:
            if self.offset <= 0.0 or gaps.min() <= self.offset / 2.0:
                raise InfeasibleSpec(
                    "dyadic mode needs M - f > M/2 > 0 everywhere")

    @property
    def entropy_table(self) -> np.ndarray:
        """Target entropy M - f(cs, cp), indexed like the tradeoff table."""
        return self.offset - self.tradeoff.values


def _mixture_weight(h: float, d: int, order) -> float:
    """Weight w with H_a( w |0><0| + (1-w) id/d ) = h, bisected to 1e-12."""
    def gap(w):
        probs = np.full(d, (1.0 - w) / d)
        probs[0] += w
        return classical_renyi_entropy(probs, order) - h
    top = gap(0.0)
    if top < -1e-12:
        raise InfeasibleSpec(f"entropy target {h} exceeds log2({d})")
    if top <= 1e-13:
        return 0.0
    return float(bisect(gap, 0.0, 1.0, xtol=1e-12))


def build_d_channel(spec: DRegisterSpec, reader_space: RegisterSpace, *,
                    secret=(), public=(), alpha=None, out_label: str = "D",
                    dim_cap: int = D_DIM_CAP) -> Channel:
    """Read-and-prepare channel appending a classical register with the
    entropies prescribed by ``spec``.

    ``secret`` and ``public`` name the reader registers carrying the two
    tradeoff factors (pass ``()`` for a trivial factor).  Exact mode needs
    the order ``alpha`` the entropy is pinned at; dyadic mode is
    order-independent and ignores it.
    """
    secret, public = list(secret), list(public)
    if sorted(secret + public) != sorted(reader_space.labels):
        raise InvalidRegister("secret and public must partition the reader "
                              "registers")
    table = spec.entropy_table
    hmax = float(table.max())
    if hmax > math.log2(dim_cap) + 1e-12:
        raise InfeasibleSpec(f"entropy target {hmax:.3f} needs a register "
                             f"beyond the dimension cap {dim_cap}")
    if spec.mode == "exact":
        if alpha is None:
            raise UnsupportedOrder("exact mode pins the entropy at one "
                                   "order; pass alpha")
        order = as_order(alpha)
        d = int(math.ceil(2.0 ** hmax))
        if d > dim_cap:
            raise InfeasibleSpec(f"register dimension {d} exceeds the cap "
                                 f"{dim_cap}")
    else:
        sizes = np.ceil(2.0 ** table).astype(int)
        d = int(sizes.max())
        if d > dim_cap:
            raise InfeasibleSpec(f"register dimension {d} exceeds the cap "
                                 f"{dim_cap}")

    pos = {l: i for i, l in enumerate(reader_space.labels)}
    states = {}
    for idx in np.ndindex(*reader_space.dims):
        cs = tuple(idx[pos[l]] for l in secret)
        cp = tuple(idx[pos[l]] for l in public)
        h = spec.offset - spec.tradeoff.value(cs, cp)
        tau = np.zeros(d)
        if spec.mode == "exact":
            w = _mixture_weight(h, d, order)
            tau[:] = (1.0 - w) / d
            tau[0] += w
        else:
            k = int(math.ceil(2.0 ** h))
            tau[:k] = 1.0 / k
        states[idx] = np.diag(tau)
    return prepare_channel(reader_space, states, space((out_label, d)))


def verify_createD(state: State, f: TradeoffFunction, alpha, *, mode: str,
                   target, conditioning, classical_target, classical_cond,
                   offset: float | None = None, out_label: str = "D",
                   dim_cap: int = D_DIM_CAP):
    """Check the entropy-encoding identity on an actual state.

    Appends the D register and compares H^up_a(D Q Cs | Cp Q') against
    M + H^{up,f}_a(Q Cs | Cp Q').  Exact mode returns the absolute residual
    of the equality; dyadic mode returns the signed slacks (lower, upper) of
    the two-sided bound, both of which must be nonnegative up to numerics.
    """
    a = _check_order(alpha)
    classical_target = list(classical_target)
    classical_cond = list(classical_cond)
    spec = DRegisterSpec(f, mode, offset)
    reader = state.space.keep(classical_target + classical_cond)
    chan = build_d_channel(spec, reader, secret=classical_target,
                           public=classical_cond,
                           alpha=(alpha if mode == "exact" else None),
                           out_label=out_label, dim_cap=dim_cap)
    extended = chan.apply(state)
    lhs = two_sided_classmix(extended, target=[out_label] + list(target),
                             conditioning=list(conditioning),
                             classical_target=[out_label] + classical_target,
                             classical_cond=classical_cond,
                             alpha=alpha)
    rhs = fweighted_entropy(state, f, alpha, target=target,
                            conditioning=conditioning,
                            classical_target=classical_target,
                            classical_cond=classical_cond)
    if mode == "exact":
        return abs(lhs - spec.offset - rhs)
    width = 2.0 ** (-spec.offset / 2.0) * LOG2E
    return lhs - spec.offset - rhs, spec.offset + width + rhs - lhs
