"""Stopping rules and exact backward induction.

Three families of rules live here:

* threshold rules A^alpha: accept the first candidate whose L1 value crosses
  a threshold T chosen so that Pr[V* >= T] hits a target alpha.  On discrete
  priors an exact alpha needs randomization, realized as a single up-front
  coin that picks between the weak (>=) and strict (>) rule.  Splitting the
  coin per encounter would not give Pr[select anything] = alpha (two steps
  that both land exactly on T would decline with probability (1-p)^2 instead
  of 1-p), so the policy mixes whole deterministic rules.
* exact optimal policies for biased and rational agents via backward
  induction; the biased DP is keyed on (step, super candidate), which is a
  sufficient statistic because the utility depends on history only through
  the reference point.  Its optimum always stops: walking away scores
  -lambda * ||s^(n)||_1, and taking the last offer never scores less.
* exact expectations, patience comparison and Monte Carlo trial walks of
  compiled rules, over the reachable (step, super candidate) states instead
  of every realization; one expectation walk takes a compiled policy's
  arms in turn, sharing one stop view and one norm table.  The state
  budget caps the states each exact pass holds (`_charge`) and the number
  of states a Monte Carlo walk interns.

All of these run on one lattice core: one per-prior rank table, one join
kernel and one stop view.  `_joins` joins a step's (state, atom) pairs a
coordinate column at a time, for the biased DP and for each step of an
expectation walk that holds at least `_COLUMN_JOINS` states.  A walk step
with fewer states is cheaper with one `_join` call per pair (the
constant's comment has the timings), and `patience_compare` and the Monte
Carlo walk, which hold one state per frame or per trial, join one pair at
a time too.  `_stop_view` gives the biased DP, exact expectation and the
Monte Carlo walk the view, lambda as a/b and a
fresh `_Norms` table, so each scores a stop on scaled value v that joins state
s as b*v - a*(norms[s] - v).  Every walk keys its states on rank tuples (each
coordinate's values replaced by their rank among its distinct values), so
joins compare small ints, and reads a rule as accept masks: per (step,
rank state), the int of the row's bits of the atoms it stops on.  A
compiled arm carries its masks for its own prior; only `run_rule`, on a
caller's sequence, decides on values and scores them.

V* and each dimension's maximum come from one sweep, `_cdf_sweeps`: steps
are independent, so Pr[max_t key(sigma^(t)) <= x] = prod_t Pr[key(sigma^(t))
<= x].  Over every (step, atom), sorted by key, one pass from the bottom up
sums each step's CDF, and one from the top down keeps the product of the
CDFs as each atom leaves its step's.  A law is its distinct values from
the top down and each one's CDF; a weight Pr[max = x] is the CDF's fall
to the next lower value, a tail Pr[max > x] the scale prod D_t less the
CDF, and a mean the sum of x * weight from the bottom up.
`value_max_distribution` returns the V* law in ascending value order.  The
pass holds two entries per (step, atom), linear in the input, so it
charges no state budget.  E[V*] is the V* law's mean, and E[sum_j S_j*]
the k dimension laws' means summed, each an int over one scale, decoded
once.  A pass with two readers on one prior runs once:
`ProductPrior.memoized` keeps one rank table, one V* law
(`_cdf_sweeps(prior, (None,))`, read by E[V*], the alpha thresholds and
`value_max_distribution`, which decodes it), and one biased DP per lambda
and its type, so a float lambda never gets an exact lambda's result and
a loop over lambda holds one DP; a kept DP past a read's budget is
refused by a fresh forward pass under that budget, which stops once the
budget is passed.  Kept results are shared, so read-only; errors are not
kept.

The biased DP, the rational DP, the CDF sweep, E[V*], the alpha
thresholds and the threshold arms' masks, exact expectation and the Monte
Carlo walk's stops compute on an integer view of the prior, built with the
rank table once per distinct step: entries times L, the lcm of every
entry's denominator, and each step's probabilities as int weights over
D_t, their lcm.  Sums of products of those ints, and lambda = a/b applied
as b*v - a*(s - v), stay ints over one positive scale per step, so every
comparison is the Fraction one and no gcd is paid along the way: a tail of
the V* law is compared with alpha = c/d (its `as_integer_ratio`, so a
float alpha's too) as tail <= c*prod D_t // d, and a scaled value with
T = c/d as v*d >= c*L.  Ints are decoded to Fractions
only for the final values, the rational DP's continuation values that are
read, a threshold and its coin and the distributions returned; a Monte
Carlo stop goes straight to a float, the correctly rounded quotient of
its scaled ints.  A DP records its decisions only
as accept masks, per step a tuple aligned with the step's sorted rank
states, which `DPResult.mask` bisects; no (step, state) key is built.
Its value-keyed `policy_table` is decoded from them when first read.
When any entry, probability or lambda (or T) is a float, the
same loops run on the identity view (L = b = D_t = 1, weights the
probabilities), which performs the float operations in the order the
Fraction formulas did.  The sweep's float CDFs are products: each step's
CDF F is summed from 0 by its atoms' probabilities from the bottom key up,
the product P starts at the product of the steps' sums, and an atom
passed from the top down sets P to P / F * F', F' its step's CDF just
below it; a weight is the fall of P, a tail the top value's P less P.  So
a float prior's V* law, E[V*], E[sum_j S_j*] and threshold coins round as
products, not as a max-convolution's sums.
"""

from __future__ import annotations

import collections.abc
import math
import os
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat, starmap
from operator import ge, getitem, gt, is_, itemgetter, le, lt, mul, sub
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import (
    AgentParams,
    InvalidInput,
    Number,
    ProductPrior,
    ResourceLimit,
    Sequence,
    StoppingOutcome,
    _check_dims,
    _coerce,
    _json_int,
    _parse_int,
    number_from_json,
    number_to_json,
)

DEFAULT_STATE_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "LAP_BUDGET_STATES"

_KINDS = ("threshold", "fixed-index", "optimal-biased",
          "optimal-rational", "accept-last")


def resolve_budget(budget: Optional[int] = None) -> int:
    """Explicit argument (an int, not a bool), else the LAP_BUDGET_STATES
    env var, else default."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None:
            return DEFAULT_STATE_BUDGET
        try:
            budget = _parse_int(raw)
        except ValueError as err:
            raise InvalidInput(f"bad {BUDGET_ENV_VAR} value {raw!r}") from err
    if _json_int(budget, "budget") <= 0:
        raise InvalidInput("budget must be positive")
    return budget


def _charge(count: int, budget: int, t: int) -> None:
    """The state budget of every exact pass: `count` lattice states held
    by step t may not exceed `budget`."""
    if count > budget:
        raise ResourceLimit(f"state budget {budget} exceeded "
                            f"({count}+ states by step {t})")


def _ratio(x: Number) -> Tuple[Number, Number]:
    """A Fraction as (numerator, denominator), any other number as (x, 1),
    so a bound is tested with no Fraction comparison."""
    return (x.numerator, x.denominator) if type(x) is Fraction else (x, 1)


def _in_unit(x: Number, below) -> bool:
    """0 `below` x `below` 1, with `below` lt (the open interval) or le
    (the closed one)."""
    num, den = _ratio(x)
    return below(0, num) and below(num, den)


@dataclass(frozen=True)
class Policy:
    """A stopping-rule description (not yet bound to any prior)."""

    kind: str
    threshold: Optional[Number] = None
    atom_accept_prob: Optional[Number] = None
    alpha: Optional[Number] = None
    index: Optional[int] = None
    lam: Optional[Number] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInput(f"unknown policy kind {self.kind!r}")
        for value, what in ((self.threshold, "threshold"),
                            (self.atom_accept_prob, "atom_accept_prob"),
                            (self.alpha, "alpha"), (self.lam, "lambda")):
            if value is not None:
                _coerce(value, what)  # a refusal only: the value is kept
        if self.kind == "threshold":
            if self.alpha is not None:
                if not _in_unit(self.alpha, lt):
                    raise InvalidInput("alpha must lie in (0, 1)")
            elif self.threshold is None:
                raise InvalidInput("threshold policy needs alpha or threshold")
            else:
                if _ratio(self.threshold)[0] < 0:
                    raise InvalidInput("threshold must be non-negative")
                p = self.atom_accept_prob
                if p is None:
                    object.__setattr__(self, "atom_accept_prob", Fraction(1))
                elif not _in_unit(p, le):
                    raise InvalidInput("atom_accept_prob must lie in [0, 1]")
        elif self.kind == "fixed-index":
            if self.index is None or _json_int(self.index, "index") < 1:
                raise InvalidInput("fixed-index policy needs index >= 1")
        elif self.kind == "optimal-biased":
            if self.lam is not None and _ratio(self.lam)[0] < 0:
                raise InvalidInput("lambda must be non-negative")

    @staticmethod
    def from_alpha(alpha: Number, seed: Optional[int] = None) -> "Policy":
        return Policy(kind="threshold", alpha=alpha, seed=seed)

    @staticmethod
    def fixed_index(t: int) -> "Policy":
        return Policy(kind="fixed-index", index=t)

    @staticmethod
    def optimal_biased(lam: Optional[Number] = None) -> "Policy":
        return Policy(kind="optimal-biased", lam=lam)

    @staticmethod
    def optimal_rational() -> "Policy":
        return Policy(kind="optimal-rational")

    @staticmethod
    def accept_last() -> "Policy":
        return Policy(kind="accept-last")


def _threshold_policy(t_value: Number, atom_accept_prob: Number = Fraction(1),
                      seed: Optional[int] = None) -> Policy:
    return Policy(kind="threshold", threshold=t_value,
                  atom_accept_prob=atom_accept_prob, seed=seed)


# class-level factory; instances shadow the name with the field value
Policy.threshold = staticmethod(_threshold_policy)


@dataclass(frozen=True)
class DPResult:
    """Backward-induction output: the value, the state count, and per step
    t the accept masks over the prior's `rank_table` rows, `masks[t - 1]`,
    aligned with that step's sorted rank states, `layers[t - 1]`.  The
    rational DP has no layers (None): its one state at each step is ()."""

    expected_utility: Number
    state_count: int
    masks: List[Tuple[int, ...]]
    rank_table: tuple = field(repr=False, compare=False)
    layers: Optional[List[collections.abc.Sequence]] = None

    def mask(self, t: int, ranks: tuple) -> int:
        """The accept mask of the reachable rank state `ranks` before t,
        found by bisecting the step's sorted layer."""
        if self.layers is None:
            return self.masks[t - 1][0]
        return self.masks[t - 1][bisect_left(self.layers[t - 1], ranks)]

    @cached_property
    def policy_table(self) -> Dict[Tuple[int, tuple], Tuple[tuple, ...]]:
        """The masks decoded on first read: per (t, the state's values),
        the sorted entries it accepts; the biased DP's from step n down and
        each step's states in order, the rational DP's from step 1 up."""
        rows, levels = self.rank_table[:2]
        n = len(self.masks)
        steps = range(n, 0, -1) if self.layers else range(1, n + 1)
        layers = self.layers or [((),)] * n
        return {(t, _decode(levels, s)): tuple(
            e for i, e in enumerate(rows[t - 1].ordered) if mask >> i & 1)
            for t in steps
            for s, mask in zip(layers[t - 1], self.masks[t - 1])}


@dataclass(frozen=True)
class PatienceVerdict:
    verdict: str  # "more-patient" | "incomparable"
    witness: Optional[tuple]  # (sequence, index_a, index_b) when incomparable


# ---------------------------------------------------------------------------
# the lattice core; a state is the super candidate's ranks before a step
# ---------------------------------------------------------------------------

Rule = Callable[[int, tuple, tuple, Number], bool]


class _Row(NamedTuple):
    """One distinct step of the rank table.  Each view lists the step's
    atoms, in the prior's order, as (entries, L1 value, weight, ranks, bit):
    entries and value at the view's scale, and `bit` 1 << the atom's place
    in `ordered`, so that a mask of bits names a sorted set of entries."""

    plain: tuple  # the prior's own numbers; weights are the probabilities
    exact: Optional[tuple]  # ints: entries times L, weights over `den`
    den: int  # D_t, the lcm of the step's probability denominators
    ordered: tuple  # the step's entries, sorted
    columns: tuple  # per coordinate, the atoms' ranks in the prior's order


class _OneRow(collections.abc.Sequence):
    """The rows of a prior whose steps are one object: its one row at each
    of the n step indices, with no n-long list behind them."""

    __slots__ = ("row", "n")

    def __init__(self, row: _Row, n: int):
        self.row, self.n = row, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> _Row:
        if not -self.n <= i < self.n:
            raise IndexError("row index out of range")
        return self.row

    def __iter__(self):
        return repeat(self.row, self.n)


def _rank_table(prior: ProductPrior):
    """Per step a `_Row`, and per coordinate the sorted values its ranks
    index, as the prior's own numbers and as ints times L, the lcm of every
    entry's denominator.  The ints (and every row's exact view) are None
    when any entry or probability is a float.  The validated prior's atoms
    are read once per distinct step: steps that are one object share one
    row, and an iid prior's rows are that one row at every index (found by
    one C-level identity pass, and no n-long list), so a long iid prior
    costs one row, not n.

    Rank 0 of every coordinate is Fraction(0), the value the empty history
    starts from (an equal 0.0 is the same value, and `max` would keep the
    Fraction).  Ranks order a coordinate's values as the values do, so the
    join of rank tuples decodes to the join of the values, and sorting by
    ranks sorts by values.  An exact prior's values are keyed by their
    scaled ints, and its plain L1 values are their sums over L, so no
    Fraction is hashed or added."""
    steps = prior.steps
    first = steps[0]
    if all(map(is_, steps, repeat(first))):
        distinct = (first,)
    else:
        distinct = tuple({id(step): step for step in steps}.values())
    atoms = [atom for step in distinct for atom in step.atoms]
    exact = all(isinstance(x, Fraction)
                for v, p in atoms for x in (p, *v.entries))
    scale = math.lcm(*(e.denominator for v, _ in atoms for e in v.entries)
                     ) if exact else 1
    keyed = {id(v): tuple(e.numerator * (scale // e.denominator)
                          for e in v.entries) if exact else v.entries
             for v, _ in atoms}
    levels, scaled, rank_of = [], [], []
    for j in range(prior.k):
        seen = {0: Fraction(0)}  # key -> the first value with that key
        for v, _ in atoms:
            seen.setdefault(keyed[id(v)][j], v.entries[j])
        order = sorted(seen)
        levels.append(tuple(map(seen.__getitem__, order)))
        scaled.append(tuple(order))
        rank_of.append({x: i for i, x in enumerate(order)})
    built = []
    for step in distinct:
        keys = [keyed[id(v)] for v, _ in step.atoms]
        ranks = [tuple(map(dict.__getitem__, rank_of, key)) for key in keys]
        order = sorted(range(len(keys)), key=ranks.__getitem__)
        bit = [0] * len(keys)
        for place, i in enumerate(order):
            bit[i] = 1 << place
        norms = list(map(sum, keys)) if exact else None
        plain = tuple((v.entries, Fraction(norms[i], scale) if exact else v.l1,
                       p, ranks[i], bit[i])
                      for i, (v, p) in enumerate(step.atoms))
        den, view = 1, None
        if exact:
            den = math.lcm(*(p.denominator for _, p in step.atoms))
            view = tuple((keys[i], norms[i],
                          p.numerator * (den // p.denominator), ranks[i],
                          bit[i]) for i, (_, p) in enumerate(step.atoms))
        built.append(_Row(plain, view, den,
                          tuple(step.atoms[i][0].entries for i in order),
                          tuple(zip(*ranks))))
    if len(built) == 1:
        rows = _OneRow(built[0], len(steps))
    else:
        at = {id(step): row for step, row in zip(distinct, built)}
        rows = [at[id(step)] for step in steps]
    return rows, levels, scaled if exact else None, scale


def _view(row: _Row, exact: bool):
    """A step's atoms and weight denominator in the integer view, or in the
    identity view, which reads the prior's own numbers."""
    return (row.exact, row.den) if exact else (row.plain, 1)


class _Norms(dict):
    """A joined rank state's scaled L1 norm, summed from `levels` on first
    read and kept for the rest of the pass."""

    def __init__(self, levels):
        self.levels = levels

    def __missing__(self, s):
        norm = self[s] = sum(map(getitem, self.levels, s))
        return norm


def _stop_view(prior: ProductPrior, lam: Number):
    """What every walk scores a stop with: rows, the view (exact or not),
    lambda as a/b, a fresh `_Norms` table, and b*L, so that a stop on scaled
    value v that joins state s scores b*v - a*(norms[s] - v) over b*L.  The
    identity view (a = lambda, b = L = 1) when the prior or lambda has a
    float."""
    rows, levels, scaled, unit = prior.memoized(_rank_table)
    if scaled is None or isinstance(lam, float):
        return rows, False, lam, 1, _Norms(levels), 1
    return (rows, True, lam.numerator, lam.denominator, _Norms(scaled),
            lam.denominator * unit)


def _unscaled(exact: bool, x: Number, den: int) -> Number:
    """A scaled int as the Fraction it stands for; the identity view's
    numbers are the values already."""
    return Fraction(x, den) if exact else x


def _decode(levels, ranks: tuple) -> tuple:
    """The values a rank tuple stands for."""
    return tuple(map(getitem, levels, ranks))


def _join(s: tuple, entries: tuple) -> tuple:
    """Coordinatewise maximum: the super candidate after seeing `entries`."""
    return tuple(map(max, s, entries))


def _joins(states, row: _Row) -> tuple:
    """Every (state, atom of `row`) pair's join, state-major: the join of
    the i-th state with atom j at i * len(row.plain) + j, built one
    coordinate column at a time, so a pair costs no call."""
    cols = [[c if c > x else x for c in col for x in xs]
            for col, xs in zip(zip(*states), row.columns)]
    return tuple(zip(*cols))


class _Arm:
    """One deterministic arm of a compiled policy: a `Rule` on values, and
    on `prior`, the prior it was compiled on, `masks(t, ranks)`: the bits
    of step t's atoms it stops on from the rank state `ranks`.  A
    threshold arm's `key` is its masks per distinct row, in the order of
    the prior's distinct rows, so two arms on one prior with equal keys
    stop alike everywhere; any other arm's is None."""

    __slots__ = ("decide", "prior", "masks", "key")

    def __init__(self, decide: Rule, prior: ProductPrior, masks, key=None):
        self.decide, self.prior, self.masks = decide, prior, masks
        self.key = key

    def __call__(self, t, s, entries, val) -> bool:
        return self.decide(t, s, entries, val)


def _accept_masks(rule: Rule, prior: ProductPrior):
    """How a walk reads a rule on `prior`: an arm's own masks, or, for any
    other rule, the bits its value-level calls on the decoded state accept
    (so one that leaves its compiled support raises as on values)."""
    if isinstance(rule, _Arm) and rule.prior is prior:
        return rule.masks
    rows, levels, _, _ = prior.memoized(_rank_table)

    def masks(t, ranks):
        values = _decode(levels, ranks)
        return sum(bit for entries, val, _, _, bit in rows[t - 1].plain
                   if rule(t, values, entries, val))
    return masks


@dataclass(frozen=True)
class CompiledPolicy:
    """A policy bound to a prior: one or two deterministic arms with mixing
    probabilities (two only for atom-splitting thresholds)."""

    arms: Tuple[Tuple[Number, Rule], ...]
    seed: Optional[int] = None

    @property
    def deterministic(self) -> bool:
        return len(self.arms) == 1

    @cached_property
    def _arm_sums(self) -> tuple:
        """The running float sums of the arms' probabilities, all but the
        last arm's, added in the arms' order."""
        return tuple(accumulate(float(p) for p, _ in self.arms[:-1]))

    def draw_arm(self, rng: random.Random) -> int:
        """The index of the arm one draw picks: the first whose running
        sum passes the uniform, else the last; a deterministic policy makes
        no rng call."""
        if self.deterministic:
            return 0
        return bisect_right(self._arm_sums, rng.random())

    def draw_rule(self, rng: random.Random) -> Rule:
        return self.arms[self.draw_arm(rng)][1]


def compile_policy(policy: Policy, prior: ProductPrior, params: AgentParams,
                   budget: Optional[int] = None) -> CompiledPolicy:
    """Bind a policy to `prior`.  Masks: a threshold's per distinct row,
    a fixed index's all bits at its step, the DPs' their own."""
    _check_dims(prior, params)
    rows, _, scaled, unit = prior.memoized(_rank_table)
    if policy.kind == "threshold":
        if policy.alpha is not None:
            policy = threshold_from_alpha(prior, policy.alpha, policy.seed)
        t_value, p = policy.threshold, policy.atom_accept_prob
        distinct = {id(row): row for row in rows}.values()
        # an exact prior and a rational T build the masks on the integer
        # view: val >= T iff val * T.den >= T.num * L; the identity view
        # compares val * 1, the same number, with T
        exact = scaled is not None and isinstance(t_value, (int, Fraction))
        den, bar = (t_value.denominator, t_value.numerator * unit) if exact \
            else (1, t_value)

        def arm(stops):  # ge: the weak rule; gt: the strict one
            at = {id(row): sum(atom[4] for atom in _view(row, exact)[0]
                               if stops(atom[1] * den, bar))
                  for row in distinct}
            return _Arm(lambda t, s, entries, val: stops(val, t_value), prior,
                        lambda t, ranks: at[id(rows[t - 1])],
                        tuple(at.values()))
        p_num, p_den = _ratio(p)
        if p_num == p_den:
            arms = ((Fraction(1), arm(ge)),)
        elif p_num == 0:
            arms = ((Fraction(1), arm(gt)),)
        else:
            arms = ((p, arm(ge)), (1 - p, arm(gt)))
        return CompiledPolicy(arms, policy.seed)
    if policy.kind in ("fixed-index", "accept-last"):
        index = policy.index if policy.kind == "fixed-index" else prior.n
        arm = _Arm(lambda t, s, entries, val: t == index, prior,
                   lambda t, ranks: (1 << len(rows[t - 1].plain)) - 1
                   if t == index else 0)
    elif policy.kind == "optimal-rational":
        res, cont = _rational_dp(prior)  # cont(t): value on reaching t
        arm = _Arm(lambda t, s, entries, val: val >= cont(t + 1), prior,
                   res.mask)
    else:  # optimal-biased
        lam = policy.lam if policy.lam is not None else params.lam
        res = optimal_biased_policy(prior, AgentParams(lam, params.k), budget)

        def decide(t, s, entries, val):  # decodes the table at its first call
            acc = res.policy_table.get((t, s))
            if acc is None:
                raise InvalidInput(
                    "realization leaves the compiled prior's support")
            return entries in acc
        arm = _Arm(decide, prior, res.mask)
    return CompiledPolicy(((Fraction(1), arm),), policy.seed)


def run_rule(rule: Rule, sigma: Sequence,
             params: AgentParams) -> StoppingOutcome:
    """Online scan of one deterministic rule over one realization: the one
    scorer of a caller's own values (declining is a zero-valued pick).
    Rules see the super candidate joined from the empty history's
    Fraction(0)s; a stop is scored on the join from the first candidate's
    own entries, as the offline optima score it, so a 0.0 entry keeps its
    type."""
    _check_dims(sigma, params)
    lam = params.lam
    s = (Fraction(0),) * sigma.k
    top = sigma.candidates[0].entries
    for t, vec in enumerate(sigma.candidates, 1):
        entries, val = vec.entries, vec.l1
        top = _join(top, entries)
        if rule(t, s, entries, val):
            return StoppingOutcome(t, val, val - lam * (sum(top) - val))
        s = _join(s, entries)
    return StoppingOutcome(None, Fraction(0), 0 - lam * (sum(top) - 0))


def rule_expectation(rule: Rule, prior: ProductPrior, params: AgentParams,
                     budget: Optional[int] = None) -> Number:
    """Exact expected utility of one deterministic rule over the prior:
    `_expectation_walk` of that rule alone."""
    _check_dims(prior, params)
    exact, (total,), den = _expectation_walk(
        (rule,), prior, params.lam, resolve_budget(budget))
    return _unscaled(exact, total, den)


# An expectation-walk step of at least this many states joins its pairs by
# `_joins`, a smaller one by one `_join` call per pair.  Walk time in
# process against the per-pair loop (min of 15 rounds, five processes a
# side, Python 3.11, shared cores), with the kernel from 1, 2, 4 or 8
# states: 0.57-0.60x, 0.55-0.61x, 0.57-0.62x and 0.62-0.66x on the walks
# of the benchmark's exact-enum priors, and 1.19-1.26x, 1.01-1.06x,
# 0.97-1.00x and 0.97-1.01x on those of its many-small verify commands.
_COLUMN_JOINS = 4


def _expectation_walk(rules, prior: ProductPrior, lam: Number, limit: int):
    """Exact expected utilities of deterministic rules, as (exact, totals,
    scale): rule i's is `_unscaled(exact, totals[i], scale)`.

    The rules are walked in turn, sharing one stop view and its norm
    table.  A rule's probability mass moves forward keyed by the super
    candidate's ranks before each step; where its mask stops, mass times
    the stop's utility is banked, and mass unstopped after step n scores
    -lambda * ||s^(n)||_1.  In the integer view, with lambda = a/b, mass
    before step t is an int over prod_{u<t} D_u and a total one int over
    b*L*prod_{u<t} D_u.  Each rule keeps its own mass dict, so the
    identity view sums in the order the Fraction formulas did.  A step
    that holds at least `_COLUMN_JOINS` states takes its pairs' joins from
    `_joins`, state-major, and zips each state's run with the atoms; a
    smaller one calls `_join` per pair.  A rule's states count against the
    budget as the DP's layers do, so the first rule to pass it raises."""
    rows, exact, a, b, norms, unit = _stop_view(prior, lam)
    totals = []
    for rule in rules:
        accept = _accept_masks(rule, prior)
        mass: Dict[tuple, Number] = {(0,) * prior.k: 1}
        total, count, scale = 0, 0, 1  # scale: prod D_u over the steps so far
        for t, row in enumerate(rows, 1):
            count += len(mass)
            _charge(count, limit, t)
            atoms, den = _view(row, exact)
            scale *= den
            total *= den
            nxt: Dict[tuple, Number] = {}
            if len(mass) < _COLUMN_JOINS:
                for s, m in mass.items():
                    mask = accept(t, s)
                    banked = 0
                    for _, val, p, ranks, bit in atoms:
                        to = _join(s, ranks)
                        if mask & bit:
                            banked += p * (b * val - a * (norms[to] - val))
                        else:
                            nxt[to] = nxt.get(to, 0) + m * p
                    total += m * banked
            else:  # the step's joins, state-major: each state's atoms' run
                pairs = iter(_joins(mass, row))
                for s, m in mass.items():
                    mask = accept(t, s)
                    banked = 0
                    for (_, val, p, _, bit), to in zip(atoms, pairs):
                        if mask & bit:
                            banked += p * (b * val - a * (norms[to] - val))
                        else:
                            nxt[to] = nxt.get(to, 0) + m * p
                    total += m * banked
            mass = nxt
        for s, m in mass.items():
            total += m * (0 - a * norms[s])
        totals.append(total)
    return exact, totals, unit * scale


class _State:
    """An interned (step, super candidate) state of a Monte Carlo walk: its
    step t, the super candidate's rank tuple, the rule's accept mask there,
    step t's running float sums that a draw bisects for an atom index, and
    per atom of the step what a trial drawing that atom does next: None
    until computed, then the stop utility as a float or the next _State."""

    __slots__ = ("t", "ranks", "mask", "cums", "next")

    def __init__(self, t: int, ranks: tuple, mask: int, cums: tuple):
        self.t, self.ranks, self.mask, self.cums = t, ranks, mask, cums
        self.next = [None] * len(cums)


def _trial_walk(rule: Rule, prior: ProductPrior, lam: Number, limit: int):
    """One deterministic rule's trials as a function of `draw` (the rng's
    `random`) to the utility as a float.  A trial draws each step's uniform
    when its walk reaches that step; the first of the row's running float
    sums past it picks the atom (the last sum is infinity, so a draw past
    the rounded total picks it).  After the rule stops, the trial draws the
    uniforms of its remaining steps unread, so every trial makes n draws,
    as a scan of a sampled sequence does.  A stop is scored on
    `_stop_view` as the exact passes score it; its float is the correctly
    rounded quotient of the scaled ints (the value float() of the Fraction
    gives), or float() of the identity view's number.

    A state is interned the first time a trial reaches it, while fewer
    than `limit` are, so the rule is asked for its accept mask there once.
    A slot is computed once and read back by every later trial that draws
    the same atom from the same state.  A trial that reaches a state past
    the limit computes its remaining steps without storing them, its stop
    norm included, so the memo and the norm table are bounded by `limit`
    states times the atoms per step."""
    accept = _accept_masks(rule, prior)
    rows, exact, a, b, norms, unit = _stop_view(prior, lam)
    n = len(rows)
    sums = {id(row): (*accumulate(float(atom[2]) for atom in row.plain[:-1]),
                      math.inf)
            for row in {id(row): row for row in rows}.values()}
    cums = [sums[id(row)] for row in rows]
    # per step t, the states before step t by their ranks
    layers: Dict[int, Dict[tuple, _State]] = collections.defaultdict(dict)
    held = 0  # states interned, over all steps

    def intern(t, ranks):
        nonlocal held
        layer = layers[t]
        state = layer.get(ranks)
        if state is None and held < limit:
            state = layer[ranks] = _State(t, ranks, accept(t, ranks),
                                          cums[t - 1])
            held += 1
        return state

    def outcome(t, ranks, mask, i, norms=norms):
        """Atom i at step t from the state `ranks`, whose accept mask is
        `mask`: the utility as a float when the rule stops or t = n (every
        candidate declined scores zero), else the next ranks."""
        _, val, _, atom_ranks, bit = _view(rows[t - 1], exact)[0][i]
        joined = _join(ranks, atom_ranks)
        if not mask & bit:
            if t < n:
                return joined
            val = 0  # every candidate declined: a zero-valued pick
        u = b * val - a * (norms[joined] - val)
        return u / unit if exact else float(u)

    def unstored(t, r, draw):
        once = _Norms(norms.levels)  # this trial's stop norm, not kept
        while r.__class__ is not float:
            r = outcome(t, r, accept(t, r), bisect_right(cums[t - 1], draw()),
                        once)
            t += 1
        for _ in range(n + 1 - t):
            draw()
        return r

    root = intern(1, (0,) * prior.k)

    def walk(draw) -> float:
        state = root
        while True:
            i = bisect_right(state.cums, draw())
            r = state.next[i]
            if r is None:
                t = state.t
                r = outcome(t, state.ranks, state.mask, i)
                if r.__class__ is not float:
                    following = intern(t + 1, r)
                    if following is None:
                        return unstored(t + 1, r, draw)
                    r = following
                state.next[i] = r
            if r.__class__ is float:
                for _ in range(n - state.t):
                    draw()
                return r
            state = r

    return walk


def run_policy(policy: Policy, sigma: Sequence, params: AgentParams,
               prior: Optional[ProductPrior] = None) -> StoppingOutcome:
    """Realize a policy online on one sequence (no lookahead).  Optimal and
    alpha-threshold kinds are compiled against `prior` when given, else
    against the deterministic prior that always plays `sigma`."""
    _check_dims(sigma, params)
    if prior is None:
        prior = ProductPrior.deterministic(sigma)
    compiled = compile_policy(policy, prior, params)
    rule = compiled.draw_rule(random.Random(policy.seed))
    return run_rule(rule, sigma, params)


# ---------------------------------------------------------------------------
# threshold construction
# ---------------------------------------------------------------------------


def _cdf_sweeps(prior: ProductPrior, keys) -> tuple:
    """The laws of max_t key(sigma^(t)) on the prior's view, for each key
    in `keys` (None: the L1 value; j: coordinate j), as ([(values, below)
    per key], exact, L).  `values` holds a law's distinct keys from the top
    down, and `below` each one's Pr[max <= x] = prod_t F_t(x), the first of
    them the scale S (prod D_t on the integer view): ints over S on the
    integer view.  Pr[max = x] is the fall of `below` to the next lower key
    (`_weights`), and Pr[max > x] is S less x's entry.

    Two passes per key over every (step, atom), sorted by key.  The first,
    from the bottom key up, sums each step's CDF: F_t just below each atom
    (0 below its lowest) and, at the top, the step's total weight (D_t on
    the integer view, its probabilities' sum in the identity view).  The
    second, from the top down, starts at P = S, the product of those
    totals, and passing an atom sets P to P / F * F' (an exact int
    division on the integer view), F and F' its step's CDF at and just
    below it; it stops at the first step whose lowest atom it passes, as
    below that key P is 0.  So a float P neither cancels nor divides by 0
    and only underflows where the law is below the float range.  A key's
    atoms are read in step order from the top down, so the first in step
    order names the value.  Steps that are one object (`_OneRow`) are one
    factor, raised to n.  The keys share one set-up, which is most of a
    tiny prior's cost.  A sweep holds two entries per (step, atom), linear
    in the input, so it charges no budget."""
    rows, _, scaled, unit = prior.memoized(_rank_table)
    exact, power, laws = scaled is not None, 1, []
    if rows.__class__ is _OneRow:
        rows, power = (rows.row,), rows.n
    views = [row.exact if exact else row.plain for row in rows]
    for j in keys:
        events = [(val if j is None else entries[j], t, w)
                  for t, view in enumerate(views)
                  for entries, val, w, _, _ in view]
        events.sort(key=itemgetter(0), reverse=True)
        cdf, lows = [0] * len(views), []
        for _, t, w in reversed(events):  # the CDFs from the bottom up
            lows.append(cdf[t])
            cdf[t] += w
        lows.reverse()
        prod, values, below, last = math.prod(cdf), [], [], None
        for (x, t, w), low in zip(events, lows):
            if x != last:  # a new key x: prod is Pr[max <= x]
                values.append(x)
                below.append(prod ** power)
                last = x
            if not low:  # step t's lowest atom: nothing lies below x
                break
            prod = (prod // (low + w) if exact else prod / (low + w)) * low
        laws.append((values, below))
    return laws, exact, unit


def _weights(below) -> list:
    """A swept law's Pr[max = x] per key, from the top down: its entry of
    `below` less the next lower key's (0 below the lowest)."""
    return list(map(sub, below, [*below[1:], 0]))


def _mean(values, below) -> Number:
    """A swept law's sum of x * Pr[max = x], from the bottom key up."""
    return sum(map(mul, reversed(values), reversed(_weights(below))))


def _e_sum_dim_maxima(prior: ProductPrior) -> Number:
    """E[sum_j S_j*]: one sweep per dimension, summed by linearity, each
    law's mean first, decoded once (every law's scale is L * prod D_t)."""
    laws, exact, unit = _cdf_sweeps(prior, range(prior.k))
    return _unscaled(exact, sum(starmap(_mean, laws)), unit * laws[0][1][0])


def _e_best_value(prior: ProductPrior) -> Number:
    """E[V*], the kept V* law's mean."""
    [(values, below)], exact, unit = prior.memoized(_cdf_sweeps, (None,))
    return _unscaled(exact, _mean(values, below), unit * below[0])


def value_max_distribution(prior: ProductPrior) -> Dict[Number, Number]:
    """Exact distribution of V* = max_t ||sigma^(t)||_1, decoded from the
    kept law into a dict of the caller's own, in ascending value order."""
    [(values, below)], exact, unit = prior.memoized(_cdf_sweeps, (None,))
    return {_unscaled(exact, x, unit): _unscaled(exact, p, below[0])
            for x, p in zip(reversed(values), reversed(_weights(below)))}


def threshold_from_alpha(prior: ProductPrior, alpha: Number,
                         seed: Optional[int] = None) -> Policy:
    """Threshold T plus atom-acceptance probability p with
    Pr[V* > T] + p * Pr[V* = T] = alpha, exactly.

    T is the least value of V* whose tail Pr[V* > T] = S - Pr[V* <= T] is
    at most alpha: one bisection of the kept V* law, whose tails rise from
    0 as the values fall.  On the integer view, with
    (c, d) = alpha.as_integer_ratio(), tail <= alpha is tail <= c * S // d,
    exact for a float alpha too, and a Fraction alpha gets
    p = (c * S - tail * d) / (w * d), where w = Pr[V* = T] is the rise
    from T's tail to the next lower value's (S below the lowest).
    Otherwise p = (alpha - tail) / w on the decoded tail and weight.  A
    float prior runs the same code on the identity view, comparing and
    subtracting its own numbers: its tails are S less the sweep's float
    products, so they round as products, not as convolution sums, and as
    alpha lies below the next lower value's tail, p <= 1 survives the
    rounding."""
    if not _in_unit(alpha, lt):
        raise InvalidInput("alpha must lie strictly between 0 and 1")
    [(values, below)], exact, unit = prior.memoized(_cdf_sweeps, (None,))
    scale = below[0]
    c, d = alpha.as_integer_ratio()
    bar = c * scale // d if exact else alpha
    # the lowest value whose tail, scale - p, is at most bar
    i = bisect_right(below, bar, key=lambda p: scale - p) - 1
    v, above = values[i], scale - below[i]
    w = scale - (below[i + 1] if i + 1 < len(below) else 0) - above
    if exact and isinstance(alpha, Fraction):
        p = Fraction(c * scale - above * d, w * d)
    else:
        p = (alpha - _unscaled(exact, above, scale)) / \
            _unscaled(exact, w, scale)
    return Policy(kind="threshold", threshold=_unscaled(exact, v, unit),
                  atom_accept_prob=p, seed=seed)


def guarantee_alphas(params: AgentParams) -> Tuple[Number, Number]:
    """The two closed-form alpha settings behind the offline guarantee."""
    lam, k = params.lam, params.k
    if params.bias >= 1:
        raise InvalidInput("guarantee alphas need subcritical bias")
    return ((lam * k + 1) / (2 + lam), k * (1 + lam) / (1 + lam + k))


# ---------------------------------------------------------------------------
# exact optimal policies
# ---------------------------------------------------------------------------


def _biased_dp(prior: ProductPrior, lam: Number, budget: int) -> DPResult:
    """The reachable super candidates before each step as sorted rank
    tuples, whose total count the state budget caps, then backward
    induction over them in the integer view (the identity view when lambda
    or the prior has a float).  Each (state, atom) pair is joined once, a
    step's pairs column-wise (`_joins`), and kept only as its index into
    the next layer, an `array` of ints (the last step's pairs are each
    their own state, which the budget does not count); induction reads,
    then drops, a step's indices.  The next layer's continuation values
    and scaled norms are lists aligned with it, so a pair hashes nothing.  With
    lambda = a/b, a stop's utility b*v - a*(s - v), an int over b*L, is
    raised to V_{t+1}'s scale, b*L*prod_{u>t} D_u, before `u >= cont`, so
    every decision is the Fraction one.  Each step's masks are a tuple
    aligned with its layer; norms are read once per state from
    `_stop_view`'s table."""
    rank_table = rows, _, _, _ = prior.memoized(_rank_table)
    n = prior.n
    layer, layers, links, count = ((0,) * prior.k,), [], [], 1
    for t, row in enumerate(rows, 1):
        layers.append(layer)
        if len(layer) == len(row.plain) == 1:  # one pair: its own layer
            layer, link = (tuple(map(max, layer[0], row.plain[0][3])),), (0,)
        else:
            joined = _joins(layer, row)
            if t == n:  # step n's pairs are each a state of their own
                layer, link = joined, range(len(joined))
            else:
                layer = sorted(set(joined))
                index = dict(zip(layer, range(len(layer))))
                link = array("I", map(index.__getitem__, joined))
        links.append(link)
        if t < n:  # the budget counts the layers before steps 1..n
            count += len(layer)
            _charge(count, budget, t + 1)
    _, exact, a, b, norms, unit = _stop_view(prior, lam)
    # after step n the continuation is walking away, 0 - a*s, on which a
    # stop gains (b + a)*v >= 0 (in floats too, as rounding is monotone):
    # step n stops on every atom
    nrm = list(map(norms.__getitem__, layer))
    vals = [0 - a * s for s in nrm]
    masks = [()] * n
    scale = 1  # prod_{u>t} D_u: lifts a stop utility to V_{t+1}'s scale
    for t in range(n, 0, -1):
        atoms, den = _view(rows[t - 1], exact)
        pairs = iter(links.pop())
        newvals, mask_row, here = [], [], []
        for s in layers[t - 1]:
            total = mask = 0
            for (_, val, p, _, bit), j in zip(atoms, pairs):
                u = (b * val - a * (nrm[j] - val)) * scale
                cont = vals[j]
                if u >= cont:
                    mask |= bit
                    total = total + p * u
                else:
                    total = total + p * cont
            newvals.append(total)
            mask_row.append(mask)
            here.append(norms[s])
        masks[t - 1] = tuple(mask_row)
        vals, nrm = newvals, here
        scale *= den
    return DPResult(_unscaled(exact, vals[0], unit * scale), count, masks,
                    rank_table, layers)


def optimal_biased_policy(prior: ProductPrior, params: AgentParams,
                          budget: Optional[int] = None) -> DPResult:
    """Exact optimal expected utility for the biased gambler.

    The optimum always stops: declining everything scores
    -lambda * ||s^(n)||_1, which taking the last offer never scores below,
    so the value is the same whether or not walking away is offered.
    """
    _check_dims(prior, params)
    limit = resolve_budget(budget)
    res = prior.memoized(_biased_dp, params.lam, budget=limit)
    if res.state_count > limit:  # kept under a larger budget
        _biased_dp(prior, params.lam, limit)  # raises at the step it passes
    return res


def _rational_dp(prior: ProductPrior):
    """Backward induction on L1 values in the integer view, and cont(t),
    the optimal value on reaching t (Fraction(0) off steps 1..n), an int
    over L*prod_{u>=t} D_u until it is read."""
    rank_table = rows, _, scaled, unit = prior.memoized(_rank_table)
    exact = scaled is not None
    n = prior.n
    totals = [0] * (n + 1)  # totals[t] over dens[t]: the value on reaching t
    dens = [1] * (n + 1)
    masks = [()] * n
    nxt = 0  # cont(t + 1) at its scale
    scale = 1  # prod_{u>t} D_u
    for t in range(n, 0, -1):
        atoms, den = _view(rows[t - 1], exact)
        total = 0
        mask = 0
        for _, val, p, _, bit in atoms:
            u = val * scale
            if u >= nxt:
                mask |= bit
                choice = u
            else:
                choice = nxt
            total = total + p * choice
        nxt = totals[t] = total
        scale *= den
        dens[t] = unit * scale
        masks[t - 1] = (mask,)

    def cont(t: int) -> Number:
        if not 1 <= t <= n:
            return Fraction(0)
        return _unscaled(exact, totals[t], dens[t])
    return DPResult(cont(1), n + 1, masks, rank_table), cont


def optimal_rational_policy(prior: ProductPrior) -> DPResult:
    """Classical optimal stopping on L1 values (lambda = 0), in O(n)."""
    return _rational_dp(prior)[0]


# ---------------------------------------------------------------------------
# patience
# ---------------------------------------------------------------------------


def _single_rule(policy, prior, params, budget) -> Rule:
    if isinstance(policy, CompiledPolicy):
        compiled = policy
    else:
        compiled = compile_policy(policy, prior, params, budget)
    if not compiled.deterministic:
        if compiled.seed is None:
            raise InvalidInput(
                "patience comparison of a randomized policy needs a seed")
        return compiled.draw_rule(random.Random(compiled.seed))
    return compiled.arms[0][1]


def patience_compare(a, b, prior: ProductPrior, params: AgentParams,
                     budget: Optional[int] = None) -> PatienceVerdict:
    """Does rule `a` stop at the same index or later than `b` on every
    realization of the prior?  NoSelection counts as stopping at n + 1.

    The witness is the first realization in product order on which `a`
    stops earlier.  An iterative depth-first search over (step, super
    candidate's ranks, is `b` still running) states finds it without
    listing realizations: states known to hold no witness are not entered
    again, so the states entered, which the budget caps, are distinct.
    Once `b` has stopped, `a` is still followed until it stops, so a rule
    that leaves its compiled support raises as on a realization scan."""
    _check_dims(prior, params)
    limit = resolve_budget(budget)
    accept_a = _accept_masks(_single_rule(a, prior, params, limit), prior)
    accept_b = _accept_masks(_single_rule(b, prior, params, limit), prior)
    rows = prior.memoized(_rank_table)[0]
    n = prior.n
    clear = set()  # (t, ranks, b running): no witness
    # frame: [step t, ranks before t, a's mask, b's mask (None once b has
    # stopped), next atom]
    root = (0,) * prior.k
    stack = [[1, root, accept_a(1, root), accept_b(1, root), 0]]
    count = 1  # states entered
    while stack:
        frame = stack[-1]
        t, s, mask_a, mask_b, i = frame
        atoms = rows[t - 1].plain
        if i == len(atoms):
            clear.add((t, s, mask_b is not None))
            stack.pop()
            continue
        frame[4] = i + 1
        ranks, bit = atoms[i][3:]
        b_running = mask_b is not None and not mask_b & bit
        if mask_a & bit:
            if b_running:
                # each frame's next atom is one past the atom it took
                return _witness(accept_b, prior, [f[4] - 1 for f in stack],
                                s, t)
            continue
        if t == n:
            continue
        joined = _join(s, ranks)
        key = (t + 1, joined, b_running)
        if key in clear:
            continue
        count += 1
        _charge(count, limit, t + 1)
        stack.append([t + 1, joined, accept_a(t + 1, joined),
                      accept_b(t + 1, joined) if b_running else None, 0])
    return PatienceVerdict("more-patient", None)


def _witness(accept_b, prior: ProductPrior, taken, s, t) -> PatienceVerdict:
    """`a` stopped at step t where `b` ran on: the first realization through
    this prefix (atom indices; `s` the ranks before t) takes each later
    step's first atom, and `b` (its masks `accept_b`) runs along it."""
    rows = prior.memoized(_rank_table)[0]
    ib = None
    for u in range(t + 1, prior.n + 1):
        s = _join(s, rows[u - 2].plain[taken[-1]][3])
        taken.append(0)
        if accept_b(u, s) & rows[u - 1].plain[0][4]:
            ib = u
            break
    taken += [0] * (prior.n - len(taken))
    sigma = Sequence(tuple(step.atoms[i][0]
                           for step, i in zip(prior.steps, taken)))
    return PatienceVerdict("incomparable", (sigma, t, ib))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def policy_to_json(policy: Policy) -> dict:
    obj = {"kind": policy.kind}
    if policy.alpha is not None:
        obj["alpha"] = number_to_json(policy.alpha)
    if policy.threshold is not None:
        obj["threshold"] = number_to_json(policy.threshold)
        obj["atom_accept_prob"] = number_to_json(policy.atom_accept_prob)
    if policy.index is not None:
        obj["index"] = policy.index
    if policy.lam is not None:
        obj["lambda"] = number_to_json(policy.lam)
    if policy.seed is not None:
        obj["seed"] = policy.seed
    return obj


def policy_from_json(obj: dict, exact: bool = True) -> Policy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInput("policy JSON needs a 'kind'")
    kind = obj["kind"]
    if kind not in _KINDS:
        raise InvalidInput(f"unknown policy kind {kind!r}")
    num = lambda key: (number_from_json(obj[key], exact)
                       if key in obj and obj[key] is not None else None)
    whole = lambda key: (_json_int(obj[key], f"'{key}'")
                         if obj.get(key) is not None else None)
    return Policy(kind=kind, threshold=num("threshold"),
                  atom_accept_prob=num("atom_accept_prob"),
                  alpha=num("alpha"), index=whole("index"),
                  lam=num("lambda"), seed=whole("seed"))


def dp_result_to_json(res: DPResult) -> dict:
    table = res.policy_table
    rows = [{"step": t, "state": [number_to_json(e) for e in state],
             "accept": [[number_to_json(e) for e in vec]
                        for vec in table[(t, state)]]}
            for t, state in sorted(table)]
    return {"expected_utility": number_to_json(res.expected_utility),
            "state_count": res.state_count,
            "policy_table": rows}
