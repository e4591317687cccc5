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
  the reference point.
* exact expectations and patience comparison of compiled rules.  A rule
  is a plain function (t, super candidate, entries, L1 value) -> stop?, so
  both walk the reachable (step, super candidate) states instead of every
  realization; the prior's support size is still what their budget caps.

All of these run on one tuple lattice core: a per-step atom table of plain
values, one join and one stop-utility formula.  The biased DP's states are
rank tuples (each coordinate's values replaced by their rank among its
distinct values), so joins compare small ints, and it counts them against
the state budget.  V* and the per-dimension maxima are one max-convolution,
`max_distribution`.  A pass with two readers on one prior runs once:
`ProductPrior.memoized` keeps the atom and rank tables, the V* distribution
and the biased DP per (lambda and its type, allow_no_selection, resolved
budget), so a float lambda never gets an exact lambda's result and a budget
still binds.  Kept results are shared, so read-only; errors are not kept.

The biased DP, the rational DP and the max-convolution compute on an
integer view of the prior, built with the rank table once per distinct
step: entries times L, the lcm of every entry's denominator, and each
step's probabilities as int weights over D_t, their lcm.  Sums of products
of those ints, and lambda = a/b applied as b*v - a*(s - v), stay ints over
one positive scale per step, so every comparison is the Fraction one and
no gcd is paid along the way.  Ints are decoded to Fractions only for the
final values, the rational DP's continuation values and the distributions
returned; table keys and accepted entries are the prior's own values.  When
any entry, probability or lambda is a float, the same loops run on the
identity view (L = b = D_t = 1, weights the probabilities), which performs
the float operations in the order the Fraction formulas did.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .core import (
    AgentParams,
    InvalidInput,
    Number,
    ProductPrior,
    ResourceLimit,
    Sequence,
    StoppingOutcome,
    _json_int,
    number_from_json,
    number_to_json,
)

DEFAULT_STATE_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "LAP_BUDGET_STATES"

_KINDS = ("threshold", "fixed-index", "optimal-biased",
          "optimal-rational", "accept-last")


def resolve_budget(budget: Optional[int] = None) -> int:
    """Explicit argument, else the LAP_BUDGET_STATES env var, else default."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None:
            return DEFAULT_STATE_BUDGET
        try:
            budget = int(raw)
        except ValueError as err:
            raise InvalidInput(f"bad {BUDGET_ENV_VAR} value {raw!r}") from err
    if budget <= 0:
        raise InvalidInput("budget must be positive")
    return budget


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
        if self.kind == "threshold":
            if self.alpha is not None:
                if not 0 < self.alpha < 1:
                    raise InvalidInput("alpha must lie in (0, 1)")
            elif self.threshold is None:
                raise InvalidInput("threshold policy needs alpha or threshold")
            else:
                if self.threshold < 0:
                    raise InvalidInput("threshold must be non-negative")
                p = self.atom_accept_prob
                if p is None:
                    object.__setattr__(self, "atom_accept_prob", Fraction(1))
                elif not 0 <= p <= 1:
                    raise InvalidInput("atom_accept_prob must lie in [0, 1]")
        elif self.kind == "fixed-index":
            if self.index is None or _json_int(self.index, "index") < 1:
                raise InvalidInput("fixed-index policy needs index >= 1")
        elif self.kind == "optimal-biased":
            if self.lam is not None and self.lam < 0:
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
    """Backward-induction output: value, accept-sets per state, state count."""

    expected_utility: Number
    policy_table: Dict[Tuple[int, tuple], Tuple[tuple, ...]]
    state_count: int


@dataclass(frozen=True)
class PatienceVerdict:
    verdict: str  # "more-patient" | "incomparable"
    witness: Optional[tuple]  # (sequence, index_a, index_b) when incomparable


# ---------------------------------------------------------------------------
# the lattice core; a state is the super candidate's entries before a step
# ---------------------------------------------------------------------------

Rule = Callable[[int, tuple, tuple, Number], bool]


def _atom_table(prior: ProductPrior):
    """Per step, each atom as (entries, l1, p, vector), read once from the
    validated prior.  Steps that are one object (an iid prior's) share one
    row, so a long iid prior costs one row, not n."""
    rows = {}
    for step in prior.steps:
        if id(step) not in rows:
            rows[id(step)] = tuple((v.entries, v.l1, p, v)
                                   for v, p in step.atoms)
    return [rows[id(step)] for step in prior.steps]


class _Row(NamedTuple):
    """One distinct step of the rank table.  Each view lists the step's
    atoms, in the prior's order, as (entries, L1 value, weight, ranks, bit):
    entries and value at the view's scale, and `bit` 1 << the atom's place
    in `ordered`, so that a mask of bits names a sorted set of entries."""

    plain: tuple  # the prior's own numbers; weights are the probabilities
    exact: Optional[tuple]  # ints: entries times L, weights over `den`
    den: int  # D_t, the lcm of the step's probability denominators
    ordered: tuple  # the step's entries, sorted


def _rank_table(prior: ProductPrior):
    """Per step a `_Row`, and per coordinate the sorted values its ranks
    index, as the prior's own numbers and as ints times L, the lcm of every
    entry's denominator.  The ints (and every row's exact view) are None
    when any entry or probability is a float.  One pass over the distinct
    rows builds both views; steps that share a row still share one.

    Rank 0 of every coordinate is Fraction(0), the value the empty history
    starts from (an equal 0.0 is the same value, and `max` would keep the
    Fraction).  Ranks order a coordinate's values as the values do, so the
    join of rank tuples decodes to the join of the values, and sorting by
    ranks sorts by values.  An exact prior's values are keyed by their
    scaled ints, which hash and compare faster than Fractions."""
    steps = prior.memoized(_atom_table)
    rows = {id(atoms): atoms for atoms in steps}
    atoms = [atom for row in rows.values() for atom in row]
    exact = all(isinstance(x, Fraction)
                for entries, _, p, _ in atoms for x in (p, *entries))
    scale = math.lcm(*(e.denominator for atom in atoms for e in atom[0])
                     ) if exact else 1
    keyed = {id(atom): tuple(e.numerator * (scale // e.denominator)
                             for e in atom[0]) if exact else atom[0]
             for atom in atoms}
    levels, scaled, rank_of = [], [], []
    for j in range(prior.k):
        seen = {0: Fraction(0)}  # key -> the first value with that key
        for atom in atoms:
            seen.setdefault(keyed[id(atom)][j], atom[0][j])
        order = sorted(seen)
        levels.append(tuple(map(seen.__getitem__, order)))
        scaled.append(tuple(order))
        rank_of.append({x: i for i, x in enumerate(order)})
    built = {}
    for key, row in rows.items():
        ranks = [tuple(map(dict.__getitem__, rank_of, keyed[id(atom)]))
                 for atom in row]
        order = sorted(range(len(row)), key=ranks.__getitem__)
        bit = [0] * len(row)
        for place, i in enumerate(order):
            bit[i] = 1 << place
        plain = tuple(atom[:3] + (ranks[i], bit[i])
                      for i, atom in enumerate(row))
        den, view = 1, None
        if exact:
            den = math.lcm(*(p.denominator for _, _, p, _ in row))
            view = tuple((keyed[id(atom)], sum(keyed[id(atom)]),
                          atom[2].numerator * (den // atom[2].denominator),
                          ranks[i], bit[i]) for i, atom in enumerate(row))
        built[key] = _Row(plain, view, den, tuple(row[i][0] for i in order))
    return ([built[id(atoms)] for atoms in steps], levels,
            scaled if exact else None, scale)


def _view(row: _Row, exact: bool):
    """A step's atoms and weight denominator in the integer view, or in the
    identity view, which reads the prior's own numbers."""
    return (row.exact, row.den) if exact else (row.plain, 1)


def _unscaled(exact: bool, x: Number, den: int) -> Number:
    """A scaled int as the Fraction it stands for; the identity view's
    numbers are the values already."""
    return Fraction(x, den) if exact else x


def _picked(cache: dict, row: _Row, mask: int) -> tuple:
    """The sorted entries a mask of `row`'s bits names; one tuple per (row,
    mask), shared by every state that accepts that set."""
    key = (id(row), mask)
    acc = cache.get(key)
    if acc is None:
        acc = cache[key] = tuple(entries for i, entries
                                 in enumerate(row.ordered) if mask >> i & 1)
    return acc


def _decode(levels, ranks: tuple) -> tuple:
    """The values a rank tuple stands for."""
    return tuple(map(getitem, levels, ranks))


def _zero(k: int) -> tuple:
    return (Fraction(0),) * k


def _join(s: tuple, entries: tuple) -> tuple:
    """Coordinatewise maximum: the super candidate after seeing `entries`."""
    return tuple(map(max, s, entries))


def _utility(lam: Number, val: Number, s_l1: Number) -> Number:
    """Stopping on L1 value `val` against a super candidate of L1 norm
    `s_l1`; declining everything scores as a zero-valued pick."""
    return val - lam * (s_l1 - val)


def _table_rule(accept, n: int, force_last: bool) -> Rule:
    """Stop on the atoms the biased DP accepts from this state."""
    def decide(t, s, entries, val):
        if force_last and t == n:
            return True
        try:
            acc = accept[(t, s)]
        except KeyError as err:
            raise InvalidInput(
                "realization leaves the compiled prior's support") from err
        return entries in acc
    return decide


@dataclass(frozen=True)
class CompiledPolicy:
    """A policy bound to a prior: one or two deterministic arms with mixing
    probabilities (two only for atom-splitting thresholds)."""

    arms: Tuple[Tuple[Number, Rule], ...]
    seed: Optional[int] = None

    @property
    def deterministic(self) -> bool:
        return len(self.arms) == 1

    def draw_arm(self, rng: random.Random) -> int:
        """The index of the arm one draw picks; a deterministic policy
        makes no rng call."""
        if self.deterministic:
            return 0
        u = rng.random()
        acc = 0.0
        for i, (p, _) in enumerate(self.arms[:-1]):
            acc += float(p)
            if u < acc:
                return i
        return len(self.arms) - 1

    def draw_rule(self, rng: random.Random) -> Rule:
        return self.arms[self.draw_arm(rng)][1]


def compile_policy(policy: Policy, prior: ProductPrior, params: AgentParams,
                   allow_no_selection: bool = True,
                   budget: Optional[int] = None) -> CompiledPolicy:
    if prior.k != params.k:
        raise InvalidInput("prior and params dimensions differ")
    n = prior.n
    if policy.kind == "threshold":
        if policy.alpha is not None:
            policy = threshold_from_alpha(prior, policy.alpha, policy.seed)
        t_value, p = policy.threshold, policy.atom_accept_prob
        weak = lambda t, s, entries, val: val >= t_value
        strict = lambda t, s, entries, val: val > t_value
        if p == 1:
            arms = ((Fraction(1), weak),)
        elif p == 0:
            arms = ((Fraction(1), strict),)
        else:
            arms = ((p, weak), (1 - p, strict))
        return CompiledPolicy(arms, policy.seed)
    if policy.kind == "fixed-index":
        index = policy.index
        rule = lambda t, s, entries, val: t == index
    elif policy.kind == "accept-last":
        rule = lambda t, s, entries, val: t == n
    elif policy.kind == "optimal-rational":
        cont = _rational_dp(prior)[1]  # cont[t]: value on reaching t
        rule = lambda t, s, entries, val: val >= cont[t + 1]
    else:  # optimal-biased
        lam = policy.lam if policy.lam is not None else params.lam
        table = optimal_biased_policy(prior, AgentParams(lam, params.k),
                                      allow_no_selection, budget).policy_table
        rule = _table_rule(table, n, force_last=not allow_no_selection)
    return CompiledPolicy(((Fraction(1), rule),), policy.seed)


def run_rule(rule: Rule, sigma: Sequence,
             params: AgentParams) -> StoppingOutcome:
    """Online scan of one deterministic rule over one realization."""
    s = _zero(sigma.k)
    for t, vec in enumerate(sigma.candidates, 1):
        entries, val = vec.entries, vec.l1
        joined = _join(s, entries)
        if rule(t, s, entries, val):
            return StoppingOutcome(t, val,
                                   _utility(params.lam, val, sum(joined)))
        s = joined
    return StoppingOutcome(None, Fraction(0), _utility(params.lam, 0, sum(s)))


def rule_expectation(rule: Rule, prior: ProductPrior,
                     params: AgentParams) -> Number:
    """Exact expected utility of one deterministic rule over the prior.

    Probability mass moves forward keyed by the super candidate before each
    step; where the rule stops, mass times the stop's utility is banked, and
    mass still unstopped after step n scores -lambda * ||s^(n)||_1."""
    lam = params.lam
    mass = {_zero(prior.k): Fraction(1)}
    total = Fraction(0)
    for t, atoms in enumerate(prior.memoized(_atom_table), 1):
        nxt: Dict[tuple, Number] = {}
        for s, m in mass.items():
            banked = 0
            for entries, val, p, _ in atoms:
                joined = _join(s, entries)
                if rule(t, s, entries, val):
                    banked += p * _utility(lam, val, sum(joined))
                else:
                    nxt[joined] = nxt.get(joined, 0) + m * p
            total += m * banked
        mass = nxt
    for s, m in mass.items():
        total += m * _utility(lam, 0, sum(s))
    return total


def run_policy(policy: Policy, sigma: Sequence, params: AgentParams,
               prior: Optional[ProductPrior] = None) -> StoppingOutcome:
    """Realize a policy online on one sequence (no lookahead).  Optimal and
    alpha-threshold kinds are compiled against `prior` when given, else
    against the deterministic prior that always plays `sigma`."""
    if sigma.k != params.k:
        raise InvalidInput("sequence and params dimensions differ")
    if prior is None:
        prior = ProductPrior.deterministic(sigma)
    compiled = compile_policy(policy, prior, params)
    rule = compiled.draw_rule(random.Random(policy.seed))
    return run_rule(rule, sigma, params)


# ---------------------------------------------------------------------------
# threshold construction
# ---------------------------------------------------------------------------


def max_distribution(prior: ProductPrior,
                     key: Callable[[tuple], Number]) -> Dict[Number, Number]:
    """Exact distribution of max_t key(sigma^(t)) for a scalar `key` of a
    candidate's entries: the first step's law, then one max-convolution per
    later step.  `key` reads the entries at the view's scale, so it must
    commute with scaling them (a sum, or one coordinate, does)."""
    rows, _, scaled, unit = prior.memoized(_rank_table)
    exact = scaled is not None
    dist: Optional[Dict[Number, Number]] = None
    scale = 1  # the weights' denominator: prod D_u over the steps so far
    for row in rows:
        atoms, den = _view(row, exact)
        scale *= den
        law: Dict[Number, Number] = {}
        for entries, _, p, _, _ in atoms:
            x = key(entries)
            law[x] = law.get(x, 0) + p
        if dist is None:
            dist = law
            continue
        new: Dict[Number, Number] = {}
        for m, pm in dist.items():
            for x, px in law.items():
                y = m if m >= x else x
                new[y] = new.get(y, 0) + pm * px
        dist = new
    if not exact:
        return dist
    return {Fraction(x, unit): Fraction(p, scale) for x, p in dist.items()}


def value_max_distribution(prior: ProductPrior) -> Dict[Number, Number]:
    """Exact distribution of V* = max_t ||sigma^(t)||_1."""
    return prior.memoized(max_distribution, sum)


def threshold_from_alpha(prior: ProductPrior, alpha: Number,
                         seed: Optional[int] = None) -> Policy:
    """Threshold T plus atom-acceptance probability p with
    Pr[V* > T] + p * Pr[V* = T] = alpha, exactly."""
    if not 0 < alpha < 1:
        raise InvalidInput("alpha must lie strictly between 0 and 1")
    dist = value_max_distribution(prior)
    atoms = sorted(dist)
    # tail[i] = Pr[V* > atoms[i]]
    tail = 0
    tails = [0] * len(atoms)
    for i in range(len(atoms) - 1, -1, -1):
        tails[i] = tail
        tail = tail + dist[atoms[i]]
    for v, above in zip(atoms, tails):
        if above <= alpha:
            p = (alpha - above) / dist[v]
            return Policy(kind="threshold", threshold=v,
                          atom_accept_prob=p, seed=seed)
    raise AssertionError("unreachable: Pr[V* > max atom] = 0 <= alpha")


def guarantee_alphas(params: AgentParams) -> Tuple[Number, Number]:
    """The two closed-form alpha settings behind the offline guarantee."""
    lam, k = params.lam, params.k
    if params.bias >= 1:
        raise InvalidInput("guarantee alphas need subcritical bias")
    return ((lam * k + 1) / (2 + lam), k * (1 + lam) / (1 + lam + k))


# ---------------------------------------------------------------------------
# exact optimal policies
# ---------------------------------------------------------------------------


def _biased_dp(prior: ProductPrior, lam: Number, allow_no_selection: bool,
               budget: int) -> DPResult:
    """The reachable super candidates before each step as sorted rank
    tuples, whose total count the state budget caps, then backward
    induction over them in the integer view (the identity view when lambda
    or the prior has a float).  With lambda = a/b, a stop's utility
    b*v - a*(s - v) is an int over b*L, and V_t(state) one int over
    b*L*prod_{u>=t} D_u; the stop utility is raised to the continuation's
    scale before `u >= cont`, so every decision is the Fraction one.  A
    state is decoded to its values once, for its table key, and a joined
    state's scaled L1 norm is summed once."""
    rows, levels, scaled, unit = prior.memoized(_rank_table)
    n = prior.n
    layers = [((0,) * prior.k,)]
    count = 1
    for t, row in zip(range(2, n + 1), rows):  # no copy of rows
        nxt = {_join(s, atom[3]) for s in layers[-1] for atom in row.plain}
        count += len(nxt)
        if count > budget:
            raise ResourceLimit(f"state budget {budget} exceeded "
                                f"({count}+ states by step {t})")
        layers.append(tuple(sorted(nxt)))
    exact = scaled is not None and not isinstance(lam, float)
    if exact:
        a, b, norm_levels, unit = (lam.numerator, lam.denominator, scaled,
                                   lam.denominator * unit)
    else:
        a, b, norm_levels, unit = lam, 1, levels, 1
    table: Dict[Tuple[int, tuple], Tuple[tuple, ...]] = {}
    values: Dict[tuple, Number] = {}
    norms: Dict[tuple, Number] = {}  # joined state -> its scaled L1 norm
    declines: Dict[tuple, Number] = {}  # after step n: U of no selection
    picked: dict = {}
    scale = 1  # prod_{u>t} D_u: lifts a stop utility to V_{t+1}'s scale
    for t in range(n, 0, -1):
        row = rows[t - 1]
        atoms, den = _view(row, exact)
        newvals: Dict[tuple, Number] = {}
        for s in layers[t - 1]:
            total = 0
            mask = 0
            for _, val, p, ranks, bit in atoms:
                joined = _join(s, ranks)
                s_l1 = norms.get(joined)
                if s_l1 is None:
                    s_l1 = norms[joined] = sum(_decode(norm_levels, joined))
                u = (b * val - a * (s_l1 - val)) * scale
                if t < n:
                    cont = values[joined]
                elif allow_no_selection:
                    cont = declines.get(joined)
                    if cont is None:
                        cont = declines[joined] = 0 - a * s_l1
                else:
                    cont = None
                if cont is None or u >= cont:
                    mask |= bit
                    choice = u
                else:
                    choice = cont
                total = total + p * choice
            newvals[s] = total
            table[(t, _decode(levels, s))] = _picked(picked, row, mask)
        values = newvals
        scale *= den
    return DPResult(_unscaled(exact, values[layers[0][0]], unit * scale),
                    table, count)


def optimal_biased_policy(prior: ProductPrior, params: AgentParams,
                          allow_no_selection: bool = True,
                          budget: Optional[int] = None) -> DPResult:
    """Exact optimal expected utility for the biased gambler.

    Terminal convention per allow_no_selection: declining everything scores
    -lambda * ||s^(n)||_1 (default) or is simply not offered.
    """
    if prior.k != params.k:
        raise InvalidInput("prior and params dimensions differ")
    return prior.memoized(_biased_dp, params.lam, allow_no_selection,
                          resolve_budget(budget))


def _rational_dp(prior: ProductPrior):
    """Backward induction on L1 values in the integer view: cont[t], the
    optimal value on reaching t, is one int over L*prod_{u>=t} D_u until it
    is decoded."""
    rows, _, scaled, unit = prior.memoized(_rank_table)
    exact = scaled is not None
    n = prior.n
    cont = [Fraction(0)] * (n + 2)  # cont[t] = optimal value on reaching t
    masks = [0] * (n + 1)  # masks[t]: the atoms step t accepts
    nxt = 0  # cont[t + 1] at its scale
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
        nxt = total
        scale *= den
        cont[t] = _unscaled(exact, total, unit * scale)
        masks[t] = mask
    picked: dict = {}
    table = {(t, ()): _picked(picked, rows[t - 1], masks[t])
             for t in range(1, n + 1)}
    return DPResult(cont[1], table, n + 1), cont


def optimal_rational_policy(prior: ProductPrior,
                            budget: Optional[int] = None) -> DPResult:
    """Classical optimal stopping on L1 values (lambda = 0)."""
    resolve_budget(budget)  # validates; the rational DP is O(n) regardless
    return _rational_dp(prior)[0]


# ---------------------------------------------------------------------------
# patience
# ---------------------------------------------------------------------------


def _single_rule(policy, prior, params, allow_no_selection, budget) -> Rule:
    if isinstance(policy, CompiledPolicy):
        compiled = policy
    else:
        compiled = compile_policy(policy, prior, params,
                                  allow_no_selection, budget)
    if not compiled.deterministic:
        if compiled.seed is None:
            raise InvalidInput(
                "patience comparison of a randomized policy needs a seed")
        return compiled.draw_rule(random.Random(compiled.seed))
    return compiled.arms[0][1]


def patience_compare(a, b, prior: ProductPrior, params: AgentParams,
                     allow_no_selection: bool = True,
                     budget: Optional[int] = None) -> PatienceVerdict:
    """Does rule `a` stop at the same index or later than `b` on every
    realization of the prior?  NoSelection counts as stopping at n + 1.

    The witness is the first realization in product order on which `a`
    stops earlier.  An iterative depth-first search over (step, super
    candidate, is `b` still running) states finds it without listing
    realizations: states known to hold no witness are not entered again.
    Once `b` has stopped, `a` is still followed until it stops, so a rule
    that leaves its compiled support raises as it would on a realization
    scan."""
    rule_a = _single_rule(a, prior, params, allow_no_selection, budget)
    rule_b = _single_rule(b, prior, params, allow_no_selection, budget)
    prior.check_support(resolve_budget(budget))
    steps = prior.memoized(_atom_table)
    n = prior.n
    clear = set()  # (t, super candidate, b running): no witness
    # frame: [step t, super candidate before t, b running, next atom index]
    stack = [[1, _zero(prior.k), True, 0]]
    path = []  # atom taken at each step above the top frame
    while stack:
        frame = stack[-1]
        t, s, b_running, i = frame
        if i == len(steps[t - 1]):
            clear.add((t, s, b_running))
            stack.pop()
            if path:
                path.pop()
            continue
        frame[3] = i + 1
        atom = steps[t - 1][i]
        entries, val = atom[0], atom[1]
        stop_a = rule_a(t, s, entries, val)
        stop_b = b_running and rule_b(t, s, entries, val)
        if stop_a:
            if b_running and not stop_b:
                return _witness(rule_b, steps, path + [atom], s, t)
            continue
        if t == n:
            continue
        joined = _join(s, entries)
        key = (t + 1, joined, b_running and not stop_b)
        if key in clear:
            continue
        path.append(atom)
        stack.append([t + 1, joined, key[2], 0])
    return PatienceVerdict("more-patient", None)


def _witness(rule_b, steps, taken, s, t) -> PatienceVerdict:
    """`a` stopped at step t where `b` ran on: the first realization through
    this prefix takes each later step's first atom, and `b` runs along it."""
    ib = None
    for u in range(t + 1, len(steps) + 1):
        s = _join(s, taken[-1][0])
        taken.append(steps[u - 1][0])
        if rule_b(u, s, taken[-1][0], taken[-1][1]):
            ib = u
            break
    taken += [atoms[0] for atoms in steps[len(taken):]]
    sigma = Sequence(tuple(atom[3] for atom in taken))
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
    rows = []
    for (t, state) in sorted(res.policy_table):
        rows.append({
            "step": t,
            "state": [number_to_json(e) for e in state],
            "accept": [[number_to_json(e) for e in vec]
                       for vec in res.policy_table[(t, state)]],
        })
    return {"expected_utility": number_to_json(res.expected_utility),
            "state_count": res.state_count,
            "policy_table": rows}
