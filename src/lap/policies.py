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
* exact expectations and patience comparison of compiled rules.  Every
  rule decides from (step, super candidate, candidate) alone, so both walk
  the reachable (step, super candidate) states instead of every
  realization; the prior's support size is still what the budget caps.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .core import (
    AgentParams,
    InvalidInput,
    Number,
    ProductPrior,
    ResourceLimit,
    Sequence,
    StoppingOutcome,
    ValueVector,
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
            if not isinstance(self.index, int) or self.index < 1:
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
# deterministic decision rules (one per compiled arm)
# ---------------------------------------------------------------------------


class _ThresholdRule:
    __slots__ = ("t_value", "weak")

    def __init__(self, t_value, weak):
        self.t_value = t_value
        self.weak = weak

    def decide(self, t, prev, vec):
        v = vec.l1
        return v >= self.t_value if self.weak else v > self.t_value


class _FixedIndexRule:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def decide(self, t, prev, vec):
        return t == self.index


class _AcceptLastRule:
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def decide(self, t, prev, vec):
        return t == self.n


class _TableRule:
    __slots__ = ("accept", "n", "force_last")

    def __init__(self, accept, n, force_last):
        self.accept = accept
        self.n = n
        self.force_last = force_last

    def decide(self, t, prev, vec):
        if self.force_last and t == self.n:
            return True
        try:
            acc = self.accept[(t, prev.entries)]
        except KeyError as err:
            raise InvalidInput(
                "realization leaves the compiled prior's support") from err
        return vec.entries in acc


class _ValueStepRule:
    """Rational rule: accept when the value meets the continuation value."""

    __slots__ = ("cont",)

    def __init__(self, cont):
        self.cont = cont  # cont[t] = optimal value on reaching step t

    def decide(self, t, prev, vec):
        return vec.l1 >= self.cont[t + 1]


@dataclass(frozen=True)
class CompiledPolicy:
    """A policy bound to a prior: one or two deterministic arms with mixing
    probabilities (two only for atom-splitting thresholds)."""

    arms: Tuple[Tuple[Number, object], ...]
    n: int
    seed: Optional[int] = None

    @property
    def deterministic(self) -> bool:
        return len(self.arms) == 1

    def draw_rule(self, rng: random.Random):
        if self.deterministic:
            return self.arms[0][1]
        u = rng.random()
        acc = 0.0
        for p, rule in self.arms[:-1]:
            acc += float(p)
            if u < acc:
                return rule
        return self.arms[-1][1]


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
        if p == 1:
            arms = ((Fraction(1), _ThresholdRule(t_value, True)),)
        elif p == 0:
            arms = ((Fraction(1), _ThresholdRule(t_value, False)),)
        else:
            arms = ((p, _ThresholdRule(t_value, True)),
                    (1 - p, _ThresholdRule(t_value, False)))
        return CompiledPolicy(arms, n, policy.seed)
    if policy.kind == "fixed-index":
        return CompiledPolicy(
            ((Fraction(1), _FixedIndexRule(policy.index)),), n, policy.seed)
    if policy.kind == "accept-last":
        return CompiledPolicy(
            ((Fraction(1), _AcceptLastRule(n)),), n, policy.seed)
    if policy.kind == "optimal-rational":
        _, cont, _ = _rational_dp(prior)
        return CompiledPolicy(
            ((Fraction(1), _ValueStepRule(cont)),), n, policy.seed)
    # optimal-biased
    lam = policy.lam if policy.lam is not None else params.lam
    _, table, _ = _biased_dp(prior, AgentParams(lam, params.k),
                             allow_no_selection, budget)
    rule = _TableRule(table, n, force_last=not allow_no_selection)
    return CompiledPolicy(((Fraction(1), rule),), n, policy.seed)


def run_rule(rule, sigma: Sequence, params: AgentParams) -> StoppingOutcome:
    """Online scan of one deterministic rule over one realization."""
    prev = ValueVector.zero(sigma.k)
    for t in range(1, sigma.n + 1):
        vec = sigma.candidates[t - 1]
        if rule.decide(t, prev, vec):
            s = prev.join(vec)
            v = vec.l1
            return StoppingOutcome(t, v, v - params.lam * (s.l1 - v))
        prev = prev.join(vec)
    return StoppingOutcome(None, Fraction(0), -params.lam * prev.l1)


def rule_expectation(rule, prior: ProductPrior, params: AgentParams) -> Number:
    """Exact expected utility of one deterministic rule over the prior.

    Probability mass moves forward keyed by the super candidate before each
    step; where the rule stops, mass times the stop's utility is banked, and
    mass still unstopped after step n scores -lambda * ||s^(n)||_1."""
    lam = params.lam
    mass = {ValueVector.zero(prior.k).entries: Fraction(1)}
    total = Fraction(0)
    for t, step in enumerate(prior.steps, 1):
        atoms = [(v, v.entries, v.l1, p) for v, p in step.atoms]
        nxt: Dict[tuple, Number] = {}
        for s, m in mass.items():
            prev = ValueVector(s)
            banked = 0
            for v, entries, val, p in atoms:
                joined = tuple(map(max, s, entries))
                if rule.decide(t, prev, v):
                    banked += p * (val - lam * (sum(joined) - val))
                else:
                    nxt[joined] = nxt.get(joined, 0) + m * p
            total += m * banked
        mass = nxt
    for s, m in mass.items():
        total += m * -lam * sum(s)
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


def value_max_distribution(prior: ProductPrior) -> Dict[Number, Number]:
    """Exact distribution of V* = max_t ||sigma^(t)||_1, step by step."""
    dist: Optional[Dict[Number, Number]] = None
    for step in prior.steps:
        step_vals: Dict[Number, Number] = {}
        for v, p in step.atoms:
            val = v.l1
            step_vals[val] = step_vals.get(val, 0) + p
        if dist is None:
            dist = step_vals
            continue
        new: Dict[Number, Number] = {}
        for m, pm in dist.items():
            for val, pv in step_vals.items():
                key = m if m >= val else val
                new[key] = new.get(key, 0) + pm * pv
        dist = new
    return dist


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


def _biased_dp(prior: ProductPrior, params: AgentParams,
               allow_no_selection: bool, budget: Optional[int]):
    budget = resolve_budget(budget)
    lam = params.lam
    n = prior.n
    zero = ValueVector.zero(prior.k)

    # forward pass: reachable reference points before each step
    layers = [(zero.entries,)]
    count = 1
    for d in prior.steps[:-1]:
        nxt = set()
        for s in layers[-1]:
            sv = ValueVector(s)
            for v, _ in d.atoms:
                nxt.add(sv.join(v).entries)
        count += len(nxt)
        if count > budget:
            raise ResourceLimit(
                f"state budget {budget} exceeded ({count}+ states)")
        layers.append(tuple(sorted(nxt)))

    table: Dict[Tuple[int, tuple], Tuple[tuple, ...]] = {}
    values: Dict[tuple, Number] = {}
    for t in range(n, 0, -1):
        step = prior.steps[t - 1]
        newvals: Dict[tuple, Number] = {}
        for s_entries in layers[t - 1]:
            sv = ValueVector(s_entries)
            total = 0
            accepted = []
            for v, p in step.atoms:
                joined = sv.join(v)
                val = v.l1
                u = val - lam * (joined.l1 - val)
                if t == n:
                    cont = -lam * joined.l1 if allow_no_selection else None
                else:
                    cont = values[joined.entries]
                if cont is None or u >= cont:
                    accepted.append(v.entries)
                    choice = u
                else:
                    choice = cont
                total = total + p * choice
            newvals[s_entries] = total
            table[(t, s_entries)] = tuple(sorted(accepted))
        values = newvals
    return values[zero.entries], table, count


def optimal_biased_policy(prior: ProductPrior, params: AgentParams,
                          allow_no_selection: bool = True,
                          budget: Optional[int] = None) -> DPResult:
    """Exact optimal expected utility for the biased gambler.

    Terminal convention per allow_no_selection: declining everything scores
    -lambda * ||s^(n)||_1 (default) or is simply not offered.
    """
    if prior.k != params.k:
        raise InvalidInput("prior and params dimensions differ")
    value, table, count = _biased_dp(prior, params, allow_no_selection, budget)
    return DPResult(value, table, count)


def _rational_dp(prior: ProductPrior):
    n = prior.n
    cont = [Fraction(0)] * (n + 2)  # cont[t] = optimal value on reaching t
    for t in range(n, 0, -1):
        nxt = cont[t + 1]
        total = 0
        for v, p in prior.steps[t - 1].atoms:
            val = v.l1
            total = total + p * (val if val >= nxt else nxt)
        cont[t] = total
    table = {}
    for t in range(1, n + 1):
        accepted = tuple(sorted(
            v.entries for v, _ in prior.steps[t - 1].atoms
            if v.l1 >= cont[t + 1]))
        table[(t, ())] = accepted
    return cont[1], cont, table


def optimal_rational_policy(prior: ProductPrior,
                            budget: Optional[int] = None) -> DPResult:
    """Classical optimal stopping on L1 values (lambda = 0)."""
    resolve_budget(budget)  # validates; the rational DP is O(n) regardless
    value, _, table = _rational_dp(prior)
    return DPResult(value, table, prior.n + 1)


# ---------------------------------------------------------------------------
# patience
# ---------------------------------------------------------------------------


def _single_rule(policy, prior, params, allow_no_selection, budget):
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
    steps = [step.atoms for step in prior.steps]
    n = prior.n
    clear = set()  # (t, super candidate entries, b running): no witness
    # frame: [step t, super candidate before t, b running, next atom index]
    stack = [[1, ValueVector.zero(prior.k), True, 0]]
    path = []  # atom taken at each step above the top frame
    while stack:
        frame = stack[-1]
        t, prev, b_running, i = frame
        if i == len(steps[t - 1]):
            clear.add((t, prev.entries, b_running))
            stack.pop()
            if path:
                path.pop()
            continue
        frame[3] = i + 1
        vec = steps[t - 1][i][0]
        stop_a = rule_a.decide(t, prev, vec)
        stop_b = b_running and rule_b.decide(t, prev, vec)
        if stop_a:
            if b_running and not stop_b:
                return _witness(rule_b, steps, path + [vec], prev, t)
            continue
        if t == n:
            continue
        joined = tuple(map(max, prev.entries, vec.entries))
        key = (t + 1, joined, b_running and not stop_b)
        if key in clear:
            continue
        path.append(vec)
        stack.append([t + 1, ValueVector(joined), key[2], 0])
    return PatienceVerdict("more-patient", None)


def _witness(rule_b, steps, taken, prev, t) -> PatienceVerdict:
    """`a` stopped at step t where `b` ran on: the first realization through
    this prefix takes each later step's first atom, and `b` runs along it."""
    ib = None
    for u in range(t + 1, len(steps) + 1):
        prev = prev.join(taken[-1])
        taken.append(steps[u - 1][0][0])
        if rule_b.decide(u, prev, taken[-1]):
            ib = u
            break
    taken += [atoms[0][0] for atoms in steps[len(taken):]]
    return PatienceVerdict("incomparable", (Sequence(tuple(taken)), t, ib))


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
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise InvalidInput("seed must be an integer")
    return Policy(kind=kind, threshold=num("threshold"),
                  atom_accept_prob=num("atom_accept_prob"),
                  alpha=num("alpha"), index=obj.get("index"),
                  lam=num("lambda"), seed=seed)


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
