"""Expectation engines, performance ratios, bound checks, and paradox probes.

Exact arithmetic is the default everywhere: expectations are Fraction sums
over the reachable (step, super candidate) states, and the two headline
inequalities are checked without rounding.  Monte Carlo estimators exist for
the priors whose support exceeds the budget; they are seeded and replayable.
A policy's Monte Carlo trials walk drawn atom indices over interned
super-candidate rank states and compute each (step, state, atom) outcome
once, with the rule's exact stop utility converted by float(); the rng
makes the calls a scan of sampled sequences would make, so estimates are
the same to the last bit.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Any, Dict, Optional, Tuple

from .core import (
    AgentParams,
    InvalidInput,
    Number,
    ProductPrior,
    Sequence,
    _shown,
    higher_quality,
    number_to_json,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
    prior_to_json,
    representation,
)
from .policies import (
    Policy,
    Rule,
    _decode,
    _join,
    _rank_table,
    _utility,
    compile_policy,
    guarantee_alphas,
    max_distribution,
    optimal_biased_policy,
    optimal_rational_policy,
    resolve_budget,
    rule_expectation,
    run_rule,  # unused here; perfbench/tracing.py wraps it by this name
    threshold_from_alpha,
    value_max_distribution,
)

# Normal-approximation confidence multiplier for all Monte Carlo intervals.
CI_Z = 1.96

ROW_FIELDS = ("lambda", "k", "bias", "n", "e_upr", "e_ugr", "e_ugb",
              "prophet_ratio", "online_ratio", "regime", "instance_id",
              "seed")


class _NonPositiveDenominator:
    """Marker for ratios whose denominator is not positive; the module
    makes its one instance below."""

    def __repr__(self):
        return "NonPositiveDenominator"


NonPositiveDenominator = _NonPositiveDenominator()


def render(x, as_float: bool = False):
    """A reported value as printed: the sentinel's name, a float for a
    Fraction under as_float, number_to_json for any other number, and
    anything else (bool included) unchanged."""
    if x is NonPositiveDenominator:
        return repr(x)
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        return x
    if as_float and isinstance(x, Fraction):
        return float(x)
    return number_to_json(x)


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo mean with a CI_Z-sigma half width; fully replayable."""

    mean: float
    half_width: float
    trials: int
    seed: Optional[int]


@dataclass(frozen=True)
class RatioReport:
    """The three benchmark expectations and their competitive ratios.

    e_prophet_rational is the expected best achievable value E[V*],
    e_gambler_rational_opt the optimal online expected value, and
    e_gambler_biased_opt the optimal online expected utility under
    comparison bias.  Ratios divide the first two by the third and fall
    back to NonPositiveDenominator when that is not positive.
    """

    e_prophet_rational: Number
    e_gambler_rational_opt: Number
    e_gambler_biased_opt: Number
    prophet_ratio: Any
    online_ratio: Any
    bias: Number
    regime: str


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one inequality check, with enough detail to audit it."""

    name: str
    passed: bool
    lhs: Number
    rhs: Number
    detail: Dict[str, Any] = field(default_factory=dict)
    counterexample: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class QualityParadoxReport:
    """Offline optima of a lower- and a higher-quality sequence side by
    side, plus the two comparisons that make the quality paradox."""

    prophet_low: Number
    prophet_high: Number
    gambler_low: Number
    gambler_high: Number
    prophet_worse_on_higher: bool
    gambler_better_on_higher: bool


# ---------------------------------------------------------------------------
# expectation engines
# ---------------------------------------------------------------------------


def exact_expectation(prior: ProductPrior, policy: Policy,
                      params: AgentParams, allow_no_selection: bool = True,
                      budget: Optional[int] = None) -> Number:
    """Exact expected utility of a policy: mixing arms times each arm's
    lattice pass over the reachable (step, super candidate) states.

    The prior's support size still counts against the state budget.
    """
    limit = resolve_budget(budget)
    compiled = compile_policy(policy, prior, params, allow_no_selection,
                              budget)
    prior.check_support(limit)
    return sum((weight * rule_expectation(rule, prior, params)
                for weight, rule in compiled.arms), Fraction(0))


def _float_cums(probs) -> Tuple[float, ...]:
    """Running float sums of a step's probabilities, the last replaced by
    infinity, so that a uniform draw at or past the rounded float total
    still picks the last atom."""
    acc = 0.0
    cums = []
    for p in probs:
        acc += float(p)
        cums.append(acc)
    cums[-1] = math.inf
    return tuple(cums)


def _pick(cums, rng: random.Random) -> int:
    return bisect_right(cums, rng.random())


def _finish_estimate(total: float, total_sq: float, trials: int,
                     seed: Optional[int]) -> EstimateWithCI:
    mean = total / trials
    if trials > 1:
        var = max(total_sq / trials - mean * mean, 0.0)
        var *= trials / (trials - 1)
    else:
        var = 0.0
    return EstimateWithCI(mean, CI_Z * math.sqrt(var / trials), trials, seed)


class _State:
    """An interned (step, super candidate) state of a Monte Carlo walk: the
    super candidate's rank tuple, its values, and per atom of the step what
    a trial drawing that atom does next.  A slot holds None until computed,
    then the stop utility as a float, the next _State, or the next state's
    rank tuple while that state has been reached only once."""

    __slots__ = ("ranks", "values", "next")

    def __init__(self, ranks: tuple, values: tuple, width: int):
        self.ranks = ranks
        self.values = values
        self.next = [None] * width


def _trial_walk(rule: Rule, prior: ProductPrior, lam: Number, limit: int):
    """One deterministic rule's trials as a function of the drawn atom
    indices (one per step) to the utility as a float.

    A slot is computed once, by calling `rule` on the decoded state, and
    read back by every later trial that draws the same atom from the same
    state.  A state is interned the second time a stored slot leads to it,
    so states that never repeat cost one slot each.  At most `limit`
    states are interned; a trial that leaves them computes its remaining
    steps without storing them.  Every stored result sits in a slot of an
    interned state, so the memo is bounded by `limit` times the atoms per
    step.  The end-of-stream utility is kept per final state."""
    rows, levels, _, _ = prior.memoized(_rank_table)
    n = len(rows)
    states: Dict[Tuple[int, tuple], _State] = {}  # (t, ranks) before step t
    finals: Dict[tuple, float] = {}  # ranks after step n -> its utility

    def intern(t, ranks):
        state = states.get((t, ranks))
        if state is None and len(states) < limit:
            state = states[(t, ranks)] = _State(
                ranks, _decode(levels, ranks), len(rows[t - 1].plain))
        return state

    def outcome(t, ranks, values, i):
        """Atom i at step t from the state `ranks` (decoded: `values`): the
        stop utility as a float when the rule stops, else the next ranks."""
        entries, val, _, atom_ranks, _ = rows[t - 1].plain[i]
        joined = _join(ranks, atom_ranks)
        if rule(t, values, entries, val):
            return float(_utility(lam, val, sum(_decode(levels, joined))))
        return joined

    def end(ranks):  # every candidate declined
        return float(_utility(lam, 0, sum(_decode(levels, ranks))))

    def unstored(t, ranks, picks):
        for t in range(t, n + 1):
            r = outcome(t, ranks, _decode(levels, ranks), picks[t - 1])
            if r.__class__ is float:
                return r
            ranks = r
        return end(ranks)

    root = intern(1, (0,) * prior.k)

    def walk(picks) -> float:
        state = root
        for t, i in enumerate(picks, 1):
            r = state.next[i]
            if r.__class__ is _State:
                state = r
                continue
            if r.__class__ is float:
                return r
            if r is None:
                r = outcome(t, state.ranks, state.values, i)
                if t == n and r.__class__ is not float:
                    u = finals.get(r)
                    if u is None:
                        u = finals[r] = end(r)
                    r = u
                if r.__class__ is float:
                    state.next[i] = r
                    return r
                state.next[i] = following = states.get((t + 1, r), r)
            else:  # the second time this slot leads to the state `r`
                following = intern(t + 1, r)
                if following is not None:
                    state.next[i] = following
            if following.__class__ is not _State:
                return unstored(t + 1, r, picks)
            state = following
        raise AssertionError("unreachable: step n always ends the trial")

    return walk


def monte_carlo(prior: ProductPrior, policy: Policy, params: AgentParams,
                trials: int, seed: Optional[int],
                allow_no_selection: bool = True,
                budget: Optional[int] = None) -> EstimateWithCI:
    """Sampled expected utility with a CI_Z-sigma normal half width.

    One rng seeded with `seed` drives everything: each trial first draws
    the policy's mixing arm (two-armed policies only), then one uniform
    per step for all n steps, even past the step where the rule stops, so
    a rerun with the same arguments is bit identical.  The policy's own
    seed is not consulted here.  The draws are atom indices; each arm
    walks them over interned super-candidate states (`_trial_walk`), whose
    count the state budget caps, and each utility is the exact one
    converted with float().
    """
    if trials <= 0:
        raise InvalidInput("trials must be positive")
    limit = resolve_budget(budget)
    compiled = compile_policy(policy, prior, params, allow_no_selection,
                              budget)
    walks = [_trial_walk(rule, prior, params.lam, limit)
             for _, rule in compiled.arms]
    rows = prior.memoized(_rank_table)[0]
    cums = {id(row): _float_cums(atom[2] for atom in row.plain)
            for row in rows}
    steps = [cums[id(row)] for row in rows]
    rng = random.Random(seed)
    draw = rng.random
    walk = walks[0]
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        if len(walks) > 1:
            walk = walks[compiled.draw_arm(rng)]
        u = walk([bisect_right(c, draw()) for c in steps])  # as _pick
        total += u
        total_sq += u * u
    return _finish_estimate(total, total_sq, trials, seed)


# ---------------------------------------------------------------------------
# benchmark ratios
# ---------------------------------------------------------------------------


def _expectation_of(dist: Dict[Number, Number]) -> Number:
    return sum((v * p for v, p in dist.items()), Fraction(0))


def _e_sum_dim_maxima(prior: ProductPrior) -> Number:
    """E[sum_j S_j*]: each dimension's maximum distribution, summed by
    linearity."""
    return sum((_expectation_of(max_distribution(prior, itemgetter(j)))
                for j in range(prior.k)), Fraction(0))


def _ratio_or_sentinel(num: Number, den: Number):
    if den <= 0:
        return NonPositiveDenominator
    return num / den


def ratio_report(prior: ProductPrior, params: AgentParams,
                 budget: Optional[int] = None) -> RatioReport:
    """Compare the rational prophet, the rational gambler, and the biased
    gambler on one prior, all at their respective optima."""
    # the budgeted DP goes first (it also checks the dimensions), so an
    # over-budget prior stops before the unbudgeted passes run
    e_ugb = optimal_biased_policy(prior, params, True,
                                  budget).expected_utility
    e_upr = _expectation_of(value_max_distribution(prior))
    e_ugr = optimal_rational_policy(prior, budget).expected_utility
    return RatioReport(
        e_prophet_rational=e_upr,
        e_gambler_rational_opt=e_ugr,
        e_gambler_biased_opt=e_ugb,
        prophet_ratio=_ratio_or_sentinel(e_upr, e_ugb),
        online_ratio=_ratio_or_sentinel(e_ugr, e_ugb),
        bias=params.bias,
        regime=params.regime,
    )


def ratio_row(report: RatioReport, params: AgentParams, n: int,
              instance_id: str, seed: Optional[int] = None,
              as_float: bool = False) -> Dict[str, Any]:
    """Flatten a report into the one row shape shared by CSV and JSON."""
    return {
        "lambda": render(params.lam, as_float),
        "k": params.k,
        "bias": render(report.bias, as_float),
        "n": n,
        "e_upr": render(report.e_prophet_rational, as_float),
        "e_ugr": render(report.e_gambler_rational_opt, as_float),
        "e_ugb": render(report.e_gambler_biased_opt, as_float),
        "prophet_ratio": render(report.prophet_ratio, as_float),
        "online_ratio": render(report.online_ratio, as_float),
        "regime": report.regime,
        "instance_id": instance_id,
        "seed": seed,
    }


def gamma_of(prior: ProductPrior) -> Number:
    """E[sum_j S_j*] / E[V*], the dimension-spread factor in [1, k]."""
    e_v = _expectation_of(value_max_distribution(prior))
    if e_v <= 0:
        raise InvalidInput("gamma needs a positive expected best value")
    return _e_sum_dim_maxima(prior) / e_v


# ---------------------------------------------------------------------------
# inequality verifiers
# ---------------------------------------------------------------------------


def _require_subcritical(prior: ProductPrior, params: AgentParams) -> None:
    if prior.k != params.k:
        raise InvalidInput("prior and params dimensions differ")
    if params.bias >= 1:
        raise InvalidInput(
            f"bound needs subcritical bias, got {_shown(params.bias)}")


def verify_prophet_bound(prior: ProductPrior, params: AgentParams,
                         budget: Optional[int] = None) -> CheckResult:
    """Check the guarantee against the rational prophet on one prior.

    Both threshold policies built from the guarantee alphas, and the
    optimal biased policy, must reach
    (1 - bias) * max(E[sum_j S_j*] / (1+lam+k), E[V*] / (2+lam)).
    """
    _require_subcritical(prior, params)
    lam, k = params.lam, params.k
    e_v = _expectation_of(value_max_distribution(prior))
    e_sum = _e_sum_dim_maxima(prior)
    alphas = sorted(guarantee_alphas(params))
    exps = [exact_expectation(prior, Policy.from_alpha(a), params,
                              budget=budget) for a in alphas]
    best = max(exps)
    opt = optimal_biased_policy(prior, params, True,
                                budget).expected_utility
    route_dims = (1 - params.bias) * e_sum / (1 + lam + k)
    route_value = (1 - params.bias) * e_v / (2 + lam)
    rhs = max(route_dims, route_value)
    passed = best >= rhs and opt >= rhs
    detail = {
        "gamma": _ratio_or_sentinel(e_sum, e_v),
        "e_best_value": e_v,
        "e_sum_dim_maxima": e_sum,
        "alpha_low": alphas[0],
        "alpha_high": alphas[1],
        "threshold_expectation_low": exps[0],
        "threshold_expectation_high": exps[1],
        "best_threshold_expectation": best,
        "rhs_dims_route": route_dims,
        "rhs_value_route": route_value,
    }
    counterexample = None
    if not passed:
        counterexample = {
            "prior": prior_to_json(prior),
            "lambda": number_to_json(lam),
            "k": k,
            "best_threshold_expectation": number_to_json(best),
            "optimal_biased_expectation": number_to_json(opt),
            "rhs": number_to_json(rhs),
        }
    return CheckResult("prophet-bound", passed, opt, rhs, detail,
                       counterexample)


def verify_online_bound(prior: ProductPrior, params: AgentParams,
                        budget: Optional[int] = None) -> CheckResult:
    """Check (1 - bias) * E[U_gr*] <= (1 + lam) * E[U_gb*], the
    cross-multiplied cap on how much bias can cost an optimal gambler."""
    _require_subcritical(prior, params)
    e_gr = optimal_rational_policy(prior, budget).expected_utility
    e_gb = optimal_biased_policy(prior, params, True,
                                 budget).expected_utility
    lhs = (1 - params.bias) * e_gr
    rhs = (1 + params.lam) * e_gb
    passed = lhs <= rhs
    detail = {"e_gambler_rational_opt": e_gr, "e_gambler_biased_opt": e_gb}
    counterexample = None
    if not passed:
        counterexample = {
            "prior": prior_to_json(prior),
            "lambda": number_to_json(params.lam),
            "k": params.k,
            "lhs": number_to_json(lhs),
            "rhs": number_to_json(rhs),
        }
    return CheckResult("online-bound", passed, lhs, rhs, detail,
                       counterexample)


# ---------------------------------------------------------------------------
# paradox probes
# ---------------------------------------------------------------------------


def _extends(base: Sequence, extended: Sequence) -> bool:
    if base.k != extended.k or base.n > extended.n:
        return False
    return (extended.candidates[:base.n] == base.candidates
            or extended.candidates[-base.n:] == base.candidates)


def detect_paradox_of_choice(base: Sequence, extended: Sequence,
                             params: AgentParams,
                             agent: str = "prophet") -> bool:
    """True when widening the slate strictly hurts the given offline agent.

    `extended` must contain `base` as a prefix or a suffix.  The prophet
    agent compares best-pick utilities; the gambler agent compares offline
    optima with the no-selection exit available.
    """
    if agent not in ("prophet", "gambler"):
        raise InvalidInput(f"unknown agent {agent!r}")
    if base.k != params.k:
        raise InvalidInput("sequence and params dimensions differ")
    if not _extends(base, extended):
        raise InvalidInput(
            "second sequence must extend the first at one end")
    if agent == "prophet":
        u_base = offline_optimal_prophet_utility(base, params)
        u_ext = offline_optimal_prophet_utility(extended, params)
    else:
        u_base = offline_optimal_biased(base, params, True).utility
        u_ext = offline_optimal_biased(extended, params, True).utility
    return u_ext < u_base


def detect_quality_paradox(low: Sequence, high: Sequence,
                           params: AgentParams) -> QualityParadoxReport:
    """Compare offline optima across a quality-ordered pair of sequences.

    `high` must be strictly higher quality than `low` (its worst candidate
    beats the other's best).  The paradox is a prophet that does worse on
    the better slate while the gambler does better.
    """
    if low.k != params.k or high.k != params.k:
        raise InvalidInput("sequence and params dimensions differ")
    if not higher_quality(high, low):
        raise InvalidInput(
            "second sequence must be strictly higher quality")
    p_low = offline_optimal_prophet_utility(low, params)
    p_high = offline_optimal_prophet_utility(high, params)
    g_low = offline_optimal_biased(low, params, True).utility
    g_high = offline_optimal_biased(high, params, True).utility
    return QualityParadoxReport(
        prophet_low=p_low,
        prophet_high=p_high,
        gambler_low=g_low,
        gambler_high=g_high,
        prophet_worse_on_higher=p_high < p_low,
        gambler_better_on_higher=g_high > g_low,
    )


# ---------------------------------------------------------------------------
# reduction diagnostics
# ---------------------------------------------------------------------------


def _code_tables(prior: ProductPrior, target: Sequence):
    """Per step: cumulative weights plus each atom's role relative to the
    target representation (its index there, -1 for zero, -2 for foreign)."""
    index_of = {c.entries: i for i, c in enumerate(target.candidates)}
    tables = []
    for dist in prior.steps:
        codes = tuple(-1 if v.is_zero else index_of.get(v.entries, -2)
                      for v, _ in dist.atoms)
        tables.append((codes, _float_cums(p for _, p in dist.atoms)))
    return tables


def representation_match_rate(prior: ProductPrior, sigma: Sequence,
                              trials: int, seed: Optional[int]
                              ) -> EstimateWithCI:
    """Sampled probability that a draw from the prior represents sigma:
    every distinct candidate appears and first occurrences keep order."""
    if trials <= 0:
        raise InvalidInput("trials must be positive")
    target = representation(sigma)
    tables = _code_tables(prior, target)
    m = target.n
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        expect = 0
        dead = False
        for codes, cums in tables:
            code = codes[_pick(cums, rng)]
            if dead or code == -1 or 0 <= code < expect:
                continue
            if code == expect:
                expect += 1
            else:
                dead = True  # foreign candidate or one seen out of order
        if not dead and expect == m:
            hits += 1
    # 0/1 outcomes: the sum and the sum of squares are both the hit count
    return _finish_estimate(float(hits), float(hits), trials, seed)


def adjacent_inversion_rate(prior: ProductPrior, sigma: Sequence,
                            index: int, trials: int,
                            seed: Optional[int]) -> EstimateWithCI:
    """Sampled probability that distinct candidate index+1 first appears
    before candidate index, conditioned on either appearing at all.

    The trials field of the estimate reports the conditioning count.
    """
    if trials <= 0:
        raise InvalidInput("trials must be positive")
    target = representation(sigma)
    if not 1 <= index < target.n:
        raise InvalidInput(f"no adjacent pair starts at index {index}")
    tables = _code_tables(prior, target)
    lo, hi = index - 1, index
    rng = random.Random(seed)
    qualifying = 0
    inversions = 0
    for _ in range(trials):
        pos_lo = pos_hi = None
        for t, (codes, cums) in enumerate(tables):
            code = codes[_pick(cums, rng)]
            if pos_lo is None and code == lo:
                pos_lo = t
            elif pos_hi is None and code == hi:
                pos_hi = t
        if pos_lo is None and pos_hi is None:
            continue
        qualifying += 1
        if pos_lo is None or (pos_hi is not None and pos_hi < pos_lo):
            inversions += 1
    if qualifying == 0:
        raise InvalidInput("no sampled sequence contained either candidate")
    return _finish_estimate(float(inversions), float(inversions),
                            qualifying, seed)
