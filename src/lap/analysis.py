"""Expectation engines, performance ratios, bound checks, paradox probes,
and reduction diagnostics.

Exact arithmetic is the default everywhere: expectations are int sums over
one scale across the reachable (step, super candidate) states, decoded once
at the end, and the arms of a compiled policy are walked in turn, sharing
one stop view and one norm table, and decoded once, as one mixed sum (the
prophet bound's two thresholds share one walk call too); the two headline
inequalities are checked without rounding, from constants kept on the
params for every prior of a command, and the reduction's two diagnostics
(does a draw represent sigma, does an adjacent pair invert) are forward
chains over the prior's steps.  The one sampler, monte_carlo, exists for
the priors whose reachable states exceed the budget; it is seeded and
replayable.  It keeps the rng, the arm draws and the statistics;
`policies._trial_walk` draws each step's uniform as a trial walks over
interned rank states, picks that step's atom from the rank table's row, and
draws the uniforms after the trial's stop unread.  Each (step, state, atom)
outcome is computed once: a stop's float is the correctly rounded quotient
of its scaled ints.  The rng makes the calls a scan of sampled sequences
would make, in the same order, so estimates are the same to the last bit.
E[V*] and E[sum_j S_j*] come from `policies`, beside the CDF-product sweep
they read, each one int sum on an exact prior.
"""

import math
import random
from fractions import Fraction
from typing import Any, Dict, Optional

from .core import (
    AgentParams,
    InvalidInput,
    Number,
    ProductPrior,
    Sequence,
    _Field,
    _check_dims,
    _count,
    _record,
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
    _e_best_value,
    _e_sum_dim_maxima,
    _expectation_walk,
    _trial_walk,
    _unscaled,
    compile_policy,
    guarantee_alphas,
    optimal_biased_policy,
    optimal_rational_policy,
    resolve_budget,
    run_rule,  # unused here; perfbench/tracing.py wraps it by this name
    value_max_distribution,  # unused here; perfbench/tracing.py wraps it
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


@_record
class EstimateWithCI:
    """Monte Carlo mean with a CI_Z-sigma half width; fully replayable."""

    mean: float
    half_width: float
    trials: int
    seed: Optional[int]


@_record
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


@_record
class CheckResult:
    """Outcome of one inequality check, with enough detail to audit it."""

    name: str
    passed: bool
    lhs: Number
    rhs: Number
    detail: Dict[str, Any] = _Field(default_factory=dict)
    counterexample: Optional[Dict[str, Any]] = None


@_record
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
                      params: AgentParams,
                      budget: Optional[int] = None) -> Number:
    """Exact expected utility of a policy: its arms, walked in turn over
    the reachable (step, super candidate) states (`_expectation_walk`),
    sharing one stop view and one norm table, each holding at most the
    budget's states.  On the integer view with Fraction weights their int
    totals are mixed and decoded once; else each arm is decoded and
    weighted in turn, as the Fraction formula did."""
    return _expectations(prior, (policy,), params, budget)[0]


def _expectations(prior: ProductPrior, policies, params: AgentParams,
                  budget: Optional[int] = None) -> list:
    """`exact_expectation` of each policy, the arms of all of them walked
    in turn by one `_expectation_walk` call, sharing one stop view and one
    norm table, and each policy's totals mixed as for it alone.  Threshold
    arms with equal mask keys (`_Arm.key`) stop alike, so only the first
    of them is walked and the others read its total."""
    limit = resolve_budget(budget)
    arms = [compile_policy(policy, prior, params, limit).arms
            for policy in policies]
    walked = {}  # an arm's key (the arm, if it has none) -> its first arm
    for policy_arms in arms:
        for _, rule in policy_arms:
            walked.setdefault(rule.key or rule, rule)
    exact, totals, scale = _expectation_walk(walked.values(), prior,
                                             params.lam, limit)
    total_of = dict(zip(walked, totals))
    values = []
    for policy_arms in arms:
        weights = [w for w, _ in policy_arms]
        own = [total_of[rule.key or rule] for _, rule in policy_arms]
        if exact and all(isinstance(w, Fraction) for w in weights):
            den = math.lcm(*(w.denominator for w in weights))
            values.append(Fraction(
                sum(w.numerator * (den // w.denominator) * total
                    for w, total in zip(weights, own)), den * scale))
        else:
            values.append(sum((w * _unscaled(exact, total, scale)
                               for w, total in zip(weights, own)),
                              Fraction(0)))
    return values


def monte_carlo(prior: ProductPrior, policy: Policy, params: AgentParams,
                trials: int, seed: Optional[int],
                budget: Optional[int] = None) -> EstimateWithCI:
    """Sampled expected utility with a CI_Z-sigma normal half width.

    One rng seeded with `seed` drives everything: each trial first draws
    the policy's mixing arm (two-armed policies only), then one uniform
    per step for all n steps, even past the step where the rule stops, so
    a rerun with the same arguments is bit identical.  The policy's own
    seed is not consulted here.  Each arm's walk (`_trial_walk`) draws a
    step's uniform when the trial reaches that step, turns it into an atom
    index and moves over interned super-candidate states, whose count the
    state budget caps; after the stop it draws the remaining steps'
    uniforms unread.  Each utility is the exact one rounded once to a
    float: the correctly rounded quotient of the stop's scaled ints.
    """
    _count(trials, 1, "trials must be positive")
    limit = resolve_budget(budget)
    compiled = compile_policy(policy, prior, params, limit)
    walks = [_trial_walk(rule, prior, params.lam, limit)
             for _, rule in compiled.arms]
    rng = random.Random(seed)
    draw = rng.random
    walk = walks[0]
    total = total_sq = 0.0
    for _ in range(trials):
        if len(walks) > 1:
            walk = walks[compiled.draw_arm(rng)]
        u = walk(draw)
        total += u
        total_sq += u * u
    mean = total / trials
    if trials > 1:
        var = max(total_sq / trials - mean * mean, 0.0)
        var *= trials / (trials - 1)
    else:
        var = 0.0
    return EstimateWithCI(mean, CI_Z * math.sqrt(var / trials), trials, seed)


# ---------------------------------------------------------------------------
# benchmark ratios
# ---------------------------------------------------------------------------


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
    e_ugb = optimal_biased_policy(prior, params, budget).expected_utility
    e_upr = _e_best_value(prior)
    e_ugr = optimal_rational_policy(prior).expected_utility
    return RatioReport(
        e_prophet_rational=e_upr,
        e_gambler_rational_opt=e_ugr,
        e_gambler_biased_opt=e_ugb,
        prophet_ratio=_ratio_or_sentinel(e_upr, e_ugb),
        online_ratio=_ratio_or_sentinel(e_ugr, e_ugb),
        bias=params.bias,
        regime=params.regime,
    )


def _blank_row(params: AgentParams, instance_id: str, seed,
               as_float: bool) -> Dict[str, Any]:
    """A row in ROW_FIELDS order with the cell's params, id and seed set
    and every report field blank: a sweep's row for a cell whose instance
    cannot be built, and the start of every ratio row."""
    return {**dict.fromkeys(ROW_FIELDS, ""),
            "lambda": render(params.lam, as_float),
            "k": params.k,
            "bias": render(params.bias, as_float),
            "regime": params.regime,
            "instance_id": instance_id,
            "seed": seed}


def ratio_row(report: RatioReport, params: AgentParams, n: int,
              instance_id: str, seed: Optional[int] = None,
              as_float: bool = False) -> Dict[str, Any]:
    """Flatten a report into the one row shape shared by CSV and JSON."""
    return {**_blank_row(params, instance_id, seed, as_float),
            "bias": render(report.bias, as_float),
            "n": n,
            "e_upr": render(report.e_prophet_rational, as_float),
            "e_ugr": render(report.e_gambler_rational_opt, as_float),
            "e_ugb": render(report.e_gambler_biased_opt, as_float),
            "prophet_ratio": render(report.prophet_ratio, as_float),
            "online_ratio": render(report.online_ratio, as_float),
            "regime": report.regime}


# ---------------------------------------------------------------------------
# inequality verifiers
# ---------------------------------------------------------------------------


def _require_subcritical(prior: ProductPrior, params: AgentParams) -> None:
    _check_dims(prior, params)
    if params.bias >= 1:
        raise InvalidInput(
            f"bound needs subcritical bias, got {_shown(params.bias)}")


def _bound_constants(params: AgentParams):
    """What the bound checks read of the params alone, kept on them: the
    sorted guarantee alphas, their threshold policies, and the operands
    1 - bias, 1 + lam + k, 2 + lam and 1 + lam (not quotients, so a float
    lambda rounds as the formulas do)."""
    lam, k = params.lam, params.k
    alphas = tuple(sorted(guarantee_alphas(params)))
    return (alphas, tuple(map(Policy.from_alpha, alphas)), 1 - params.bias,
            1 + lam + k, 2 + lam, 1 + lam)


def _counterexample(prior: ProductPrior, params: AgentParams,
                    **sides: Number) -> Dict[str, Any]:
    """A failed bound's counterexample: the prior, lambda and k, then the
    check's sides in the order given."""
    return {"prior": prior_to_json(prior),
            "lambda": number_to_json(params.lam), "k": params.k,
            **{name: number_to_json(x) for name, x in sides.items()}}


def verify_prophet_bound(prior: ProductPrior, params: AgentParams,
                         budget: Optional[int] = None) -> CheckResult:
    """Check the guarantee against the rational prophet on one prior.

    Both threshold policies built from the guarantee alphas, and the
    optimal biased policy, must reach
    (1 - bias) * max(E[sum_j S_j*] / (1+lam+k), E[V*] / (2+lam)).
    """
    _require_subcritical(prior, params)
    alphas, thresholds, margin, dims_den, value_den, _ = params.memoized(
        _bound_constants)
    e_v = _e_best_value(prior)
    e_sum = _e_sum_dim_maxima(prior)
    exps = _expectations(prior, thresholds, params, budget)
    best = max(exps)
    opt = optimal_biased_policy(prior, params, budget).expected_utility
    route_dims = margin * e_sum / dims_den
    route_value = margin * e_v / value_den
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
    return CheckResult("prophet-bound", passed, opt, rhs, detail,
                       None if passed else _counterexample(
                           prior, params, best_threshold_expectation=best,
                           optimal_biased_expectation=opt, rhs=rhs))


def verify_online_bound(prior: ProductPrior, params: AgentParams,
                        budget: Optional[int] = None) -> CheckResult:
    """Check (1 - bias) * E[U_gr*] <= (1 + lam) * E[U_gb*], the
    cross-multiplied cap on how much bias can cost an optimal gambler."""
    _require_subcritical(prior, params)
    _, _, margin, _, _, one_plus_lam = params.memoized(_bound_constants)
    # the budgeted DP goes first, as in ratio_report
    e_gb = optimal_biased_policy(prior, params, budget).expected_utility
    e_gr = optimal_rational_policy(prior).expected_utility
    lhs = margin * e_gr
    rhs = one_plus_lam * e_gb
    passed = lhs <= rhs
    detail = {"e_gambler_rational_opt": e_gr, "e_gambler_biased_opt": e_gb}
    return CheckResult("online-bound", passed, lhs, rhs, detail,
                       None if passed else _counterexample(
                           prior, params, lhs=lhs, rhs=rhs))


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
    biased optima.
    """
    if agent not in ("prophet", "gambler"):
        raise InvalidInput(f"unknown agent {agent!r}")
    _check_dims(base, params)
    if not _extends(base, extended):
        raise InvalidInput(
            "second sequence must extend the first at one end")
    if agent == "prophet":
        u_base = offline_optimal_prophet_utility(base, params)
        u_ext = offline_optimal_prophet_utility(extended, params)
    else:
        u_base = offline_optimal_biased(base, params).utility
        u_ext = offline_optimal_biased(extended, params).utility
    return u_ext < u_base


def detect_quality_paradox(low: Sequence, high: Sequence,
                           params: AgentParams) -> QualityParadoxReport:
    """Compare offline optima across a quality-ordered pair of sequences.

    `high` must be strictly higher quality than `low` (its worst candidate
    beats the other's best).  The paradox is a prophet that does worse on
    the better slate while the gambler does better.
    """
    _check_dims(low, params)
    _check_dims(high, params)
    if not higher_quality(high, low):
        raise InvalidInput(
            "second sequence must be strictly higher quality")
    p_low = offline_optimal_prophet_utility(low, params)
    p_high = offline_optimal_prophet_utility(high, params)
    g_low = offline_optimal_biased(low, params).utility
    g_high = offline_optimal_biased(high, params).utility
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


def representation_probability(prior: ProductPrior,
                               sigma: Sequence) -> Number:
    """Exact probability that a draw from the prior represents sigma: every
    distinct candidate appears and first occurrences keep order.

    A forward chain over the steps on the next expected index of
    representation(sigma); a zero atom leaves the mass where it is, and a
    foreign candidate, or one seen before its turn, kills it.
    """
    if sigma.k != prior.k:
        raise InvalidInput("prior and sequence dimensions differ")
    target = representation(sigma)
    index_of = {c.entries: i for i, c in enumerate(target.candidates)}
    m = target.n
    mass = [Fraction(1)] + [Fraction(0)] * m  # by next expected index
    for dist in prior.steps:
        new = [Fraction(0)] * (m + 1)
        for v, p in dist.atoms:
            # a zero atom (-1) or an earlier candidate stays, the expected
            # one advances, and a later or foreign one (m + 1) kills
            code = -1 if v.is_zero else index_of.get(v.entries, m + 1)
            for j, w in enumerate(mass):
                if w and code <= j:
                    new[j + (code == j)] += w * p
        mass = new
    return mass[m]


def inversion_probability(prior: ProductPrior, sigma: Sequence,
                          index: int) -> Number:
    """Exact probability that distinct candidate index+1 first appears
    before candidate index, conditioned on either appearing at all.

    A forward chain over the steps on the mass that has seen neither; each
    step banks the shares that see one of the two first.  On an iid
    reduction prior this is x / (1 + x) for every n.
    """
    if sigma.k != prior.k:
        raise InvalidInput("prior and sequence dimensions differ")
    target = representation(sigma)
    if not 1 <= index < target.n:
        raise InvalidInput(f"no adjacent pair starts at index {index}")
    lo, hi = (c.entries for c in target.candidates[index - 1:index + 1])
    neither, lo_first, hi_first = Fraction(1), Fraction(0), Fraction(0)
    for dist in prior.steps:
        rest = Fraction(0)
        for v, p in dist.atoms:
            if v.entries == hi:
                hi_first += neither * p
            elif v.entries == lo:
                lo_first += neither * p
            else:
                rest += p
        neither *= rest
        if not neither:
            break
    if not hi_first + lo_first:
        raise InvalidInput("neither candidate can appear under the prior")
    return hi_first / (hi_first + lo_first)
