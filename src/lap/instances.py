"""Instance families with known closed-form behavior.

The alternating families place one nonzero coordinate per candidate and cycle
it through the dimensions, so a loss-averse observer keeps paying for every
dimension already seen.  The partial-sums family is calibrated so each
row-opening pick nets exactly 1, which pins the online optimum while the best
value grows; the mixed prior bolts a rare huge last candidate on top of it.
The remaining generators are small fixed scenes used by the behavioral
checks, and det_to_iid turns any succinct sequence into an i.i.d. prior whose
realized representation reproduces that sequence with high probability.

The flags are checked here; what a family then builds from them is lap's
own numbers, built through `core._trusted` with no per-entry checks.  A
float flag can still make a value past the float range (a sum of finite
floats can overflow to inf), so each value a family places on an axis is
checked once, with the message the checked constructor gives.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, ROUND_CEILING, localcontext
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Tuple, Union

from .core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    Number,
    ProductPrior,
    ResourceLimit,
    Sequence,
    ValueVector,
    _check_dims,
    _coerce,
    _coerce_nonnegative,
    _count,
    _digit_limit,
    _record,
    _shown,
    _trusted,
    _trusted_prior,
    is_succinct,
    max_value,
    offline_optimal_biased,
)
from .policies import resolve_budget


def _single_axis(value: Number, dim: int, k: int) -> ValueVector:
    entries = [Fraction(0)] * k
    entries[dim - 1] = _coerce_nonnegative(value, "entry")
    return _trusted(ValueVector, entries=tuple(entries))


def _check_counts(n: int, k: int) -> None:
    _count(n, 1, "candidate count must be a positive integer")
    _count(k, 1, "dimension must be a positive integer")


def _alternating(n: int, k: int, value: Callable[[int], Number]
                 ) -> Sequence:
    """n candidates, row r (from 0) worth value(r) on one axis, cycling the
    dimensions."""
    return _trusted(Sequence, candidates=tuple(
        _single_axis(value(t // k), t % k + 1, k) for t in range(n)))


def gen_alternating_geometric(n: int, k: int, beta: Number) -> Sequence:
    """Row r carries value beta^(r-1), cycling one nonzero dimension."""
    _check_counts(n, k)
    beta = _coerce(beta, "beta")
    if beta <= 0:
        raise InvalidInput("beta must be positive")
    return _alternating(n, k, lambda row: beta ** row)


def gen_alternating_linear(n: int, k: int) -> Sequence:
    """Row r carries value r, cycling one nonzero dimension."""
    _check_counts(n, k)
    return _alternating(n, k, lambda row: Fraction(row + 1))


def gen_partial_sums(w: int, k: int, beta: Number) -> Sequence:
    """Row i carries 1 + beta + ... + beta^i, cycling one nonzero dimension.

    With beta matching the agent's amplified bias lam*(k-1), each pick that
    opens a row nets utility exactly 1.
    """
    _check_counts(w, k)
    beta = _coerce(beta, "beta")
    if beta <= 0:
        raise InvalidInput("beta must be positive")
    totals = list(accumulate((beta ** i for i in range(w)),
                             initial=Fraction(0)))
    return _alternating(w * k, k, lambda row: totals[row + 1])


def gen_worstcase_mixed(w: int, k: int, lam: Number,
                        epsilon: Number) -> ProductPrior:
    """Partial-sums table followed by one two-atom candidate: a huge value
    with probability epsilon, nothing otherwise."""
    _check_counts(w, k)
    lam = _coerce(lam, "lambda")
    epsilon = _coerce(epsilon, "epsilon")
    if lam < 0:
        raise InvalidInput("lambda must be non-negative")
    if not 0 < epsilon < 1:
        raise InvalidInput("epsilon must lie strictly between 0 and 1")
    beta = lam * (k - 1)
    if beta >= 1:
        raise InvalidInput("needs subcritical bias lam*(k-1) < 1")
    # beta = 0 (k = 1 or lam = 0) collapses every partial sum to 1
    rows = list(accumulate((beta ** i for i in range(1, w)),
                           initial=Fraction(1)))
    psum = rows[-1]
    big = (1 - epsilon) * (1 + lam) * psum / epsilon
    one = Fraction(1)
    steps = [_trusted(FiniteDistribution,
                      atoms=((_single_axis(rows[i], dim, k), one),))
             for i in range(w) for dim in range(1, k + 1)]
    steps.append(_trusted(FiniteDistribution, atoms=(
        (_single_axis(big, 1, k), epsilon),
        (ValueVector.zero(k), 1 - epsilon))))
    return _trusted_prior(tuple(steps))


def gen_identical_value(k: int, q: Number) -> Sequence:
    """Candidate i is worth q on dimension i alone; all picks tie in value."""
    _count(k, 1, "dimension must be a positive integer")
    q = _coerce(q, "q")
    if q <= 0:
        raise InvalidInput("q must be positive")
    return _trusted(Sequence, candidates=tuple(
        _single_axis(q, i, k) for i in range(1, k + 1)))


def gen_salient_feature(k: int, a: Number, q: Number) -> Sequence:
    """Candidate i is worth a everywhere plus a bonus q on dimension i."""
    _count(k, 1, "dimension must be a positive integer")
    a = _coerce(a, "a")
    q = _coerce(q, "q")
    if a <= 0:
        raise InvalidInput("a must be positive")
    if q <= 1:
        raise InvalidInput("q must exceed 1")
    top = _coerce_nonnegative(a + q, "entry")
    rows = []
    for i in range(1, k + 1):
        entries = [a] * k
        entries[i - 1] = top
        rows.append(_trusted(ValueVector, entries=tuple(entries)))
    return _trusted(Sequence, candidates=tuple(rows))


def gen_quality_pair(k: int, q: Number) -> Tuple[Sequence, Sequence]:
    """An identical-value scene and its k-times-richer counterpart."""
    _count(k, 2, "quality pair needs k > 1")
    q = _coerce(q, "q")
    if q <= 1:
        raise InvalidInput("q must exceed 1")
    return gen_identical_value(k, q), gen_identical_value(k, q * k)


def gen_dominance_pair(k: int, n: int, lam: Number,
                       epsilon: Number) -> Tuple[Sequence, Sequence]:
    """A flat sequence and a point-wise dominating one that is worth less.

    The first repeats a single unit axis and ends on 1+epsilon; the second
    cycles the axes (losses pile up on every dimension) and ends on 1+beta.
    Needs n > k so the cycle closes before the final candidate.
    """
    _check_counts(n, k)
    lam = _coerce(lam, "lambda")
    epsilon = _coerce(epsilon, "epsilon")
    beta = lam * (k - 1)
    if beta <= 0:
        raise InvalidInput("needs lam > 0 and k >= 2 so that lam*(k-1) > 0")
    if not 0 < epsilon < beta:
        raise InvalidInput("epsilon must lie strictly between 0 and lam*(k-1)")
    if n < k + 1:
        raise InvalidInput("needs n >= k+1 so every dimension appears")
    base = tuple(_single_axis(Fraction(1), 1, k) for _ in range(n - 1)) + \
        (_single_axis(1 + epsilon, 1, k),)
    dom = tuple(_single_axis(Fraction(1), (t - 1) % k + 1, k)
                for t in range(1, n)) + (_single_axis(1 + beta, 1, k),)
    return _trusted(Sequence, candidates=base), \
        _trusted(Sequence, candidates=dom)


_RANDOM_VALUE_GRID = tuple(Fraction(i, 2) for i in range(7))


def random_prior_draws(rng, k: int = 2, n_max: int = 4, atoms_max: int = 3
                       ) -> List[Tuple[List[tuple], List[int]]]:
    """gen_random_prior's rng calls, with no prior built: per step, the
    sorted support (entry tuples on the grid) and its int weights.  Points
    are drawn as grid indices (`randrange` makes `choice`'s one
    `_randbelow` call), hashed and sorted as ints, then mapped to the
    grid."""
    _check_counts(n_max, k)
    _count(atoms_max, 1, "atoms_max must be a positive integer")
    size, value = len(_RANDOM_VALUE_GRID), _RANDOM_VALUE_GRID.__getitem__
    steps = []
    for _ in range(rng.randint(1, n_max)):
        natoms = rng.randint(1, atoms_max)
        support = set()
        while len(support) < natoms:
            support.add(tuple([rng.randrange(size) for _ in range(k)]))
        steps.append(([tuple(map(value, point)) for point in sorted(support)],
                      [rng.randint(1, 4) for _ in range(natoms)]))
    return steps


def gen_random_prior(rng, k: int = 2, n_max: int = 4, atoms_max: int = 3
                     ) -> ProductPrior:
    """Small random prior on a coarse rational grid.

    Every draw comes from the caller's rng, so seeded counterexample hunts
    replay exactly.  Supports stay tiny on purpose: these priors feed the
    exact lattice passes and the oracles' enumeration, not sampling.
    """
    steps = []
    for support, weights in random_prior_draws(rng, k, n_max, atoms_max):
        total = sum(weights)
        steps.append(_trusted(FiniteDistribution, atoms=tuple(
            (_trusted(ValueVector, entries=vec), Fraction(wt, total))
            for vec, wt in zip(support, weights))))
    return _trusted_prior(tuple(steps))


# ---------------------------------------------------------------------------
# deterministic-to-iid reduction
# ---------------------------------------------------------------------------


@_record
class ReductionMeta:
    """Parameters of one reduction run.  nominal_n is the candidate count the
    asymptotic argument calls for; it is documentation, simulation always
    goes through an explicit override."""

    m: int
    x: Number
    alpha_exp: float
    nominal_n: int
    epsilon: Number
    log_base: str

    def __post_init__(self):
        _count(self.m, 2, "reduction needs a source length m >= 2")
        if not 0 < self.x < 1:
            raise InvalidInput("decay parameter x must lie in (0, 1)")
        _count(self.nominal_n, 1, "nominal_n must be a positive integer")
        if not 0 < self.epsilon < 1:
            raise InvalidInput("epsilon must lie strictly between 0 and 1")
        if self.log_base not in ("e", "2"):
            raise InvalidInput("log_base must be 'e' or '2'")


def reduction_probabilities(m: int, x: Number) -> Tuple[Fraction, ...]:
    """Atom probabilities x^(i-1)(1-x)/(1-x^m); exact and summing to 1."""
    _count(m, 2, "need m >= 2 atoms")
    x = Fraction(x)
    if not 0 < x < 1:
        raise InvalidInput("x must lie in (0, 1)")
    scale = (1 - x) / (1 - x ** m)
    return tuple(x ** (i - 1) * scale for i in range(1, m + 1))


def _nominal_count(m: int, alpha: float, log_of_m: float) -> int:
    try:
        return math.ceil(m ** (alpha * (m - 1)) * log_of_m ** alpha)
    except OverflowError:
        # reconstruct ceil(10^d) digit-wise; low digits are approximate but
        # the magnitude is what matters for a count this large
        d = alpha * (m - 1) * math.log10(m) + alpha * math.log10(log_of_m)
        with localcontext() as ctx:
            ctx.prec = 50
            dec = Decimal(d)
            whole = int(dec)
            mantissa = Decimal(10) ** (dec - whole)
            scaled = mantissa.scaleb(whole)
            return int(scaled.to_integral_value(rounding=ROUND_CEILING))


def _log_base(log_base: Union[str, int]):
    """The label and log function of log_base, 'e' or 2 (or '2')."""
    if log_base == "e":
        return "e", math.log
    if log_base in (2, "2"):
        return "2", math.log2
    raise InvalidInput("log_base must be 'e' or 2")


def det_to_iid(sigma: Sequence, params: AgentParams, epsilon: Number,
               n_override: Optional[int] = None,
               x_override: Optional[Number] = None,
               log_base: Union[str, int] = "e",
               budget: Optional[int] = None
               ) -> Tuple[ProductPrior, ReductionMeta]:
    """Build an i.i.d. prior over sigma's candidates whose realized
    representation equals sigma with high probability.

    The decay exponent alpha comes from the gap between sigma's best value
    and its best biased utility; x_override skips that and fixes the decay
    directly (alpha is then back-derived).  The prior uses n_override, else
    the nominal candidate count; either must fit the state budget.  A
    probability too long to print is refused before it is computed.
    """
    _check_dims(sigma, params)
    if not is_succinct(sigma):
        raise InvalidInput("reduction needs a succinct sequence")
    m = sigma.n
    if m < 2:
        raise InvalidInput("reduction needs at least two candidates")
    epsilon = _coerce(epsilon, "epsilon")
    if not 0 < epsilon < 1:
        raise InvalidInput("epsilon must lie strictly between 0 and 1")
    base_label, log = _log_base(log_base)

    if x_override is not None:
        x = Fraction(x_override)
        if not 0 < x < 1:
            raise InvalidInput("x_override must lie in (0, 1)")
        alpha = -math.log(x, m)
    else:  # the first pick scores its own value, so best_biased > 0
        best_value = max_value(sigma)
        best_biased = offline_optimal_biased(sigma, params).utility
        alpha = math.log(best_value / (epsilon * best_biased), m) + 2
        x = Fraction(m ** -alpha)

    nominal = _nominal_count(m, alpha, log(m))
    meta = ReductionMeta(m=m, x=x, alpha_exp=alpha, nominal_n=nominal,
                         epsilon=epsilon, log_base=base_label)

    n = nominal if n_override is None else _count(
        n_override, 1, "n_override must be a positive integer")
    cap = resolve_budget(budget)
    if n > cap:
        err = ResourceLimit(
            f"candidate count {n} exceeds budget {cap}" if n_override else
            f"nominal candidate count {_shown(nominal)} exceeds budget "
            f"{cap}; pass n_override to simulate at a feasible size")
        err.nominal_n = nominal
        raise err
    # x = a/b in lowest terms makes the first probability b^(m-1)/S, with S
    # coprime to b: its numerator has more digits than the int-to-str limit
    # once (m-1)*log10(b) reaches it (0.30102 < log10(2) keeps this sound)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and ((m - 1) * (x.denominator.bit_length() - 1) * 30102
                   >= digits * 100000):
        raise ResourceLimit(_digit_limit())

    probs = reduction_probabilities(m, x)
    # sigma is succinct, so its candidates are distinct support points
    dist = _trusted(FiniteDistribution,
                    atoms=tuple(zip(sigma.candidates, probs)))
    return ProductPrior.iid_prior(dist, n), meta


def rows_for_slack(lam: Number, k: int, epsilon: Number) -> int:
    """Smallest row count w with (lam*(k-1))^w <= epsilon."""
    lam = _coerce(lam, "lambda")
    epsilon = _coerce(epsilon, "epsilon")
    _count(k, 1, "dimension must be a positive integer")
    beta = lam * (k - 1)
    if not 0 < beta < 1:
        raise InvalidInput("needs 0 < lam*(k-1) < 1")
    if not 0 < epsilon < 1:
        raise InvalidInput("epsilon must lie strictly between 0 and 1")
    w = max(1, math.ceil(math.log(epsilon) / math.log(beta)))
    while beta ** w > epsilon:
        w += 1
    while w > 1 and beta ** (w - 1) <= epsilon:
        w -= 1
    return w


def iid_gap_bound_variants(params: AgentParams, n: int,
                           log_base: Union[str, int] = "e") -> dict:
    """Both readings of the supercritical i.i.d. growth exponent.

    The source derivation scales the dimension-dependent coefficient by
    log^(1/2) n and then subtracts 1, but its named shorthand folds the -1
    into the coefficient before scaling.  The two disagree whenever
    log n != 1, so both are reported side by side.
    """
    _count(n, 2, "need n >= 2 candidates")
    beta = float(params.bias)
    if beta <= 1:
        raise InvalidInput("growth exponent needs supercritical bias > 1")
    _, lg = _log_base(log_base)
    k = params.k
    coeff = 1 / math.sqrt(2 * k) * min(1 / math.sqrt(lg(beta)),
                                       1 / (2 * math.sqrt(k)))
    root_log_n = math.sqrt(lg(n))
    outside = coeff * root_log_n - 1
    inside = (coeff - 1) * root_log_n
    return {
        "exponent_minus_one_outside": outside,
        "exponent_minus_one_inside": inside,
        "ratio_lower_bound_outside": beta ** outside,
        "ratio_lower_bound_inside": beta ** inside,
    }
