"""Refusals at the library's entry points, each with its exact message: a
count is an int and not a bool, and the argument checks that no other test
exercises raise `InvalidInput` as documented."""

import random
import re
from fractions import Fraction as F

import pytest

from lap.analysis import (
    detect_paradox_of_choice,
    detect_quality_paradox,
    monte_carlo,
)
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    Sequence,
    ValueVector,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
)
from lap.instances import (
    ReductionMeta,
    det_to_iid,
    gen_alternating_linear,
    gen_identical_value,
    gen_partial_sums,
    gen_quality_pair,
    gen_random_prior,
    gen_salient_feature,
    gen_worstcase_mixed,
    iid_gap_bound_variants,
    reduction_probabilities,
    rows_for_slack,
)
from lap.policies import (
    Policy,
    compile_policy,
    optimal_biased_policy,
    patience_compare,
    rule_expectation,
    run_policy,
    run_rule,
)

HALF = F(1, 2)


def seq(*rows):
    return Sequence(tuple(ValueVector(tuple(F(x) for x in row))
                          for row in rows))


DIST = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
PRIOR = ProductPrior.iid_prior(DIST, 2)  # k = 1
SUCCINCT = seq((1, 0), (0, 1), (2, 0))  # k = 2
PARAMS = AgentParams(HALF, 2)
META = dict(m=3, x=HALF, alpha_exp=1.0, nominal_n=5, epsilon=HALF,
            log_base="e")


def accept_first(t, s, entries, val):
    """A rule that stops on the first candidate."""
    return True


ACCEPT_LAST = compile_policy(Policy.accept_last(), PRIOR,
                             AgentParams(HALF, 1))  # compiled on PRIOR, k = 1


def refuses(call, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()


# entry point -> (a call on the count, its message with the count as {c},
# the largest int it refuses)
COUNTS = {
    "AgentParams.k": (lambda c: AgentParams(HALF, c),
                      "k must be a positive integer", 0),
    "generator n": (lambda c: gen_alternating_linear(c, 2),
                    "candidate count must be a positive integer", 0),
    "generator k": (lambda c: gen_alternating_linear(2, c),
                    "dimension must be a positive integer", 0),
    "iid_prior n": (lambda c: ProductPrior.iid_prior(DIST, c),
                    "n must be at least 1", 0),
    "index": (lambda c: SUCCINCT.prefix(c),
              "index {c} out of range 1..3", 0),
    "gen_identical_value k": (lambda c: gen_identical_value(c, F(2)),
                              "dimension must be a positive integer", 0),
    "gen_salient_feature k": (lambda c: gen_salient_feature(c, F(1), F(2)),
                              "dimension must be a positive integer", 0),
    "gen_quality_pair k": (lambda c: gen_quality_pair(c, F(2)),
                           "quality pair needs k > 1", 1),
    "gen_random_prior atoms_max": (
        lambda c: gen_random_prior(random.Random(1), atoms_max=c),
        "atoms_max must be a positive integer", 0),
    "ReductionMeta.m": (lambda c: ReductionMeta(**dict(META, m=c)),
                        "reduction needs a source length m >= 2", 1),
    "ReductionMeta.nominal_n": (
        lambda c: ReductionMeta(**dict(META, nominal_n=c)),
        "nominal_n must be a positive integer", 0),
    "reduction_probabilities m": (lambda c: reduction_probabilities(c, HALF),
                                  "need m >= 2 atoms", 1),
    "det_to_iid n_override": (
        lambda c: det_to_iid(SUCCINCT, PARAMS, HALF, n_override=c),
        "n_override must be a positive integer", 0),
    "rows_for_slack k": (lambda c: rows_for_slack(HALF, c, HALF),
                         "dimension must be a positive integer", 0),
    "iid_gap_bound_variants n": (
        lambda c: iid_gap_bound_variants(AgentParams(F(2), 2), c),
        "need n >= 2 candidates", 1),
    "monte_carlo trials": (
        lambda c: monte_carlo(PRIOR, Policy.accept_last(),
                              AgentParams(HALF, 1), c, 1),
        "trials must be positive", 0),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
@pytest.mark.parametrize("count", ["True", "False", "least - 1"])
def test_a_bool_is_not_a_count(entry, count):
    call, message, refused = COUNTS[entry]
    value = {"True": True, "False": False, "least - 1": refused}[count]
    refuses(lambda: call(value), message.format(c=value))


def test_a_count_must_be_an_int():
    refuses(lambda: monte_carlo(PRIOR, Policy.accept_last(),
                                AgentParams(HALF, 1), 2.5, 1),
            "trials must be positive")
    refuses(lambda: ProductPrior.iid_prior(DIST, 2.0), "n must be at least 1")


def test_the_largest_index_is_still_refused_past_n():
    refuses(lambda: SUCCINCT.prefix(4), "index 4 out of range 1..3")
    assert SUCCINCT.prefix(3) == SUCCINCT


# the argument checks no other test reaches; each (call, message)
UNREACHED = {
    "paradox of choice dims": (
        lambda: detect_paradox_of_choice(seq((1,)), seq((1,), (2,)), PARAMS),
        "sequence and params dimensions differ"),
    "paradox of choice, base longer": (
        lambda: detect_paradox_of_choice(SUCCINCT, seq((1, 0)), PARAMS),
        "second sequence must extend the first at one end"),
    "quality paradox dims": (
        lambda: detect_quality_paradox(seq((1,)), seq((2,)), PARAMS),
        "sequence and params dimensions differ"),
    "entry type": (lambda: ValueVector(("1",)),
                   "entry must be int, float, or Fraction"),
    "partial sums beta": (lambda: gen_partial_sums(2, 2, F(0)),
                          "beta must be positive"),
    "worstcase lambda": (lambda: gen_worstcase_mixed(2, 2, F(-1), HALF),
                         "lambda must be non-negative"),
    "ReductionMeta epsilon": (
        lambda: ReductionMeta(**dict(META, epsilon=F(1))),
        "epsilon must lie strictly between 0 and 1"),
    "ReductionMeta log_base": (
        lambda: ReductionMeta(**dict(META, log_base="10")),
        "log_base must be 'e' or '2'"),
    "reduction_probabilities x": (lambda: reduction_probabilities(3, F(1)),
                                  "x must lie in (0, 1)"),
    "log_base": (lambda: det_to_iid(SUCCINCT, PARAMS, HALF, log_base=10),
                 "log_base must be 'e' or 2"),
    "det_to_iid dims": (
        lambda: det_to_iid(SUCCINCT, AgentParams(HALF, 3), HALF),
        "sequence and params dimensions differ"),
    "det_to_iid x_override": (
        lambda: det_to_iid(SUCCINCT, PARAMS, HALF, x_override=F(3, 2)),
        "x_override must lie in (0, 1)"),
    "compile_policy dims": (
        lambda: compile_policy(Policy.accept_last(), PRIOR, PARAMS),
        "prior and params dimensions differ"),
    "run_policy dims": (
        lambda: run_policy(Policy.accept_last(), SUCCINCT,
                           AgentParams(HALF, 1)),
        "sequence and params dimensions differ"),
    "optimal_biased_policy dims": (
        lambda: optimal_biased_policy(PRIOR, PARAMS),
        "prior and params dimensions differ"),
    # the entry points that take a rule or a compiled policy, not a Policy
    "rule_expectation dims": (
        lambda: rule_expectation(accept_first, PRIOR, PARAMS),
        "prior and params dimensions differ"),
    "patience_compare dims": (
        lambda: patience_compare(ACCEPT_LAST, ACCEPT_LAST, PRIOR, PARAMS),
        "prior and params dimensions differ"),
    "run_rule dims": (
        lambda: run_rule(accept_first, SUCCINCT, AgentParams(HALF, 1)),
        "sequence and params dimensions differ"),
    # the offline optima refuse a mismatch with the online scorer's message
    "offline_optimal_biased dims": (
        lambda: offline_optimal_biased(SUCCINCT, AgentParams(HALF, 3)),
        "sequence and params dimensions differ"),
    "offline_optimal_prophet_utility dims": (
        lambda: offline_optimal_prophet_utility(SUCCINCT,
                                                AgentParams(HALF, 3)),
        "sequence and params dimensions differ"),
}


@pytest.mark.parametrize("entry", sorted(UNREACHED))
def test_refused_with_its_message(entry):
    refuses(*UNREACHED[entry])


# a Policy's number fields, each checked as a ValueVector entry is: a
# policy with the field set to x, and the field's name in the message
POLICY_FIELDS = {
    "threshold": (lambda x: Policy.threshold(x), "threshold"),
    "atom_accept_prob": (lambda x: Policy.threshold(F(1), x),
                         "atom_accept_prob"),
    "alpha": (lambda x: Policy.from_alpha(x), "alpha"),
    "lam": (lambda x: Policy.optimal_biased(x), "lambda"),
}


@pytest.mark.parametrize("field", sorted(POLICY_FIELDS))
@pytest.mark.parametrize("value, message", [
    (True, "{} must be a number, got bool"),
    ("1/2", "{} must be int, float, or Fraction"),
    (float("inf"), "{} must be finite"),
    (float("nan"), "{} must be finite"),
], ids=["bool", "str", "inf", "nan"])
def test_policy_number_fields(field, value, message):
    make, what = POLICY_FIELDS[field]
    refuses(lambda: make(value), message.format(what))


def test_policy_keeps_an_accepted_number_as_given():
    assert repr(Policy.threshold(3).threshold) == "3"
    assert repr(Policy.from_alpha(0.5).alpha) == "0.5"
    assert repr(Policy.optimal_biased(HALF).lam) == "Fraction(1, 2)"


def test_reduction_takes_any_succinct_sequence():
    """The first pick scores its own value, so the offline biased optimum
    of a succinct sequence is positive however large lambda is."""
    sigma = seq((1, 0), (0, 5), (0, 7))
    prior, meta = det_to_iid(sigma, AgentParams(F(100), 2), HALF,
                             n_override=4)
    assert prior.n == 4 and meta.m == 3 and 0 < meta.x < 1
