"""`exact_expectation` walks a compiled policy's arms in one lattice pass.

Against the arms walked one after another by `rule_expectation`: under
every budget up to what the arms need, the one pass raises the message
the arms in turn raise (the first arm's to pass the budget, though a later
arm passes it at an earlier step), or returns a number of the same value,
type and float bits as the weighted sum of the arms' expectations."""

import random
from fractions import Fraction as F

import pytest

from lap.analysis import exact_expectation
from lap.core import AgentParams, ResourceLimit
from lap.policies import Policy, compile_policy, rule_expectation
from test_walks import FLAVORS, GRID, policies_for, random_prior


def outcome(call):
    try:
        return repr(call())
    except ResourceLimit as err:
        return ("ResourceLimit", str(err))


def arms_in_turn(policy, prior, params, budget):
    arms = compile_policy(policy, prior, params, budget).arms
    return sum((w * rule_expectation(rule, prior, params, budget)
                for w, rule in arms), F(0))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_one_walk_raises_and_returns_as_the_arms_in_turn(flavor):
    rng = random.Random(f"arms-walk/{flavor}")
    two_armed = later_arm_first = 0
    for _ in range(12):
        prior = random_prior(rng, flavor)
        exact_lam = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
        for lam in (exact_lam, float(exact_lam)):
            params = AgentParams(lam, prior.k)
            # a float coin on any prior mixes float weights
            pols = policies_for(rng, prior) + [Policy.threshold(
                rng.choice(GRID) * 2, rng.randint(1, 3) / 4)]
            for policy in pols:
                arms = compile_policy(policy, prior, params).arms
                two_armed += len(arms) == 2
                budget = 0
                while True:
                    budget += 1
                    want = outcome(lambda: arms_in_turn(policy, prior,
                                                        params, budget))
                    got = outcome(lambda: exact_expectation(
                        prior, policy, params, budget=budget))
                    assert got == want, (policy, budget)
                    if not isinstance(want, tuple):
                        break
                    alone = [outcome(lambda: rule_expectation(
                        rule, prior, params, budget)) for _, rule in arms]
                    if len(arms) == 2 and alone[0] != alone[1] and \
                            all(isinstance(x, tuple) for x in alone):
                        later_arm_first += 1
    assert two_armed > 20
    assert later_arm_first > 0
