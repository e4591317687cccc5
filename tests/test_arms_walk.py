"""`exact_expectation` walks a compiled policy's arms in one lattice pass,
and the prophet bound walks both guarantee thresholds' arms in one.

Against the arms walked one after another by `rule_expectation`, and the
two thresholds by `exact_expectation` in turn: under every budget up to
what the arms need, the one pass raises the message the calls in turn
raise (the first arm's to pass the budget, though a later arm passes it
at an earlier step), or returns numbers of the same value, type and float
bits."""

import random
from fractions import Fraction as F

import pytest

from lap import analysis
from lap.analysis import _expectations, exact_expectation
from lap.core import AgentParams, ResourceLimit
from lap.policies import (Policy, compile_policy, guarantee_alphas,
                          rule_expectation)
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


def test_guarantee_pair_walks_as_the_two_calls_in_turn():
    budgets = differ = 0
    for flavor in FLAVORS:
        rng = random.Random(f"pair-walk/{flavor}")
        for _ in range(15):
            prior = random_prior(rng, flavor)
            # a subcritical lambda: bias = lambda * (k - 1) at most 5/6
            exact_lam = F(rng.randint(0, 5), 6 * max(prior.k - 1, 1))
            for lam in (exact_lam, float(exact_lam)):
                params = AgentParams(lam, prior.k)
                pair = [Policy.from_alpha(alpha, seed=rng.randrange(9))
                        for alpha in sorted(guarantee_alphas(params))]
                budget = 0
                while True:
                    budget += 1
                    want = outcome(lambda: [exact_expectation(
                        prior, policy, params, budget=budget)
                        for policy in pair])
                    got = outcome(lambda: _expectations(prior, pair, params,
                                                        budget))
                    assert got == want, (flavor, pair, budget)
                    budgets += 1
                    if not isinstance(want, tuple):
                        break
                    # both fail alone, each with its own message
                    alone = [outcome(lambda: exact_expectation(
                        prior, policy, params, budget=budget))
                        for policy in pair]
                    differ += alone[0] != alone[1] and \
                        all(isinstance(x, tuple) for x in alone)
    assert budgets > 500
    assert differ > 10


def test_arms_with_equal_masks_share_one_walk(monkeypatch):
    # two coin-mixed thresholds inside one gap between the prior's L1
    # values: ge and gt stop alike at both, so four arms share one key.
    # `_expectations` walks the distinct arms only, and returns and raises
    # what the arms walked in turn return and raise
    walked = []
    real = analysis._expectation_walk

    def spy(rules, *args):
        walked.append(len(rules))
        return real(rules, *args)
    monkeypatch.setattr(analysis, "_expectation_walk", spy)
    shared = refused = 0
    for flavor in FLAVORS:
        rng = random.Random(f"shared-walk/{flavor}")
        for _ in range(10):
            prior = random_prior(rng, flavor)
            vals = sorted({F(v.l1) for step in prior.steps
                           for v, _ in step.atoms} | {F(0)})
            lo, hi = (vals[-1], vals[-1] + 1) if len(vals) == 1 else \
                vals[rng.randrange(len(vals) - 1):][:2]
            pair = [Policy.threshold(lo + (hi - lo) * i / 3, F(1, 3))
                    for i in (1, 2)]
            exact_lam = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
            for lam in (exact_lam, float(exact_lam)):
                params = AgentParams(lam, prior.k)
                budget = 0
                while True:
                    budget += 1
                    walked.clear()
                    want = outcome(lambda: [arms_in_turn(
                        policy, prior, params, budget) for policy in pair])
                    got = outcome(lambda: _expectations(prior, pair, params,
                                                        budget))
                    assert got == want, (flavor, pair, budget)
                    assert walked[-1] == 1
                    alone = outcome(lambda: [exact_expectation(
                        prior, policy, params, budget=budget)
                        for policy in pair])
                    assert got == alone
                    if not isinstance(want, tuple):
                        break
                    refused += 1
                shared += 1
    assert shared == 80
    assert refused > 50
