"""The Monte Carlo trial walk against the sampler and scan it replaced.

`monte_carlo` walks drawn atom indices over interned super-candidate
states and reuses each (step, state, atom) outcome.  The reference below is
the former loop, kept here: draw the arm the former way, build one
`Sequence` per trial from one uniform per step, scan it with `run_rule`, and
convert each utility with float().  Both must give the same mean and half
width to the last bit, on exact and float priors alike."""

import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from lap.analysis import CI_Z, monte_carlo
from lap.core import (
    AgentParams,
    FiniteDistribution,
    ProductPrior,
    Sequence,
    ValueVector,
    prior_from_json,
    prior_to_json,
)
from lap.policies import Policy, compile_policy, run_rule

GRID = tuple(sorted({F(a, b) for a in range(7) for b in (1, 2, 3, 5)}))


def ref_monte_carlo(prior, policy, params, trials, seed, budget=None):
    compiled = compile_policy(policy, prior, params, budget)
    tables = []
    for dist in prior.steps:
        acc, cums = 0.0, []
        for _, p in dist.atoms:
            acc += float(p)
            cums.append(acc)
        tables.append((tuple(v for v, _ in dist.atoms), cums))
    rng = random.Random(seed)
    total = total_sq = 0.0
    for _ in range(trials):
        rule = compiled.arms[0][1]
        if len(compiled.arms) > 1:
            u, acc = rng.random(), 0.0
            rule = compiled.arms[-1][1]
            for p, arm in compiled.arms[:-1]:
                acc += float(p)
                if u < acc:
                    rule = arm
                    break
        picks = (min(bisect_right(cums, rng.random()), len(cums) - 1)
                 for _, cums in tables)
        sigma = Sequence(tuple(vecs[i] for (vecs, _), i
                               in zip(tables, picks)))
        u = float(run_rule(rule, sigma, params).utility)
        total += u
        total_sq += u * u
    mean = total / trials
    var = 0.0
    if trials > 1:
        var = max(total_sq / trials - mean * mean, 0.0)
        var *= trials / (trials - 1)
    return mean, CI_Z * math.sqrt(var / trials)


def same(prior, policy, params, trials, seed, **kwargs):
    est = monte_carlo(prior, policy, params, trials, seed, **kwargs)
    mean, half_width = ref_monte_carlo(prior, policy, params, trials, seed,
                                       **kwargs)
    assert est.mean.hex() == mean.hex()
    assert est.half_width.hex() == half_width.hex()
    return est


def random_prior(rng):
    k = rng.randint(1, 3)
    n = rng.randint(1, 5)
    steps = []
    for _ in range(n):
        support, size = [], rng.randint(1, 4)
        while len(support) < size:
            v = tuple(rng.choice(GRID) for _ in range(k))
            if v not in support:
                support.append(v)
        weights = [rng.randint(1, 7) for _ in support]
        steps.append(FiniteDistribution(tuple(
            (ValueVector(v), F(w, sum(weights)))
            for v, w in zip(support, weights))))
    return ProductPrior(tuple(steps))


def policies_for(rng, prior):
    """A policy of every kind; the alpha rule and the explicit threshold
    with a coin have two arms."""
    return [
        Policy.accept_last(),
        Policy.fixed_index(rng.randint(1, prior.n)),
        Policy.from_alpha(F(rng.randint(1, 9), 10)),
        Policy.threshold(rng.choice(GRID) * 2, F(rng.randint(0, 4), 4)),
        Policy.optimal_rational(),
        Policy.optimal_biased(),
    ]


@pytest.mark.parametrize("chunk", range(4))
def test_walk_matches_the_sequence_scan(chunk):
    rng = random.Random(f"mc/{chunk}")
    two_armed = 0
    for _ in range(30):
        exact = random_prior(rng)
        lam = F(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        seed = rng.randrange(2 ** 32)
        trials = rng.randint(1, 60)
        for policy in policies_for(rng, exact):
            for prior, lam_ in ((exact, lam), (
                    prior_from_json(prior_to_json(exact), exact=False),
                    float(lam) if seed % 2 else lam)):
                params = AgentParams(lam_, prior.k)
                same(prior, policy, params, trials, seed)
                arms = compile_policy(policy, prior, params).arms
                two_armed += len(arms) == 2
    assert two_armed > 30


def fresh_prior(n):
    """Each step offers a new high value in one of three coordinates, so
    after the first few steps no two trials share a super candidate."""
    steps = []
    for t in range(1, n + 1):
        atoms = tuple((ValueVector(tuple(F(t + j, 3) if i == j else F(0)
                                         for i in range(3))), F(1, 3))
                      for j in range(3))
        steps.append(FiniteDistribution(atoms))
    return ProductPrior(tuple(steps))


@pytest.mark.parametrize("policy", [Policy.accept_last(),
                                    Policy.from_alpha(F(1, 2)),
                                    Policy.optimal_rational()])
def test_states_that_never_repeat(policy):
    prior = fresh_prior(120)
    params = AgentParams(F(1, 3), 3)
    same(prior, policy, params, 80, 4)
    float_prior = prior_from_json(prior_to_json(prior), exact=False)
    same(float_prior, policy, params, 80, 4)


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_a_full_memo_admits_no_more_states(budget):
    rng = random.Random("mc/budget")
    for _ in range(12):
        prior = random_prior(rng)
        params = AgentParams(F(1, 2), prior.k)
        for policy in (Policy.accept_last(), Policy.from_alpha(F(1, 3)),
                       Policy.fixed_index(prior.n), Policy.optimal_rational()):
            same(prior, policy, params, 200, 9, budget=budget)
    prior = fresh_prior(40)
    same(prior, Policy.accept_last(), AgentParams(F(1, 2), 3), 100, 2,
         budget=budget)

