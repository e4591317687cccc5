"""The Monte Carlo trial walk against the sampler and scan it replaced.

`monte_carlo` walks drawn atom indices over interned super-candidate
states and reuses each (step, state, atom) outcome.  The reference below is
the former loop, kept here: draw the arm the former way, build one
`Sequence` per trial from one uniform per step, scan it with `run_rule`, and
convert each utility with float().  Both must give the same mean and half
width to the last bit, on exact and float priors alike, and on entries
whose scaled ints are past the float range.  The walk itself must make the
scan's n rng calls per trial, wherever its rule stops."""

import json
import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from lap import cli
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
from lap.policies import Policy, _trial_walk, compile_policy, run_rule

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



def counting(rng):
    """The rng's `random` with a count of its calls."""
    calls = [0]

    def draw():
        calls[0] += 1
        return rng.random()
    return draw, calls


@pytest.mark.parametrize("limit", [1, 2, 10 ** 6])
def test_every_trial_draws_one_uniform_per_step(limit):
    """A trial draws its steps' uniforms as it walks and the rest after
    its stop, unread: n calls whether the rule stops at step 1, in the
    middle or at step n, declines everything, or walks past the memo."""
    rng = random.Random("mc/draws")
    priors = [random_prior(rng) for _ in range(12)] + [fresh_prior(40)]
    for prior in priors:
        params = AgentParams(F(1, 2), prior.k)
        for policy in (Policy.fixed_index(1),
                       Policy.fixed_index((prior.n + 1) // 2),
                       Policy.accept_last(),
                       Policy.threshold(F(10 ** 6), F(0)),  # declines all
                       Policy.optimal_biased()):
            for _, rule in compile_policy(policy, prior, params).arms:
                walk = _trial_walk(rule, prior, params.lam, limit)
                draw, calls = counting(random.Random(limit))
                for trial in range(1, 41):
                    walk(draw)
                    assert calls[0] == trial * prior.n


def huge_prior():
    """Three steps over two coordinates whose entries are (a*D + j*(D//3))
    / (D + j), D = 10**389: about a + j/3, over 390-digit denominators."""
    d = 10 ** 389

    def e(a, j):
        return f"{a * d + j * (d // 3)}/{d + j}"
    steps = [[((e(1, 1), "0"), "1/3"), (("0", e(2, 3)), "2/3")],
             [((e(3, 7), e(1, 9)), "1/2"), (("1", e(2, 11)), "1/2")],
             [((e(2, 13), "0"), "1/4"), ((e(1, 17), e(3, 19)), "3/4")]]
    return prior_from_json({"k": 2, "n": 3, "iid": False, "steps": [
        {"atoms": [{"v": list(v), "p": p} for v, p in step]}
        for step in steps]})


def test_huge_denominators_keep_the_float_bits():
    """Stops whose scaled ints are past the float range round to the
    float the Fraction gives, on every policy kind."""
    prior = huge_prior()
    rng = random.Random("mc/huge")
    for lam in (F(1, 2), F(3, 7)):
        for policy in policies_for(rng, prior):
            same(prior, policy, AgentParams(lam, 2), 300, 11)


@pytest.mark.parametrize("policy", ["accept-last", "optimal-biased",
                                    "fixed:1"])
def test_a_utility_past_the_float_range_exits_2(tmp_path, capsys, policy):
    """A 400-digit entry makes a stop's utility too large for a float: the
    command exits 2 with the division's error and no traceback."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"k": 1, "n": 2, "iid": False, "steps": [
        {"atoms": [{"v": [str(10 ** 399)], "p": "1/2"},
                   {"v": ["1"], "p": "1/2"}]},
        {"atoms": [{"v": ["2"], "p": "1"}]}]}))
    code = cli.main(["monte-carlo", "--in", str(path), "--lambda", "1/2",
                     "--policy", policy, "--trials", "10", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: resource limit: integer division result too "
                   "large for a float\n")
