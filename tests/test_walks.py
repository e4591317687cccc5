"""Exact expectation and patience on rank states against the value walks.

`rule_expectation` and `patience_compare` key their states on the rank
tuples of the prior's rank table and decode a state to its values for the
rule and for a stop's utility.  The references below are the former walks,
kept here on value tuples: the same loops, joins and sums on the prior's
own numbers.  Results must match in value and type (float results to the
last bit), and a witness must be the same realization, built from the
prior's own vectors."""

import random
from fractions import Fraction as F

import pytest

from lap import policies
from lap.analysis import exact_expectation
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    Sequence,
    ValueVector,
    prior_from_json,
    prior_to_json,
)
from lap.policies import (
    Policy,
    compile_policy,
    patience_compare,
    rule_expectation,
)

GRID = tuple(sorted({F(a, b) for a in range(7) for b in (1, 2, 3, 5)}))


def join(s, v):
    return tuple(map(max, s, v))


def utility(lam, val, s_l1):
    return val - lam * (s_l1 - val)


def atom_rows(prior):
    return [tuple((v.entries, v.l1, p, v) for v, p in step.atoms)
            for step in prior.steps]


def ref_rule_expectation(rule, prior, params):
    """Forward mass over value-tuple states (the former formula)."""
    lam = params.lam
    mass = {(F(0),) * prior.k: F(1)}
    total = F(0)
    for t, atoms in enumerate(atom_rows(prior), 1):
        nxt = {}
        for s, m in mass.items():
            banked = 0
            for entries, val, p, _ in atoms:
                joined = join(s, entries)
                if rule(t, s, entries, val):
                    banked += p * utility(lam, val, sum(joined))
                else:
                    nxt[joined] = nxt.get(joined, 0) + m * p
            total += m * banked
        mass = nxt
    for s, m in mass.items():
        total += m * utility(lam, 0, sum(s))
    return total


def ref_patience(rule_a, rule_b, prior):
    """Depth-first search over (step, value tuple, b running) states (the
    former search); returns (verdict, witness)."""
    steps = atom_rows(prior)
    n = prior.n
    clear = set()
    stack = [[1, (F(0),) * prior.k, True, 0]]
    path = []
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
                return ref_witness(rule_b, steps, path + [atom], s, t)
            continue
        if t == n:
            continue
        joined = join(s, entries)
        key = (t + 1, joined, b_running and not stop_b)
        if key in clear:
            continue
        path.append(atom)
        stack.append([t + 1, joined, key[2], 0])
    return "more-patient", None


def ref_witness(rule_b, steps, taken, s, t):
    ib = None
    for u in range(t + 1, len(steps) + 1):
        s = join(s, taken[-1][0])
        taken.append(steps[u - 1][0])
        if rule_b(u, s, taken[-1][0], taken[-1][1]):
            ib = u
            break
    taken += [atoms[0] for atoms in steps[len(taken):]]
    return "incomparable", (Sequence(tuple(a[3] for a in taken)), t, ib)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInput as err:
        return ("InvalidInput", str(err))


def random_steps(rng, k, n):
    steps = []
    for _ in range(n):
        support, size = [], rng.randint(1, 4)
        while len(support) < size:
            v = tuple(rng.choice(GRID) for _ in range(k))
            if v not in support:
                support.append(v)
        weights = [rng.randint(1, 7) for _ in support]
        steps.append([(v, F(w, sum(weights)))
                      for v, w in zip(support, weights)])
    return steps


def build(steps, float_probs=False):
    return ProductPrior(tuple(FiniteDistribution(tuple(
        (ValueVector(v), float(p) if float_probs else p) for v, p in step))
        for step in steps))


def random_prior(rng, flavor):
    k, n = rng.randint(1, 3), rng.randint(1, 5)
    if flavor == "iid":
        return ProductPrior.iid_prior(
            build(random_steps(rng, k, 1)).steps[0], n)
    prior = build(random_steps(rng, k, n), flavor == "float-probs")
    if flavor == "float":
        return prior_from_json(prior_to_json(prior), exact=False)
    return prior


def policies_for(rng, prior):
    return [Policy.accept_last(),
            Policy.fixed_index(rng.randint(1, prior.n)),
            Policy.from_alpha(F(rng.randint(1, 9), 10), seed=rng.randrange(9)),
            Policy.threshold(rng.choice(GRID) * 2, F(rng.randint(0, 4), 4),
                             seed=rng.randrange(9)),
            Policy.optimal_rational(),
            Policy.optimal_biased()]


FLAVORS = ("exact", "float", "float-probs", "iid")


@pytest.mark.parametrize("chunk", range(4))
def test_rank_walks_match_the_value_walks(chunk):
    rng = random.Random(f"walks/{chunk}")
    two_armed = incomparable = 0
    for i in range(60):
        prior = random_prior(rng, FLAVORS[i % 4])
        lam = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
        for lam in (lam, float(lam)) if i % 2 else (lam,):
            params = AgentParams(lam, prior.k)
            for _ in range(2):  # two policy draws per lambda
                pols = policies_for(rng, prior)
                for policy in pols:
                    arms = compile_policy(policy, prior, params).arms
                    two_armed += len(arms) == 2
                    for _, rule in arms:
                        got = rule_expectation(rule, prior, params)
                        want = ref_rule_expectation(rule, prior, params)
                        assert repr(got) == repr(want)
                for a in pols:
                    for b in pols:
                        got = patience_compare(a, b, prior, params)
                        rules = [policies._single_rule(x, prior, params, None)
                                 for x in (a, b)]
                        want = ref_patience(*rules, prior)
                        assert (got.verdict, got.witness) == want
                        assert repr(got.witness) == repr(want[1])
                        if got.witness is not None:
                            incomparable += 1
                            assert all(x is y for x, y in zip(
                                got.witness[0].candidates,
                                want[1][0].candidates))
    assert two_armed > 20
    assert incomparable > 100


def test_iid_steps_share_one_row():
    rng = random.Random("walks/iid")
    prior = random_prior(rng, "iid")
    while prior.n < 3:
        prior = random_prior(rng, "iid")
    rows = policies._rank_table(prior)[0]
    assert len({id(row) for row in rows}) == 1
    params = AgentParams(F(1, 2), prior.k)
    for policy in policies_for(rng, prior):
        assert repr(exact_expectation(prior, policy, params)) == repr(sum(
            (w * ref_rule_expectation(rule, prior, params) for w, rule in
             compile_policy(policy, prior, params).arms), F(0)))


def test_a_rule_off_its_support_still_raises():
    # the table rule is compiled on `home` and run on `away`, whose step-2
    # super candidate the table never saw
    home = build([[((F(1),), F(1, 2)), ((F(2),), F(1, 2))]] * 2)
    away = build([[((F(3),), F(1))]] * 2)
    params = AgentParams(F(1, 2), 1)
    compiled = compile_policy(Policy.optimal_biased(), home, params)
    rule = compiled.arms[0][1]
    got = outcome(rule_expectation, rule, away, params)
    assert got == outcome(ref_rule_expectation, rule, away, params)
    assert got[0] == "InvalidInput"
    other = policies._single_rule(Policy.accept_last(), away, params, None)
    got = outcome(patience_compare, compiled, Policy.accept_last(), away,
                  params)
    assert got == outcome(ref_patience, rule, other, away)
    assert got[0] == "InvalidInput"
