"""The integer exact kernel against the Fraction formulas it replaced.

`_biased_dp`, `_rational_dp` and `_max_convolution` run on scaled ints for
exact priors and exact lambda, and on the prior's own numbers otherwise.
The reference passes below are the earlier formulas, kept here on value
tuples: every comparison and sum in the order the library used to make it,
so exact results must be equal and float results bit-identical, with the
same types, table keys and table order."""

import random
import sys
from fractions import Fraction as F
from operator import itemgetter

import pytest

import oracles
from lap import policies
from lap.analysis import _e_sum_dim_maxima
from lap.core import (
    AgentParams,
    FiniteDistribution,
    ProductPrior,
    ValueVector,
    prior_from_json,
    prior_to_json,
)

GRID = tuple(sorted({F(a, b) for a in range(7) for b in (1, 2, 3, 5)}))


def join(s, v):
    return tuple(map(max, s, v))


def expectation_of(dist):
    """A decoded law's expectation, summed from a Fraction(0) in the
    law's order (the formula E[V*] was summed by before it was one int
    sum)."""
    return sum((v * p for v, p in dist.items()), F(0))


def ref_biased(steps, lam, allow_no_selection):
    """Backward induction over value-tuple states (the pre-kernel formula);
    returns the value, the table items in insertion order and the count."""
    n, k = len(steps), len(steps[0][0][0])
    layers = [{(F(0),) * k}]
    for step in steps[:-1]:
        layers.append({join(s, v) for s in layers[-1] for v, _ in step})
    table, values = {}, {}
    for t in range(n, 0, -1):
        newvals = {}
        for s in sorted(layers[t - 1]):
            total, accepted = 0, []
            for v, p in steps[t - 1]:
                joined = join(s, v)
                s_l1, val = sum(joined), sum(v)
                u = val - lam * (s_l1 - val)
                if t < n:
                    cont = values[joined]
                elif allow_no_selection:
                    cont = 0 - lam * (s_l1 - 0)
                else:
                    cont = None
                if cont is None or u >= cont:
                    accepted.append(v)
                    choice = u
                else:
                    choice = cont
                total = total + p * choice
            newvals[s] = total
            table[(t, s)] = tuple(sorted(accepted))
        values = newvals
    count = sum(len(layer) for layer in layers)
    return values[(F(0),) * k], list(table.items()), count


def ref_rational(steps):
    n = len(steps)
    cont = [F(0)] * (n + 2)
    for t in range(n, 0, -1):
        nxt, total = cont[t + 1], 0
        for v, p in steps[t - 1]:
            val = sum(v)
            total = total + p * (val if val >= nxt else nxt)
        cont[t] = total
    table = [((t, ()), tuple(sorted(v for v, _ in steps[t - 1]
                                    if sum(v) >= cont[t + 1])))
             for t in range(1, n + 1)]
    return cont[1], table, cont


def ref_max_distribution(steps, key):
    dist = None
    for step in steps:
        law = {}
        for v, p in step:
            x = key(v)
            law[x] = law.get(x, 0) + p
        if dist is None:
            dist = law
            continue
        new = {}
        for m, pm in dist.items():
            for x, px in law.items():
                y = m if m >= x else x
                new[y] = new.get(y, 0) + pm * px
        dist = new
    return list(dist.items())


def typed(obj):
    """Numbers as (type, repr), so that 1.0 != Fraction(1) and a float
    must match to the last bit; containers keep their shape and order."""
    if isinstance(obj, (list, tuple)):
        return type(obj)(typed(x) for x in obj)
    if isinstance(obj, (int, float, F)):
        return type(obj).__name__, repr(obj)
    return obj


def random_steps(rng):
    k = rng.randint(1, 3)
    n = rng.randint(1, 4)
    atoms_max = 1 if rng.random() < 0.1 else 4
    zero = k > 1 and rng.random() < 0.25  # coordinate 0 is 0 everywhere
    steps = []
    for _ in range(n):
        support, size = [], rng.randint(1, atoms_max)
        while len(support) < size:
            v = tuple(F(0) if zero and j == 0 else rng.choice(GRID)
                      for j in range(k))
            if v not in support:
                support.append(v)
        weights = [rng.randint(1, 7) for _ in support]
        steps.append([(v, F(w, sum(weights)))
                      for v, w in zip(support, weights)])
    return steps


def prior_of(steps, prob=lambda p: p):
    return ProductPrior(tuple(
        FiniteDistribution(tuple((ValueVector(v), prob(p)) for v, p in step))
        for step in steps))


def own_steps(prior):
    """The prior's own numbers in the oracles' list-of-steps form."""
    return [[(v.entries, p) for v, p in step.atoms] for step in prior.steps]


def check(prior, lam, allow_no_selection=True):
    steps = own_steps(prior)
    res = policies.optimal_biased_policy(prior, AgentParams(lam, prior.k))
    value, table, count = ref_biased(steps, lam, allow_no_selection)
    assert typed(res.expected_utility) == typed(value)
    assert typed(list(res.policy_table.items())) == typed(table)
    assert res.state_count == count
    rational, cont = policies._rational_dp(prior)
    ref_value, ref_table, ref_cont = ref_rational(steps)
    assert typed(rational.expected_utility) == typed(ref_value)
    assert typed(list(rational.policy_table.items())) == typed(ref_table)
    # cont decodes the value on reaching t when read
    assert typed([cont(t) for t in range(len(ref_cont))]) == typed(ref_cont)
    assert typed(list(policies.value_max_distribution(prior).items())) == \
        typed(ref_max_distribution(steps, sum))
    e_sum = sum((sum((x * p for x, p in ref_max_distribution(
        steps, itemgetter(j))), F(0)) for j in range(prior.k)), F(0))
    assert typed(_e_sum_dim_maxima(prior)) == typed(e_sum)
    return res.expected_utility


@pytest.mark.parametrize("flavor", ["exact", "no-selection", "float-prior",
                                    "float-lambda", "float-probabilities"])
def test_kernel_matches_the_fraction_formulas(flavor):
    rng = random.Random(f"kernel/{flavor}")
    for _ in range(64):
        steps = random_steps(rng)
        lam = F(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        prior = prior_of(steps)
        allow = flavor != "no-selection"
        if flavor == "float-prior":
            prior = prior_from_json(prior_to_json(prior), exact=False)
        elif flavor == "float-lambda":
            lam = float(lam)
        elif flavor == "float-probabilities":
            prior = prior_of(steps, float)
        value = check(prior, lam, allow)
        if flavor in ("exact", "no-selection"):
            assert type(value) is F
            assert value == oracles.history_optimal(steps, lam, allow)
            assert policies._rational_dp(prior)[0].expected_utility == \
                oracles.rational_history_optimal(steps)
            _, e_sum, dist = oracles.vstar_stats(steps)
            assert policies.value_max_distribution(prior) == dist
            assert _e_sum_dim_maxima(prior) == e_sum
        elif flavor == "float-lambda":
            assert type(value) is float


@pytest.mark.parametrize("flavor", ["exact", "float-prior",
                                    "float-probabilities"])
def test_e_sum_dim_maxima_is_the_fraction_sum(flavor):
    # one int sum decoded once equals the k reference laws summed as numbers
    rng = random.Random(f"e-sum/{flavor}")
    for _ in range(200):
        steps = random_steps(rng)
        prior = prior_of(steps, float if flavor == "float-probabilities"
                         else lambda p: p)
        if flavor == "float-prior":
            prior = prior_from_json(prior_to_json(prior), exact=False)
        old = sum((sum((x * p for x, p in ref_max_distribution(
            own_steps(prior), itemgetter(j))), F(0))
            for j in range(prior.k)), F(0))
        assert typed(_e_sum_dim_maxima(prior)) == typed(old)


@pytest.mark.parametrize("lam", [F(1, 3), 0.25])
def test_long_iid_prior(lam):
    # the scales grow by D = 3 per step and are never reduced on the way
    step = [((F(1), F(0)), F(1, 3)), ((F(0), F(5, 2)), F(2, 3))]
    prior = ProductPrior.iid_prior(prior_of([step]).steps[0], 300)
    assert type(check(prior, lam)) is type(lam)


def test_one_row_per_distinct_step():
    step = prior_of([[((F(1),), F(1, 2)), ((F(2),), F(1, 2))]]).steps[0]
    rows = policies._rank_table(ProductPrior.iid_prior(step, 50))[0]
    assert len(rows) == 50
    assert len({id(row) for row in rows}) == 1


def ref_threshold_from_alpha(dist, alpha, seed):
    """The decoded-law algorithm `threshold_from_alpha` ran before it read
    the int law: tails summed as numbers from the top, then the least value
    whose tail is at most alpha."""
    atoms = sorted(dist)
    tail = 0
    tails = [0] * len(atoms)
    for i in range(len(atoms) - 1, -1, -1):
        tails[i] = tail
        tail = tail + dist[atoms[i]]
    for v, above in zip(atoms, tails):
        if above <= alpha:
            return policies.Policy(kind="threshold", threshold=v,
                                   atom_accept_prob=(alpha - above) / dist[v],
                                   seed=seed)
    raise AssertionError("unreachable")


def flavored_prior(rng, flavor):
    """A seeded prior: exact, float, with float probabilities only, or with
    one step's entries as floats."""
    steps = random_steps(rng)
    if flavor == "float-probabilities":
        return prior_of(steps, float)
    prior = prior_of(steps)
    if flavor == "float-prior":
        return prior_from_json(prior_to_json(prior), exact=False)
    if flavor == "mixed":
        j = rng.randrange(len(steps))
        steps[j] = [(tuple(map(float, v)), p) for v, p in steps[j]]
        return prior_of(steps)
    return prior


FLAVORS = ["exact", "float-prior", "float-probabilities", "mixed"]
ALPHAS = [F(1, 3), F(2, 3), F(1, 7), F(9, 10), 0.3]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_threshold_from_alpha_matches_the_decoded_law(flavor):
    # an exact prior and a Fraction alpha read the int law; the result has
    # the repr the decoded-law algorithm gives, for every flavor
    rng = random.Random(f"alpha/{flavor}")
    for _ in range(150):
        prior = flavored_prior(rng, flavor)
        dist = policies.value_max_distribution(prior)
        for alpha in ALPHAS:
            assert repr(policies.threshold_from_alpha(prior, alpha, 7)) == \
                repr(ref_threshold_from_alpha(dist, alpha, 7))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_threshold_masks_match_value_comparisons(flavor):
    # masks built on the int view stop on the atoms whose values pass
    # val >= T (val > T for the strict arm), for a drawn or a given T
    rng = random.Random(f"masks/{flavor}")
    for _ in range(100):
        prior = flavored_prior(rng, flavor)
        params = AgentParams(F(1, 2), prior.k)
        rows = policies._rank_table(prior)[0]
        drawn = [policies.threshold_from_alpha(prior, alpha)
                 for alpha in ALPHAS]
        given = [policies.Policy.threshold(t, F(1, 2))
                 for t in (F(3, 2), 2, 1.5, F(7, 3), F(0))]
        for policy in drawn + given:
            compiled = policies.compile_policy(policy, prior, params)
            t_value = policy.threshold
            tests = [lambda val: val >= t_value, lambda val: val > t_value]
            if len(compiled.arms) == 1:  # one arm: weak at p = 1, else strict
                tests = tests[:1] if policy.atom_accept_prob == 1 else \
                    tests[1:]
            for (_, arm), stops in zip(compiled.arms, tests):
                for t, row in enumerate(rows, 1):
                    assert arm.masks(t, None) == sum(
                        bit for _, val, _, _, bit in row.plain if stops(val))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_e_best_value_is_the_fraction_sum(flavor):
    # E[V*] as one int sum decoded once has the repr of the decoded law's
    # expectation
    rng = random.Random(f"e-best/{flavor}")
    for _ in range(200):
        prior = flavored_prior(rng, flavor)
        assert repr(policies._e_best_value(prior)) == \
            repr(expectation_of(policies.value_max_distribution(prior)))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_rank_table_values_are_the_l1_norms(flavor):
    # an exact prior's plain values come from the scaled ints, with the
    # value and type of each vector's own L1 norm
    rng = random.Random(f"l1/{flavor}")
    for _ in range(100):
        prior = flavored_prior(rng, flavor)
        rows = policies._rank_table(prior)[0]
        for row, step in zip(rows, prior.steps):
            assert [typed(val) for _, val, _, _, _ in row.plain] == \
                [typed(v.l1) for v, _ in step.atoms]


def test_an_iid_prior_builds_one_row(monkeypatch):
    # steps that are one object are read once: one row, repeated n times
    built, row = [], policies._Row

    def counted(*fields):
        built.append(fields)
        return row(*fields)

    monkeypatch.setattr(policies, "_Row", counted)
    step = prior_of([[((F(1), F(0)), F(1, 2)), ((F(0), F(1)), F(1, 2))]]
                    ).steps[0]
    other = prior_of([[((F(2), F(0)), F(1))]]).steps[0]
    rows = policies._rank_table(ProductPrior.iid_prior(step, 10 ** 5))[0]
    assert len(built) == 1
    assert list(rows) == [rows[0]] * 10 ** 5
    built.clear()
    rows = policies._rank_table(ProductPrior((step, other) * 500))[0]
    assert len(built) == 2
    assert len(rows) == 1000 and rows[::2] == [rows[0]] * 500


def test_an_iid_prior_holds_no_row_list():
    # the one row at every index, with nothing n long behind it
    step = prior_of([[((F(1), F(0)), F(1, 2)), ((F(0), F(1)), F(1, 2))]]
                    ).steps[0]
    n = 10 ** 6
    rows = policies._rank_table(ProductPrior.iid_prior(step, n))[0]
    assert len(rows) == n and rows[0] is rows[n - 1] is rows[-n]
    assert sys.getsizeof(rows) < 1000
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert set(map(id, rows)) == {id(rows[0])}


def test_joins_are_the_per_pair_joins():
    # the column-wise kernel of the biased DP and the expectation walk
    # gives every (state, atom) pair's join, state-major, in the order the
    # per-pair loop makes them: layer 1 is the one root state, a k = 1
    # prior, an iid prior's one shared row, and a float prior's row
    rng = random.Random("joins")
    one_dim = [[((x,), F(1, 2)), ((x + 1,), F(1, 2))] for x in GRID[:5]]
    step = prior_of([[((F(1), F(0)), F(1, 3)), ((F(0), F(2)), F(1, 3)),
                      ((F(1, 2), F(1, 2)), F(1, 3))]]).steps[0]
    priors = [prior_of(one_dim), ProductPrior.iid_prior(step, 5)]
    priors += [flavored_prior(rng, flavor) for flavor in FLAVORS * 25]
    shapes = set()
    for prior in priors:
        rows = policies._rank_table(prior)[0]
        layers = policies.optimal_biased_policy(
            prior, AgentParams(F(1, 2), prior.k)).layers
        for states, row in zip(layers, rows):
            want = [policies._join(s, atom[3])
                    for s in states for atom in row.plain]
            assert list(policies._joins(states, row)) == want
            # the walk hands it a mass dict, whose keys are the states
            assert list(policies._joins(dict.fromkeys(states), row)) == want
            shapes.add((prior.k, len(states) > 1, type(rows).__name__,
                        row.exact is None))
    assert {(1, True), (2, False)} <= {shape[:2] for shape in shapes}
    assert {"_OneRow", "list"} <= {shape[2] for shape in shapes}
    assert {True, False} <= {shape[3] for shape in shapes}
