"""One state budget for every exact pass: the biased DP, exact expectation
and patience comparison charge the (step, super candidate) states they
hold, with one message, and a prior's support size caps none of them."""

import random
from fractions import Fraction as F

import pytest

from lap import cli
from lap.analysis import (
    exact_expectation,
    monte_carlo,
    ratio_report,
    verify_online_bound,
    verify_prophet_bound,
)
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    ResourceLimit,
    ValueVector,
)
from lap.instances import det_to_iid, gen_alternating_linear, gen_random_prior
from lap.policies import (
    BUDGET_ENV_VAR,
    Policy,
    optimal_biased_policy,
    patience_compare,
    resolve_budget,
)

QUARTER = F(1, 4)


def grid_prior(n, k, a, seed):
    """Per step, `a` distinct k-tuples over {0, 1/2, ..., 3}, sorted, with
    weights drawn from 1..4 and normalized."""
    rng = random.Random(seed)
    steps = []
    for _ in range(n):
        support = set()
        while len(support) < a:
            support.add(tuple(rng.choice([F(i, 2) for i in range(7)])
                              for _ in range(k)))
        weights = [rng.randint(1, 4) for _ in range(a)]
        steps.append(FiniteDistribution(tuple(
            (ValueVector(vec), F(w, sum(weights)))
            for vec, w in zip(sorted(support), weights))))
    return ProductPrior(tuple(steps))


def limit_message(run):
    with pytest.raises(ResourceLimit) as err:
        run()
    return str(err.value)


def assert_budget_binds_like_the_dp(prior, params):
    """Accept-last holds every state of the DP's lattice, so at one state
    short of it both raise one message, and both run at its count."""
    count = optimal_biased_policy(prior, params).state_count
    if count == 1:  # one step: no positive budget is short of it
        return False
    last = Policy.accept_last()
    dp = limit_message(
        lambda: optimal_biased_policy(prior, params, budget=count - 1))
    walk = limit_message(
        lambda: exact_expectation(prior, last, params, budget=count - 1))
    assert walk == dp == (f"state budget {count - 1} exceeded "
                          f"({count}+ states by step {prior.n})")
    optimal_biased_policy(prior, params, budget=count)
    exact_expectation(prior, last, params, budget=count)
    return True


def test_accept_last_and_dp_share_the_budget_message():
    rng = random.Random("state-budget/agreement")
    checked = 0
    while checked < 200:
        prior = gen_random_prior(rng, k=2, n_max=8, atoms_max=4)
        params = AgentParams(rng.choice((F(0), QUARTER, F(1, 2), F(2))), 2)
        checked += assert_budget_binds_like_the_dp(prior, params)
    assert assert_budget_binds_like_the_dp(grid_prior(80, 3, 5, 1),
                                           AgentParams(QUARTER, 3))


@pytest.mark.parametrize("spec", ["accept-last", "optimal-biased",
                                  "optimal-rational", "fixed:40",
                                  "threshold:3", "alpha:1/2"])
def test_grid_prior_past_the_old_support_cap_evaluates(spec, monkeypatch):
    # 5^80 realizations, but only 1,691 lattice states under the biased DP
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    prior, params = grid_prior(80, 3, 5, 1), AgentParams(QUARTER, 3)
    assert prior.support_size > 10 ** 6
    value = exact_expectation(prior, cli.policy_spec(spec), params)
    if spec == "optimal-biased":
        dp = optimal_biased_policy(prior, params)
        assert dp.state_count == 1691
        assert value == dp.expected_utility
        verdict = patience_compare(Policy.accept_last(),
                                   Policy.optimal_biased(), prior, params)
        assert verdict.verdict == "more-patient"


def test_patience_charges_the_states_it_enters():
    # one realization, but the walk enters one state per step
    prior = ProductPrior.deterministic(gen_alternating_linear(40, 2))
    params = AgentParams(F(1, 2), 2)
    rules = Policy.accept_last(), Policy.optimal_rational()
    assert limit_message(
        lambda: patience_compare(*rules, prior, params, budget=39)) == (
            "state budget 39 exceeded (40+ states by step 40)")
    assert patience_compare(*rules, prior, params,
                            budget=40).verdict == "more-patient"


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_budget_is_refused(flag):
    # a bool is not a count: a positional True or False that lands on
    # `budget` is refused, not read as 1 or 0
    prior = ProductPrior.deterministic(gen_alternating_linear(4, 2))
    params = AgentParams(F(1, 2), 2)
    for call in (
            lambda: resolve_budget(flag),
            lambda: exact_expectation(prior, Policy.optimal_biased(),
                                      params, flag),
            lambda: exact_expectation(prior, Policy.accept_last(),
                                      params, flag),
            lambda: optimal_biased_policy(prior, params, flag),
            lambda: monte_carlo(prior, Policy.accept_last(), params, 10, 1,
                                flag),
            lambda: patience_compare(Policy.accept_last(),
                                     Policy.optimal_biased(), prior,
                                     params, flag)):
        with pytest.raises(InvalidInput,
                           match="^budget must be an integer, got bool$"):
            call()


def budgeted_entries(budget):
    """Every library entry point that takes a state budget, called with
    `budget` on one small instance."""
    sigma = gen_alternating_linear(4, 2)
    prior = ProductPrior.deterministic(sigma)
    params = AgentParams(F(1, 2), 2)
    rules = Policy.accept_last(), Policy.optimal_biased()
    return {
        "exact_expectation": lambda: exact_expectation(
            prior, rules[1], params, budget),
        "monte_carlo": lambda: monte_carlo(
            prior, rules[0], params, 10, 1, budget),
        "ratio_report": lambda: ratio_report(prior, params, budget),
        "optimal_biased_policy": lambda: optimal_biased_policy(
            prior, params, budget),
        "patience_compare": lambda: patience_compare(
            *rules, prior, params, budget),
        "verify_prophet_bound": lambda: verify_prophet_bound(
            prior, params, budget),
        "verify_online_bound": lambda: verify_online_bound(
            prior, params, budget),
        "det_to_iid": lambda: det_to_iid(
            sigma, params, F(1, 2), n_override=3, budget=budget),
    }


@pytest.mark.parametrize("entry", list(budgeted_entries(None)))
def test_a_float_budget_is_refused(entry):
    # a budget counts states: a float or a Fraction is refused, not
    # compared with the state count
    for budget in (4.5, 100.0, F(100)):
        with pytest.raises(InvalidInput, match="^budget must be an integer, "
                           f"got {type(budget).__name__}$"):
            budgeted_entries(budget)[entry]()
    with pytest.raises(InvalidInput, match="^budget must be positive$"):
        budgeted_entries(0)[entry]()
    budgeted_entries(100)[entry]()


def test_a_long_iid_prior_meets_the_budget_without_a_pass_per_step(
        tmp_path, capsys):
    # the steps of a parsed iid prior are one object: validating them and
    # building the rank table cost one pass per distinct step, so the
    # budget stops a million-step prior at step 5
    target = tmp_path / "long.json"
    target.write_text(
        '{"k": 2, "n": 1000000, "iid": true, "steps": [{"atoms": ['
        '{"v": ["1", "0"], "p": "1/2"}, {"v": ["0", "1"], "p": "1/2"}]}]}')
    code = cli.main(["evaluate", "--in", str(target), "--lambda", "1/2",
                     "--policy", "accept-last", "--budget-states", "10"])
    assert (code, capsys.readouterr().err) == (
        2, "error: resource limit: state budget 10 exceeded "
           "(12+ states by step 5)\n")
