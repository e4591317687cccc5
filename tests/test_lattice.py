"""The lattice engines (exact expectation and patience over reachable
(step, super candidate) states) against brute-force oracles that walk every
realization."""

import gc
import json
import random
import weakref
from fractions import Fraction as F

import pytest

import oracles
from lap import cli, policies
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
    Sequence,
    ValueVector,
    prior_from_json,
    prior_to_json,
)
from lap.instances import gen_alternating_geometric, gen_random_prior
from lap.policies import (
    Policy,
    compile_policy,
    dp_result_to_json,
    optimal_biased_policy,
    patience_compare,
    threshold_from_alpha,
    value_max_distribution,
)
from test_masks import reachable
from test_walks import FLAVORS, random_prior


def prior_of(steps):
    return ProductPrior(tuple(
        FiniteDistribution(tuple((ValueVector(v), p) for v, p in step))
        for step in steps))


def alpha_threshold(steps, alpha):
    """(T, p) with Pr[V* > T] + p * Pr[V* = T] = alpha, from the oracle's
    exact distribution of V*."""
    _, _, dist = oracles.vstar_stats(steps)
    for v in sorted(dist):
        above = sum(q for w, q in dist.items() if w > v)
        if above <= alpha:
            return v, (alpha - above) / dist[v]
    raise AssertionError("unreachable")


def random_case(rng):
    k = rng.randint(1, 3)
    steps = oracles.random_prior_steps(rng, n_max=4, atoms_max=3, k=k)
    lam = F(rng.randint(0, 6), 4)
    return steps, lam, AgentParams(lam, k)


def deterministic_pairs(steps, lam, rng):
    """(lap policy, oracle stop rule) for every deterministic kind."""
    n = len(steps)
    t_value = rng.choice(oracles.VALUE_GRID) * 2
    index = rng.randint(1, n)
    return [
        (Policy.accept_last(), oracles.index_stop(n)),
        (Policy.fixed_index(index), oracles.index_stop(index)),
        (Policy.threshold(t_value), oracles.threshold_stop(t_value, True)),
        (Policy.threshold(t_value, F(0)),
         oracles.threshold_stop(t_value, False)),
        (Policy.optimal_biased(), oracles.biased_optimal_stop(steps, lam)),
        (Policy.optimal_rational(), oracles.rational_optimal_stop(steps)),
    ]


class TestExpectationAgainstOracle:
    def test_every_deterministic_kind(self):
        rng = random.Random(101)
        for _ in range(40):
            steps, lam, params = random_case(rng)
            prior = prior_of(steps)
            for policy, stop in deterministic_pairs(steps, lam, rng):
                assert exact_expectation(prior, policy, params) == \
                    oracles.rule_expected_utility(steps, lam, stop), policy

    def test_two_arm_thresholds(self):
        rng = random.Random(103)
        split = 0
        for _ in range(40):
            steps, lam, params = random_case(rng)
            alpha = F(rng.randint(1, 7), 8)
            t_value, p = alpha_threshold(steps, alpha)
            split += 0 < p < 1
            want = (p * oracles.rule_expected_utility(
                        steps, lam, oracles.threshold_stop(t_value, True))
                    + (1 - p) * oracles.rule_expected_utility(
                        steps, lam, oracles.threshold_stop(t_value, False)))
            assert exact_expectation(prior_of(steps), Policy.from_alpha(alpha),
                                     params) == want
        assert split > 10

    def test_without_no_selection(self):
        rng = random.Random(107)
        for _ in range(40):
            steps, lam, params = random_case(rng)
            stop = oracles.biased_optimal_stop(steps, lam,
                                               allow_no_selection=False)
            got = exact_expectation(prior_of(steps), Policy.optimal_biased(),
                                    params)
            assert got == oracles.rule_expected_utility(steps, lam, stop)
            assert got == oracles.history_optimal(steps, lam,
                                                  allow_no_selection=False)


class TestPatienceAgainstOracle:
    def test_first_witness_in_product_order(self):
        rng = random.Random(109)
        incomparable = 0
        for _ in range(40):
            steps, lam, params = random_case(rng)
            prior = prior_of(steps)
            pairs = deterministic_pairs(steps, lam, rng)
            for (pol_a, stop_a), (pol_b, stop_b) in zip(
                    pairs, rng.sample(pairs, len(pairs))):
                got = patience_compare(pol_a, pol_b, prior, params)
                want = oracles.first_patience_witness(steps, stop_a, stop_b)
                if want is None:
                    assert got.verdict == "more-patient"
                    assert got.witness is None
                    continue
                incomparable += 1
                sigma, ia, ib = got.witness
                assert got.verdict == "incomparable"
                assert (tuple(c.entries for c in sigma.candidates), ia, ib) \
                    == want
        assert incomparable > 40

    def test_deep_deterministic_prior(self):
        n = 3000
        sigma = Sequence(tuple(ValueVector((F(t % 7),)) for t in range(n)))
        prior = ProductPrior.deterministic(sigma)
        params = AgentParams(F(1, 2), 1)
        same = patience_compare(Policy.accept_last(), Policy.fixed_index(n),
                                prior, params)
        assert same.verdict == "more-patient"
        early = patience_compare(Policy.fixed_index(n - 1),
                                 Policy.accept_last(), prior, params)
        assert early.verdict == "incomparable"
        assert early.witness == (sigma, n - 1, n)

    def test_rule_off_its_support_raises_after_other_stops(self):
        # compiled where step 1 plays 1, the rule declines 2 at step 1 and
        # has no decision for the state that follows
        params = AgentParams(F(0), 1)
        other = prior_of([[((F(1),), F(1))], [((F(5),), F(1))]])
        prior = prior_of([[((F(2),), F(1))], [((F(5),), F(1))]])
        rule = compile_policy(Policy.optimal_biased(), other, params)
        with pytest.raises(InvalidInput, match="leaves the compiled"):
            patience_compare(rule, Policy.fixed_index(1), prior, params)


class TestLeanCore:
    """Once the prior is built, the exact passes and the Monte Carlo rule
    scan run on its plain values and construct no value vector."""

    @pytest.fixture
    def vectors_built(self, monkeypatch):
        built = []
        init = ValueVector.__post_init__

        def counted(vector):
            built.append(vector)
            init(vector)

        monkeypatch.setattr(ValueVector, "__post_init__", counted)
        return built

    def test_exact_passes_build_no_vectors(self, vectors_built):
        step = [((F(1), F(2)), F(1, 3)), ((F(3), F(0)), F(2, 3))]
        prior = prior_of([step, step[::-1], step])
        params = AgentParams(F(1, 2), 2)
        vectors_built.clear()
        optimal_biased_policy(prior, params)
        for policy in (Policy.from_alpha(F(1, 2)), Policy.fixed_index(2),
                       Policy.optimal_biased(), Policy.optimal_rational(),
                       Policy.accept_last()):
            exact_expectation(prior, policy, params)
        last, first = Policy.accept_last(), Policy.fixed_index(1)
        assert patience_compare(last, first, prior, params).verdict == \
            "more-patient"
        early = patience_compare(first, last, prior, params)
        assert early.verdict == "incomparable"
        monte_carlo(prior, Policy.optimal_biased(), params, 200, seed=3)
        assert vectors_built == []


class TestRankStates:
    """The biased DP runs on per-coordinate ranks; what it returns is keyed
    on the super candidates' own values."""

    # the second coordinate stays 0 on every realization
    PRIOR = {"k": 2, "n": 3, "iid": False, "steps": [
        {"atoms": [{"v": ["3", "0"], "p": "1/4"},
                   {"v": ["1", "0"], "p": "3/4"}]},
        {"atoms": [{"v": ["2", "0"], "p": "1/2"},
                   {"v": ["1/2", "0"], "p": "1/2"}]},
        {"atoms": [{"v": ["5/2", "0"], "p": "1/3"},
                   {"v": ["0", "0"], "p": "2/3"}]}]}

    def test_states_are_the_reachable_super_candidates(self):
        rng = random.Random(113)
        for _ in range(40):
            steps, lam, params = random_case(rng)
            res = optimal_biased_policy(prior_of(steps), params)
            states = {(1, (F(0),) * params.k)}
            for candidates, _ in oracles.realizations(steps):
                states.update((t, oracles.running_max(candidates[:t - 1]))
                              for t in range(2, len(steps) + 1))
            assert set(res.policy_table) == states
            assert res.state_count == len(states)
            assert res.expected_utility == oracles.history_optimal(steps, lam)

    @pytest.mark.parametrize("exact, lam, expected", [
        (True, F(1, 2),
         '{"expected_utility": "27/16", "state_count": 6, "policy_table": '
         '[{"step": 1, "state": ["0", "0"], "accept": [["3", "0"]]}, '
         '{"step": 2, "state": ["1", "0"], "accept": [["2", "0"]]}, '
         '{"step": 2, "state": ["3", "0"], "accept": [["2", "0"]]}, '
         '{"step": 3, "state": ["1", "0"], '
         '"accept": [["0", "0"], ["5/2", "0"]]}, '
         '{"step": 3, "state": ["2", "0"], '
         '"accept": [["0", "0"], ["5/2", "0"]]}, '
         '{"step": 3, "state": ["3", "0"], '
         '"accept": [["0", "0"], ["5/2", "0"]]}]}'),
        # a coordinate no atom raises stays the exact 0 the DP starts from
        (False, 0.5,
         '{"expected_utility": 1.6875, "state_count": 6, "policy_table": '
         '[{"step": 1, "state": ["0", "0"], "accept": [[3.0, 0.0]]}, '
         '{"step": 2, "state": [1.0, "0"], "accept": [[2.0, 0.0]]}, '
         '{"step": 2, "state": [3.0, "0"], "accept": [[2.0, 0.0]]}, '
         '{"step": 3, "state": [1.0, "0"], '
         '"accept": [[0.0, 0.0], [2.5, 0.0]]}, '
         '{"step": 3, "state": [2.0, "0"], '
         '"accept": [[0.0, 0.0], [2.5, 0.0]]}, '
         '{"step": 3, "state": [3.0, "0"], '
         '"accept": [[0.0, 0.0], [2.5, 0.0]]}]}'),
    ])
    def test_table_json_pinned(self, exact, lam, expected):
        res = optimal_biased_policy(prior_from_json(self.PRIOR, exact),
                                    AgentParams(lam, 2))
        assert json.dumps(dp_result_to_json(res)) == expected

    def test_budget_error_names_the_step(self):
        # states per step: 1, then {1, 2} at steps 2, 3 and 4
        step = [((F(1),), F(1, 2)), ((F(2),), F(1, 2))]
        prior = prior_of([step] * 4)
        params = AgentParams(F(1, 2), 1)
        with pytest.raises(ResourceLimit) as err:
            optimal_biased_policy(prior, params, budget=3)
        assert str(err.value) == \
            "state budget 3 exceeded (5+ states by step 3)"
        assert optimal_biased_policy(prior, params, budget=7).state_count == 7


class TestPriorMemo:
    """Each prior memoizes its passes; a memo hit must give what a fresh
    prior gives, value and type, and must not outlive a budget."""

    STEPS = [[((F(1), F(2)), F(1, 3)), ((F(3), F(0)), F(2, 3))],
             [((F(2), F(1)), F(1, 2)), ((F(0), F(5, 2)), F(1, 2))],
             [((F(1), F(1)), F(1, 4)), ((F(5, 2), F(1, 2)), F(3, 4))]]

    def passes(self, prior, lam):
        params = AgentParams(lam, 2)
        res = optimal_biased_policy(prior, params)
        value = exact_expectation(prior, Policy.optimal_biased(), params)
        return res.expected_utility, repr(res.policy_table), value

    @pytest.mark.parametrize("order", [(F(1, 2), 0.5), (0.5, F(1, 2))])
    def test_exact_and_float_lambda_are_two_keys(self, order):
        prior = prior_of(self.STEPS)
        for lam in order + order:
            got = self.passes(prior, lam)
            fresh = self.passes(prior_of(self.STEPS), lam)
            assert got == fresh
            assert [type(x) for x in got] == [type(x) for x in fresh]
            assert type(got[0]) is type(lam)

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_read_v_star_law_is_the_callers_own(self, exact):
        # clearing a returned law leaves the kept one, and the thresholds
        # read from it, as they were
        prior = prior_from_json(prior_to_json(prior_of(self.STEPS)),
                                exact=exact)
        law = value_max_distribution(prior)
        kept, policy = dict(law), threshold_from_alpha(prior, 0.5)
        law.clear()
        assert value_max_distribution(prior) == kept
        assert threshold_from_alpha(prior, 0.5) == policy

    def test_budget_binds_on_a_memoized_prior(self, monkeypatch):
        params = AgentParams(F(1, 2), 2)

        def limit_message(prior, budget=None):
            with pytest.raises(ResourceLimit) as err:
                optimal_biased_policy(prior, params, budget=budget)
            return str(err.value)

        prior = prior_of(self.STEPS)
        count = optimal_biased_policy(prior, params).state_count
        assert limit_message(prior, count - 1) == \
            limit_message(prior_of(self.STEPS), count - 1)
        monkeypatch.setenv("LAP_BUDGET_STATES", str(count - 1))
        assert limit_message(prior) == limit_message(prior_of(self.STEPS))
        monkeypatch.delenv("LAP_BUDGET_STATES")
        assert optimal_biased_policy(prior, params).state_count == count

    def test_verify_builds_each_table_once_per_prior(self, monkeypatch,
                                                      capsys):
        built = {name: [] for name in ("ranks", "vstar", "biased",
                                       "rational")}

        def counted(name, build, only_key=None):
            def wrapper(prior, *args, **kwargs):
                if only_key is None or args == (only_key,):
                    built[name].append(prior)
                return build(prior, *args, **kwargs)
            return wrapper

        for name, attr, key in (("ranks", "_rank_table", None),
                                ("vstar", "_max_convolution", sum),
                                ("biased", "_biased_dp", None),
                                ("rational", "_rational_dp", None)):
            monkeypatch.setattr(policies, attr, counted(
                name, getattr(policies, attr), key))
        assert cli.main(["verify", "--suite", "bounds", "--lambda", "1/3",
                         "--k", "2", "--seed", "7", "--trials", "3"]) == 0
        assert '"passed": 6' in capsys.readouterr().out
        for name, priors in built.items():
            assert len(priors) == 3, name
            assert len({id(prior) for prior in priors}) == 3, name

    def test_nothing_is_decoded_until_read(self, monkeypatch):
        """The passes read a DP's accept masks, so neither DP's value-keyed
        table exists until it is read; read later, it is the pinned one."""
        results = []

        def kept(build):
            def wrapper(prior, *args, **kwargs):
                got = build(prior, *args, **kwargs)
                results.append(got[0] if isinstance(got, tuple) else got)
                return got
            return wrapper

        for attr in ("_biased_dp", "_rational_dp"):
            monkeypatch.setattr(policies, attr, kept(getattr(policies, attr)))
        prior = prior_from_json(TestRankStates.PRIOR)
        params = AgentParams(F(1, 2), 2)
        ratio_report(prior, params)
        for policy in (Policy.optimal_biased(), Policy.optimal_rational()):
            exact_expectation(prior, policy, params)
            patience_compare(policy, Policy.accept_last(), prior, params)
            monte_carlo(prior, policy, params, 50, seed=1)
        res = optimal_biased_policy(prior, params)
        assert res in results and len(results) > 2
        assert not any("policy_table" in vars(got) for got in results)
        zero, last = F(0), ((F(0), F(0)), (F(5, 2), F(0)))
        assert sorted(res.policy_table.items()) == [
            ((1, (zero, zero)), ((F(3), zero),)),
            ((2, (F(1), zero)), ((F(2), zero),)),
            ((2, (F(3), zero)), ((F(2), zero),)),
            ((3, (F(1), zero)), last),
            ((3, (F(2), zero)), last),
            ((3, (F(3), zero)), last)]

    def test_memo_keeps_only_tables_read_twice(self):
        # the rational DP and E[sum_j S_j*] have one reader per prior, so a
        # long prior does not hold their tables after the pass; the V*
        # law's tails have one reader per guarantee alpha
        prior = prior_of(self.STEPS)
        params = AgentParams(F(1, 2), 2)
        verify_prophet_bound(prior, params)
        verify_online_bound(prior, params)
        ratio_report(prior, params)
        kept = {build.__name__ for build in prior.__dict__["_memo"]}
        assert kept == {"_rank_table", "_max_convolution", "_value_tails",
                        "_biased_dp"}
        prior = prior_of(self.STEPS)
        exact_expectation(prior, Policy.accept_last(), params)
        assert [build.__name__ for build in prior.__dict__["_memo"]] == \
            ["_rank_table"]

    def test_a_lambda_loop_holds_one_biased_dp(self):
        # the paper's lambda sweep on one instance: each miss drops the DP
        # kept for the previous lambda before it builds the next one
        prior = ProductPrior.deterministic(
            gen_alternating_geometric(3000, 2, 1))
        kept = []
        for i in range(101):
            ratio_report(prior, AgentParams(F(i, 50), 2))
            dps = [result for build, (_, result)
                   in prior.__dict__["_memo"].items()
                   if build is policies._biased_dp]
            assert len(dps) == 1
            kept.append(weakref.ref(dps[0]))
            del dps
        gc.collect()
        assert [ref() is None for ref in kept] == [True] * 100 + [False]

    @staticmethod
    def dp_outcome(prior, params, budget=None):
        try:
            return repr(optimal_biased_policy(prior, params, budget=budget))
        except ResourceLimit as err:
            return str(err)

    @pytest.mark.parametrize("seed", range(40))
    def test_a_kept_dp_answers_every_budget_as_a_fresh_one(self, seed):
        rng = random.Random(f"kept-dp/{seed}")
        k = rng.choice([1, 2, 3])
        prior = gen_random_prior(rng, k=k, n_max=6, atoms_max=3)
        for lam in (F(1, 3), 0.25):
            params = AgentParams(lam, k)
            count = optimal_biased_policy(prior, params).state_count
            for budget in range(1, count + 2):
                fresh = ProductPrior(prior.steps)
                assert self.dp_outcome(prior, params, budget) == \
                    self.dp_outcome(fresh, params, budget)

    def test_a_kept_dp_is_not_rebuilt_for_another_budget(self, monkeypatch):
        built = []
        build = policies._biased_dp

        def counted(*args, **kwargs):
            result = build(*args, **kwargs)
            built.append(args)  # a refused pass builds nothing
            return result

        monkeypatch.setattr(policies, "_biased_dp", counted)
        prior = prior_of(self.STEPS)
        params = AgentParams(F(1, 2), 2)
        first = optimal_biased_policy(prior, params)
        count = first.state_count
        for budget in (count, count + 1, None):
            assert optimal_biased_policy(prior, params, budget=budget) is first
        for budget in range(1, count):
            with pytest.raises(ResourceLimit):
                optimal_biased_policy(prior, params, budget=budget)
        assert optimal_biased_policy(prior, params) is first
        assert len(built) == 1

    def test_a_miss_drops_only_its_own_pass(self):
        prior = prior_of(self.STEPS)
        params = AgentParams(F(1, 2), 2)
        first = optimal_biased_policy(prior, params)
        table = prior.memoized(policies._rank_table)
        # the budget is no part of the key: the kept DP answers it
        assert optimal_biased_policy(prior, params, budget=50) is first
        third = AgentParams(F(1, 3), 2)
        other = optimal_biased_policy(prior, third)
        assert optimal_biased_policy(prior, third, budget=50) is other
        # lambda is part of the key: the first DP was dropped, not kept
        assert optimal_biased_policy(prior, params) is not first
        assert prior.memoized(policies._rank_table) is table
        assert [build.__name__ for build in prior.__dict__["_memo"]] == \
            ["_rank_table", "_biased_dp"]


class TestLatticeAgainstReachable:
    """The biased DP's layers against an independent walk of the reachable
    rank states (`test_masks.reachable`, which joins through
    `policies._join`): the mask keys in backward-induction order, the state
    count, and the budget each layer's running count passes."""

    @staticmethod
    def priors():
        rng = random.Random("dp-lattice")
        for i in range(60):
            yield random_prior(rng, FLAVORS[i % 4])
        # one state per layer: every join is its own next layer
        for k in range(1, 5):
            for n in (1, 2, 3, 7, 20, 60):
                yield ProductPrior.deterministic(Sequence(tuple(
                    ValueVector(tuple(F(rng.randint(0, 12), rng.choice((1, 2)))
                                      for _ in range(k)))
                    for _ in range(n))))

    @pytest.mark.parametrize("lam", [F(2, 3), 0.3, 0])
    def test_masks_count_and_budgets_follow_the_reachable_layers(self, lam):
        for prior in self.priors():
            layers = [sorted(layer) for layer in reachable(prior)]
            res = policies._biased_dp(prior, lam, 10 ** 6)
            assert [(t, s) for t in range(prior.n, 0, -1)
                    for s, _ in zip(res.layers[t - 1], res.masks[t - 1],
                                    strict=True)] == \
                [(t, s) for t in range(prior.n, 0, -1) for s in layers[t - 1]]
            sizes = [len(layer) for layer in layers]
            assert res.state_count == sum(sizes)
            for budget in range(1, res.state_count + 2):
                if budget >= res.state_count:
                    got = policies._biased_dp(prior, lam, budget)
                    assert repr(got) == repr(res)
                    continue
                t = next(t for t in range(1, prior.n + 1)
                         if sum(sizes[:t]) > budget)
                with pytest.raises(ResourceLimit) as err:
                    policies._biased_dp(prior, lam, budget)
                assert str(err.value) == (f"state budget {budget} exceeded "
                                          f"({sum(sizes[:t])}+ states by "
                                          f"step {t})")

    def test_policy_tables_list_the_decoded_layers(self):
        # the biased DP's from step n down, each step's states sorted; the
        # rational DP's one state () per step, from step 1 up
        for prior in self.priors():
            decoded = list(reachable(prior))
            for lam in (F(2, 3), 0.3):
                res = policies._biased_dp(prior, lam, 10 ** 6)
                assert list(res.policy_table) == [
                    (t, values) for t in range(prior.n, 0, -1)
                    for values in decoded[t - 1].values()]
            rational = policies._rational_dp(prior)[0]
            assert list(rational.policy_table) == [
                (t, ()) for t in range(1, prior.n + 1)]


def test_l1_is_read_once_and_leaves_the_vector_unchanged():
    a, b = ValueVector((F(1), F(5, 2))), ValueVector((F(1), F(5, 2)))
    before = (repr(a), hash(a))
    assert a.l1 == F(7, 2)
    assert a.l1 is a.l1
    assert (repr(a), hash(a)) == before
    assert a == b and hash(a) == hash(b)
