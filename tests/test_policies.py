"""Stopping rules: threshold policies, exact DP optima, patience.

DP answers are cross-checked against two independent oracles: recursion over
full history trees and, for tiny priors, literal enumeration of every
deterministic history-dependent rule.
"""

import random
from fractions import Fraction as F

import pytest

import oracles
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    ResourceLimit,
    Sequence,
    ValueVector,
    max_value,
    offline_optimal_biased,
)
from lap.policies import (
    Policy,
    compile_policy,
    dp_result_to_json,
    guarantee_alphas,
    optimal_biased_policy,
    optimal_rational_policy,
    patience_compare,
    policy_from_json,
    policy_to_json,
    run_policy,
    threshold_from_alpha,
)


def seq(*rows):
    return Sequence(tuple(ValueVector(tuple(F(x) for x in row)) for row in rows))


def prior_of(steps):
    """Plain oracle-style steps -> package prior."""
    return ProductPrior(tuple(
        FiniteDistribution(tuple((ValueVector(v), p) for v, p in step))
        for step in steps))


TWO_POINT_IID = prior_of([
    [((F(1),), F(1, 2)), ((F(3),), F(1, 2))],
    [((F(1),), F(1, 2)), ((F(3),), F(1, 2))],
])

# worst-case mixed prior, k=2, lambda=1/2, w=2, eps=1/5, built by hand
WCM = prior_of([
    [((F(1), F(0)), F(1))],
    [((F(0), F(1)), F(1))],
    [((F(3, 2), F(0)), F(1))],
    [((F(0), F(3, 2)), F(1))],
    [((F(9), F(0)), F(1, 5)), ((F(0), F(0)), F(4, 5))],
])


class TestThresholdFromAlpha:
    def test_degenerate_single_candidate(self):
        prior = ProductPrior.deterministic(seq((5, 0)))
        pol = threshold_from_alpha(prior, F(99, 100))
        assert pol.threshold == 5
        assert pol.atom_accept_prob == F(99, 100)

    def test_two_point_iid_alpha_three_quarters(self):
        # V* in {1: 1/4, 3: 3/4}; Pr[V*>1] = 3/4 already, so no atom split
        pol = threshold_from_alpha(TWO_POINT_IID, F(3, 4))
        assert pol.threshold == 1
        assert pol.atom_accept_prob == 0

    def test_atom_split_hits_alpha_exactly(self):
        # alpha = 1/2 needs T=3 with partial acceptance 2/3
        pol = threshold_from_alpha(TWO_POINT_IID, F(1, 2))
        assert pol.threshold == 3
        assert pol.atom_accept_prob == F(2, 3)

    def test_split_identity_on_random_priors(self):
        rng = random.Random(23)
        for _ in range(40):
            steps = oracles.random_prior_steps(rng, n_max=4, atoms_max=3, k=2)
            prior = prior_of(steps)
            alpha = rng.choice((F(1, 4), F(1, 2), F(4, 5), F(9, 10)))
            pol = threshold_from_alpha(prior, alpha)
            _, _, dist = oracles.vstar_stats(steps)
            above = sum(p for v, p in dist.items() if v > pol.threshold)
            at = sum(p for v, p in dist.items() if v == pol.threshold)
            assert above + pol.atom_accept_prob * at == alpha
            assert 0 <= pol.atom_accept_prob < 1

    def test_alpha_bounds(self):
        with pytest.raises(InvalidInput):
            threshold_from_alpha(TWO_POINT_IID, F(0))
        with pytest.raises(InvalidInput):
            threshold_from_alpha(TWO_POINT_IID, F(1))


class TestGuaranteeAlphas:
    def test_documented_values(self):
        assert guarantee_alphas(AgentParams(F(1, 2), 2)) == (F(4, 5), F(6, 7))
        assert guarantee_alphas(AgentParams(F(0), 1)) == (F(1, 2), F(1, 2))

    def test_near_critical(self):
        a1, a2 = guarantee_alphas(AgentParams(F(99, 100), 2))
        assert F(95, 100) < a1 < 1
        assert F(95, 100) < a2 < 1

    def test_requires_subcritical(self):
        with pytest.raises(InvalidInput):
            guarantee_alphas(AgentParams(F(1), 2))

    def test_always_in_unit_interval(self):
        for lam_num in range(0, 10):
            for k in (1, 2, 3, 4):
                lam = F(lam_num, 10)
                if lam * (k - 1) >= 1:
                    continue
                a1, a2 = guarantee_alphas(AgentParams(lam, k))
                assert 0 < a1 < 1 and 0 < a2 < 1


class TestRunPolicy:
    def test_threshold_selects_first_crossing(self):
        s = seq((3, 0), (0, 2), (4, 3))
        out = run_policy(Policy.threshold(F(5)), s, AgentParams(F(1, 2), 2))
        assert out.selection == 3
        assert out.utility == 7
        assert out.utility >= 7 - F(1, 2) * 1 * 5

    def test_fixed_index(self):
        s = seq((3, 0), (0, 2), (4, 3))
        out = run_policy(Policy.fixed_index(1), s, AgentParams(F(2), 2))
        assert out.selection == 1
        assert out.utility == out.value == 3

    def test_threshold_above_everything_declines(self):
        s = seq((3, 0), (0, 2), (4, 3))
        params = AgentParams(F(1, 2), 2)
        out = run_policy(Policy.threshold(F(100)), s, params)
        assert out.selection is None
        assert out.value == 0
        assert out.utility == oracles.no_selection(
            [c.entries for c in s.candidates], params.lam)

    def test_accept_last(self):
        s = seq((3, 0), (0, 2), (4, 3))
        out = run_policy(Policy.accept_last(), s, AgentParams(F(0), 2))
        assert out.selection == 3

    def test_atom_coin_is_seed_deterministic(self):
        s = seq((2, 0), (0, 3))
        params = AgentParams(F(1), 2)
        pol = Policy.threshold(F(2), atom_accept_prob=F(1, 2), seed=5)
        outs = {run_policy(pol, s, params).selection for _ in range(8)}
        assert len(outs) == 1
        # both arms are reachable across seeds
        sels = {run_policy(Policy.threshold(F(2), F(1, 2), seed=sd), s, params).selection
                for sd in range(32)}
        assert sels == {1, 2}

    def test_utility_bound_claim_on_random_runs(self):
        # realized utility >= value - lambda(k-1) T at the first crossing
        rng = random.Random(31)
        for _ in range(60):
            rows = oracles.random_sequence(rng, n_max=6, k=3)
            s = seq(*rows)
            params = AgentParams(F(rng.randint(0, 4), 4), 3)
            T = F(rng.randint(0, 6), 2)
            out = run_policy(Policy.threshold(T), s, params)
            if out.selection is not None:
                assert out.utility >= out.value - params.bias * T
            else:
                assert out.utility >= -params.lam * params.k * T

    def test_optimal_policy_on_bare_sequence_matches_offline(self):
        rng = random.Random(37)
        for _ in range(30):
            rows = oracles.random_sequence(rng, n_max=5, k=2)
            s = seq(*rows)
            params = AgentParams(F(rng.randint(0, 6), 3), 2)
            out = run_policy(Policy.optimal_biased(), s, params)
            assert out.utility == offline_optimal_biased(s, params).utility


class TestOptimalBiasedPolicy:
    def test_motivating_example_value_one(self):
        prior = ProductPrior.deterministic(
            seq((1, 0), (0, 1), (2, 0), (0, 2), (4, 0), (0, 4)))
        res = optimal_biased_policy(prior, AgentParams(F(2), 2))
        assert res.expected_utility == 1

    def test_two_step_wait_versus_take(self):
        prior = prior_of([
            [((F(2), F(0)), F(1))],
            [((F(0), F(6)), F(1, 2)), ((F(0), F(0)), F(1, 2))],
        ])
        res = optimal_biased_policy(prior, AgentParams(F(1), 2))
        assert res.expected_utility == 2

    def test_lambda_zero_equals_rational(self):
        rng = random.Random(41)
        for _ in range(20):
            prior = prior_of(oracles.random_prior_steps(rng, k=2))
            res = optimal_biased_policy(prior, AgentParams(F(0), 2))
            assert res.expected_utility == \
                optimal_rational_policy(prior).expected_utility

    def test_matches_history_oracle(self):
        rng = random.Random(43)
        for _ in range(40):
            k = rng.randint(1, 3)
            steps = oracles.random_prior_steps(rng, n_max=4, atoms_max=3, k=k)
            lam = F(rng.randint(0, 8), 4)
            allow = rng.random() < 0.5
            res = optimal_biased_policy(prior_of(steps), AgentParams(lam, k))
            assert res.expected_utility == oracles.history_optimal(
                steps, lam, allow_no_selection=allow)

    def test_matches_literal_policy_enumeration(self):
        rng = random.Random(47)
        done = 0
        while done < 12:
            steps = oracles.random_prior_steps(rng, n_max=2, atoms_max=3, k=2)
            nodes = len(steps[0]) * (1 + (len(steps[1]) if len(steps) > 1 else 0))
            if nodes > 12:
                continue
            lam = F(rng.randint(0, 6), 4)
            allow = done % 2 == 0
            res = optimal_biased_policy(prior_of(steps), AgentParams(lam, 2))
            assert res.expected_utility == oracles.enumerate_policies_optimal(
                steps, lam, allow_no_selection=allow)
            done += 1

    def test_deterministic_prior_equals_offline(self):
        rng = random.Random(53)
        for _ in range(25):
            rows = oracles.random_sequence(rng, n_max=5, k=2)
            s = seq(*rows)
            params = AgentParams(F(rng.randint(0, 6), 3), 2)
            res = optimal_biased_policy(ProductPrior.deterministic(s), params)
            assert res.expected_utility == \
                offline_optimal_biased(s, params).utility

    def test_state_budget(self):
        with pytest.raises(ResourceLimit):
            optimal_biased_policy(WCM, AgentParams(F(1, 2), 2), budget=3)

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("LAP_BUDGET_STATES", "3")
        with pytest.raises(ResourceLimit):
            optimal_biased_policy(WCM, AgentParams(F(1, 2), 2))

    def test_result_shape(self):
        res = optimal_biased_policy(TWO_POINT_IID, AgentParams(F(1), 1))
        assert res.state_count > 0
        assert isinstance(res.expected_utility, F)
        obj = dp_result_to_json(res)
        assert set(obj) == {"expected_utility", "state_count", "policy_table"}
        assert obj["state_count"] == res.state_count

    def test_worstcase_mixed_biased_value_is_one(self):
        res = optimal_biased_policy(WCM, AgentParams(F(1, 2), 2))
        assert res.expected_utility == 1


class TestOptimalRationalPolicy:
    def test_deterministic_prior_takes_max(self):
        s = seq((3, 0), (0, 2), (4, 3))
        res = optimal_rational_policy(ProductPrior.deterministic(s))
        assert res.expected_utility == max_value(s)

    def test_two_point_iid(self):
        res = optimal_rational_policy(TWO_POINT_IID)
        assert res.expected_utility == F(5, 2)

    def test_worstcase_mixed_waits_for_jackpot(self):
        res = optimal_rational_policy(WCM)
        assert res.expected_utility == F(9, 5)

    def test_matches_oracle_and_half_vstar(self):
        rng = random.Random(59)
        for _ in range(30):
            steps = oracles.random_prior_steps(rng, k=2)
            res = optimal_rational_policy(prior_of(steps))
            assert res.expected_utility == oracles.rational_history_optimal(steps)
            e_vstar, _, _ = oracles.vstar_stats(steps)
            assert res.expected_utility >= e_vstar / 2


class TestPatience:
    def test_randomized_policy_needs_a_seed(self):
        # alpha = 1/2 on TWO_POINT_IID: Pr[V* = 3] = 3/4, so the threshold
        # 3 is taken with probability 2/3 and the policy has two arms
        params = AgentParams(F(0), 1)
        coin = Policy.from_alpha(F(1, 2))
        assert not compile_policy(coin, TWO_POINT_IID, params).deterministic
        for a, b in ((coin, Policy.accept_last()),
                     (Policy.accept_last(), coin)):
            with pytest.raises(InvalidInput) as err:
                patience_compare(a, b, TWO_POINT_IID, params)
            assert str(err.value) == \
                "patience comparison of a randomized policy needs a seed"
        seeded = Policy.from_alpha(F(1, 2), seed=3)
        assert patience_compare(seeded, seeded, TWO_POINT_IID,
                                params).verdict == "more-patient"

    def test_reflexive(self):
        v = patience_compare(Policy.accept_last(), Policy.accept_last(),
                             TWO_POINT_IID, AgentParams(F(1), 1))
        assert v.verdict == "more-patient"
        assert v.witness is None

    def test_fixed_indices(self):
        params = AgentParams(F(0), 1)
        v = patience_compare(Policy.fixed_index(2), Policy.fixed_index(1),
                             TWO_POINT_IID, params)
        assert v.verdict == "more-patient"
        v = patience_compare(Policy.fixed_index(1), Policy.fixed_index(2),
                             TWO_POINT_IID, params)
        assert v.verdict == "incomparable"
        assert v.witness is not None

    def test_lambda_pair_patience_sweep(self):
        rng = random.Random(61)
        for _ in range(25):
            k = rng.randint(1, 3)
            prior = prior_of(oracles.random_prior_steps(rng, k=k))
            params = AgentParams(F(1, 5), k)
            v = patience_compare(Policy.optimal_biased(F(1, 5)),
                                 Policy.optimal_biased(F(4, 5)),
                                 prior, params)
            assert v.verdict == "more-patient", v.witness

    def test_longer_horizon_is_more_patient(self):
        rng = random.Random(67)
        for _ in range(20):
            k = rng.randint(1, 2)
            steps = oracles.random_prior_steps(rng, n_max=3, atoms_max=3, k=k)
            extra = oracles.random_prior_steps(rng, n_max=1, atoms_max=3, k=k)
            short = prior_of(steps)
            long = prior_of(steps + extra)
            params = AgentParams(F(rng.randint(0, 4), 4), k)
            pol = Policy.optimal_biased()
            a = compile_policy(pol, long, params)
            b = compile_policy(pol, short, params)
            v = patience_compare(a, b, short, params)
            assert v.verdict == "more-patient", v.witness

    def test_patience_implies_expected_value(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(40):
            k = rng.randint(1, 2)
            steps = oracles.random_prior_steps(rng, k=k)
            prior = prior_of(steps)
            lam = F(rng.randint(0, 4), 4)
            params = AgentParams(lam, k)
            opt = Policy.optimal_biased(lam)
            other = rng.choice((
                Policy.fixed_index(1), Policy.accept_last(),
                Policy.optimal_biased(lam + F(1, 2)), Policy.threshold(F(1))))
            v = patience_compare(opt, other, prior, params)
            if v.verdict != "more-patient":
                continue
            checked += 1
            ev_opt = _expected_selected_value(opt, prior, params)
            ev_other = _expected_selected_value(other, prior, params)
            assert ev_opt >= ev_other
        assert checked > 5


def _expected_selected_value(policy, prior, params):
    total = F(0)
    for vecs, p in oracles.realizations(d.atoms for d in prior.steps):
        out = run_policy(policy, Sequence(vecs), params, prior=prior)
        total += p * out.value
    return total


class TestPolicyJson:
    def test_alpha_form_round_trip(self):
        pol = policy_from_json({"kind": "threshold", "alpha": "4/5", "seed": 42})
        assert pol.alpha == F(4, 5)
        assert pol.seed == 42
        assert policy_from_json(policy_to_json(pol)) == pol

    def test_resolved_threshold_round_trip(self):
        pol = Policy.threshold(F(5), F(99, 100), seed=1)
        assert policy_from_json(policy_to_json(pol)) == pol

    def test_other_kinds(self):
        for pol in (Policy.fixed_index(3), Policy.accept_last(),
                    Policy.optimal_biased(F(1, 2)), Policy.optimal_rational()):
            assert policy_from_json(policy_to_json(pol)) == pol

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Policy.threshold(F(-1))
        with pytest.raises(InvalidInput):
            Policy.threshold(F(1), F(2))
        with pytest.raises(InvalidInput):
            Policy.fixed_index(0)
        with pytest.raises(InvalidInput):
            policy_from_json({"kind": "nope"})

    @pytest.mark.parametrize("make, message", [
        (lambda: Policy(kind="bogus"), "unknown policy kind 'bogus'"),
        (lambda: Policy.from_alpha(F(3, 2)), "alpha must lie in (0, 1)"),
        (lambda: Policy.from_alpha(F(0)), "alpha must lie in (0, 1)"),
        (lambda: Policy(kind="threshold"),
         "threshold policy needs alpha or threshold"),
        (lambda: Policy.optimal_biased(F(-1)), "lambda must be non-negative"),
        (lambda: policy_from_json({}), "policy JSON needs a 'kind'"),
        (lambda: policy_from_json(["threshold"]),
         "policy JSON needs a 'kind'"),
    ], ids=["unknown-kind", "alpha-above-one", "alpha-zero", "no-threshold",
            "negative-lambda", "no-kind", "not-an-object"])
    def test_validation_messages(self, make, message):
        with pytest.raises(InvalidInput) as err:
            make()
        assert str(err.value) == message

    def test_threshold_without_coin_accepts_the_atom(self):
        pol = policy_from_json({"kind": "threshold", "threshold": "5"})
        assert pol.threshold == 5
        assert pol.atom_accept_prob == 1
        assert type(pol.atom_accept_prob) is F

    def test_fixed_index_rejects_bool(self):
        # True == 1, but it is not a step index
        with pytest.raises(InvalidInput, match="must be an integer"):
            Policy.fixed_index(True)

    @pytest.mark.parametrize("obj", [
        {"kind": "fixed-index", "index": True},
        {"kind": "threshold", "alpha": "1/2", "seed": True},
        {"kind": "threshold", "alpha": "1/2", "seed": "7"},
        {"kind": "fixed-index", "index": 2.0},
    ], ids=["bool-index", "bool-seed", "string-seed", "float-index"])
    def test_integer_fields_reject_other_types(self, obj):
        with pytest.raises(InvalidInput, match="must be an integer"):
            policy_from_json(obj)

    def test_alpha_policy_resolves_against_prior(self):
        pol = policy_from_json({"kind": "threshold", "alpha": "3/4"})
        out = run_policy(pol, seq((1,), (3,)), AgentParams(F(0), 1),
                         prior=TWO_POINT_IID)
        assert out.selection == 2
