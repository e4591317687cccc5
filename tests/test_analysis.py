"""Expectation engines, ratio reports, bound verifiers, paradox detectors."""

import random
from fractions import Fraction as F

import pytest

import oracles
from oracles import stop_utility
from lap import analysis
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    ResourceLimit,
    Sequence,
    ValueVector,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
)
from lap.instances import (
    det_to_iid,
    gen_alternating_geometric,
    gen_alternating_linear,
    gen_identical_value,
    gen_quality_pair,
    gen_worstcase_mixed,
)
from lap.policies import Policy, threshold_from_alpha
from lap.analysis import (
    CheckResult,
    EstimateWithCI,
    NonPositiveDenominator,
    RatioReport,
    ROW_FIELDS,
    detect_paradox_of_choice,
    detect_quality_paradox,
    exact_expectation,
    gamma_of,
    inversion_probability,
    monte_carlo,
    ratio_report,
    ratio_row,
    representation_probability,
    verify_online_bound,
    verify_prophet_bound,
)

HALF = AgentParams(F(1, 2), 2)
WCM = gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5))


def vec(*xs):
    return ValueVector(tuple(F(x) for x in xs))


def seq(*rows):
    return Sequence(tuple(vec(*r) for r in rows))


def prior_of(steps):
    return ProductPrior(tuple(
        FiniteDistribution(tuple((ValueVector(v), p) for v, p in step))
        for step in steps))


def zero_prior(k=2):
    return ProductPrior.deterministic(
        Sequence((ValueVector.zero(k),)))


# ---------------------------------------------------------------------------
# exact expectation
# ---------------------------------------------------------------------------


class TestExactExpectation:
    def test_deterministic_prior_equals_single_run(self):
        from lap.policies import run_policy
        sigma = seq((3, 0), (0, 2), (4, 3))
        prior = ProductPrior.deterministic(sigma)
        for pol in (Policy.fixed_index(2), Policy.threshold(F(4)),
                    Policy.accept_last()):
            assert exact_expectation(prior, pol, HALF) == \
                run_policy(pol, sigma, HALF).utility

    def test_documented_accept_last(self):
        assert exact_expectation(WCM, Policy.accept_last(), HALF) == F(9, 20)

    def test_threshold_mixture_frozen(self):
        assert exact_expectation(WCM, Policy.from_alpha(F(4, 5)), HALF) == \
            F(69, 80)
        assert exact_expectation(WCM, Policy.from_alpha(F(6, 7)), HALF) == \
            F(101, 112)

    def test_optimal_policy_matches_dp_value(self):
        from lap.policies import optimal_biased_policy
        rng = random.Random(90914)
        for _ in range(15):
            steps = oracles.random_prior_steps(rng)
            prior = prior_of(steps)
            lam = rng.choice((F(0), F(1, 2), F(1), F(2)))
            params = AgentParams(lam, 2)
            assert exact_expectation(prior, Policy.optimal_biased(), params) \
                == optimal_biased_policy(prior, params).expected_utility

    def test_optimal_rational_matches_rational_dp(self):
        # evaluated at lambda = 0, where biased utility is the value
        from lap.policies import optimal_rational_policy
        rng = random.Random(4242)
        for _ in range(30):
            k = rng.randint(1, 3)
            prior = prior_of(oracles.random_prior_steps(rng, k=k))
            got = exact_expectation(prior, Policy.optimal_rational(),
                                    AgentParams(F(0), k))
            assert got == optimal_rational_policy(prior).expected_utility

    def test_optimal_rational_one_step(self):
        prior = prior_of([[((F(1),), F(1, 2)), ((F(3),), F(1, 2))]])
        assert exact_expectation(prior, Policy.optimal_rational(),
                                 AgentParams(F(0), 1)) == 2

    def test_fixed_index_against_oracle(self):
        rng = random.Random(3131)
        for _ in range(20):
            steps = oracles.random_prior_steps(rng)
            prior = prior_of(steps)
            lam = rng.choice((F(1, 4), F(1), F(3, 2)))
            got = exact_expectation(prior, Policy.fixed_index(1),
                                    AgentParams(lam, 2))
            want = sum(p * oracles.gambler_utility(vecs, 1, lam)
                       for vecs, p in oracles.realizations(steps))
            assert got == want

    def test_threshold_claim_lower_bound(self):
        # E[U(alpha)] >= ((1+lam)alpha - k*lam)T + (1-alpha)*sum_t E[(v_t-T)+]
        def rhs(steps, lam, k, alpha, t_value):
            surplus = F(0)
            for vecs, p in oracles.realizations(steps):
                surplus += p * sum(max(oracles.l1(v) - t_value, 0)
                                   for v in vecs)
            return ((1 + lam) * alpha - k * lam) * t_value + \
                (1 - alpha) * surplus

        wcm_steps = [[(v.entries, p) for v, p in s.atoms] for s in WCM.steps]
        for alpha in (F(4, 5), F(6, 7), F(1, 2)):
            pol = threshold_from_alpha(WCM, alpha)
            got = exact_expectation(WCM, pol, HALF)
            assert got >= rhs(wcm_steps, F(1, 2), 2, alpha, pol.threshold)

        rng = random.Random(51423)
        checked = 0
        for _ in range(20):
            steps = oracles.random_prior_steps(rng, k=2)
            prior = prior_of(steps)
            lam = rng.choice((F(0), F(1, 4), F(1, 2)))
            for alpha in (F(1, 4), F(1, 2), F(3, 4)):
                pol = threshold_from_alpha(prior, alpha)
                got = exact_expectation(prior, pol, AgentParams(lam, 2))
                assert got >= rhs(steps, lam, 2, alpha, pol.threshold)
                checked += 1
        assert checked == 60

    def test_budget(self):
        # accept-last holds the root and two mass states before each later
        # step: 23 states, as the biased DP's lattice has
        prior = ProductPrior.iid_prior(WCM.steps[-1], 12)
        with pytest.raises(ResourceLimit) as err:
            exact_expectation(prior, Policy.accept_last(), HALF, budget=22)
        assert str(err.value) == ("state budget 22 exceeded "
                                  "(23+ states by step 12)")
        exact_expectation(prior, Policy.accept_last(), HALF, budget=23)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


class TestMonteCarlo:
    def test_deterministic_prior_zero_width(self):
        sigma = seq((3, 0), (0, 2))
        prior = ProductPrior.deterministic(sigma)
        est = monte_carlo(prior, Policy.fixed_index(1), HALF,
                          trials=500, seed=11)
        assert est.half_width == 0
        assert est.mean == 3.0
        assert est.trials == 500 and est.seed == 11

    def test_agrees_with_exact_within_ci(self):
        exact = exact_expectation(WCM, Policy.accept_last(), HALF)
        est = monte_carlo(WCM, Policy.accept_last(), HALF,
                          trials=20000, seed=7)
        assert est.half_width > 0
        assert abs(est.mean - float(exact)) <= 4 * est.half_width

    def test_threshold_policy_agrees_with_exact(self):
        exact = exact_expectation(WCM, Policy.from_alpha(F(4, 5)), HALF)
        est = monte_carlo(WCM, Policy.from_alpha(F(4, 5)), HALF,
                          trials=20000, seed=19)
        assert abs(est.mean - float(exact)) <= 4 * est.half_width

    def test_bit_identical_replay(self):
        a = monte_carlo(WCM, Policy.accept_last(), HALF, trials=2000, seed=5)
        b = monte_carlo(WCM, Policy.accept_last(), HALF, trials=2000, seed=5)
        assert a == b
        c = monte_carlo(WCM, Policy.accept_last(), HALF, trials=2000, seed=6)
        assert c.mean != a.mean

    def test_validation(self):
        with pytest.raises(InvalidInput):
            monte_carlo(WCM, Policy.accept_last(), HALF, trials=0, seed=1)


# ---------------------------------------------------------------------------
# ratio reports
# ---------------------------------------------------------------------------


class TestRatioReport:
    def test_motivating_example(self):
        prior = ProductPrior.deterministic(
            gen_alternating_geometric(6, 2, F(2)))
        rep = ratio_report(prior, AgentParams(F(2), 2))
        assert rep.e_prophet_rational == 4
        assert rep.e_gambler_rational_opt == 4
        assert rep.e_gambler_biased_opt == 1
        assert rep.prophet_ratio == 4
        assert rep.online_ratio == 4
        assert rep.bias == 2
        assert rep.regime == "supercritical"

    def test_linear_critical(self):
        prior = ProductPrior.deterministic(gen_alternating_linear(6, 2))
        rep = ratio_report(prior, AgentParams(F(1), 2))
        assert rep.e_prophet_rational == 3
        assert rep.prophet_ratio == 3
        assert rep.regime == "critical"

    def test_worstcase_mixed_frozen(self):
        rep = ratio_report(WCM, HALF)
        assert rep.e_prophet_rational == 3
        assert rep.e_gambler_rational_opt == F(9, 5)
        assert rep.e_gambler_biased_opt == 1
        assert rep.prophet_ratio == 3
        assert rep.online_ratio == F(9, 5)
        assert rep.regime == "subcritical"

    def test_no_bias_means_unit_online_ratio(self):
        rng = random.Random(777)
        for _ in range(10):
            steps = oracles.random_prior_steps(rng)
            rep = ratio_report(prior_of(steps), AgentParams(F(0), 2))
            if rep.online_ratio is NonPositiveDenominator:
                continue
            assert rep.online_ratio == 1

    def test_ratio_identity(self):
        rng = random.Random(778)
        for _ in range(10):
            steps = oracles.random_prior_steps(rng)
            rep = ratio_report(prior_of(steps), AgentParams(F(1, 3), 2))
            if rep.prophet_ratio is NonPositiveDenominator:
                assert rep.e_gambler_biased_opt <= 0
                continue
            assert rep.prophet_ratio == \
                rep.e_prophet_rational / rep.e_gambler_biased_opt
            assert rep.online_ratio == \
                rep.e_gambler_rational_opt / rep.e_gambler_biased_opt

    def test_zero_prior_sentinel(self):
        rep = ratio_report(zero_prior(), HALF)
        assert rep.e_prophet_rational == 0
        assert rep.prophet_ratio is NonPositiveDenominator
        assert rep.online_ratio is NonPositiveDenominator
        assert repr(rep.prophet_ratio) == "NonPositiveDenominator"

    def test_row_serialization(self):
        rep = ratio_report(WCM, HALF)
        row = ratio_row(rep, HALF, WCM.n, "worstcase-mixed-w2", seed=42)
        assert tuple(row) == ROW_FIELDS
        assert row["lambda"] == "1/2"
        assert row["k"] == 2
        assert row["bias"] == "1/2"
        assert row["n"] == 5
        assert row["e_upr"] == "3"
        assert row["e_ugr"] == "9/5"
        assert row["e_ugb"] == "1"
        assert row["prophet_ratio"] == "3"
        assert row["online_ratio"] == "9/5"
        assert row["regime"] == "subcritical"
        assert row["instance_id"] == "worstcase-mixed-w2"
        assert row["seed"] == 42

    def test_row_sentinel_serialization(self):
        row = ratio_row(ratio_report(zero_prior(), HALF), HALF, 1, "zero")
        assert row["prophet_ratio"] == "NonPositiveDenominator"
        assert row["seed"] is None

    def test_budget_stops_before_unbudgeted_passes(self, monkeypatch):
        # 12 reachable states exceed the budget of 10; neither the V*
        # distribution nor the rational DP may run first
        def unbudgeted(*args, **kwargs):
            raise AssertionError("ran before the budgeted DP")

        for name in ("value_max_distribution", "_e_best_value",
                     "optimal_rational_policy"):
            monkeypatch.setattr(f"lap.analysis.{name}", unbudgeted)
        dist = FiniteDistribution(((vec(1, 0), F(1)),))
        with pytest.raises(ResourceLimit):
            ratio_report(ProductPrior.iid_prior(dist, 12), HALF, budget=10)


# ---------------------------------------------------------------------------
# bound verifiers
# ---------------------------------------------------------------------------


class TestVerifyProphetBound:
    def test_worstcase_mixed_detail(self):
        check = verify_prophet_bound(WCM, HALF)
        assert isinstance(check, CheckResult)
        assert check.passed
        assert check.counterexample is None
        assert check.lhs == 1                      # optimal biased utility
        assert check.rhs == F(9, 14)
        d = check.detail
        assert d["gamma"] == F(3, 2)
        assert d["e_best_value"] == 3
        assert d["e_sum_dim_maxima"] == F(9, 2)
        assert d["alpha_low"] == F(4, 5)
        assert d["alpha_high"] == F(6, 7)
        assert d["threshold_expectation_low"] == F(69, 80)
        assert d["threshold_expectation_high"] == F(101, 112)
        assert d["best_threshold_expectation"] == F(101, 112)

    def test_random_priors_pass(self):
        rng = random.Random(140814)
        ran = 0
        for _ in range(40):
            k = rng.choice((1, 2, 3))
            lam_cap = None if k == 1 else F(1, k - 1)
            lams = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]
            lam = rng.choice([l for l in lams
                              if lam_cap is None or l < lam_cap])
            steps = oracles.random_prior_steps(rng, k=k)
            check = verify_prophet_bound(prior_of(steps), AgentParams(lam, k))
            assert check.passed, (steps, lam, k)
            ran += 1
        assert ran == 40

    def test_one_dimensional_uses_classic_constant(self):
        rng = random.Random(99)
        steps = oracles.random_prior_steps(rng, k=1)
        prior = prior_of(steps)
        check = verify_prophet_bound(prior, AgentParams(F(3), 1))
        e_v = check.detail["e_best_value"]
        assert check.rhs == e_v / (2 + 3)
        assert check.detail["e_sum_dim_maxima"] == e_v

    def test_ratio_approaches_bound_from_below(self):
        # (2+lam)/(1-bias) = 5 at lam=1/2, k=2
        loose = ratio_report(gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5)), HALF)
        tight = ratio_report(gen_worstcase_mixed(5, 2, F(1, 2), F(1, 20)),
                             HALF)
        assert loose.prophet_ratio < tight.prophet_ratio < 5
        assert tight.prophet_ratio == F(589, 128)

    def test_supercritical_rejected(self):
        with pytest.raises(InvalidInput):
            verify_prophet_bound(WCM, AgentParams(F(2), 2))

    def test_zero_prior_passes_trivially(self):
        check = verify_prophet_bound(zero_prior(), HALF)
        assert check.passed
        assert check.rhs == 0
        assert check.detail["gamma"] is NonPositiveDenominator


class TestVerifyOnlineBound:
    def test_worstcase_mixed(self):
        check = verify_online_bound(WCM, HALF)
        assert check.passed
        # cross-multiplied: (1-bias) * E[U_gr*] <= (1+lam) * E[U_gb*]
        assert check.lhs == F(1, 2) * F(9, 5)
        assert check.rhs == F(3, 2) * 1

    def test_random_priors_pass(self):
        rng = random.Random(240814)
        for _ in range(40):
            k = rng.choice((1, 2, 3))
            lams = [F(0), F(1, 4), F(1, 2), F(2, 3)]
            lam = rng.choice([l for l in lams if l * (k - 1) < 1])
            steps = oracles.random_prior_steps(rng, k=k)
            check = verify_online_bound(prior_of(steps), AgentParams(lam, k))
            assert check.passed, (steps, lam, k)

    def test_lambda_zero_equality(self):
        rng = random.Random(241)
        steps = oracles.random_prior_steps(rng)
        check = verify_online_bound(prior_of(steps), AgentParams(F(0), 2))
        assert check.passed
        assert check.lhs == check.rhs  # ratio exactly 1 against bound 1

    def test_online_ratio_approaches_bound(self):
        # (1+lam)/(1-bias) = 3 at lam=1/2, k=2
        loose = ratio_report(gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5)), HALF)
        tight = ratio_report(gen_worstcase_mixed(5, 2, F(1, 2), F(1, 20)),
                             HALF)
        assert loose.online_ratio < tight.online_ratio < 3
        assert tight.online_ratio == F(1767, 640)

    def test_supercritical_rejected(self):
        with pytest.raises(InvalidInput):
            verify_online_bound(WCM, AgentParams(F(3, 2), 2))


@pytest.mark.parametrize("verify", [verify_prophet_bound,
                                    verify_online_bound])
def test_verifier_rejects_dimension_mismatch_first(monkeypatch, verify):
    # the check comes before any pass: none of them may run
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran before the dimension check")

    for name in ("value_max_distribution", "_e_best_value",
                 "optimal_rational_policy", "optimal_biased_policy",
                 "_e_sum_dim_maxima"):
        monkeypatch.setattr(analysis, name, no_pass)
    with pytest.raises(InvalidInput, match="dimensions differ"):
        verify(WCM, AgentParams(F(1, 2), 3))
    with pytest.raises(InvalidInput, match="dimensions differ"):
        verify(WCM, AgentParams(F(2), 3))  # before the bias check too


# ---------------------------------------------------------------------------
# paradox detectors
# ---------------------------------------------------------------------------


class TestParadoxOfChoice:
    def test_identical_value_prophet_paradox(self):
        ext = gen_identical_value(3, F(2))
        base = ext.prefix(1)
        params = AgentParams(F(1), 3)
        assert detect_paradox_of_choice(base, ext, params) is True
        assert detect_paradox_of_choice(base, ext, params,
                                        agent="prophet") is True

    def test_identical_value_gambler_keeps_first_pick(self):
        ext = gen_identical_value(3, F(2))
        base = ext.prefix(1)
        params = AgentParams(F(1), 3)
        assert detect_paradox_of_choice(base, ext, params,
                                        agent="gambler") is False

    def test_rational_agents_never_paradox(self):
        rng = random.Random(5150)
        for _ in range(10):
            vecs = oracles.random_sequence(rng, n_max=4)
            ext = seq(*vecs)
            base = ext.prefix(rng.randint(1, ext.n))
            params = AgentParams(F(0), 2)
            for agent in ("prophet", "gambler"):
                assert detect_paradox_of_choice(base, ext, params,
                                                agent=agent) is False

    def test_gambler_suffix_append_never_paradox(self):
        rng = random.Random(6060)
        for _ in range(20):
            vecs = oracles.random_sequence(rng, n_max=4)
            base = seq(*vecs)
            tail = tuple(rng.choice(oracles.VALUE_GRID) for _ in range(2))
            ext = Sequence(base.candidates + (ValueVector(tail),))
            lam = rng.choice((F(1, 4), F(1), F(2)))
            assert detect_paradox_of_choice(
                base, ext, AgentParams(lam, 2), agent="gambler") is False

    def test_prepend_relation_accepted(self):
        base = gen_identical_value(2, F(2))
        ext = Sequence((ValueVector.zero(2),) + base.candidates)
        assert detect_paradox_of_choice(base, ext, AgentParams(F(1), 2)) \
            is False

    def test_unrelated_sequences_rejected(self):
        a = seq((1, 0))
        b = seq((2, 0), (3, 0))
        with pytest.raises(InvalidInput):
            detect_paradox_of_choice(a, b, HALF)

    def test_unknown_agent_rejected(self):
        ext = gen_identical_value(2, F(2))
        with pytest.raises(InvalidInput):
            detect_paradox_of_choice(ext.prefix(1), ext, AgentParams(F(1), 2),
                                     agent="oracle")


class TestQualityParadox:
    def test_documented_pair(self):
        low, high = gen_quality_pair(2, F(2))
        rep = detect_quality_paradox(low, high, AgentParams(F(3, 2), 2))
        assert rep.prophet_worse_on_higher is True
        assert rep.gambler_better_on_higher is True
        assert rep.prophet_low == -1 and rep.prophet_high == -2
        assert rep.gambler_low == 2 and rep.gambler_high == 4

    def test_subcritical_no_prophet_paradox(self):
        low, high = gen_quality_pair(2, F(2))
        rep = detect_quality_paradox(low, high, HALF)
        assert rep.prophet_worse_on_higher is False
        assert rep.gambler_better_on_higher is True

    def test_gambler_always_better_on_grid(self):
        for k in (2, 3):
            for q in (F(3, 2), F(2), F(3)):
                low, high = gen_quality_pair(k, q)
                for lam in (F(0), F(1, 2), F(1), F(2)):
                    rep = detect_quality_paradox(low, high,
                                                 AgentParams(lam, k))
                    assert rep.gambler_better_on_higher is True
                    # paradox appears exactly past lam = 1/(k-1)
                    assert rep.prophet_worse_on_higher is \
                        (lam * (k - 1) > 1)

    def test_precondition(self):
        low, high = gen_quality_pair(2, F(2))
        with pytest.raises(InvalidInput):
            detect_quality_paradox(high, low, HALF)


# ---------------------------------------------------------------------------
# gamma and the surplus structure
# ---------------------------------------------------------------------------


class TestGamma:
    def test_single_candidate(self):
        assert gamma_of(ProductPrior.deterministic(seq((3, 1)))) == 1

    def test_identical_value_instance(self):
        prior = ProductPrior.deterministic(gen_identical_value(3, F(2)))
        assert gamma_of(prior) == 3

    def test_range_on_random_priors(self):
        rng = random.Random(814)
        for _ in range(20):
            steps = oracles.random_prior_steps(rng)
            try:
                g = gamma_of(prior_of(steps))
            except InvalidInput:
                continue
            assert 1 <= g <= 2
            _, e_sum, dist = oracles.vstar_stats(steps)
            e_v = sum(v * p for v, p in dist.items())
            assert g == e_sum / e_v

    def test_zero_prior_rejected(self):
        with pytest.raises(InvalidInput):
            gamma_of(zero_prior())


class TestSurplusInequalities:
    def test_random_priors(self):
        rng = random.Random(31415)
        for _ in range(25):
            steps = oracles.random_prior_steps(rng)
            prior = prior_of(steps)
            for alpha in (F(1, 4), F(1, 2), F(3, 4)):
                t_value = threshold_from_alpha(prior, alpha).threshold
                lhs = F(0)
                e_vplus = F(0)
                e_dims = {}
                for vecs, p in oracles.realizations(steps):
                    lhs += p * sum(max(oracles.l1(v) - t_value, 0)
                                   for v in vecs)
                    vstar = max(oracles.l1(v) for v in vecs)
                    e_vplus += p * max(vstar - t_value, 0)
                    smax = oracles.running_max(vecs)
                    for j, x in enumerate(smax):
                        e_dims[j] = e_dims.get(j, F(0)) + \
                            p * max(x - t_value, 0)
                assert lhs >= e_vplus
                assert lhs >= sum(e_dims.values())


class TestClassicalSanity:
    def test_rational_half_approximation(self):
        from lap.policies import optimal_rational_policy
        rng = random.Random(2718)
        for _ in range(20):
            steps = oracles.random_prior_steps(rng)
            prior = prior_of(steps)
            e_gr = optimal_rational_policy(prior).expected_utility
            _, _, dist = oracles.vstar_stats(steps)
            e_v = sum(v * p for v, p in dist.items())
            assert 2 * e_gr >= e_v


class TestSufferingProphet:
    def test_first_pick_beats_prophet(self):
        for k in (2, 3, 4):
            for lam in (F(1, 4), F(1), F(2)):
                for q in (F(1), F(5, 2)):
                    sigma = gen_identical_value(k, q)
                    params = AgentParams(lam, k)
                    first = stop_utility(sigma, 1, params)
                    assert first > offline_optimal_prophet_utility(
                        sigma, params)


# ---------------------------------------------------------------------------
# reduction diagnostics
# ---------------------------------------------------------------------------


def _rep(vecs):
    """A realized sequence's representation, as plain tuples."""
    return tuple(dict.fromkeys(v for v in vecs if any(v)))


def _reduction_case(rng, i):
    """Steps and a sigma for the reduction chains.  Every fourth prior is
    iid and every third has float probabilities, multiples of 1/8 so every
    float sum and product below is exact.  Values come from {0, 1, 2}^2,
    so zero atoms are common, and sigma mixes support points with two
    values that may be foreign to the prior (atoms off sigma are foreign)."""
    grid = [(F(a), F(b)) for a in range(3) for b in range(3)]

    def step():
        vecs = rng.sample(grid, rng.randint(1, 3))
        cuts = sorted(rng.sample(range(1, 8), len(vecs) - 1))
        eighths = [b - a for a, b in zip([0] + cuts, cuts + [8])]
        return [(v, e / 8 if i % 3 == 0 else F(e, 8))
                for v, e in zip(vecs, eighths)]

    n = rng.randint(1, 4)
    steps = [step()] * n if i % 4 == 0 else [step() for _ in range(n)]
    pool = sorted({v for s in steps for v, _ in s} | set(rng.sample(grid, 2)))
    sigma = rng.sample(pool, rng.randint(1, len(pool)))
    if not any(map(any, sigma)):
        sigma.append((F(1), F(1)))
    return steps, sigma


class TestReductionRates:
    def setup_method(self):
        sigma = seq((1, 0), (0, 1))
        self.sigma = sigma
        self.prior, self.meta = det_to_iid(
            sigma, AgentParams(F(1, 2), 2), F(1, 2),
            n_override=12, x_override=F(1, 4))

    def test_match_rate_tracks_exact_value(self):
        exact = oracles.representation_match_probability(
            [F(4, 5), F(1, 5)], 12)
        got = representation_probability(self.prior, self.sigma)
        assert got == exact and type(got) is F

    def test_inversion_rate_tracks_closed_form(self):
        got = inversion_probability(self.prior, self.sigma, 1)
        assert got == F(1, 4) / (1 + F(1, 4)) and type(got) is F

    def test_validation(self):
        with pytest.raises(InvalidInput,
                           match="no adjacent pair starts at index 2"):
            inversion_probability(self.prior, self.sigma, 2)
        with pytest.raises(InvalidInput, match="neither candidate"):
            inversion_probability(prior_of([[((F(2), F(0)), F(1))]]),
                                  self.sigma, 1)
        wide = seq((1, 0, 0), (0, 1, 0))
        with pytest.raises(InvalidInput, match="dimensions differ"):
            representation_probability(self.prior, wide)
        with pytest.raises(InvalidInput, match="dimensions differ"):
            inversion_probability(self.prior, wide, 1)

    def test_chains_match_bruteforce(self):
        """Both chains equal a sum over every realization, in value and
        type, on seeded iid and non-iid priors with zero atoms, foreign
        atoms, and float probabilities."""
        rng = random.Random(1212)
        seen = dict.fromkeys(("iid", "float", "zero", "foreign", "pair",
                              "undefined"), 0)
        for i in range(120):
            steps, sigma = _reduction_case(rng, i)
            prior = prior_of(steps)
            target = _rep(sigma)
            atoms = {v for s in steps for v, _ in s}
            seen["iid"] += prior.iid and prior.n > 1
            seen["float"] += i % 3 == 0
            seen["zero"] += (F(0), F(0)) in atoms
            seen["foreign"] += not atoms <= set(target) | {(F(0), F(0))}
            want = sum((p for vecs, p in oracles.realizations(steps)
                        if _rep(vecs) == target), F(0))
            got = representation_probability(prior, seq(*sigma))
            assert got == want and type(got) is type(want), i
            if len(target) < 2:
                with pytest.raises(InvalidInput, match="no adjacent pair"):
                    inversion_probability(prior, seq(*sigma), 1)
                continue
            index = rng.randint(1, len(target) - 1)
            lo, hi = target[index - 1], target[index]
            hi_first = either = F(0)
            n = len(steps)
            for vecs, p in oracles.realizations(steps):
                first = {}
                for t, v in enumerate(vecs):
                    first.setdefault(v, t)
                if lo in first or hi in first:
                    either += p
                    hi_first += p * (first.get(hi, n) < first.get(lo, n))
            if not either:
                seen["undefined"] += 1
                with pytest.raises(InvalidInput, match="neither candidate"):
                    inversion_probability(prior, seq(*sigma), index)
                continue
            seen["pair"] += 1
            got = inversion_probability(prior, seq(*sigma), index)
            want = hi_first / either
            assert got == want and type(got) is type(want), i
        assert min(seen.values()) > 0, seen
