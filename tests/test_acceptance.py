"""End-to-end gate: one test per headline claim the package must reproduce.

Every scenario here is self-contained: explicit instances, explicit expected
numbers, exact rational arithmetic with zero tolerance.  Each test also
asserts its own wall-clock budget so the gate stays cheap.
"""

import random
import time
from fractions import Fraction as F

import oracles
from oracles import stop_utility
from lap.core import (
    AgentParams,
    FiniteDistribution,
    ProductPrior,
    Sequence,
    ValueVector,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
)
from lap.instances import (
    det_to_iid,
    gen_alternating_geometric,
    gen_alternating_linear,
    gen_dominance_pair,
    gen_identical_value,
    gen_quality_pair,
    gen_random_prior,
    gen_salient_feature,
    gen_worstcase_mixed,
    reduction_probabilities,
    rows_for_slack,
)
from lap.policies import (
    Policy,
    compile_policy,
    optimal_biased_policy,
    patience_compare,
    run_rule,
)
from lap.analysis import (
    detect_quality_paradox,
    exact_expectation,
    inversion_probability,
    ratio_report,
    representation_probability,
    verify_online_bound,
    verify_prophet_bound,
)


def det_prior(sigma):
    return ProductPrior.deterministic(sigma)


def prior_from_steps(steps):
    """Package prior from the plain list-of-steps form the oracles use."""
    return ProductPrior(tuple(
        FiniteDistribution(tuple((ValueVector(v), p) for v, p in step))
        for step in steps))


def expected_stop_value(policy, prior, params):
    """Expected raw value of the candidate the compiled policy takes."""
    rule = compile_policy(policy, prior, params).draw_rule(random.Random(0))
    total = F(0)
    for vecs, p in oracles.realizations(d.atoms for d in prior.steps):
        total += p * run_rule(rule, Sequence(vecs), params).value
    return total


def rows_of(n, k):
    return -(-n // k)


def test_geometric_family_headline_ratios():
    """Alternating-geometric scenes at lam=2, k=2: the biased optimum is 1,
    both ratios equal 2^(n/2-1), and taking the (4,0) candidate at step five
    nets exactly 4 - 2*(6 - 4) = 0.  Exact, zero tolerance; under 1 s."""
    t0 = time.perf_counter()
    params = AgentParams(F(2), 2)
    for n in (2, 4, 6, 8, 10):
        sigma = gen_alternating_geometric(n, 2, F(2))
        rep = ratio_report(det_prior(sigma), params)
        assert rep.e_gambler_biased_opt == 1
        assert rep.prophet_ratio == F(2) ** (n // 2 - 1)
        assert rep.online_ratio == F(2) ** (n // 2 - 1)
        if n >= 6:
            assert sigma.candidates[4].entries == (4, 0)
            assert stop_utility(sigma, 5, params) == 0
    assert time.perf_counter() - t0 < 1.0


def test_supercritical_and_critical_growth():
    """Above the bias threshold the prophet ratio of the geometric scene is
    beta^(rows-1) and every new-row pick past the first nets exactly 0; at
    the threshold the linear scene pins every new-row pick to exactly 1 and
    the ratio to the row count.  Exact, zero tolerance; under 1 s."""
    t0 = time.perf_counter()
    for k in (2, 3, 4):
        for beta in (F(3, 2), F(2), F(3)):
            lam = beta / (k - 1)
            params = AgentParams(lam, k)
            assert params.bias == beta > 1
            for n in (k + 1, 2 * k, 3 * k + 1):
                sigma = gen_alternating_geometric(n, k, beta)
                rep = ratio_report(det_prior(sigma), params)
                rows = rows_of(n, k)
                assert rep.e_prophet_rational == beta ** (rows - 1)
                assert rep.e_gambler_biased_opt == 1
                assert rep.prophet_ratio == beta ** (rows - 1)
                assert stop_utility(sigma, 1, params) == 1
                for r in range(1, rows):
                    if r * k + 1 <= n:
                        u = stop_utility(sigma, r * k + 1, params)
                        assert u == 0
        lam = F(1, k - 1)
        params = AgentParams(lam, k)
        assert params.bias == 1
        for n in (k + 1, 2 * k, 3 * k + 1):
            sigma = gen_alternating_linear(n, k)
            rep = ratio_report(det_prior(sigma), params)
            rows = rows_of(n, k)
            assert rep.prophet_ratio == rows
            assert rep.e_gambler_biased_opt == 1
            for r in range(rows):
                if r * k + 1 <= n:
                    u = stop_utility(sigma, r * k + 1, params)
                    assert u == 1
    assert time.perf_counter() - t0 < 1.0


def test_subcritical_guarantee_sweep():
    """200 seeded random priors (n <= 4, <= 3 atoms per step, k in {1,2,3},
    bias below 1): the best of the two threshold arms clears
    (1-bias)*max(gamma/(1+lam+k), 1/(2+lam))*E[V*], the rational-to-biased
    ratio stays within (1+lam)/(1-bias), and the rational gambler keeps half
    the prophet value.  Exact, zero violations allowed; under 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    lam_grid = {
        1: (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2)),
        2: (F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(4, 5)),
        3: (F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(9, 20)),
    }
    checked = 0
    for _ in range(200):
        k = rng.choice((1, 2, 3))
        lam = rng.choice(lam_grid[k])
        params = AgentParams(lam, k)
        assert params.bias < 1
        prior = gen_random_prior(rng, k=k, n_max=4, atoms_max=3)
        guard = verify_prophet_bound(prior, params)
        assert guard.passed, guard
        assert guard.detail["best_threshold_expectation"] >= guard.rhs
        online = verify_online_bound(prior, params)
        assert online.passed, online
        rep = ratio_report(prior, params)
        assert 2 * rep.e_gambler_rational_opt >= rep.e_prophet_rational
        checked += 1
    assert checked == 200
    assert time.perf_counter() - t0 < 60.0


def test_worstcase_mixed_tightness():
    """The mixed worst case at lam=1/2, k=2 pushes both ratios past 90
    percent of their ceilings (4.5 of 5 and 2.7 of 3) once the row count
    drives the geometric slack under eps=1/20; the documented w=2, eps=1/5
    instance pins E[V*]=3, biased optimum 1, accept-last expectation 9/20.
    Exact, zero tolerance; under 1 s."""
    t0 = time.perf_counter()
    params = AgentParams(F(1, 2), 2)
    assert rows_for_slack(F(1, 2), 2, F(1, 20)) == 5
    tight = gen_worstcase_mixed(5, 2, F(1, 2), F(1, 20))
    rep = ratio_report(tight, params)
    assert rep.prophet_ratio == F(589, 128)
    assert rep.online_ratio == F(1767, 640)
    assert rep.prophet_ratio >= F(9, 10) * F(5, 2) / F(1, 2)
    assert rep.online_ratio >= F(9, 10) * F(3, 2) / F(1, 2)
    doc = gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5))
    drep = ratio_report(doc, params)
    assert drep.e_prophet_rational == 3
    assert drep.e_gambler_biased_opt == 1
    assert exact_expectation(doc, Policy.accept_last(), params) == F(9, 20)
    assert time.perf_counter() - t0 < 1.0


def test_reduction_probabilities_and_rates():
    """Reduction atom probabilities always sum to 1 and the m=2, x=1/4 pair
    is (4/5, 1/5) exactly; over 50 iid draws the probability of the
    first-occurrence match equals the oracle chain and every adjacent
    inversion probability equals x/(1+x), for m = 2..5 and four x.  Exact,
    zero tolerance; under 5 s."""
    t0 = time.perf_counter()
    for m in (2, 3, 4, 5):
        sigma = Sequence(tuple(ValueVector((F(i), F(0)))
                               for i in range(1, m + 1)))
        for x in (F(1, 4), F(1, 2), F(2, 3), F(9, 10)):
            probs = reduction_probabilities(m, x)
            assert sum(probs) == 1
            prior, meta = det_to_iid(sigma, AgentParams(F(1, 2), 2),
                                     F(1, 2), n_override=50, x_override=x)
            assert meta.m == m and meta.x == x
            assert prior.n == 50 and prior.iid
            assert representation_probability(prior, sigma) == \
                oracles.representation_match_probability(probs, 50)
            for index in range(1, m):
                assert inversion_probability(prior, sigma, index) == \
                    x / (1 + x)
    assert reduction_probabilities(2, F(1, 4)) == (F(4, 5), F(1, 5))
    sigma = Sequence((ValueVector((F(1), F(0))), ValueVector((F(0), F(1)))))
    prior, _ = det_to_iid(sigma, AgentParams(F(1, 2), 2), F(1, 2),
                          n_override=50, x_override=F(1, 4))
    assert representation_probability(prior, sigma) == \
        oracles.representation_match_probability([F(4, 5), F(1, 5)], 50)
    assert inversion_probability(prior, sigma, 1) == F(1, 5)
    assert time.perf_counter() - t0 < 5.0


def test_dp_matches_history_bruteforce():
    """100 seeded priors with up to three steps: backward induction equals
    direct maximization over every history-dependent deterministic stopping
    rule, and equals the literal enumeration of all such rules whenever the
    decision tree is small enough.  Exact, zero tolerance; under 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(60002)
    lam_grid = (F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2))
    for i in range(100):
        k = rng.choice((1, 2, 3))
        lam = rng.choice(lam_grid)
        steps = oracles.random_prior_steps(rng, n_max=3, atoms_max=3, k=k)
        prior = prior_from_steps(steps)
        allow = bool(i % 2)
        got = optimal_biased_policy(prior, AgentParams(lam, k))
        want = oracles.history_optimal(steps, lam, allow_no_selection=allow)
        assert got.expected_utility == want
        nodes, width = 0, 1
        for step in steps:
            width *= len(step)
            nodes += width
        if nodes <= 12:
            literal = oracles.enumerate_policies_optimal(
                steps, lam, allow_no_selection=allow)
            assert got.expected_utility == literal
    assert time.perf_counter() - t0 < 60.0


def test_patience_and_value_monotonicity():
    """100 seeded priors: the lam=1/5 optimum stops everywhere no earlier
    than the lam=4/5 optimum and earns at least its expected raw value;
    appending a step never lowers the biased optimum; prepending a candidate
    to a deterministic scene keeps at least a 1/(1+lam) share of the old
    optimum.  Exact, zero violations allowed; under 120 s."""
    t0 = time.perf_counter()
    rng = random.Random(70007)
    patient, hasty = Policy.optimal_biased(F(1, 5)), \
        Policy.optimal_biased(F(4, 5))
    lam_grid = (F(1, 4), F(1, 2), F(1), F(2))
    for _ in range(100):
        k = rng.choice((1, 2, 3))
        steps = oracles.random_prior_steps(rng, n_max=3, atoms_max=3, k=k)
        prior = prior_from_steps(steps)
        base_params = AgentParams(F(1, 5), k)
        verdict = patience_compare(patient, hasty, prior, base_params)
        assert verdict.verdict == "more-patient", verdict
        assert expected_stop_value(patient, prior, base_params) >= \
            expected_stop_value(hasty, prior, base_params)

        lam = rng.choice(lam_grid)
        params = AgentParams(lam, k)
        base = optimal_biased_policy(prior, params).expected_utility
        extra = oracles.random_prior_steps(rng, n_max=1, atoms_max=3, k=k)
        longer = prior_from_steps(steps + extra)
        assert optimal_biased_policy(longer, params).expected_utility >= base

        vecs = oracles.random_sequence(rng, n_max=4, k=k)
        front = tuple(rng.choice(oracles.VALUE_GRID) for _ in range(k))
        tail = Sequence(tuple(ValueVector(v) for v in vecs))
        whole = Sequence((ValueVector(front),) + tail.candidates)
        u = offline_optimal_biased(tail, params).utility
        v = offline_optimal_biased(whole, params).utility
        assert v >= u / (1 + lam)
        for allow in (False, True):  # walking away never beats a pick
            assert u == oracles.offline_best(vecs, lam, allow)
            assert v == oracles.offline_best((front,) + tuple(vecs), lam,
                                             allow)
    assert time.perf_counter() - t0 < 120.0


def test_behavioral_closed_forms():
    """Identical-value and salient-feature scenes reproduce their closed-form
    utilities q(1-lam(k-1)), q(1-lam(t-1)), ak+q(1-lam(k-1)) and
    ar+q(1-lam(r-1)) over a (k, q, a, lam) grid; the quality paradox hits
    the prophet exactly when lam(k-1) > 1 and never the gambler; dominance
    pairs score exactly 1+eps against 1 for both agents.  Exact, zero
    tolerance; under 1 s."""
    t0 = time.perf_counter()
    lams = (F(1, 4), F(1, 2), F(1), F(3, 2), F(2))
    for k in (2, 3, 4):
        for q in (F(2), F(5, 2)):
            ident = gen_identical_value(k, q)
            for lam in lams:
                params = AgentParams(lam, k)
                assert offline_optimal_prophet_utility(ident, params) == \
                    q * (1 - lam * (k - 1))
                for t in range(1, k + 1):
                    assert stop_utility(ident, t, params) == \
                        q * (1 - lam * (t - 1))
            for a in (F(1), F(3, 4)):
                for lam in lams:
                    whole = gen_salient_feature(k, a, q)
                    assert offline_optimal_prophet_utility(
                        whole, AgentParams(lam, k)) == \
                        a * k + q * (1 - lam * (k - 1))
                    for r in range(1, k + 1):
                        part = gen_salient_feature(r, a, q)
                        params = AgentParams(lam, r)
                        want = a * r + q * (1 - lam * (r - 1))
                        assert offline_optimal_prophet_utility(
                            part, params) == want
                        assert stop_utility(part, r, params) == want
    for k in (2, 3, 4):
        for lam in (F(1, 4), F(1, 2), F(1, k - 1), F(3, 2), F(2)):
            low, high = gen_quality_pair(k, F(2))
            report = detect_quality_paradox(low, high, AgentParams(lam, k))
            assert report.gambler_better_on_higher
            assert report.prophet_worse_on_higher == (lam * (k - 1) > 1)
    for k, n, lam, eps in ((2, 4, F(1), F(1, 2)), (3, 5, F(1), F(1, 2)),
                           (2, 7, F(2), F(1, 4))):
        base, dom = gen_dominance_pair(k, n, lam, eps)
        params = AgentParams(lam, k)
        assert offline_optimal_biased(base, params).utility == 1 + eps
        assert offline_optimal_biased(dom, params).utility == 1
        assert offline_optimal_prophet_utility(base, params) == 1 + eps
        assert offline_optimal_prophet_utility(dom, params) == 1
    assert time.perf_counter() - t0 < 1.0
