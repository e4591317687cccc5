"""Generator families and the deterministic-to-iid reduction."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import pointwise_dominates, stop_utility
from lap import instances
from lap.core import (
    AgentParams,
    InvalidInput,
    ProductPrior,
    ResourceLimit,
    Sequence,
    ValueVector,
    higher_quality,
    is_succinct,
    max_value,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
    representation,
)
from lap.instances import (
    ReductionMeta,
    det_to_iid,
    gen_alternating_geometric,
    gen_alternating_linear,
    gen_dominance_pair,
    gen_identical_value,
    gen_partial_sums,
    gen_quality_pair,
    gen_random_prior,
    gen_salient_feature,
    gen_worstcase_mixed,
    iid_gap_bound_variants,
    random_prior_draws,
    reduction_probabilities,
    rows_for_slack,
)


def entries(sigma):
    return tuple(c.entries for c in sigma.candidates)


# ---------------------------------------------------------------------------
# alternating geometric
# ---------------------------------------------------------------------------


class TestAlternatingGeometric:
    def test_motivating_rows(self):
        sigma = gen_alternating_geometric(6, 2, F(2))
        assert entries(sigma) == (
            (1, 0), (0, 1), (2, 0), (0, 2), (4, 0), (0, 4))

    def test_single_candidate(self):
        assert entries(gen_alternating_geometric(1, 3, F(2))) == ((1, 0, 0),)

    def test_k3_rotation(self):
        sigma = gen_alternating_geometric(5, 3, F(3))
        assert entries(sigma) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (0, 3, 0))

    def test_row_first_picks_have_zero_utility(self):
        # beta = lam*(k-1) > 1: every pick that opens row i >= 2 nets zero
        for k, lam in ((2, F(2)), (3, F(1))):
            beta = lam * (k - 1)
            sigma = gen_alternating_geometric(4 * k, k, beta)
            for i in range(2, 5):
                t = k * (i - 1) + 1
                assert stop_utility(sigma, t, AgentParams(lam, k)) == 0

    def test_documented_pick_value_four(self):
        sigma = gen_alternating_geometric(6, 2, F(2))
        assert sigma.candidates[4].entries == (4, 0)
        assert stop_utility(sigma, 5, AgentParams(F(2), 2)) == 4 - 2 * (6 - 4)

    def test_offline_optimal_is_one_supercritical(self):
        for n in (2, 4, 6, 8):
            sigma = gen_alternating_geometric(n, 2, F(2))
            out = offline_optimal_biased(sigma, AgentParams(F(2), 2))
            assert out.utility == 1
            assert out.selection == 1

    def test_prophet_gap_growth(self):
        # max value / offline biased = beta^(ceil(n/k)-1), increasing in n
        lam, k = F(2), 2
        prev = None
        for n in (2, 4, 6, 8, 10):
            sigma = gen_alternating_geometric(n, k, lam * (k - 1))
            gap = max_value(sigma) / offline_optimal_biased(
                sigma, AgentParams(lam, k)).utility
            assert gap == F(2) ** (math.ceil(n / k) - 1)
            if prev is not None:
                assert gap > prev
            prev = gap

    def test_succinct(self):
        assert is_succinct(gen_alternating_geometric(7, 3, F(3, 2)))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_alternating_geometric(0, 2, F(2))
        with pytest.raises(InvalidInput):
            gen_alternating_geometric(4, 0, F(2))
        with pytest.raises(InvalidInput):
            gen_alternating_geometric(4, 2, F(0))

    @given(st.integers(1, 12), st.integers(1, 4))
    def test_rows_match_formula(self, n, k):
        beta = F(3, 2)
        sigma = gen_alternating_geometric(n, k, beta)
        assert sigma.n == n and sigma.k == k
        for t in range(1, n + 1):
            row = math.ceil(t / k)
            dim = t % k or k
            vec = sigma.candidates[t - 1]
            assert vec.entries[dim - 1] == beta ** (row - 1)
            assert vec.l1 == beta ** (row - 1)


# ---------------------------------------------------------------------------
# alternating linear
# ---------------------------------------------------------------------------


class TestAlternatingLinear:
    def test_rows(self):
        assert entries(gen_alternating_linear(4, 2)) == (
            (1, 0), (0, 1), (2, 0), (0, 2))

    def test_one_dimensional(self):
        assert entries(gen_alternating_linear(5, 1)) == (
            (1,), (2,), (3,), (4,), (5,))

    def test_critical_row_first_utility_one(self):
        # lam*(k-1) = 1: i - (i-1) = 1 for every row-opening pick
        for k, lam in ((2, F(1)), (3, F(1, 2)), (4, F(1, 3))):
            sigma = gen_alternating_linear(3 * k, k)
            for i in (1, 2, 3):
                assert stop_utility(
                    sigma, k * (i - 1) + 1, AgentParams(lam, k)) == 1

    def test_offline_optimal_critical(self):
        sigma = gen_alternating_linear(6, 2)
        out = offline_optimal_biased(sigma, AgentParams(F(1), 2))
        assert out.utility == 1

    def test_prophet_value(self):
        for n, k in ((6, 2), (7, 3), (5, 1)):
            assert max_value(gen_alternating_linear(n, k)) == math.ceil(n / k)

    def test_succinct(self):
        assert is_succinct(gen_alternating_linear(9, 3))


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


class TestPartialSums:
    def test_rows(self):
        sigma = gen_partial_sums(2, 2, F(1, 2))
        assert entries(sigma) == (
            (1, 0), (0, 1), (F(3, 2), 0), (0, F(3, 2)))

    def test_single_row_unit_vectors(self):
        assert entries(gen_partial_sums(1, 3, F(1, 2))) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_row_first_utility_exactly_one(self):
        # with beta = lam*(k-1) < 1 the partial sums telescope to exactly 1
        for k, lam, w in ((2, F(1, 2), 4), (3, F(1, 4), 3), (4, F(1, 5), 3)):
            beta = lam * (k - 1)
            sigma = gen_partial_sums(w, k, beta)
            for i in range(w):
                assert stop_utility(
                    sigma, i * k + 1, AgentParams(lam, k)) == 1

    def test_succinct(self):
        assert is_succinct(gen_partial_sums(3, 2, F(1, 3)))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_partial_sums(0, 2, F(1, 2))


# ---------------------------------------------------------------------------
# worst-case mixed prior
# ---------------------------------------------------------------------------


class TestWorstcaseMixed:
    def test_documented_instance_shape(self):
        prior = gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5))
        assert prior.n == 5 and prior.k == 2
        det = gen_partial_sums(2, 2, F(1, 2))
        for step, vec in zip(prior.steps[:4], det.candidates):
            assert step.atoms == ((vec, F(1)),)
        last = dict(prior.steps[4].atoms)
        assert last[ValueVector((F(9), F(0)))] == F(1, 5)
        assert last[ValueVector((F(0), F(0)))] == F(4, 5)

    def test_expected_best_value(self):
        prior = gen_worstcase_mixed(2, 2, F(1, 2), F(1, 5))
        steps = [[(v.entries, p) for v, p in s.atoms] for s in prior.steps]
        e_vstar, _, _ = oracles.vstar_stats(steps)
        assert e_vstar == 3
        # closed form (1-eps)(2+lam)(1-beta^w)/(1-beta)
        assert e_vstar == F(4, 5) * F(5, 2) * (1 - F(1, 4)) / (1 - F(1, 2))

    def test_big_atom_closed_form(self):
        for w, k, lam, eps in ((2, 2, F(1, 2), F(1, 5)),
                               (3, 3, F(1, 4), F(1, 10)),
                               (1, 2, F(3, 4), F(1, 2))):
            beta = lam * (k - 1)
            prior = gen_worstcase_mixed(w, k, lam, eps)
            psum = sum(beta ** j for j in range(w))
            big = max(v.l1 for v, _ in prior.steps[-1].atoms)
            assert big == (1 - eps) * (1 + lam) * psum / eps

    def test_waiting_for_last_is_bounded(self):
        # expected utility of holding out for the final candidate stays
        # strictly under (1-eps)(1-beta^w), itself strictly under 1
        for w, k, lam, eps in ((2, 2, F(1, 2), F(1, 5)),
                               (3, 2, F(1, 3), F(1, 7)),
                               (2, 3, F(1, 4), F(1, 4))):
            beta = lam * (k - 1)
            prior = gen_worstcase_mixed(w, k, lam, eps)
            steps = [[(v.entries, p) for v, p in s.atoms] for s in prior.steps]
            expect = F(0)
            for vecs, p in oracles.realizations(steps):
                expect += p * oracles.gambler_utility(vecs, len(vecs), lam)
            bound = (1 - eps) * (1 - beta ** w)
            assert expect <= bound < 1

    def test_near_one_epsilon_shrinks_last_atom(self):
        prior = gen_worstcase_mixed(2, 2, F(1, 2), F(99, 100))
        big = max(v.l1 for v, _ in prior.steps[-1].atoms)
        assert 0 < big < F(1, 20)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_worstcase_mixed(2, 2, F(1, 2), F(0))
        with pytest.raises(InvalidInput):
            gen_worstcase_mixed(2, 2, F(1, 2), F(1))
        with pytest.raises(InvalidInput):
            gen_worstcase_mixed(2, 2, F(1), F(1, 5))  # bias = 1


# ---------------------------------------------------------------------------
# behavioral families
# ---------------------------------------------------------------------------


class TestIdenticalValue:
    def test_rows(self):
        assert entries(gen_identical_value(3, F(2))) == (
            (2, 0, 0), (0, 2, 0), (0, 0, 2))

    def test_prophet_utility_any_pick(self):
        k, q, lam = 3, F(2), F(1)
        sigma = gen_identical_value(k, q)
        for t in range(1, k + 1):
            assert oracles.prophet_utility(entries(sigma), t, lam) == \
                q * (1 - lam * (k - 1))

    def test_gambler_utility_by_stop_index(self):
        k, q = 4, F(3)
        sigma = gen_identical_value(k, q)
        for lam in (F(0), F(1, 2), F(2)):
            for t in range(1, k + 1):
                expected = q * (1 - lam * (t - 1))
                assert stop_utility(
                    sigma, t, AgentParams(lam, k)) == expected

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_identical_value(0, F(2))
        with pytest.raises(InvalidInput):
            gen_identical_value(3, F(0))


class TestSalientFeature:
    def test_rows(self):
        assert entries(gen_salient_feature(3, F(1), F(2))) == (
            (3, 1, 1), (1, 3, 1), (1, 1, 3))

    def test_prophet_utility_any_pick(self):
        k, a, q, lam = 3, F(1), F(2), F(1, 2)
        sigma = gen_salient_feature(k, a, q)
        for t in range(1, k + 1):
            assert oracles.prophet_utility(entries(sigma), t, lam) == \
                a * k + q * (1 - lam * (k - 1))

    def test_gambler_utility_fixed_dimension(self):
        # stopping at r inside a k-dimensional instance
        k, a, q, lam = 4, F(1), F(3), F(1, 2)
        sigma = gen_salient_feature(k, a, q)
        for r in range(1, k + 1):
            assert stop_utility(sigma, r, AgentParams(lam, k)) == \
                a * k + q * (1 - lam * (r - 1))

    def test_gambler_utility_last_of_r_dimensions(self):
        # instantiated at dimension r and stopped on the final candidate,
        # the fixed-dimension form collapses to ar + q(1 - lam(r-1))
        a, q, lam = F(2), F(3), F(1, 3)
        for r in range(1, 5):
            sigma = gen_salient_feature(r, a, q)
            assert stop_utility(sigma, r, AgentParams(lam, r)) == \
                a * r + q * (1 - lam * (r - 1))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_salient_feature(2, F(0), F(2))
        with pytest.raises(InvalidInput):
            gen_salient_feature(2, F(1), F(1))


class TestQualityPair:
    def test_construction(self):
        low, high = gen_quality_pair(2, F(2))
        assert entries(low) == ((2, 0), (0, 2))
        assert entries(high) == ((4, 0), (0, 4))

    def test_higher_quality_holds(self):
        low, high = gen_quality_pair(3, F(3, 2))
        assert higher_quality(high, low)
        assert not higher_quality(low, high)

    def test_prophet_prefers_lower_quality_when_bias_large(self):
        low, high = gen_quality_pair(2, F(2))
        lam = F(3, 2)  # lam > 1/(k-1)
        u_low = offline_optimal_prophet_utility(low, AgentParams(lam, 2))
        u_high = offline_optimal_prophet_utility(high, AgentParams(lam, 2))
        assert u_low == -1 and u_high == -2
        assert u_low > u_high

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_quality_pair(1, F(2))
        with pytest.raises(InvalidInput):
            gen_quality_pair(2, F(1))


class TestDominancePair:
    def test_construction(self):
        base, dom = gen_dominance_pair(3, 4, F(1), F(1, 2))
        assert entries(base) == (
            (1, 0, 0), (1, 0, 0), (1, 0, 0), (F(3, 2), 0, 0))
        assert entries(dom) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0))

    def test_dominance_holds(self):
        base, dom = gen_dominance_pair(3, 4, F(1), F(1, 2))
        assert pointwise_dominates(dom, base)

    def test_gambler_optimal_utilities(self):
        base, dom = gen_dominance_pair(3, 4, F(1), F(1, 2))
        params = AgentParams(F(1), 3)
        assert offline_optimal_biased(base, params).utility == F(3, 2)
        assert offline_optimal_biased(dom, params).utility == 1

    def test_prophet_optimal_utilities(self):
        base, dom = gen_dominance_pair(3, 4, F(1), F(1, 2))
        params = AgentParams(F(1), 3)
        assert offline_optimal_prophet_utility(base, params) == F(3, 2)
        assert offline_optimal_prophet_utility(dom, params) == 1

    def test_longer_instances(self):
        base, dom = gen_dominance_pair(2, 7, F(2), F(1, 4))
        params = AgentParams(F(2), 2)
        assert pointwise_dominates(dom, base)
        assert offline_optimal_biased(base, params).utility == F(5, 4)
        assert offline_optimal_biased(dom, params).utility == 1

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_dominance_pair(3, 4, F(1), F(2))  # eps >= beta
        with pytest.raises(InvalidInput):
            gen_dominance_pair(1, 4, F(1), F(1, 2))  # beta = 0
        with pytest.raises(InvalidInput):
            gen_dominance_pair(3, 3, F(1), F(1, 2))  # too short to cycle


# ---------------------------------------------------------------------------
# deterministic-to-iid reduction
# ---------------------------------------------------------------------------

PARAMS_22 = AgentParams(F(2), 2)


def two_candidate_sequence():
    return Sequence((ValueVector((F(1), F(0))), ValueVector((F(0), F(1)))))


class TestReductionProbabilities:
    def test_m2_quarter(self):
        assert reduction_probabilities(2, F(1, 4)) == (F(4, 5), F(1, 5))

    def test_m3_third(self):
        assert reduction_probabilities(3, F(1, 3)) == (
            F(9, 13), F(3, 13), F(1, 13))

    @given(st.integers(2, 7), st.fractions(min_value=F(1, 100),
                                           max_value=F(99, 100)))
    def test_sum_exactly_one(self, m, x):
        probs = reduction_probabilities(m, x)
        assert sum(probs) == 1
        assert all(p > 0 for p in probs)

    @given(st.integers(2, 6), st.fractions(min_value=F(1, 50),
                                           max_value=F(9, 10)))
    def test_adjacent_inversion_ratio(self, m, x):
        probs = reduction_probabilities(m, x)
        for i in range(m - 1):
            assert probs[i + 1] / (probs[i] + probs[i + 1]) == x / (1 + x)


class TestDetToIid:
    def test_x_override_atoms(self):
        sigma = two_candidate_sequence()
        prior, meta = det_to_iid(sigma, AgentParams(F(1, 2), 2), F(1, 2),
                                 n_override=6, x_override=F(1, 4))
        assert prior.iid and prior.n == 6 and prior.k == 2
        atoms = dict(prior.steps[0].atoms)
        assert atoms[sigma.candidates[0]] == F(4, 5)
        assert atoms[sigma.candidates[1]] == F(1, 5)
        assert meta.m == 2 and meta.x == F(1, 4)
        assert meta.alpha_exp == pytest.approx(2.0)
        assert meta.nominal_n == 2
        assert meta.epsilon == F(1, 2)
        assert meta.log_base == "e"

    def test_x_override_base_two(self):
        sigma = two_candidate_sequence()
        _, meta = det_to_iid(sigma, AgentParams(F(1, 2), 2), F(1, 2),
                             n_override=4, x_override=F(1, 4), log_base=2)
        assert meta.nominal_n == 4
        assert meta.log_base == "2"

    def test_default_alpha_exact_case(self):
        # max value 2, offline biased 1, eps 1/2 -> alpha = log_4(4) + 2 = 3
        sigma = gen_alternating_geometric(4, 2, F(2))
        prior, meta = det_to_iid(sigma, PARAMS_22, F(1, 2), n_override=10)
        assert meta.m == 4
        assert meta.alpha_exp == pytest.approx(3.0)
        assert meta.x == F(1, 64)
        assert meta.nominal_n == 698404
        atoms = dict(prior.steps[0].atoms)
        assert sum(atoms.values()) == 1
        assert atoms[sigma.candidates[0]] == \
            F(1, 64) ** 0 * (1 - F(1, 64)) / (1 - F(1, 64) ** 4)

    def test_meta_x_matches_exponent(self):
        sigma = gen_alternating_geometric(4, 2, F(2))
        _, meta = det_to_iid(sigma, PARAMS_22, F(1, 3), n_override=5)
        assert float(meta.x) == pytest.approx(meta.m ** -meta.alpha_exp)
        assert 0 < meta.x < 1

    def test_infeasible_without_override(self):
        sigma = gen_alternating_geometric(6, 2, F(2))
        with pytest.raises(ResourceLimit) as err:
            det_to_iid(sigma, PARAMS_22, F(1, 10))
        assert err.value.nominal_n == 66042705435139296
        assert "66042705435139296" in str(err.value)

    def test_budget_caps_n_override(self):
        sigma = two_candidate_sequence()
        params = AgentParams(F(1, 2), 2)
        prior, meta = det_to_iid(sigma, params, F(1, 2), n_override=10,
                                 x_override=F(1, 4), budget=10)
        assert prior.n == 10
        with pytest.raises(ResourceLimit, match="candidate count 11 exceeds "
                           "budget 10") as err:
            det_to_iid(sigma, params, F(1, 2), n_override=11,
                       x_override=F(1, 4), budget=10)
        assert err.value.nominal_n == meta.nominal_n == 2

    def test_small_nominal_runs_without_override(self):
        sigma = two_candidate_sequence()
        prior, meta = det_to_iid(sigma, AgentParams(F(1, 2), 2), F(1, 2),
                                 x_override=F(1, 4))
        assert prior.n == meta.nominal_n == 2

    def test_rejects_non_succinct(self):
        dup = Sequence((ValueVector((F(1), F(0))),) * 2)
        with pytest.raises(InvalidInput):
            det_to_iid(dup, PARAMS_22, F(1, 2), n_override=4)
        zero = Sequence((ValueVector((F(1), F(0))),
                         ValueVector((F(0), F(0)))))
        with pytest.raises(InvalidInput):
            det_to_iid(zero, PARAMS_22, F(1, 2), n_override=4)

    def test_rejects_short_sequences_and_bad_eps(self):
        single = Sequence((ValueVector((F(1), F(0))),))
        with pytest.raises(InvalidInput):
            det_to_iid(single, PARAMS_22, F(1, 2), n_override=4)
        with pytest.raises(InvalidInput):
            det_to_iid(two_candidate_sequence(), PARAMS_22, F(0),
                       n_override=4)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_unprintable_probabilities_refused_before_computed(
            self, monkeypatch):
        # x is a binary float, so x^(m-1) has ~20 digits per candidate
        def computed(*args):
            raise AssertionError("probabilities computed before refusal")

        monkeypatch.setattr(instances, "reduction_probabilities", computed)
        sigma = Sequence(tuple(ValueVector((F(i),)) for i in range(1, 401)))
        with pytest.raises(ResourceLimit) as err:
            det_to_iid(sigma, AgentParams(F(1, 2), 1), F(1, 2), n_override=5)
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == \
            f"a number past {limit} digits cannot be printed"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_digit_refusal_is_tight_and_sound(self):
        # x = 2^-64: p_1's numerator 2^(64(m-1)) has 636 digits at m = 34
        # and 656 at m = 35, against a limit of 640
        params, x = AgentParams(F(1, 2), 1), F(1, 2 ** 64)

        def reduce(m):
            sigma = Sequence(tuple(ValueVector((F(i),))
                                   for i in range(1, m + 1)))
            return det_to_iid(sigma, params, F(1, 2), n_override=2,
                              x_override=x)

        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            prior, _ = reduce(34)
            assert len(str(prior.steps[0].atoms[0][1].numerator)) == 636
            with pytest.raises(ResourceLimit, match="past 640 digits"):
                reduce(35)
            with pytest.raises(ValueError):
                str(reduction_probabilities(35, x)[0])
            sys.set_int_max_str_digits(0)  # no limit: nothing is refused
            assert reduce(35)[0].steps[0].atoms[0][1] == \
                reduction_probabilities(35, x)[0]
        finally:
            sys.set_int_max_str_digits(old)

    def test_per_candidate_miss_bound(self):
        # Pr[atom i absent] = (1-p_i)^n <= (1 - x^(m-1)/m)^n; the tightest
        # atom is the last one, whose probability is x^(m-1) shrunk by the
        # normalizer (1-x)/(1-x^m) >= 1/m
        n = 20
        for m, x in ((2, F(1, 4)), (3, F(1, 3)), (4, F(1, 2))):
            probs = reduction_probabilities(m, x)
            cap = (1 - x ** (m - 1) / m) ** n
            for p in probs:
                assert (1 - p) ** n <= cap

    def test_match_probability_oracle_against_sampling(self):
        sigma = two_candidate_sequence()
        prior, meta = det_to_iid(sigma, AgentParams(F(1, 2), 2), F(1, 2),
                                 n_override=12, x_override=F(1, 4))
        exact = oracles.representation_match_probability([F(4, 5), F(1, 5)], 12)
        assert exact == F(178535284, 244140625)
        rng = random.Random(20240814)
        atoms = prior.steps[0].atoms
        cum = []
        acc = 0.0
        for vec, p in atoms:
            acc += float(p)
            cum.append((acc, vec))
        trials = 20000
        hits = 0
        for _ in range(trials):
            draws = []
            for _ in range(12):
                u = rng.random()
                for edge, vec in cum:
                    if u < edge:
                        draws.append(vec)
                        break
                else:
                    draws.append(cum[-1][1])
            realized = Sequence(tuple(draws))
            if representation(realized).candidates == sigma.candidates:
                hits += 1
        freq = hits / trials
        sd = math.sqrt(float(exact) * (1 - float(exact)) / trials)
        assert abs(freq - float(exact)) <= 3 * sd


class TestRowsForSlack:
    def test_documented_value(self):
        assert rows_for_slack(F(1, 2), 2, F(1, 20)) == 5

    def test_guarantees_slack(self):
        # the last two miss ceil(log eps / log beta) by float rounding: the
        # ratio reads 29.000000000000004 (w = 29, found by stepping down)
        # and 4.999999999999999 (w = 6, found by stepping up)
        for lam, k, eps in ((F(1, 2), 2, F(1, 20)), (F(1, 4), 3, F(1, 9)),
                            (F(2, 5), 2, F(3, 100)),
                            (F(1, 2), 2, F(1, 2 ** 29)),
                            (F(1, 3), 2, F(1, 3 ** 5) * (1 - F(1, 10 ** 20)))):
            beta = lam * (k - 1)
            w = rows_for_slack(lam, k, eps)
            assert beta ** w <= eps
            assert w == 1 or beta ** (w - 1) > eps

    def test_validation(self):
        with pytest.raises(InvalidInput):
            rows_for_slack(F(1), 2, F(1, 20))  # critical bias
        with pytest.raises(InvalidInput):
            rows_for_slack(F(1, 2), 2, F(2))


class TestIidGapBoundVariants:
    def test_frozen_point(self):
        out = iid_gap_bound_variants(AgentParams(2.0, 2), 16)
        assert out["exponent_minus_one_outside"] == \
            pytest.approx(-0.7056474943711314)
        assert out["exponent_minus_one_inside"] == \
            pytest.approx(-1.3707567166865267)
        assert out["ratio_lower_bound_outside"] == \
            pytest.approx(2.0 ** -0.7056474943711314)
        assert out["ratio_lower_bound_inside"] == \
            pytest.approx(2.0 ** -1.3707567166865267)

    def test_variants_orderable(self):
        # with log n > 1 the folded-in reading is always the smaller one
        out = iid_gap_bound_variants(AgentParams(3.0, 3), 64)
        assert out["exponent_minus_one_inside"] < \
            out["exponent_minus_one_outside"]

    def test_validation(self):
        with pytest.raises(InvalidInput):
            iid_gap_bound_variants(AgentParams(F(1, 2), 2), 16)  # bias <= 1
        with pytest.raises(InvalidInput):
            iid_gap_bound_variants(AgentParams(2, 2), 1)


class TestReductionMetaType:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            ReductionMeta(m=1, x=F(1, 4), alpha_exp=2.0, nominal_n=2,
                          epsilon=F(1, 2), log_base="e")
        with pytest.raises(InvalidInput):
            ReductionMeta(m=2, x=F(3, 2), alpha_exp=2.0, nominal_n=2,
                          epsilon=F(1, 2), log_base="e")
        with pytest.raises(InvalidInput):
            ReductionMeta(m=2, x=F(1, 4), alpha_exp=2.0, nominal_n=0,
                          epsilon=F(1, 2), log_base="e")


@pytest.mark.parametrize("k, atoms_max", [(2, 3), (3, 1), (1, 4)])
def test_random_prior_draws_are_the_prior_s_draws(k, atoms_max):
    # the draws alone make the same rng calls as the prior built on them,
    # so a caller that reads only the supports replays the same stream
    for seed in range(40):
        built, drawn = random.Random(seed), random.Random(seed)
        prior = gen_random_prior(built, k=k, atoms_max=atoms_max)
        draws = random_prior_draws(drawn, k=k, atoms_max=atoms_max)
        assert built.getstate() == drawn.getstate()
        assert [[(v.entries, p) for v, p in step.atoms]
                for step in prior.steps] == [
            [(vec, F(wt, sum(weights))) for vec, wt in zip(support, weights)]
            for support, weights in draws]


def ref_random_prior_draws(rng, k, n_max=4, atoms_max=3):
    """The draws as first written: each entry a `choice` of the grid's
    Fractions, the support hashed and sorted as Fraction tuples."""
    grid = tuple(F(i, 2) for i in range(7))
    steps = []
    for _ in range(rng.randint(1, n_max)):
        natoms = rng.randint(1, atoms_max)
        support = set()
        while len(support) < natoms:
            support.add(tuple(rng.choice(grid) for _ in range(k)))
        steps.append((sorted(support),
                      [rng.randint(1, 4) for _ in range(natoms)]))
    return steps


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("atoms_max", [1, 3])
def test_random_prior_draws_match_the_fraction_draws(k, atoms_max):
    # drawn on grid indices, the supports, their types, the weights and the
    # rng state afterwards are those of the Fraction draws
    for seed in range(1000):
        rng, ref = random.Random(seed), random.Random(seed)
        got = random_prior_draws(rng, k=k, atoms_max=atoms_max)
        want = ref_random_prior_draws(ref, k, atoms_max=atoms_max)
        assert got == want
        assert [[tuple(map(type, point)) for point in support]
                for support, _ in got] == [
            [(F,) * k for _ in support] for support, _ in want]
        assert rng.getstate() == ref.getstate()
