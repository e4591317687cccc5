"""Core types, the utility of a stop, offline optima, and sequence predicates.

Expected values are frozen up front: hand-derived numbers carry a short
derivation note, and anything nontrivial is cross-checked against the
package-free oracles in oracles.py.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import dominates, pointwise_dominates, stop_utility
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    Sequence,
    ValueVector,
    higher_quality,
    is_succinct,
    max_value,
    number_from_json,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
    prior_from_json,
    prior_to_json,
    representation,
    sequence_from_json,
    sequence_to_json,
)
from lap.policies import Policy, run_policy


class Signed(F):
    """A Fraction subclass: validation may not take its fast path."""


def typed(x):
    """A number as (type name, repr): 1.0 and Fraction(1) differ."""
    return type(x).__name__, repr(x)


def seq(*rows):
    return Sequence(tuple(ValueVector(tuple(F(x) for x in row)) for row in rows))


def rows_of(sigma):
    """A sequence in the oracles' form: its candidates' entry tuples."""
    return [c.entries for c in sigma.candidates]


def reference_norm(sigma, t):
    """||s^(t)||_1 as the library scores a stop at t: at lambda = 1 the
    stop scores v - (||s^(t)||_1 - v)."""
    params = AgentParams(F(1), sigma.k)
    return 2 * sigma.candidates[t - 1].l1 - stop_utility(sigma, t, params)


# alternating-geometric stream for n=6, k=2, beta=2
MOTIVATING6 = seq((1, 0), (0, 1), (2, 0), (0, 2), (4, 0), (0, 4))


class TestValueVector:
    def test_entries_and_norm(self):
        v = ValueVector((F(4), F(3)))
        assert v.k == 2
        assert v.l1 == 7

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            ValueVector((F(-1), F(0)))
        # a Fraction's sign is read from its numerator: each entry below is
        # refused with the one message, a subclass's through `<` itself
        for entry in (F(-1, 3), Signed(-1, 2), -0.5):
            with pytest.raises(InvalidInput, match="^entry must be "
                               "non-negative$"):
                ValueVector((F(0), entry))
        with pytest.raises(InvalidInput, match="^entry must be a number, "
                           "got bool$"):
            ValueVector((F(1), True))
        assert ValueVector((Signed(1, 2), F(0))).entries == (F(1, 2), 0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            ValueVector((float("inf"), 0.0))
        with pytest.raises(InvalidInput):
            ValueVector((float("nan"),))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            ValueVector(())

    def test_ints_become_exact(self):
        v = ValueVector((1, 2))
        assert isinstance(v.entries[0], F)


class TestAgentParams:
    def test_bias_is_lambda_times_k_minus_1(self):
        assert AgentParams(F(2), 2).bias == 2
        assert AgentParams(F(1, 2), 3).bias == 1
        assert AgentParams(F(3), 1).bias == 0

    def test_regimes(self):
        assert AgentParams(F(1, 2), 2).regime == "subcritical"
        assert AgentParams(F(1), 2).regime == "critical"
        assert AgentParams(F(2), 2).regime == "supercritical"

    def test_rejects_negative_lambda(self):
        with pytest.raises(InvalidInput):
            AgentParams(F(-1), 2)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInput):
            AgentParams(F(1), 0)


class TestSuperCandidate:
    """s^(t): the oracle's running maximum, and its L1 norm in the
    library's score of a stop at t."""

    def test_spec_example(self):
        s = seq((1, 0), (0, 1), (2, 0))
        assert oracles.running_max(rows_of(s)) == (2, 1)
        assert reference_norm(s, 3) == 3

    def test_single_element_identity(self):
        s = seq((5, 3))
        assert oracles.running_max(rows_of(s)) == (5, 3)
        assert reference_norm(s, 1) == 8

    def test_four_step_scan(self):
        s = seq((1, 0), (0, 1), (2, 0), (0, 2))
        assert oracles.running_max(rows_of(s)) == (2, 2)
        assert reference_norm(s, 4) == 4

    def test_empty_prefix_rejected(self):
        # no prefix is empty: a sequence needs a candidate, a prefix t >= 1
        with pytest.raises(InvalidInput,
                           match="^sequence needs at least one candidate$"):
            Sequence(())
        with pytest.raises(InvalidInput, match="^index 0 out of range"):
            MOTIVATING6.prefix(0)

    def test_dimension_mismatch_rejected(self):
        vecs = (ValueVector((1, 2)), ValueVector((3, 4)), ValueVector((5,)))
        with pytest.raises(InvalidInput,
                           match="^all candidates must share one dimension$"):
            Sequence(vecs)

    def test_prefix_monotone(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = oracles.random_sequence(rng, n_max=5, k=3)
            s = seq(*rows)
            prev = None
            for t in range(1, s.n + 1):
                cur = ValueVector(oracles.running_max(rows_of(s.prefix(t))))
                if prev is not None:
                    assert dominates(cur, prev)
                prev = cur


class TestUtilityFormulas:
    """The gambler's utility of a stop as `run_policy` scores it, and the
    prophet's and no-selection utilities from the oracles."""

    def test_motivating_pick_is_zero(self):
        # 4 - 2*(6 - 4) = 0 at t=5 with lambda=2
        p = AgentParams(F(2), 2)
        assert stop_utility(MOTIVATING6, 5, p) == 0

    def test_first_candidate_has_no_regret(self):
        p = AgentParams(F(7), 2)
        assert stop_utility(MOTIVATING6, 1, p) == 1

    def test_three_step_derived(self):
        s = seq((3, 0), (0, 2), (4, 3))
        p = AgentParams(F(1, 2), 2)
        assert stop_utility(s, 3, p) == 7

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInput):
            Policy.fixed_index(0)
        with pytest.raises(InvalidInput):
            MOTIVATING6.prefix(7)

    def test_prophet_identical_value_family(self):
        # q(1 - lambda(k-1)) with k=3, q=2, lambda=1 -> -2 at every t
        rows = rows_of(seq((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        for t in (1, 2, 3):
            assert oracles.prophet_utility(rows, t, F(1)) == -2

    def test_prophet_lambda_zero_is_value(self):
        p = AgentParams(F(0), 2)
        for t in range(1, 7):
            assert oracles.prophet_utility(rows_of(MOTIVATING6), t, F(0)) == \
                stop_utility(MOTIVATING6, t, p) == MOTIVATING6.candidates[
                    t - 1].l1

    def test_prophet_two_step(self):
        assert oracles.prophet_utility(rows_of(seq((1, 0), (0, 1))), 1,
                                       F(1)) == 0

    def test_rational_utility(self):
        # at lambda = 0 a stop scores its value
        p = AgentParams(F(0), 2)
        assert stop_utility(seq((4, 3)), 1, p) == 7
        assert stop_utility(seq((0, 0)), 1, p) == 0
        assert stop_utility(MOTIVATING6, 6, p) == 4

    def test_no_selection(self):
        s = seq((1, 0), (0, 1))
        for lam, want in ((F(0), 0), (F(2), -4)):
            assert oracles.no_selection(rows_of(s), lam) == want
            out = run_policy(Policy.threshold(F(100)), s, AgentParams(lam, 2))
            assert out.selection is None and out.utility == want

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            stop_utility(MOTIVATING6, 1, AgentParams(F(1), 3))


class TestOfflineOptimal:
    def test_motivating_takes_first(self):
        out = offline_optimal_biased(MOTIVATING6, AgentParams(F(2), 2))
        assert out.selection == 1
        assert out.utility == 1
        assert out.value == 1

    def test_single_candidate(self):
        out = offline_optimal_biased(seq((2, 5)), AgentParams(F(3), 2))
        assert out.selection == 1
        assert out.utility == 7

    def test_tie_breaks_to_smallest_index(self):
        out = offline_optimal_biased(seq((1, 0), (1, 0)), AgentParams(F(0), 2))
        assert out.selection == 1

    def test_all_zero_prefers_selection_over_none(self):
        out = offline_optimal_biased(seq((0, 0), (0, 0)), AgentParams(F(1), 2))
        assert out.selection == 1
        assert out.utility == 0

    def test_matches_oracle_on_random_sequences(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = oracles.random_sequence(rng, n_max=5, k=2)
            lam = rng.choice((F(0), F(1, 4), F(1, 2), F(1), F(2)))
            got = offline_optimal_biased(seq(*rows), AgentParams(lam, 2))
            assert got.utility == oracles.offline_best(rows, lam)

    def test_outcome_invariants(self):
        # utility <= value; equality iff the pick coordinatewise equals its
        # super candidate
        rng = random.Random(13)
        p = AgentParams(F(1, 2), 2)
        for _ in range(50):
            rows = oracles.random_sequence(rng, n_max=5, k=2)
            s = seq(*rows)
            out = offline_optimal_biased(s, p)
            assert out.utility <= out.value
            t = out.selection
            equal = s.candidates[t - 1].entries == oracles.running_max(rows[:t])
            assert (out.utility == out.value) == equal

    def test_prophet_offline_optimal(self):
        # identical-value family: every pick gives q(1-lambda(k-1))
        s = seq((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert offline_optimal_prophet_utility(s, AgentParams(F(1), 3)) == -2

    @pytest.mark.parametrize("flavor", ["exact", "float", "mixed"])
    def test_optima_equal_the_oracles_value_and_type(self, flavor):
        # the offline optima and every stop's online score against the
        # oracles; entries from a 3-value grid, so columns and utilities
        # tie often;
        # "mixed" draws each entry as a float or a Fraction, so a tie of
        # 1.0 and Fraction(1) shows which one the join keeps
        rng = random.Random(f"offline/{flavor}")
        for _ in range(300):
            k = rng.randint(1, 3)
            rows = oracles.random_sequence(rng, n_max=6, k=k,
                                           value_grid=(0, 1, 2))
            as_float = {"exact": lambda: False, "float": lambda: True,
                        "mixed": lambda: rng.random() < 0.5}[flavor]
            rows = tuple(tuple(float(x) if as_float() else F(x) for x in row)
                         for row in rows)
            lam = rng.choice((F(0), F(1, 3), F(1, 2), F(2), 0.25))
            sigma = Sequence(tuple(map(ValueVector, rows)))
            params = AgentParams(lam, k)
            got = offline_optimal_biased(sigma, params).utility
            for allow in (False, True):  # walking away never beats a pick
                assert typed(got) == \
                    typed(oracles.offline_best(rows, lam, allow))
            prophet = max(oracles.prophet_utility(rows, t, lam)
                          for t in range(1, len(rows) + 1))
            assert typed(offline_optimal_prophet_utility(sigma, params)) == \
                typed(prophet)
            for t in range(1, len(rows) + 1):  # every stop, online
                got = stop_utility(sigma, t, params)
                want = oracles.gambler_utility(rows, t, lam)
                assert typed(got) == typed(want)

    def test_vectors_built_linear_in_n(self, monkeypatch):
        # one running super candidate, not one rebuilt per stop
        n = 200
        s = seq(*((t % 7, t % 5) for t in range(n)))
        p = AgentParams(F(1, 2), 2)
        built = []
        init = ValueVector.__post_init__

        def counted(vector):
            built.append(vector)
            init(vector)

        monkeypatch.setattr(ValueVector, "__post_init__", counted)
        offline_optimal_biased(s, p)
        offline_optimal_prophet_utility(s, p)
        assert len(built) <= 3 * n


class TestOfflineIntegerView:
    """The offline optima score stops as ints when lambda and every entry
    are Fractions, and on the numbers themselves otherwise; either way the
    pick, its value and both optima equal the oracles' in value and type."""

    def check(self, rows, lam):
        sigma = Sequence(tuple(map(ValueVector, rows)))
        params = AgentParams(lam, len(rows[0]))
        lam = params.lam  # an int lambda is kept as a Fraction
        utilities = [oracles.gambler_utility(rows, t, lam)
                     for t in range(1, len(rows) + 1)]
        best = max(utilities)
        out = offline_optimal_biased(sigma, params)
        assert out.selection == utilities.index(best) + 1  # the first best
        assert typed(out.utility) == typed(best)
        assert typed(out.value) == typed(sigma.candidates[out.selection - 1].l1)
        prophet = max(oracles.prophet_utility(rows, t, lam)
                      for t in range(1, len(rows) + 1))
        assert typed(offline_optimal_prophet_utility(sigma, params)) == \
            typed(prophet)
        return out

    @pytest.mark.parametrize("lam", [F(0), F(1, 3), F(5, 2), 2, 0.25])
    def test_one_candidate(self, lam):
        for row in ((F(3, 2),), (F(0), F(7, 3)), (F(1), F(0), F(2, 5))):
            assert self.check((row,), lam).selection == 1

    @pytest.mark.parametrize("lam", [F(0), F(1, 2), 1])
    def test_tie_resolves_to_the_smallest_index(self, lam):
        # the stops of each sequence past a zero stop share one value, so
        # they tie at lambda 0; above it a later stop falls short of its
        # super candidate and scores less (the last two of the third tie)
        assert self.check(((F(1), F(0)), (F(0), F(1))), lam).selection == 1
        assert self.check(((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)),
                           (F(1), F(0))), lam).selection == 1
        out = self.check(((F(0), F(0)), (F(2), F(1)), (F(1), F(2)),
                          (F(2), F(1))), lam)
        assert out.selection == 2

    @pytest.mark.parametrize("flavor", ["exact", "float-lambda", "mixed"])
    def test_random_sequences(self, flavor):
        # entries on a grid of thirds and halves, so scaled ints, ties and
        # the lcm of the denominators all vary
        rng = random.Random(f"offline-ints/{flavor}")
        grid = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2))
        lams = (F(0), F(1, 4), F(1, 2), F(2), 1, 3) if flavor != \
            "float-lambda" else (0.0, 0.25, 0.5, 2.0)
        for _ in range(200):
            k, n = rng.randint(1, 3), rng.randint(1, 6)
            rows = tuple(tuple(rng.choice(grid) for _ in range(k))
                         for _ in range(n))
            if flavor == "mixed":
                t, j = rng.randrange(n), rng.randrange(k)
                row = list(rows[t])
                row[j] = float(row[j])
                rows = rows[:t] + (tuple(row),) + rows[t + 1:]
            self.check(rows, rng.choice(lams))

    def test_a_prefix_reads_its_sequence_view(self):
        # an exact sequence's prefix is scaled at the sequence's L (30, not
        # its own 6) and scores as the same candidates on their own, which
        # the larger last candidate would change; a prefix of a sequence
        # with a float scales itself when it can
        full = seq((1, F(1, 3)), (F(1, 2), 2), (F(16, 5), 3))
        mixed = Sequence(full.candidates[:2] + (ValueVector((0.5, F(1))),))
        for whole, unit in ((full, 30), (mixed, 6)):
            base = whole.prefix(2)
            alone = Sequence(whole.candidates[:2])
            assert base._scaled[1] == unit and alone._scaled[1] == 6
            for lam in (F(0), F(1, 2), F(3)):
                params = AgentParams(lam, 2)
                assert typed(offline_optimal_biased(base, params)) == \
                    typed(offline_optimal_biased(alone, params))
                assert typed(offline_optimal_prophet_utility(base, params)) \
                    == typed(offline_optimal_prophet_utility(alone, params))

    def test_integer_view_only_when_every_number_is_a_fraction(self):
        from lap.core import _integer_view
        exact = seq((1, 0), (F(1, 2), F(2, 3)))
        mixed = Sequence((ValueVector((F(1), 0.0)), ValueVector((F(1), F(0)))))
        assert _integer_view(exact, F(3, 4)) == \
            ([(6, 0), (3, 4)], 3, 4, 6, True)
        # anything else is the identity view: the entries, a = lambda and
        # b = L = 1
        assert _integer_view(exact, 0.75) == \
            ([(F(1), F(0)), (F(1, 2), F(2, 3))], 0.75, 1, 1, False)
        assert _integer_view(mixed, F(3, 4)) == \
            ([(F(1), 0.0), (F(1), F(0))], F(3, 4), 1, 1, False)
        subclassed = Sequence((ValueVector((Signed(1), F(0))),))
        assert _integer_view(subclassed, F(1)) == \
            ([(Signed(1), F(0))], F(1), 1, 1, False)


class TestSequencePredicates:
    def test_representation_dedupes_in_first_occurrence_order(self):
        a, b, c = (1, 0), (0, 1), (2, 2)
        got = representation(seq(a, b, a, b, c))
        assert [v.entries for v in got.candidates] == [
            (1, 0), (0, 1), (2, 2)]

    def test_representation_drops_zero_vectors(self):
        got = representation(seq((1, 0), (0, 0), (1, 0), (0, 1)))
        assert [v.entries for v in got.candidates] == [(1, 0), (0, 1)]

    def test_representation_idempotent(self):
        rng = random.Random(3)
        for _ in range(30):
            s = seq(*oracles.random_sequence(rng, n_max=6, k=2))
            if all(v.l1 == 0 for v in s.candidates):
                continue
            r1 = representation(s)
            assert representation(r1) == r1
            assert is_succinct(r1)

    def test_representation_of_all_zero_rejected(self):
        with pytest.raises(InvalidInput):
            representation(seq((0, 0), (0, 0)))

    def test_representation_preserves_offline_optima(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = oracles.random_sequence(rng, n_max=6, k=2)
            if all(sum(r) == 0 for r in rows):
                continue
            s = seq(*rows)
            lam = rng.choice((F(0), F(1, 2), F(1), F(3)))
            p = AgentParams(lam, 2)
            r = representation(s)
            assert offline_optimal_biased(s, p).utility == \
                offline_optimal_biased(r, p).utility
            assert max_value(s) == max_value(r)

    def test_is_succinct(self):
        assert not is_succinct(seq((1, 0), (1, 0)))
        assert not is_succinct(seq((1, 0), (0, 0)))
        assert is_succinct(seq((1, 0), (0, 1)))

    def test_pointwise_dominates(self):
        a = seq((1, 0), (3, 0))
        b = seq((0, 1), (2, 0))
        assert pointwise_dominates(a, b)
        assert not pointwise_dominates(b, a)

    def test_dominance_length_mismatch(self):
        with pytest.raises(InvalidInput):
            pointwise_dominates(seq((1, 0)), seq((1, 0), (0, 1)))

    def test_higher_quality(self):
        low = seq((2, 0), (0, 2))
        high = seq((4, 0), (0, 4))
        assert higher_quality(high, low)
        assert not higher_quality(low, high)
        assert not higher_quality(low, low)


class TestDistributions:
    def test_probabilities_must_sum_to_one(self):
        v = ValueVector((F(1), F(0)))
        w = ValueVector((F(0), F(1)))
        with pytest.raises(InvalidInput):
            FiniteDistribution(((v, F(1, 2)), (w, F(1, 3))))

    @pytest.mark.parametrize("kind", [F, Signed, float, "mixed"])
    def test_sum_message_in_both_modes(self, kind):
        # an exact sum is one int sum over the lcm of the denominators; the
        # message gives the total as the running sum of the atoms does
        rng = random.Random(f"sum/{kind}")
        for _ in range(100):
            probs = [F(rng.randint(1, 9), rng.randint(1, 12))
                     for _ in range(rng.randint(1, 4))]
            if kind == "mixed":
                probs[0] = float(probs[0])
            elif kind is not F:
                probs = list(map(kind, probs))
            atoms = tuple((ValueVector((F(i),)), p)
                          for i, p in enumerate(probs))
            total = 0
            for p in probs:
                total = total + p
            exact = all(isinstance(p, F) for p in probs)
            if (total == 1) if exact else abs(total - 1) <= 1e-12:
                FiniteDistribution(atoms)
                continue
            shown = str(total) if exact else repr(total)
            with pytest.raises(InvalidInput) as err:
                FiniteDistribution(atoms)
            assert str(err.value) == f"probabilities sum to {shown}, not 1"

    def test_rejects_nonpositive_probability(self):
        v = ValueVector((F(1),))
        w = ValueVector((F(2),))
        with pytest.raises(InvalidInput):
            FiniteDistribution(((v, F(0)), (w, F(1))))
        for p in (F(0), F(-1, 2), Signed(0), Signed(-1, 2), 0.0):
            with pytest.raises(InvalidInput, match="^probabilities must be "
                               "strictly positive$"):
                FiniteDistribution(((v, p), (w, 1 - p)))
        with pytest.raises(InvalidInput, match="^probability must be a "
                           "number, got bool$"):
            FiniteDistribution(((v, True),))

    def test_rejects_duplicate_support(self):
        v = ValueVector((F(1),))
        with pytest.raises(InvalidInput):
            FiniteDistribution(((v, F(1, 2)), (v, F(1, 2))))

    def test_float_mode_tolerance(self):
        v = ValueVector((1.0,))
        w = ValueVector((2.0,))
        FiniteDistribution(((v, 0.5 + 1e-13), (w, 0.5)))
        with pytest.raises(InvalidInput):
            FiniteDistribution(((v, 0.5 + 1e-6), (w, 0.5)))

    def test_prior_iid_flag_consistency(self):
        d1 = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
        d2 = FiniteDistribution(((ValueVector((F(2),)), F(1)),))
        assert ProductPrior((d1, d1)).iid
        assert not ProductPrior((d1, d2)).iid
        with pytest.raises(InvalidInput):
            ProductPrior((d1, d2), iid=True)

    # `iid` is a bool or None; a truthy string once passed as True and was
    # written back by prior_to_json as given
    @pytest.mark.parametrize("flag", ["no", 1, 0, [0]],
                             ids=["str", "int-1", "int-0", "list"])
    def test_prior_iid_flag_must_be_a_bool(self, flag):
        d1 = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
        with pytest.raises(InvalidInput) as err:
            ProductPrior((d1, d1), iid=flag)
        assert str(err.value) == \
            f"'iid' must be a boolean, got {type(flag).__name__}"

    def test_steps_are_read_once_per_distinct_object(self, monkeypatch):
        # an iid prior repeats one object: no step is compared or asked
        # for k; otherwise each distinct object is, once
        reads = []
        k_of, eq = FiniteDistribution.k, FiniteDistribution.__eq__
        monkeypatch.setattr(FiniteDistribution, "k", property(
            lambda d: reads.append("k") or k_of.fget(d)))
        monkeypatch.setattr(FiniteDistribution, "__eq__", lambda d, o: (
            reads.append("eq") or eq(d, o)))
        d1 = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
        d2 = FiniteDistribution(((ValueVector((F(2),)), F(1)),))
        assert ProductPrior.iid_prior(d1, 10 ** 5).iid
        assert reads == []
        assert not ProductPrior((d1, d2) * 500).iid
        assert sorted(reads) == ["eq", "eq", "k", "k"]
        reads.clear()
        twin = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
        assert ProductPrior((d1, twin) * 500).iid
        assert sorted(reads) == ["eq", "eq", "k", "k"]

    def test_prior_uniform_k_required(self):
        d1 = FiniteDistribution(((ValueVector((F(1),)), F(1)),))
        d2 = FiniteDistribution(((ValueVector((F(1), F(2))), F(1)),))
        with pytest.raises(InvalidInput):
            ProductPrior((d1, d2))

    def test_deterministic_prior_realizations(self):
        prior = ProductPrior.deterministic(MOTIVATING6)
        reals = list(prior.realizations())
        assert len(reals) == 1
        got, p = reals[0]
        assert got == MOTIVATING6
        assert p == 1


class TestSerialization:
    def test_sequence_round_trip_exact(self):
        s = seq((1, 0), (0, 1), ("3/2", 0))
        obj = sequence_to_json(s)
        assert obj["k"] == 2
        assert obj["candidates"][2][0] == "3/2"
        back = sequence_from_json(obj)
        assert back == s

    def test_sequence_round_trip_float(self):
        s = Sequence((ValueVector((0.5, 0.25)), ValueVector((1.5, 0.0))))
        back = sequence_from_json(sequence_to_json(s), exact=False)
        assert back == s

    def test_prior_round_trip(self):
        d = FiniteDistribution(
            ((ValueVector((F(1), F(0))), F(4, 5)),
             (ValueVector((F(0), F(3, 2))), F(1, 5)))
        )
        prior = ProductPrior.iid_prior(d, 3)
        obj = prior_to_json(prior)
        assert obj["iid"] is True
        assert obj["n"] == 3
        # probabilities serialize as exact strings
        assert obj["steps"][0]["atoms"][0]["p"] == "4/5"
        back = prior_from_json(obj)
        assert back == prior

    # a one-step prior with n = 3 and a non-bool `iid` was expanded into a
    # 3-step iid prior; it is refused before any step is read
    @pytest.mark.parametrize("flag", ["false", 1, [0], None],
                             ids=["str", "int", "list", "null"])
    def test_prior_iid_must_be_a_bool(self, flag):
        obj = {"k": 1, "n": 3, "iid": flag,
               "steps": [{"atoms": [{"v": ["1"], "p": "1"}]}]}
        with pytest.raises(InvalidInput) as err:
            prior_from_json(obj)
        assert str(err.value) == \
            f"'iid' must be a boolean, got {type(flag).__name__}"
        assert prior_from_json(dict(obj, iid=True)).n == 3

    def test_prior_round_trip_heterogeneous(self):
        d1 = FiniteDistribution(((ValueVector((F(2),)), F(1)),))
        d2 = FiniteDistribution(
            ((ValueVector((F(0),)), F(1, 2)), (ValueVector((F(5),)), F(1, 2)))
        )
        prior = ProductPrior((d1, d2))
        back = prior_from_json(prior_to_json(prior))
        assert back == prior

    # the string "1e999" is an exact rational, but past the float range
    @pytest.mark.parametrize("x, exact", [
        (float("inf"), True), (float("inf"), False),
        (float("-inf"), True), (float("nan"), True), (float("nan"), False),
        ("1e999", False),
        pytest.param(10 ** 400, False, id="int-past-float-range")])
    def test_non_finite_numbers_rejected(self, x, exact):
        with pytest.raises(InvalidInput):
            number_from_json(x, exact)

    def test_int_past_float_range_is_exact(self):
        assert number_from_json(10 ** 400) == F(10 ** 400)


class TestNumberGrammar:
    """A number string is an integer, a/b, or a decimal with an optional
    exponent; its size is bounded before any int is built from it."""

    @pytest.mark.parametrize("text", [
        "0", "-0", "12", "-3", "+4", "007", "1/2", "-3/4", "+6/4", "0.5",
        ".5", "5.", "-.25", "1e5", "1.5E-3", "-2.25e+2", "1e10000",
        "1e-10000", "1" * 4300, "1/" + "3" * 4300, "." + "1" * 4300,
        "1" * 4299 + ".5e-10000"], ids=lambda text: text[:12])
    def test_the_three_forms_read_as_fractions_do(self, text):
        value = number_from_json(text)
        assert type(value) is F and value == F(text)
        if abs(value) < 10 ** 300:
            assert number_from_json(text, False) == float(F(text))

    @pytest.mark.parametrize("text", [
        "", " 1", "1 ", "1 /2", "1_0", "1/2/3", "1.5/2", "1/-2", "e5", ".",
        "-", "+", "0x10", "1e", "1e+", "inf", "nan", "1/0",
        "\uff13", "\uff11/\uff12", "1e\uff15", "\u0663"])
    def test_other_strings_rejected(self, text):
        with pytest.raises(InvalidInput, match="expected a finite number"):
            number_from_json(text)

    # just past each bound; the bounds are what keep larger inputs cheap
    @pytest.mark.parametrize("text", [
        "1e10001", "1e-10001", "-1.5e10001", "1e00000000000000010001",
        "1" * 4301, "1/" + "7" * 4301, "7" * 4301 + "/1",
        "." + "1" * 4301, "1" * 4300 + ".1", "1e100000"],
        ids=lambda text: f"{text[:8]}-{len(text)}")
    @pytest.mark.parametrize("exact", [True, False])
    def test_past_the_bounds_rejected(self, text, exact):
        with pytest.raises(InvalidInput, match="exponent past 10000"):
            number_from_json(text, exact)


# ---------------------------------------------------------------------------
# property tests for the algebraic invariants
# ---------------------------------------------------------------------------

fracs = st.fractions(min_value=0, max_value=4, max_denominator=8)
lams = st.fractions(min_value=0, max_value=3, max_denominator=4)


def seq_strategy(k):
    return st.lists(
        st.tuples(*([fracs] * k)), min_size=1, max_size=5
    ).map(lambda rows: seq(*rows))


@settings(max_examples=60, deadline=None)
@given(s=seq_strategy(2), data=st.data())
def test_lambda_monotonicity(s, data):
    # a more loss-averse agent never gets more utility at the same stop
    lam = data.draw(lams)
    lam2 = lam + data.draw(lams)
    t = data.draw(st.integers(1, s.n))
    u_low = stop_utility(s, t, AgentParams(lam, 2))
    u_high = stop_utility(s, t, AgentParams(lam2, 2))
    assert u_low >= u_high


@settings(max_examples=60, deadline=None)
@given(s=seq_strategy(3), data=st.data())
def test_reference_point_monotonicity(s, data):
    # shrinking an earlier candidate can only shrink the reference point and
    # therefore never lowers the utility of a later fixed stop
    t = data.draw(st.integers(1, s.n))
    lam = data.draw(lams)
    if t == 1:
        return
    i = data.draw(st.integers(0, t - 2))
    num = data.draw(st.integers(0, 4))
    scaled = ValueVector(tuple(e * F(num, 4) for e in s.candidates[i].entries))
    smaller = Sequence(
        s.candidates[:i] + (scaled,) + s.candidates[i + 1:])
    p = AgentParams(lam, 3)
    assert stop_utility(smaller, t, p) >= stop_utility(s, t, p)


@settings(max_examples=60, deadline=None)
@given(s=seq_strategy(1), data=st.data())
def test_k1_degenerates_to_running_max(s, data):
    t = data.draw(st.integers(1, s.n))
    assert reference_norm(s, t) == max(c.entries[0] for c in s.candidates[:t])


@settings(max_examples=60, deadline=None)
@given(s=seq_strategy(2), data=st.data())
def test_lambda_zero_collapses_all_utilities(s, data):
    t = data.draw(st.integers(1, s.n))
    p = AgentParams(F(0), 2)
    v = s.candidates[t - 1].l1
    assert stop_utility(s, t, p) == v
    assert oracles.prophet_utility(rows_of(s), t, F(0)) == v


@settings(max_examples=60, deadline=None)
@given(s=seq_strategy(2), data=st.data())
def test_gambler_utility_at_most_value(s, data):
    t = data.draw(st.integers(1, s.n))
    lam = data.draw(lams)
    u = stop_utility(s, t, AgentParams(lam, 2))
    assert u <= s.candidates[t - 1].l1


@settings(max_examples=40, deadline=None)
@given(s=seq_strategy(2), data=st.data())
def test_matches_package_free_oracle(s, data):
    t = data.draw(st.integers(1, s.n))
    lam = data.draw(lams)
    rows = rows_of(s)
    assert stop_utility(s, t, AgentParams(lam, 2)) == \
        oracles.gambler_utility(rows, t, lam)
    assert offline_optimal_prophet_utility(s, AgentParams(lam, 2)) == \
        max(oracles.prophet_utility(rows, u, lam) for u in range(1, s.n + 1))
