"""Reading a JSON instance: one parse per distinct number string per call,
the same values, checks and messages as a parse of every number on its own,
and the duplicate check on exact int ratios."""

import collections
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from lap import core
from lap.core import (
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    Sequence,
    ValueVector,
    number_from_json,
    prior_from_json,
    prior_to_json,
    sequence_from_json,
    sequence_to_json,
)
from lap.instances import gen_random_prior


def ref_vector(row, exact):
    return ValueVector(tuple(number_from_json(e, exact) for e in row))


def ref_prior(obj, exact):
    """The prior `obj` names, each number parsed on its own."""
    steps = [FiniteDistribution(tuple(
        (ref_vector(a["v"], exact), number_from_json(a["p"], exact))
        for a in s["atoms"])) for s in obj["steps"]]
    if obj["iid"] and len(steps) == 1:
        steps = steps * obj["n"]
    return ProductPrior(tuple(steps))


def ref_sequence(obj, exact):
    return Sequence(tuple(ref_vector(row, exact)
                          for row in obj["candidates"]))


def outcome(read, obj, exact):
    """repr of what `read` returns, or the message it refuses `obj` with."""
    try:
        return repr(read(obj, exact))
    except InvalidInput as err:
        return f"refused: {err}"


def number_strings(obj):
    """Every str that stands for a number in an instance's JSON."""
    if isinstance(obj, dict):
        return [x for key, value in obj.items() if key in
                ("steps", "atoms", "v", "p", "candidates")
                for x in number_strings(value)]
    if isinstance(obj, list):
        return [x for value in obj for x in number_strings(value)]
    return [obj] if isinstance(obj, str) else []


def random_instances(seed, count):
    """Seeded priors of three kinds (as drawn, iid, float), each with the
    sequence of its first atoms, as JSON read back through json.loads."""
    rng = random.Random(seed)
    for i in range(count):
        prior = gen_random_prior(rng, k=rng.randint(1, 3), n_max=5,
                                 atoms_max=4)
        if i % 3 == 1:
            prior = ProductPrior.iid_prior(prior.steps[0],
                                           rng.randint(1, 6))
        elif i % 3 == 2:
            prior = prior_from_json(prior_to_json(prior), exact=False)
        sigma = Sequence(tuple(d.atoms[0][0] for d in prior.steps))
        yield (json.loads(json.dumps(prior_to_json(prior))),
               json.loads(json.dumps(sequence_to_json(sigma))))


@pytest.fixture
def parsed(monkeypatch):
    """Counts the calls of core._parse_number by their text."""
    counts = collections.Counter()
    parse = core._parse_number

    def counted(text):
        counts[text] += 1
        return parse(text)

    monkeypatch.setattr(core, "_parse_number", counted)
    return counts


class TestOneParsePerString:
    @pytest.mark.parametrize("exact", [True, False])
    def test_each_distinct_string_once_per_call(self, parsed, exact):
        repeated = 0
        for obj, seq_obj in random_instances("parse-once", 30):
            for read, instance in ((prior_from_json, obj),
                                   (sequence_from_json, seq_obj)):
                strings = number_strings(instance)
                repeated += len(strings) - len(set(strings))
                parsed.clear()
                for calls in (1, 2):  # nothing is kept between calls
                    outcome(read, instance, exact)
                    assert parsed == {s: calls for s in set(strings)}
        assert repeated > 100

    def test_repeated_strings_parse_once(self, parsed):
        obj = {"k": 2, "n": 4, "iid": False, "steps": [
            {"atoms": [{"v": ["1/2", "3"], "p": "1/4"},
                       {"v": ["3", "1/2"], "p": "3/4"}]},
            {"atoms": [{"v": ["1/2", "3"], "p": "3/4"},
                       {"v": ["3", "1/2"], "p": "1/4"}]}] * 2}
        prior = prior_from_json(obj)
        assert parsed == {"1/2": 1, "3": 1, "1/4": 1, "3/4": 1}
        assert repr(prior) == repr(ref_prior(obj, True))

    def test_a_failing_string_is_not_kept(self, parsed):
        obj = {"k": 1, "n": 2, "iid": False, "steps": [
            {"atoms": [{"v": ["1/0"], "p": "1"}]}] * 2}
        for _ in range(2):
            with pytest.raises(InvalidInput) as err:
                prior_from_json(obj)
            assert str(err.value) == "expected a finite number, got '1/0'"
        assert parsed == {"1/0": 2}


class TestSameAsPerNumberParse:
    # 300 seeded priors, a third of them iid and a third float priors,
    # each read in both modes, with the sequence of their first atoms;
    # a float prior's probabilities read exactly may not sum to 1, and then
    # both parses refuse it with one message
    @pytest.mark.parametrize("chunk", range(3))
    def test_random_instances(self, chunk):
        refused = 0
        for obj, seq_obj in random_instances(f"parse-same/{chunk}", 100):
            for exact in (True, False):
                got = outcome(prior_from_json, obj, exact)
                assert got == outcome(ref_prior, obj, exact)
                refused += got.startswith("refused")
                assert outcome(sequence_from_json, seq_obj, exact) == \
                    outcome(ref_sequence, seq_obj, exact)
                if not got.startswith("refused"):
                    assert prior_from_json(obj, exact).iid is obj["iid"]
        assert refused < 40

    def test_strings_and_json_numbers_side_by_side(self):
        obj = {"k": 1, "candidates": [["1"], [1], [1.0], ["1"], [1.5]]}
        for exact in (True, False):
            got = sequence_from_json(obj, exact)
            assert repr(got) == repr(ref_sequence(obj, exact))


class TestChecksStay:
    def test_true_refused_after_its_numeric_twins(self):
        obj = {"k": 1, "n": 3, "iid": False, "steps": [
            {"atoms": [{"v": [1], "p": "1"}]},
            {"atoms": [{"v": ["1"], "p": "1"}]},
            {"atoms": [{"v": [True], "p": "1"}]}]}
        with pytest.raises(InvalidInput) as err:
            prior_from_json(obj)
        assert str(err.value) == "expected a number, got True"
        with pytest.raises(InvalidInput) as err:
            sequence_from_json({"k": 1, "candidates": [[1], ["1"], [True]]})
        assert str(err.value) == "expected a number, got True"

    @pytest.mark.parametrize("first, second", [
        ("1/2", "2/4"), ("1/2", "0.5"), ("0.5", "2/4"), ("2/4", 0.5)])
    @pytest.mark.parametrize("exact", [True, False])
    def test_duplicate_forms_refused(self, first, second, exact):
        obj = {"k": 2, "n": 1, "iid": False, "steps": [{"atoms": [
            {"v": [first, "1"], "p": "1/2"},
            {"v": [second, "1"], "p": "1/2"}]}]}
        with pytest.raises(InvalidInput) as err:
            prior_from_json(obj, exact)
        shown = "(Fraction(1, 2), Fraction(1, 1))" if exact else "(0.5, 1.0)"
        assert str(err.value) == f"duplicate support point {shown}"

    @pytest.mark.parametrize("first, second, shown", [
        ((F(1, 2), 1), (0.5, 1.0), "(0.5, 1.0)"),
        ((0.5, 1.0), (F(1, 2), F(1)), "(Fraction(1, 2), Fraction(1, 1))"),
        ((0.0, 2), (-0.0, 2.0), "(-0.0, 2.0)")])
    def test_library_duplicates_refused(self, first, second, shown):
        with pytest.raises(InvalidInput) as err:
            FiniteDistribution(((ValueVector(first), F(1, 2)),
                                (ValueVector(second), F(1, 2))))
        assert str(err.value) == f"duplicate support point {shown}"

    def test_near_values_are_two_points(self):
        # 0.1 is not 1/10 as a float, so the two are distinct atoms
        dist = FiniteDistribution(((ValueVector((0.1,)), F(1, 2)),
                                   (ValueVector((F(1, 10),)), F(1, 2))))
        assert len(dist.atoms) == 2


def test_long_iid_prior_held_once():
    # a 10**6-step iid prior: one n-long tuple of references (8 MB), not a
    # list and a tuple side by side
    obj = {"k": 1, "n": 10 ** 6, "iid": True, "steps": [{"atoms": [
        {"v": ["1"], "p": "1/2"}, {"v": ["3"], "p": "1/2"}]}]}
    tracemalloc.start()
    try:
        prior = prior_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prior.n == 10 ** 6 and prior.iid
    assert peak < 10 * 2 ** 20
