"""lap's records (`core._record`) behave as the frozen dataclasses they
replace.

For every record class a `dataclasses.dataclass(frozen=True)` twin is made
from the same annotations, methods and defaults, with the defaults and
field options written out here as the dataclass declarations had them.
Record and twin are built from the same arguments and must agree on the
`__init__` parameters, `repr`, `==`, `hash`, `__match_args__`, the
defaults, the refusal of assignment and deletion, and every error their
constructors raise."""

import dataclasses
import inspect
import itertools
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from lap import analysis, core, instances, policies
from lap.analysis import (
    CheckResult,
    EstimateWithCI,
    QualityParadoxReport,
    RatioReport,
)
from lap.core import (
    AgentParams,
    FiniteDistribution,
    ProductPrior,
    Sequence,
    StoppingOutcome,
    ValueVector,
)
from lap.instances import ReductionMeta
from lap.policies import CompiledPolicy, DPResult, PatienceVerdict, Policy

RECORDS = (ValueVector, Sequence, AgentParams, FiniteDistribution,
           ProductPrior, StoppingOutcome, Policy, DPResult, PatienceVerdict,
           CompiledPolicy, EstimateWithCI, RatioReport, CheckResult,
           QualityParadoxReport, ReductionMeta)

# the defaulted fields and the field options of the dataclass declarations
DEFAULTS = {
    ProductPrior: {"iid": None},
    Policy: dict.fromkeys(("threshold", "atom_accept_prob", "alpha",
                           "index", "lam", "seed")),
    DPResult: {"rank_table": dataclasses.field(repr=False, compare=False),
               "layers": None},
    CompiledPolicy: {"seed": None},
    CheckResult: {"detail": dataclasses.field(default_factory=dict),
                  "counterexample": None},
}
# what `_record` makes; the twin gets dataclass's own
MADE = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
        "__delattr__", "__match_args__", "_repr_fields", "__dict__",
        "__weakref__"}


def twin(cls):
    ns = {key: value for key, value in vars(cls).items()
          if key not in MADE and not key.startswith("__annotat")}
    ns["__annotations__"] = dict(cls.__annotations__)
    ns["__qualname__"] = cls.__qualname__
    for name in cls.__annotations__:
        ns.pop(name, None)  # Policy.threshold is a factory on the class
        if name in DEFAULTS.get(cls, {}):
            ns[name] = DEFAULTS[cls][name]
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, cls.__bases__, ns))


TWINS = {cls: twin(cls) for cls in RECORDS}


def vec(*xs):
    return ValueVector(tuple(F(x) for x in xs))


def dist(*pairs):
    return FiniteDistribution(tuple((vec(*v), F(p)) for v, p in pairs))


A, B = dist(((1, 0), "1/2"), ((0, 1), "1/2")), dist(((2, 0), 1))


def rule(t, values, entries, val):
    return True


# per record, argument sets: keyword dicts in field order, equal and
# unequal ones, so every pair is compared
SAMPLES = {
    ValueVector: [{"entries": (F(1), F(2))}, {"entries": (F(1), F(2))},
                  {"entries": (0.5, F(2))}],
    Sequence: [{"candidates": (vec(1, 2), vec(3, 0))},
               {"candidates": (vec(1, 2), vec(3, 0))},
               {"candidates": (vec(1, 2),)}],
    AgentParams: [{"lam": F(1, 2), "k": 2}, {"lam": F(1, 2), "k": 2},
                  {"lam": 1, "k": 3}, {"lam": 0.25, "k": 2}],
    FiniteDistribution: [{"atoms": A.atoms}, {"atoms": A.atoms},
                         {"atoms": B.atoms}],
    ProductPrior: [{"steps": (A, A)}, {"steps": (A, A), "iid": True},
                   {"steps": (A, B)}, {"steps": (A, B), "iid": False}],
    StoppingOutcome: [{"selection": 2, "value": F(3), "utility": F(1, 2)},
                      {"selection": 2, "value": F(3), "utility": F(1, 2)},
                      {"selection": None, "value": 0, "utility": -1.5}],
    Policy: [{"kind": "threshold", "threshold": F(2)},
             {"kind": "threshold", "threshold": F(2),
              "atom_accept_prob": F(1)},
             {"kind": "threshold", "alpha": F(1, 3), "seed": 4},
             {"kind": "fixed-index", "index": 3},
             {"kind": "optimal-biased", "lam": F(1, 2)},
             {"kind": "optimal-biased"}, {"kind": "accept-last"}],
    DPResult: [{"expected_utility": F(1), "state_count": 3,
                "masks": [(1,), (0, 2)], "rank_table": ("a",)},
               {"expected_utility": F(1), "state_count": 3,
                "masks": [(1,), (0, 2)], "rank_table": ("b",)},
               {"expected_utility": F(1), "state_count": 3,
                "masks": [(1,), (0, 2)], "rank_table": ("a",),
                "layers": [[()], [(0,), (1,)]]}],
    PatienceVerdict: [{"verdict": "more-patient", "witness": None},
                      {"verdict": "incomparable",
                       "witness": (Sequence((vec(1, 0),)), 1, 2)}],
    CompiledPolicy: [{"arms": ((F(1), rule),)},
                     {"arms": ((F(1), rule),), "seed": None},
                     {"arms": ((F(1, 3), rule), (F(2, 3), rule)), "seed": 2}],
    EstimateWithCI: [{"mean": 1.5, "half_width": 0.1, "trials": 10,
                      "seed": 1},
                     {"mean": 1.5, "half_width": 0.1, "trials": 10,
                      "seed": None}],
    RatioReport: [{"e_prophet_rational": F(4), "e_gambler_rational_opt": F(3),
                   "e_gambler_biased_opt": F(1), "prophet_ratio": F(4),
                   "online_ratio": F(3), "bias": F(1, 2),
                   "regime": "subcritical"},
                  {"e_prophet_rational": F(4), "e_gambler_rational_opt": F(3),
                   "e_gambler_biased_opt": F(0),
                   "prophet_ratio": analysis.NonPositiveDenominator,
                   "online_ratio": analysis.NonPositiveDenominator,
                   "bias": F(1), "regime": "critical"}],
    CheckResult: [{"name": "b", "passed": True, "lhs": F(1), "rhs": F(2)},
                  {"name": "b", "passed": True, "lhs": F(1), "rhs": F(2),
                   "detail": {}},
                  {"name": "b", "passed": False, "lhs": 3, "rhs": 2,
                   "detail": {"n": 2}, "counterexample": {"k": 2}}],
    QualityParadoxReport: [dict(zip(QualityParadoxReport.__match_args__,
                                    (F(1), F(2), F(3), F(4), True, False))),
                           dict(zip(QualityParadoxReport.__match_args__,
                                    (F(1), F(2), F(3), F(4), True, True)))],
    ReductionMeta: [{"m": 3, "x": F(1, 2), "alpha_exp": 0.5, "nominal_n": 10,
                     "epsilon": F(1, 4), "log_base": "e"},
                    {"m": 3, "x": F(1, 2), "alpha_exp": 0.5, "nominal_n": 10,
                     "epsilon": F(1, 4), "log_base": "2"}],
}

# per record, argument sets its constructor refuses
REFUSALS = {
    ValueVector: [{"entries": ()}, {"entries": (F(-1),)},
                  {"entries": (True,)}, {"entries": (float("inf"),)},
                  {"entries": ("1",)}],
    Sequence: [{"candidates": ()}, {"candidates": (vec(1), vec(1, 2))}],
    AgentParams: [{"lam": -1, "k": 2}, {"lam": True, "k": 2},
                  {"lam": 1, "k": 0}, {"lam": 1, "k": True},
                  {"lam": 1, "k": 1.0}],
    FiniteDistribution: [
        {"atoms": ()}, {"atoms": ((vec(1), F(1, 2)),)},
        {"atoms": ((vec(1), F(1, 2)), (vec(1), F(1, 2)))},
        {"atoms": ((vec(1), F(1)), (vec(2), F(0)))},
        {"atoms": ((vec(1), F(1, 2)), (vec(1, 2), F(1, 2)))},
        {"atoms": ((vec(1), 0.25), (vec(2), 0.5))},
        {"atoms": ((vec(1), True),)}],
    ProductPrior: [{"steps": ()}, {"steps": (A, B), "iid": True},
                   {"steps": (A, A), "iid": False},
                   {"steps": (A, A), "iid": "yes"},
                   {"steps": (A, dist(((1,), 1)))}],
    Policy: [{"kind": "nope"}, {"kind": "threshold"},
             {"kind": "threshold", "alpha": F(1)},
             {"kind": "threshold", "threshold": F(-1)},
             {"kind": "threshold", "threshold": F(1),
              "atom_accept_prob": F(2)},
             {"kind": "threshold", "threshold": True},
             {"kind": "threshold", "threshold": F(1), "alpha": "x"},
             {"kind": "fixed-index"}, {"kind": "fixed-index", "index": 0},
             {"kind": "fixed-index", "index": 1.0},
             {"kind": "optimal-biased", "lam": F(-1)},
             {"kind": "accept-last", "lam": float("nan")}],
    ReductionMeta: [dict(SAMPLES[ReductionMeta][0], **change) for change in (
        {"m": 1}, {"m": True}, {"x": 0}, {"x": F(1)}, {"nominal_n": 0},
        {"epsilon": 1}, {"epsilon": F(0)}, {"log_base": "10"})],
}


def outcome(make):
    """What `make()` returns, or the type and text of what it raises."""
    try:
        return "returned", make()
    except Exception as err:
        return type(err), str(err)


def pairs(cls):
    """(record, twin) instances of each sample argument set."""
    return [(cls(**kw), TWINS[cls](**kw)) for kw in SAMPLES[cls]]


def test_every_record_is_listed():
    found = {obj for module in (core, policies, analysis, instances)
             for obj in vars(module).values()
             if isinstance(obj, type) and "_repr_fields" in vars(obj)}
    assert found == set(RECORDS)


def parameters(cls):
    """Each `__init__` parameter's name and kind, and whether it has a
    default (the values are checked by `test_defaults`)."""
    return [(p.name, p.kind, p.default is inspect.Parameter.empty)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_and_match_args(cls):
    assert [name for name, *_ in parameters(cls)] == \
        list(cls.__annotations__)
    assert parameters(cls) == parameters(TWINS[cls])
    assert cls.__match_args__ == TWINS[cls].__match_args__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_eq_and_hash(cls):
    made = pairs(cls) + pairs(cls)
    for ours, theirs in made:
        assert repr(ours) == repr(theirs)
        assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))
        assert vars(ours) == vars(theirs)
        assert (ours == theirs) is False and (ours != theirs) is True
    for (a, a_twin), (b, b_twin) in itertools.product(made, repeat=2):
        assert (a == b) is (a_twin == b_twin)
        assert (a != b) is (a_twin != b_twin)
    assert (made[0][0] == object()) is False
    # a comparison the record cannot make is handed to the other operand
    assert all(ours == Anything() and theirs == Anything()
               for ours, theirs in made)


class Anything:
    def __eq__(self, other):
        return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_arguments(cls):
    names = list(cls.__annotations__)
    prefixes = [kw for kw in SAMPLES[cls] if list(kw) == names[:len(kw)]]
    assert prefixes
    for kw in prefixes:
        assert cls(*kw.values()) == cls(**kw)
        assert repr(TWINS[cls](*kw.values())) == repr(cls(*kw.values()))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_calls_raise_the_same_errors(cls):
    kw = SAMPLES[cls][0]
    calls = [((), {}), ((*kw.values(), *[None] * 8), {}),
             ((), dict(kw, extra=1))]
    for args, kwargs in calls:
        ours = outcome(lambda: cls(*args, **kwargs))
        assert ours[0] is TypeError
        assert ours == outcome(lambda: TWINS[cls](*args, **kwargs))


def defaulted(cls, name):
    spec = DEFAULTS.get(cls, {}).get(name, dataclasses.MISSING)
    if isinstance(spec, dataclasses.Field):
        return spec.default_factory is not dataclasses.MISSING
    return spec is not dataclasses.MISSING


def test_defaults():
    for cls in DEFAULTS:
        required = {name: value for name, value in SAMPLES[cls][-1].items()
                    if not defaulted(cls, name)}
        ours, theirs = cls(**required), TWINS[cls](**required)
        assert vars(ours) == vars(theirs)
    first = CheckResult("b", True, F(1), F(2))
    second = CheckResult("b", True, F(1), F(2))
    assert first.detail == {} and first.detail is not second.detail
    with pytest.raises(TypeError, match="rank_table"):
        DPResult(F(1), 3, [])


def test_rank_table_left_out():
    one, other = (DPResult(**kw) for kw in SAMPLES[DPResult][:2])
    assert one.rank_table != other.rank_table
    assert one == other
    assert "rank_table" not in repr(one)
    frozen = DPResult(F(1), 3, ((1,),), ("a",), ((),))
    assert hash(frozen) == hash(DPResult(F(1), 3, ((1,),), ("b",), ((),)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_and_deletion_refused(cls):
    ours, theirs = pairs(cls)[0]
    before = dict(vars(ours))
    for name in (*cls.__annotations__, "other"):
        for change in (lambda obj: setattr(obj, name, 1),
                       lambda obj: delattr(obj, name)):
            raised = outcome(lambda: change(ours))
            assert issubclass(raised[0], AttributeError)
            assert raised[1] == outcome(lambda: change(theirs))[1]
    assert vars(ours) == before


@pytest.mark.parametrize("cls", list(REFUSALS), ids=lambda c: c.__name__)
def test_refusals_unchanged(cls):
    for kw in REFUSALS[cls]:
        ours = outcome(lambda: cls(**kw))
        assert ours[0] != "returned", kw
        assert ours == outcome(lambda: TWINS[cls](**kw)), kw


def test_a_new_record_with_every_kind_of_field():
    @core._record
    class Sample:
        """Fields of each kind, with defaults that are not None."""

        a: int
        hidden: str = core._Field(hidden=True)
        b: int = 5
        items: list = core._Field(default_factory=list)

    @dataclasses.dataclass(frozen=True)
    class Twin:
        """Fields of each kind, with defaults that are not None."""

        a: int
        hidden: str = dataclasses.field(repr=False, compare=False)
        b: int = 5
        items: list = dataclasses.field(default_factory=list)

    ours, theirs = Sample(1, "x"), Twin(1, "x")
    assert vars(ours) == vars(theirs) == {"a": 1, "hidden": "x", "b": 5,
                                          "items": []}
    assert repr(ours) == repr(theirs).replace("Twin", "Sample")
    assert Sample(1, "y", 5, []) == ours and Sample(1, "x", 6) != ours
    assert ours.items is not Sample(1, "x").items
    assert "hidden" not in vars(Sample) and "items" not in vars(Sample)
    assert Sample.b == Twin.b == 5
    assert Sample.__match_args__ == Twin.__match_args__


def test_match_patterns():
    match Policy("fixed-index", index=3):
        case Policy("fixed-index", _, _, _, index):
            assert index == 3
        case _:
            pytest.fail("no positional match")


def test_memoized_and_cached_properties_still_work():
    params = AgentParams(F(1, 2), 3)
    assert params.bias == 1 and params.regime == "critical"
    assert params.memoized(lambda p, x: p.k + x, 1) == 4
    assert params == AgentParams(F(1, 2), 3)
    assert hash(params) == hash(AgentParams(F(1, 2), 3))
    v = vec(1, 2)
    assert v.l1 == 3 and repr(v) == "ValueVector(entries=(Fraction(1, 1), " \
                                    "Fraction(2, 1)))"


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site, and whatever its .pth files import, out of the check
    src = str(Path(core.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import lap.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
