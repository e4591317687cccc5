"""What lap builds from its own numbers skips the per-entry checks
(`core._trusted`); it must be the object the checked constructors build.

Each builder's output is rebuilt here through ValueVector,
FiniteDistribution, Sequence and ProductPrior as a caller would call them,
and the two must agree in `==`, `hash`, `repr`, the iid flag and the type
of every entry and probability.  The float flags that can overflow a
value still meet the checked constructor's message."""

import contextlib
import io
import random
from fractions import Fraction as F

import pytest

from lap import cli
from lap.core import (
    AgentParams,
    FiniteDistribution,
    InvalidInput,
    ProductPrior,
    Sequence,
    ValueVector,
)
from lap.instances import (
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
)


def checked(obj, seen=None):
    """`obj` rebuilt through the public constructors; step objects shared
    in `obj` are shared in the rebuild, as an iid prior's are."""
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return seen[id(obj)]
    if isinstance(obj, ValueVector):
        out = ValueVector(tuple(obj.entries))
    elif isinstance(obj, FiniteDistribution):
        out = FiniteDistribution(tuple((checked(v, seen), p)
                                       for v, p in obj.atoms))
    elif isinstance(obj, Sequence):
        out = Sequence(tuple(checked(c, seen) for c in obj.candidates))
    else:
        out = ProductPrior(tuple(checked(d, seen) for d in obj.steps))
    seen[id(obj)] = out
    return out


def numbers(obj):
    """Every entry and probability of `obj`, in order."""
    if isinstance(obj, ValueVector):
        return list(obj.entries)
    if isinstance(obj, FiniteDistribution):
        return [x for v, p in obj.atoms for x in numbers(v) + [p]]
    if isinstance(obj, Sequence):
        return [x for c in obj.candidates for x in numbers(c)]
    return [x for d in obj.steps for x in numbers(d)]


def assert_as_checked(obj):
    ref = checked(obj)
    assert obj == ref
    assert hash(obj) == hash(ref)
    assert repr(obj) == repr(ref)
    assert list(map(type, numbers(obj))) == list(map(type, numbers(ref)))
    if isinstance(obj, ProductPrior):
        assert type(obj.iid) is bool and obj.iid == ref.iid
    return ref


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("shape", ({}, {"n_max": 6, "atoms_max": 5},
                                   {"n_max": 2, "atoms_max": 1}),
                         ids=("default", "wide", "single"))
def test_random_priors(k, shape):
    rng = random.Random(f"trusted/{k}/{sorted(shape.items())}")
    flags = set()
    for _ in range(300):
        prior = gen_random_prior(rng, k=k, **shape)
        assert_as_checked(prior)
        flags.add(prior.iid)
    assert flags == {True, False}


# one call per family and flag type: exact flags, float flags, and the
# corners (k = 1, lambda = 0) where values repeat or collapse
FAMILIES = [
    lambda: gen_alternating_geometric(7, 3, F(1, 2)),
    lambda: gen_alternating_geometric(5, 2, 0.5),
    lambda: gen_alternating_geometric(4, 1, 3),
    lambda: gen_alternating_linear(5, 3),
    lambda: gen_partial_sums(3, 2, F(1, 3)),
    lambda: gen_partial_sums(3, 3, 0.25),
    lambda: gen_worstcase_mixed(3, 2, F(1, 4), F(1, 10)),
    lambda: gen_worstcase_mixed(2, 3, 0.25, 0.2),
    lambda: gen_worstcase_mixed(2, 2, F(1, 3), 0.2),
    lambda: gen_worstcase_mixed(2, 1, 5, F(1, 5)),
    lambda: gen_worstcase_mixed(1, 2, 0, F(1, 2)),
    lambda: gen_identical_value(3, F(2)),
    lambda: gen_identical_value(2, 1.5),
    lambda: gen_salient_feature(3, F(1), F(2)),
    lambda: gen_salient_feature(2, 0.5, 2.5),
    *[lambda i=i: gen_quality_pair(3, F(3, 2))[i] for i in (0, 1)],
    *[lambda i=i: gen_quality_pair(2, 2.0)[i] for i in (0, 1)],
    *[lambda i=i: gen_dominance_pair(2, 4, F(1), F(1, 2))[i]
      for i in (0, 1)],
    *[lambda i=i: gen_dominance_pair(3, 5, 0.5, 0.25)[i] for i in (0, 1)],
]


@pytest.mark.parametrize("make", FAMILIES)
def test_generator_families(make):
    obj = make()
    assert_as_checked(obj)
    if isinstance(obj, Sequence):
        assert_as_checked(ProductPrior.deterministic(obj))


def test_deterministic_priors_flag_iid_by_equality():
    a, b = ValueVector((F(1), F(2))), ValueVector((F(2), 0.5))
    for sigma, iid in ((Sequence((a,)), True),
                       (Sequence((a, ValueVector((F(1), F(2))))), True),
                       (Sequence((a, b, a)), False)):
        prior = ProductPrior.deterministic(sigma)
        assert prior.iid is iid
        assert_as_checked(prior)


def test_prefix_hands_on_its_scaled_entries():
    sigma = gen_alternating_geometric(6, 2, F(2, 3))
    scaled, unit = sigma._scaled
    for t in range(1, sigma.n + 1):
        head = sigma.prefix(t)
        assert_as_checked(head)
        # kept at the sequence's L, and still the prefix's entries
        assert head._scaled == (scaled[:t], unit)
        assert [tuple(F(x, unit) for x in row) for row in head._scaled[0]] \
            == [c.entries for c in head.candidates]
    floats = Sequence((ValueVector((0.5, F(1))), ValueVector((F(2), 1.0))))
    head = floats.prefix(1)
    assert_as_checked(head)
    assert head._scaled is None


@pytest.mark.parametrize("entries", (
    [(F(3), F(0)), (F(0), F(2)), (F(1, 2), F(1, 2))],
    [(3.0, F(0)), (F(0), 2.0), (0.5, 0.25)]), ids=("exact", "float"))
def test_reduction_priors(entries):
    sigma = Sequence(tuple(ValueVector(e) for e in entries))
    params = AgentParams(F(1, 2), 2)
    for prior, _ in (det_to_iid(sigma, params, F(1, 10), n_override=7),
                     det_to_iid(sigma, params, F(1, 3), n_override=1,
                                x_override=F(1, 4))):
        ref = assert_as_checked(prior)
        assert prior.iid and ref.iid
        assert all(step is prior.steps[0] for step in prior.steps)


def test_paradox_suite_sequences(monkeypatch):
    # every sequence the paradoxes suite scores, full and prefix
    scored = []
    real = cli.offline_optimal_prophet_utility

    def spy(sigma, params):
        scored.append(sigma)
        return real(sigma, params)
    monkeypatch.setattr(cli, "offline_optimal_prophet_utility", spy)
    for k, lam in ((2, "1/3"), (3, "0.3")):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--suite", "paradoxes", "--k", str(k),
                      "--lambda", lam, "--seed", "4", "--trials", "40"])
    assert len(scored) == 160
    for sigma in scored:
        assert_as_checked(sigma)


# a float flag can push a value past the float range; the family refuses
# it with the message the checked constructor gave
@pytest.mark.parametrize("make", [
    lambda: gen_partial_sums(1024, 1, 2.0),
    lambda: gen_salient_feature(2, 1e308, 1e308),
    lambda: gen_dominance_pair(3, 4, 1e308, 0.5),
    lambda: gen_worstcase_mixed(1, 1, 0.0, 1e-310),
], ids=("partial-sums", "salient-feature", "dominance-pair",
        "worstcase-mixed"))
def test_float_overflow_is_refused(make):
    with pytest.raises(InvalidInput, match="^entry must be finite$"):
        make()
