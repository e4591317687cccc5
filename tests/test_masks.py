"""Accept masks against the value-level rules they stand for.

The lattice passes read a compiled arm through its accept masks: per
(step, rank state), the bits of the step's atoms it stops on.  `run_rule`
still asks the arm about values.  Both must say the same thing at every
reachable state, for every policy the CLI can name; and the expectation
that reads masks must equal the former value walk (`test_walks`) summed
over the arms, to the last bit."""

import random
from fractions import Fraction as F

import pytest

from lap import cli, policies
from lap.analysis import exact_expectation
from lap.core import AgentParams
from lap.policies import compile_policy
from test_walks import FLAVORS, GRID, random_prior, ref_rule_expectation


def cli_policies(rng, prior):
    """The six CLI policy specs, with seeded arguments."""
    specs = ["accept-last", "optimal-biased", "optimal-rational",
             f"fixed:{rng.randint(1, prior.n + 1)}",
             f"threshold:{rng.choice(GRID) * 2}",
             f"alpha:{F(rng.randint(1, 9), 10)}"]
    return [cli.policy_spec(spec) for spec in specs]


def reachable(prior):
    """Per step t, the rank states before it that some realization
    reaches, with the decoded values of each."""
    rows, levels = policies._rank_table(prior)[:2]
    layer = {(0,) * prior.k}
    for row in rows:
        yield {s: policies._decode(levels, s) for s in sorted(layer)}
        layer = {policies._join(s, atom[3]) for s in layer
                 for atom in row.plain}


@pytest.mark.parametrize("chunk", range(4))
def test_masks_agree_with_value_rules(chunk):
    rng = random.Random(f"masks/{chunk}")
    states = two_armed = 0
    for i in range(80):
        prior = random_prior(rng, FLAVORS[i % 4])
        rows = policies._rank_table(prior)[0]
        lam = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
        for lam in (lam, float(lam)):
            params = AgentParams(lam, prior.k)
            for _ in range(2):  # two policy draws per lambda
                for policy in cli_policies(rng, prior):
                    compiled = compile_policy(policy, prior, params)
                    two_armed += len(compiled.arms) == 2
                    for _, arm in compiled.arms:
                        masks = policies._accept_masks(arm, prior)
                        assert masks is arm.masks
                        for t, layer in enumerate(reachable(prior), 1):
                            for s, values in layer.items():
                                states += 1
                                mask = masks(t, s)
                                for entries, val, _, _, bit in \
                                        rows[t - 1].plain:
                                    assert bool(mask & bit) == bool(
                                        arm(t, values, entries, val))
                    got = exact_expectation(prior, policy, params)
                    want = sum((w * ref_rule_expectation(arm, prior, params)
                                for w, arm in compiled.arms), F(0))
                    assert repr(got) == repr(want)
    assert two_armed > 10
    assert states > 10_000


def test_a_foreign_rule_is_read_through_its_values():
    # an arm compiled on another prior object gives no masks of its own:
    # its value-level calls on the decoded state make them
    rng = random.Random("masks/foreign")
    prior = random_prior(rng, "exact")
    twin = random_prior(random.Random("masks/foreign"), "exact")
    params = AgentParams(F(1, 2), prior.k)
    for policy in cli_policies(rng, prior):
        for _, arm in compile_policy(policy, twin, params).arms:
            masks = policies._accept_masks(arm, prior)
            assert masks is not arm.masks
            for t, layer in enumerate(reachable(prior), 1):
                for s in layer:
                    assert masks(t, s) == arm.masks(t, s)
