"""The Monte Carlo walk asks a rule for its accept mask once per state.

`_trial_walk` interns a (step, rank state) the first time a trial reaches
it, while the memo holds fewer states than its limit, and computes the
state's accept mask then.  A counter around `policies._accept_masks` sees
every question the walk asks; below the limit no state is asked twice,
however often trials come back to it.  Past the limit a trial keeps
nothing, its stop norm included."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from lap import policies
from lap.analysis import monte_carlo
from lap.core import AgentParams
from lap.policies import Policy
from test_walks import GRID, build


def repeating_prior(seed):
    """Six steps of three atoms over two coordinates: few super
    candidates, so trials reach the same states again and again."""
    rng = random.Random(seed)
    steps = []
    for _ in range(6):
        support = rng.sample([(a, b) for a in GRID[:6] for b in GRID[:6]], 3)
        weights = [rng.randint(1, 5) for _ in support]
        steps.append([(v, F(w, sum(weights)))
                      for v, w in zip(support, weights)])
    return build(steps)


@pytest.fixture
def asked(monkeypatch):
    """Per masks function the walk builds, how often each (t, ranks) is
    asked."""
    counts = []
    wrapped = policies._accept_masks

    def counting(rule, prior):
        masks, seen = wrapped(rule, prior), Counter()
        counts.append(seen)

        def count(t, ranks):
            seen[t, ranks] += 1
            return masks(t, ranks)
        return count

    monkeypatch.setattr(policies, "_accept_masks", counting)
    return counts


@pytest.mark.parametrize("policy", [Policy.accept_last(),
                                    Policy.from_alpha(F(1, 2)),
                                    Policy.optimal_biased()],
                         ids=["accept-last", "alpha", "optimal-biased"])
@pytest.mark.parametrize("seed", range(3))
def test_each_state_is_asked_once(asked, policy, seed):
    prior = repeating_prior(seed)
    monte_carlo(prior, policy, AgentParams(F(1, 2), 2), 2000, seed)
    assert max(n for seen in asked for n in seen.values()) == 1


def test_past_the_limit_no_norm_is_kept(monkeypatch):
    """A trial past the state limit keeps none of its stop norms: every
    norm table the walk builds holds at most the limit's states times the
    atoms per step, however many trials never repeat a state."""
    tables = []

    class Counted(policies._Norms):
        def __init__(self, levels):
            super().__init__(levels)
            tables.append(self)

    monkeypatch.setattr(policies, "_Norms", Counted)
    rng = random.Random(1)
    steps = [[(tuple(F(rng.randint(0, 1000)) for _ in range(4)), F(1, 3))
              for _ in range(3)] for _ in range(12)]
    monte_carlo(build(steps), Policy.accept_last(), AgentParams(F(1, 2), 4),
                2000, 1, budget=5)
    assert tables and max(map(len, tables)) <= 5 * 3
