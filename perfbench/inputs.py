"""Seeded inputs for the lap benchmark, built with lap's public constructors.

A prior's lattice shape (which grid level each atom sits on, per step and
coordinate) is drawn once from a fixed shape seed, so every workload seed
walks the same number of `(step, super candidate)` states and realizations.
The workload seed draws everything else: a strictly increasing value for
each grid level of each coordinate, and which probability goes to which
atom.  A strictly increasing relabelling keeps every coordinatewise maximum,
so the lattice is the same while values, L1 sums, decisions and stopping
times differ from seed to seed.
"""

import random
from fractions import Fraction

# Grid levels per coordinate; level 0 is always value 0.
LEVELS = 7
# Candidate values for levels 1..LEVELS-1: the half grid {1/2, 1, ..., 5}.
LEVEL_VALUES = tuple(Fraction(i, 2) for i in range(1, 11))


def _shape(shape_seed, n, k, atoms):
    rng = random.Random(shape_seed)
    steps = []
    for _ in range(n):
        points = set()
        while len(points) < atoms:
            points.add(tuple(rng.randrange(LEVELS) for _ in range(k)))
        steps.append(sorted(points))
    return steps


def product_prior(lap, rng, shape_seed, n, k, atoms):
    """A ProductPrior of n steps with `atoms` atoms each in dimension k."""
    core = lap.core
    levels = [(Fraction(0),) + tuple(sorted(rng.sample(LEVEL_VALUES,
                                                       LEVELS - 1)))
              for _ in range(k)]
    steps = []
    for points in _shape(shape_seed, n, k, atoms):
        weights = list(range(1, atoms + 1))
        rng.shuffle(weights)
        total = sum(weights)
        steps.append(core.FiniteDistribution(tuple(
            (core.ValueVector(tuple(levels[j][i] for j, i in enumerate(pt))),
             Fraction(w, total))
            for pt, w in zip(points, weights))))
    return core.ProductPrior(tuple(steps))


def succinct_sequence(lap, rng, m, k):
    """m distinct non-zero candidates on the half grid, for `reduce`."""
    core = lap.core
    seen = set()
    rows = []
    while len(rows) < m:
        row = tuple(Fraction(rng.randrange(7), 2) for _ in range(k))
        if any(row) and row not in seen:
            seen.add(row)
            rows.append(core.ValueVector(row))
    return core.Sequence(tuple(rows))
