"""Machine-speed probe: a fixed pure-Python burst sampled during each pass.

The machines this benchmark runs on share their cores, and the speed one
process gets flips between a fast and a slow state (about 2x apart) many
times a second, with the share of slow time drifting by a third over
minutes.  A pass's seconds therefore do not repeat.  While a pass runs, a
timer signal interrupts it every INTERVAL seconds to time one short
reference burst; the mean burst time is the machine's speed over that pass,
sampled evenly in time.  Dividing the pass's seconds (burst time taken out)
by it gives a relative cost, unit `ref`, that repeats within a few percent.

The burst uses no lap code, so no change to lap moves it.  It does the two
kinds of work lap's engines do, fixed here once and for all: coordinatewise
joins over tuples with dict updates and small Fractions, and arithmetic on
Fractions with hundreds of bits, as in the DP's long expectations.  Slow
states slow these two by different amounts, so the burst needs both.
"""

import random
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02

_rng = random.Random(0)
_STEPS = tuple(
    tuple((tuple(_rng.randrange(7) for _ in range(3)),
           Fraction(_rng.randint(1, 4), 10)) for _ in range(4))
    for _ in range(4))
_BIG = tuple(Fraction(_rng.getrandbits(400) + 1, _rng.getrandbits(400) + 1)
             for _ in range(20))


def _burst():
    layer = {(0, 0, 0): Fraction(1)}
    for atoms in _STEPS:
        nxt = {}
        for state, p in layer.items():
            for vec, q in atoms:
                joined = tuple(a if a >= b else b for a, b in zip(state, vec))
                nxt[joined] = nxt.get(joined, 0) + p * q
        layer = nxt
    acc = Fraction(1)
    for i in range(0, len(_BIG), 2):
        acc = acc * _BIG[i] + _BIG[i + 1]
    return layer, acc


class Probe:
    """Times the burst from a SIGALRM handler while the block runs.

    `bursts` holds each burst's seconds and `spent` the seconds taken by
    the handler, which callers subtract from the time they measured."""

    def __init__(self):
        self.bursts = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        _burst()
        self.bursts.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self):
        """Mean burst seconds over the block, or one burst timed now when
        the block was too short to be sampled."""
        if not self.bursts:
            start = perf_counter()
            _burst()
            return perf_counter() - start
        return sum(self.bursts) / len(self.bursts)
