"""Independent oracles used by the test suite.

Everything in this file but the three helpers at its end is deliberately
package-free (stdlib only) and written in the most direct way possible:
plain tuples for value vectors, lists of (vector, probability) pairs for
per-step distributions, and exhaustive recursion instead of any state
collapsing.  The point is to cross-check the library against code
that shares none of its structure.
"""

import itertools
from fractions import Fraction


def l1(vec):
    return sum(vec)


def running_max(vectors):
    """Coordinatewise max of a non-empty list of equal-length tuples."""
    out = list(vectors[0])
    for v in vectors[1:]:
        for i, x in enumerate(v):
            if x > out[i]:
                out[i] = x
    return tuple(out)


def gambler_utility(candidates, t, lam):
    """Utility of stopping at 1-based index t: value minus lam * shortfall to
    the running coordinatewise max over the first t candidates."""
    v = l1(candidates[t - 1])
    s = l1(running_max(candidates[:t]))
    return v - lam * (s - v)


def prophet_utility(candidates, t, lam):
    v = l1(candidates[t - 1])
    s = l1(running_max(candidates))
    return v - lam * (s - v)


def no_selection(candidates, lam):
    return -lam * l1(running_max(candidates))


def offline_best(candidates, lam, allow_no_selection=False):
    best = max(gambler_utility(candidates, t, lam)
               for t in range(1, len(candidates) + 1))
    if allow_no_selection:
        best = max(best, no_selection(candidates, lam))
    return best


def realizations(steps):
    """Yield (candidates tuple, probability) over the whole product support."""
    for combo in itertools.product(*steps):
        vecs = tuple(v for v, _ in combo)
        p = Fraction(1)
        for _, q in combo:
            p = p * q
        yield vecs, p


def history_value(steps, lam, t, prefix, allow_no_selection=True):
    """Best expected utility of facing step t after `prefix`, over every
    history-dependent deterministic stopping rule, by direct recursion on
    realized prefixes (no state reuse)."""
    n = len(steps)
    total = Fraction(0)
    for vec, p in steps[t - 1]:
        seen = prefix + (vec,)
        smax = running_max(seen)
        value = l1(vec)
        accept = value - lam * (l1(smax) - value)
        if t == n:
            if allow_no_selection:
                choice = max(accept, -lam * l1(smax))
            else:
                choice = accept
        else:
            choice = max(accept, history_value(steps, lam, t + 1, seen,
                                               allow_no_selection))
        total += p * choice
    return total


def history_optimal(steps, lam, allow_no_selection=True):
    """Best expected utility over every history-dependent deterministic
    stopping rule."""
    return history_value(steps, lam, 1, (), allow_no_selection)


def rational_value(steps, t):
    """Optimal expected l1 value of facing step t (0 past the last step)."""
    if t > len(steps):
        return Fraction(0)
    nxt = rational_value(steps, t + 1)
    return sum(p * max(l1(vec), nxt) for vec, p in steps[t - 1])


def rational_history_optimal(steps):
    """Classical optimal stopping on l1 values (utility = value, floor 0)."""
    return rational_value(steps, 1)


# Stopping rules as plain predicates stop(t, prefix) on the first t
# candidates, and brute-force evaluation of them over the whole support.

def threshold_stop(t_value, weak=True):
    return lambda t, prefix: (l1(prefix[-1]) >= t_value if weak
                              else l1(prefix[-1]) > t_value)


def index_stop(index):
    return lambda t, prefix: t == index


def biased_optimal_stop(steps, lam, allow_no_selection=True):
    """Stop when stopping is worth at least going on (ties stop); without
    NoSelection the last step always stops."""
    n = len(steps)

    def stop(t, prefix):
        accept = gambler_utility(prefix, t, lam)
        if t == n:
            return (not allow_no_selection
                    or accept >= no_selection(prefix, lam))
        return accept >= history_value(steps, lam, t + 1, prefix,
                                       allow_no_selection)

    return stop


def rational_optimal_stop(steps):
    return lambda t, prefix: l1(prefix[-1]) >= rational_value(steps, t + 1)


def first_stop(candidates, stop):
    """1-based index where the rule first stops, or None."""
    for t in range(1, len(candidates) + 1):
        if stop(t, candidates[:t]):
            return t
    return None


def rule_expected_utility(steps, lam, stop):
    """Expected biased utility of a rule; never stopping scores NoSelection."""
    total = Fraction(0)
    for vecs, p in realizations(steps):
        t = first_stop(vecs, stop)
        u = no_selection(vecs, lam) if t is None else \
            gambler_utility(vecs, t, lam)
        total += p * u
    return total


def first_patience_witness(steps, stop_a, stop_b):
    """First realization in product order where rule a stops strictly
    before rule b (never stopping counts as n + 1), as (candidates, ia, ib);
    None when there is none."""
    late = len(steps) + 1
    for vecs, _ in realizations(steps):
        ia, ib = first_stop(vecs, stop_a), first_stop(vecs, stop_b)
        if (ia or late) < (ib or late):
            return vecs, ia, ib
    return None


def enumerate_policies_optimal(steps, lam, allow_no_selection=True):
    """Literal enumeration of every deterministic history-dependent stopping
    rule.  Exponential; only use on priors with a handful of history nodes."""
    n = len(steps)
    nodes = []

    def walk(t, prefix):
        if t > n:
            return
        for vec, _ in steps[t - 1]:
            here = prefix + (vec,)
            nodes.append((t, here))
            walk(t + 1, here)

    walk(1, ())
    if len(nodes) > 16:
        raise ValueError("too many decision nodes for literal enumeration")

    best = None
    for bits in itertools.product((False, True), repeat=len(nodes)):
        decide = dict(zip(nodes, bits))
        exp = Fraction(0)
        for vecs, p in realizations(steps):
            sel = None
            for t in range(1, n + 1):
                if decide[(t, vecs[:t])] or (t == n and not allow_no_selection):
                    sel = t
                    break
            if sel is None:
                u = no_selection(vecs, lam)
            else:
                u = gambler_utility(vecs, sel, lam)
            exp += p * u
        if best is None or exp > best:
            best = exp
    return best


def vstar_stats(steps):
    """Exhaustive E[V*], E[sum_j S_j*], and the exact distribution of V*."""
    e_vstar = Fraction(0)
    e_sumsj = Fraction(0)
    dist = {}
    for vecs, p in realizations(steps):
        vstar = max(l1(v) for v in vecs)
        smax = running_max(vecs)
        e_vstar += p * vstar
        e_sumsj += p * l1(smax)
        dist[vstar] = dist.get(vstar, Fraction(0)) + p
    return e_vstar, e_sumsj, dist


def representation_match_probability(probs, n):
    """Probability that n iid draws from atoms 1..m (with the given
    probabilities) contain every atom and first occurrences appear in order.

    Markov chain over j = how many leading atoms have been seen so far; any
    draw of an atom beyond j+1 before its turn is an unrecoverable failure.
    """
    m = len(probs)
    pref = [Fraction(0)] * (m + 1)
    for i, p in enumerate(probs):
        pref[i + 1] = pref[i] + p
    state = [Fraction(0)] * (m + 1)
    state[0] = Fraction(1)
    for _ in range(n):
        new = [Fraction(0)] * (m + 1)
        for j, mass in enumerate(state):
            if not mass:
                continue
            if j == m:
                new[m] += mass
            else:
                new[j] += mass * pref[j]
                new[j + 1] += mass * probs[j]
        state = new
    return state[m]


VALUE_GRID = tuple(Fraction(i, 2) for i in range(7))  # 0, 1/2, ..., 3


def random_prior_steps(rng, n_max=4, atoms_max=3, k=2, value_grid=VALUE_GRID):
    """Seeded small random prior on a coarse rational grid; returns the plain
    list-of-steps form used by every oracle above."""
    n = rng.randint(1, n_max)
    steps = []
    for _ in range(n):
        natoms = rng.randint(1, atoms_max)
        support = set()
        while len(support) < natoms:
            support.add(tuple(rng.choice(value_grid) for _ in range(k)))
        vecs = sorted(support)
        weights = [rng.randint(1, 5) for _ in vecs]
        tot = sum(weights)
        steps.append([(v, Fraction(w, tot)) for v, w in zip(vecs, weights)])
    return steps


def random_sequence(rng, n_max=5, k=2, value_grid=VALUE_GRID):
    n = rng.randint(1, n_max)
    return tuple(tuple(rng.choice(value_grid) for _ in range(k))
                 for _ in range(n))


# ---------------------------------------------------------------------------
# On the library's own objects: the paper's dominance predicates, which no
# code in lap calls (the tests use them as references, and they raise the
# library's InvalidInput on a dimension or length mismatch), and the
# gambler's utility of one stop as the library scores it.
# ---------------------------------------------------------------------------


def dominates(a, b):
    """Value vector `a` is coordinatewise >= value vector `b`."""
    from lap.core import InvalidInput
    if a.k != b.k:
        raise InvalidInput(f"dimension mismatch: {a.k} vs {b.k}")
    return all(x >= y for x, y in zip(a.entries, b.entries))


def pointwise_dominates(a, b):
    """Every candidate of sequence `a` has at least the L1 value of `b`'s
    candidate at the same index; the sequences must have equal lengths."""
    from lap.core import InvalidInput
    if len(a.candidates) != len(b.candidates):
        raise InvalidInput("point-wise dominance needs equal lengths")
    return all(x.l1 >= y.l1 for x, y in zip(a.candidates, b.candidates))


def stop_utility(sigma, t, params):
    """The gambler's utility of stopping at step t of sequence `sigma`, as
    `run_policy` scores a fixed-index stop (`run_rule` is the scorer)."""
    from lap.policies import Policy, run_policy
    return run_policy(Policy.fixed_index(t), sigma, params).utility
