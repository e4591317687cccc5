"""Domain types and pointwise utility formulas.

The model: a gambler inspects n candidates online, each carrying a
k-dimensional non-negative value vector.  The reference point at step t is the
"super candidate" s^(t), the coordinatewise maximum over everything seen so
far.  A biased agent with loss-aversion weight lambda receives

    U(sigma, t) = ||sigma^(t)||_1 - lambda * (||s||_1 - ||sigma^(t)||_1)

where s is s^(t) for the online gambler and s^(n) for the offline prophet.
Rational (lambda = 0) agents just receive the value.

Two arithmetic modes coexist: exact rationals (fractions.Fraction, the
default; every closed-form identity is checked exactly) and plain floats for
Monte Carlo work.  Integers are normalized to Fraction on entry so that
untyped literals stay exact.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple, Union

Number = Union[int, float, Fraction]

# distribution normalization slack in float mode
FLOAT_PROB_TOL = 1e-12


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimit(RuntimeError):
    """An enumeration or DP would exceed its configured budget."""


def _digit_limit() -> str:
    return (f"a number past {sys.get_int_max_str_digits()} digits "
            "cannot be printed")


def _shown(x) -> str:
    """str(x) for a message, or a note in its place when x holds a number
    past the interpreter's int-to-str digit limit (which is not lifted)."""
    try:
        return str(x)
    except ValueError:
        return f"<{_digit_limit()}>"


def _coerce(x: Number, what: str = "value") -> Number:
    if isinstance(x, bool):
        raise InvalidInput(f"{what} must be a number, got bool")
    if isinstance(x, int):
        x = Fraction(x)
    elif isinstance(x, float):
        if not math.isfinite(x):
            raise InvalidInput(f"{what} must be finite")
    elif not isinstance(x, Fraction):
        raise InvalidInput(f"{what} must be int, float, or Fraction")
    return x


def _coerce_nonnegative(x: Number, what: str = "value") -> Number:
    x = _coerce(x, what)
    if x < 0:
        raise InvalidInput(f"{what} must be non-negative")
    return x


@dataclass(frozen=True)
class ValueVector:
    """A k-dimensional non-negative candidate value."""

    entries: Tuple[Number, ...]

    def __post_init__(self):
        entries = tuple(_coerce_nonnegative(e, "entry") for e in self.entries)
        if not entries:
            raise InvalidInput("value vector needs at least one entry")
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    @cached_property
    def l1(self) -> Number:
        # computed on first read and kept in the instance dict; dataclass
        # equality, hash and repr see only `entries`
        return sum(self.entries)

    def _check_dim(self, other: "ValueVector") -> None:
        if self.k != other.k:
            raise InvalidInput(
                f"dimension mismatch: {self.k} vs {other.k}")

    def join(self, other: "ValueVector") -> "ValueVector":
        """Coordinatewise maximum."""
        self._check_dim(other)
        return ValueVector(tuple(max(a, b)
                                 for a, b in zip(self.entries, other.entries)))

    def dominates(self, other: "ValueVector") -> bool:
        """Coordinatewise >=."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.entries, other.entries))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    @staticmethod
    def zero(k: int) -> "ValueVector":
        return ValueVector((Fraction(0),) * k)


@dataclass(frozen=True)
class Sequence:
    """An ordered realization of n candidates sharing one dimension k."""

    candidates: Tuple[ValueVector, ...]

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise InvalidInput("sequence needs at least one candidate")
        k = cands[0].k
        for c in cands:
            if c.k != k:
                raise InvalidInput("all candidates must share one dimension")
        object.__setattr__(self, "candidates", cands)

    @property
    def n(self) -> int:
        return len(self.candidates)

    @property
    def k(self) -> int:
        return self.candidates[0].k

    def prefix(self, t: int) -> "Sequence":
        _check_index(self, t)
        return Sequence(self.candidates[:t])


@dataclass(frozen=True)
class AgentParams:
    """Loss-aversion weight lambda plus the ambient dimension k."""

    lam: Number
    k: int

    def __post_init__(self):
        object.__setattr__(self, "lam", _coerce_nonnegative(self.lam, "lambda"))
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidInput("k must be a positive integer")

    @property
    def bias(self) -> Number:
        """The feature-amplified bias lambda * (k - 1)."""
        return self.lam * (self.k - 1)

    @property
    def regime(self) -> str:
        b = self.bias
        if b < 1:
            return "subcritical"
        if b == 1:
            return "critical"
        return "supercritical"


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite-support distribution over value vectors for one step."""

    atoms: Tuple[Tuple[ValueVector, Number], ...]

    def __post_init__(self):
        atoms = tuple((v, _coerce(p, "probability")) for v, p in self.atoms)
        if not atoms:
            raise InvalidInput("distribution needs at least one atom")
        k = atoms[0][0].k
        seen = set()
        total = 0
        exact = True
        for v, p in atoms:
            if v.k != k:
                raise InvalidInput("all atoms must share one dimension")
            if p <= 0:
                raise InvalidInput("probabilities must be strictly positive")
            if v.entries in seen:
                raise InvalidInput(
                    f"duplicate support point {_shown(v.entries)}")
            seen.add(v.entries)
            exact = exact and isinstance(p, Fraction)
            total = total + p
        if exact:
            if total != 1:
                raise InvalidInput(
                    f"probabilities sum to {_shown(total)}, not 1")
        elif abs(total - 1) > FLOAT_PROB_TOL:
            raise InvalidInput(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def k(self) -> int:
        return self.atoms[0][0].k

    @property
    def support(self) -> Tuple[ValueVector, ...]:
        return tuple(v for v, _ in self.atoms)


@dataclass(frozen=True)
class ProductPrior:
    """n independent per-step distributions; iid flags identical steps."""

    steps: Tuple[FiniteDistribution, ...]
    iid: Optional[bool] = None

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise InvalidInput("prior needs at least one step")
        k = steps[0].k
        for d in steps:
            if d.k != k:
                raise InvalidInput("all steps must share one dimension")
        actual = all(d == steps[0] for d in steps[1:])
        if self.iid is None:
            object.__setattr__(self, "iid", actual)
        elif bool(self.iid) != actual:
            raise InvalidInput("iid flag inconsistent with steps")
        object.__setattr__(self, "steps", steps)

    @staticmethod
    def iid_prior(dist: FiniteDistribution, n: int) -> "ProductPrior":
        if n < 1:
            raise InvalidInput("n must be at least 1")
        return ProductPrior((dist,) * n)

    @staticmethod
    def deterministic(sigma: Sequence) -> "ProductPrior":
        return ProductPrior(tuple(
            FiniteDistribution(((v, Fraction(1)),)) for v in sigma.candidates))

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def k(self) -> int:
        return self.steps[0].k

    @property
    def support_size(self) -> int:
        return math.prod(len(d.atoms) for d in self.steps)

    def check_support(self, budget: int) -> None:
        """The support-size cap of every exact pass over the prior, whether
        it lists realizations or walks super-candidate states.  The product
        stops once it passes the budget, so a long prior's support size is
        never built (nor printed) in full."""
        size = 1
        for d in self.steps:
            size *= len(d.atoms)
            if size > budget:
                raise ResourceLimit(
                    f"support size {size}+ exceeds budget {budget}")

    def memoized(self, build, *args):
        """`build(self, *args)`, kept in the instance dict (like
        ValueVector.l1) per equal arguments of equal types.  An exception
        is not kept; a kept result is shared, so it is read-only."""
        memo = self.__dict__.setdefault("_memo", {})
        key = (build, args, tuple(map(type, args)))
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]

    def realizations(self, budget: Optional[int] = None
                     ) -> Iterator[Tuple[Sequence, Number]]:
        """All (sequence, probability) pairs of the product support."""
        if budget is not None:
            self.check_support(budget)
        for combo in itertools.product(*(d.atoms for d in self.steps)):
            p = 1
            for _, q in combo:
                p = p * q
            yield Sequence(tuple(v for v, _ in combo)), p


@dataclass(frozen=True)
class StoppingOutcome:
    """Result of running a stopping rule: chosen index (None means no
    selection), the rational value received, and the biased utility."""

    selection: Optional[int]
    value: Number
    utility: Number


def _check_index(sigma: Sequence, t: int) -> None:
    if not isinstance(t, int) or not 1 <= t <= sigma.n:
        raise InvalidInput(f"index {t} out of range 1..{sigma.n}")


def _check_dims(sigma: Sequence, params: AgentParams) -> None:
    if sigma.k != params.k:
        raise InvalidInput(
            f"sequence dimension {sigma.k} != params dimension {params.k}")


def super_candidate(prefix) -> ValueVector:
    """Coordinatewise maximum over a non-empty prefix (the reference point)."""
    if isinstance(prefix, Sequence):
        vecs = prefix.candidates
    else:
        vecs = tuple(prefix)
    if not vecs:
        raise InvalidInput("empty prefix has no super candidate")
    out = vecs[0]
    for v in vecs[1:]:
        out = out.join(v)
    return out


def rational_utility(sigma: Sequence, t: int) -> Number:
    _check_index(sigma, t)
    return sigma.candidates[t - 1].l1


def biased_gambler_utility(sigma: Sequence, t: int,
                           params: AgentParams) -> Number:
    """Value at t minus lambda times the shortfall to s^(t)."""
    _check_index(sigma, t)
    _check_dims(sigma, params)
    v = sigma.candidates[t - 1].l1
    s = super_candidate(sigma.candidates[:t]).l1
    return v - params.lam * (s - v)


def biased_prophet_utility(sigma: Sequence, t: int,
                           params: AgentParams) -> Number:
    """Like the gambler's utility but referenced against s^(n)."""
    _check_index(sigma, t)
    _check_dims(sigma, params)
    v = sigma.candidates[t - 1].l1
    s = super_candidate(sigma.candidates).l1
    return v - params.lam * (s - v)


def no_selection_utility(sigma: Sequence, params: AgentParams) -> Number:
    """Walking away scores as a zero-valued pick against s^(n)."""
    _check_dims(sigma, params)
    return -params.lam * super_candidate(sigma.candidates).l1


def max_value(sigma: Sequence) -> Number:
    """V*: the largest L1 value in the sequence."""
    return max(c.l1 for c in sigma.candidates)


def offline_optimal_biased(sigma: Sequence, params: AgentParams,
                           allow_no_selection: bool = False) -> StoppingOutcome:
    """Arg-max of the biased gambler utility over stops; ties resolve to the
    smallest index, and any selection beats an equal-utility NoSelection."""
    best: Optional[StoppingOutcome] = None
    for t in range(1, sigma.n + 1):
        u = biased_gambler_utility(sigma, t, params)
        if best is None or u > best.utility:
            best = StoppingOutcome(t, rational_utility(sigma, t), u)
    if allow_no_selection:
        u = no_selection_utility(sigma, params)
        if u > best.utility:
            best = StoppingOutcome(None, Fraction(0), u)
    return best


def offline_optimal_prophet_utility(sigma: Sequence,
                                    params: AgentParams) -> Number:
    """Best biased-prophet utility over all picks (the offline agent)."""
    return max(biased_prophet_utility(sigma, t, params)
               for t in range(1, sigma.n + 1))


def representation(sigma: Sequence) -> Sequence:
    """Unique candidates in first-occurrence order, zero vectors dropped."""
    seen = set()
    out = []
    for c in sigma.candidates:
        if c.is_zero or c.entries in seen:
            continue
        seen.add(c.entries)
        out.append(c)
    if not out:
        raise InvalidInput("representation of an all-zero sequence is empty")
    return Sequence(tuple(out))


def is_succinct(sigma: Sequence) -> bool:
    """No duplicate candidates and no all-zero candidate."""
    seen = set()
    for c in sigma.candidates:
        if c.is_zero or c.entries in seen:
            return False
        seen.add(c.entries)
    return True


def pointwise_dominates(a: Sequence, b: Sequence) -> bool:
    """Every candidate of `a` has at least the L1 value of `b`'s candidate at
    the same index; sequences must have equal lengths."""
    if a.n != b.n:
        raise InvalidInput("point-wise dominance needs equal lengths")
    return all(x.l1 >= y.l1 for x, y in zip(a.candidates, b.candidates))


def higher_quality(a: Sequence, b: Sequence) -> bool:
    """The worst candidate of `a` beats the best candidate of `b`."""
    return min(c.l1 for c in a.candidates) > max(c.l1 for c in b.candidates)


# ---------------------------------------------------------------------------
# JSON forms
#
# Sequences: {"k": k, "candidates": [[...], ...]}
# Priors:    {"k": k, "n": n, "iid": bool, "steps": [{"atoms": [{"v": [...],
#            "p": "num/den" | float}, ...]}, ...]}
# Exact mode writes every number as a "num/den" (or plain integer) string so
# nothing is lost; float mode writes JSON numbers.
# ---------------------------------------------------------------------------


def number_to_json(x: Number):
    if isinstance(x, float):
        return x
    try:
        return str(x if isinstance(x, Fraction) else Fraction(x))
    except ValueError as err:  # past the interpreter's int-to-str limit
        raise ResourceLimit(_digit_limit()) from err


def number_from_json(x, exact: bool = True) -> Number:
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise InvalidInput(f"expected a number, got {x!r}")
    if not exact and isinstance(x, float) and math.isfinite(x):
        return x
    try:  # Fraction rejects inf and nan, float() an int past its range
        value = Fraction(x)
        return value if exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise InvalidInput(f"expected a finite number, got {x!r}") from err


def sequence_to_json(sigma: Sequence) -> dict:
    return {
        "k": sigma.k,
        "candidates": [[number_to_json(e) for e in c.entries]
                       for c in sigma.candidates],
    }


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(
            f"{what} must be an integer, got {type(x).__name__}")
    return x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InvalidInput(f"{what} must be a list, got {type(x).__name__}")
    return x


def _vector_from_json(row, exact: bool, what: str) -> ValueVector:
    return ValueVector(tuple(number_from_json(e, exact)
                             for e in _json_list(row, what)))


def sequence_from_json(obj: dict, exact: bool = True) -> Sequence:
    try:
        k = obj["k"]
        rows = obj["candidates"]
    except (TypeError, KeyError) as err:
        raise InvalidInput("sequence JSON needs 'k' and 'candidates'") from err
    k = _json_int(k, "'k'")
    cands = tuple(_vector_from_json(row, exact, "a candidate")
                  for row in _json_list(rows, "'candidates'"))
    sigma = Sequence(cands)
    if sigma.k != k:
        raise InvalidInput(f"declared k={k} but candidates have k={sigma.k}")
    return sigma


def _dist_to_json(dist: FiniteDistribution) -> dict:
    return {"atoms": [{"v": [number_to_json(e) for e in v.entries],
                       "p": number_to_json(p)} for v, p in dist.atoms]}


def _dist_from_json(obj: dict, exact: bool) -> FiniteDistribution:
    try:
        atoms = obj["atoms"]
    except (TypeError, KeyError) as err:
        raise InvalidInput("step JSON needs 'atoms'") from err
    pairs = []
    for a in _json_list(atoms, "'atoms'"):
        if not isinstance(a, dict) or "v" not in a or "p" not in a:
            raise InvalidInput("an atom needs 'v' and 'p'")
        pairs.append((_vector_from_json(a["v"], exact, "an atom's 'v'"),
                      number_from_json(a["p"], exact)))
    return FiniteDistribution(tuple(pairs))


def prior_to_json(prior: ProductPrior) -> dict:
    steps = [prior.steps[0]] if prior.iid else list(prior.steps)
    return {
        "k": prior.k,
        "n": prior.n,
        "iid": prior.iid,
        "steps": [_dist_to_json(d) for d in steps],
    }


def prior_from_json(obj: dict, exact: bool = True) -> ProductPrior:
    try:
        k = obj["k"]
        n = obj["n"]
        iid = obj["iid"]
        raw_steps = obj["steps"]
    except (TypeError, KeyError) as err:
        raise InvalidInput(
            "prior JSON needs 'k', 'n', 'iid', and 'steps'") from err
    k = _json_int(k, "'k'")
    n = _json_int(n, "'n'")
    dists = [_dist_from_json(s, exact)
             for s in _json_list(raw_steps, "'steps'")]
    if iid and len(dists) == 1 and n > 1:
        dists = dists * n
    if len(dists) != n:
        raise InvalidInput(f"declared n={n} but got {len(dists)} steps")
    prior = ProductPrior(tuple(dists))
    if prior.k != k:
        raise InvalidInput(f"declared k={k} but steps have k={prior.k}")
    if bool(iid) != prior.iid:
        raise InvalidInput("iid flag inconsistent with steps")
    return prior
