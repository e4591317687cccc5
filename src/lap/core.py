"""Domain types, the offline optima and the exact JSON forms.

The model: a gambler inspects n candidates online, each carrying a
k-dimensional non-negative value vector.  The reference point at step t is the
"super candidate" s^(t), the coordinatewise maximum over everything seen so
far.  A biased agent with loss-aversion weight lambda receives

    U(sigma, t) = ||sigma^(t)||_1 - lambda * (||s||_1 - ||sigma^(t)||_1)

where s is s^(t) for the online gambler and s^(n) for the offline prophet.
Rational (lambda = 0) agents just receive the value.  The offline optima
here score every stop of a sequence; `policies.run_rule` scores the one
stop an online rule makes, and the lattice passes score stops on a prior.

Validation happens at the boundary: JSON parsing and every public
constructor called with a caller's data check each entry, probability,
dimension and flag.  What lap builds from numbers it made itself (its
generators, `ProductPrior.deterministic`, `Sequence.prefix`, the
reduction's step and the paradox suite's sequences) goes through
`_trusted`, which sets the fields with no `__post_init__`; a prior's iid
flag is computed there by `_is_iid`, the helper `ProductPrior.__post_init__`
uses, so both paths build equal objects.

The domain types here, and the result types of the other modules, are
records: frozen value classes made by `_record` from their annotated
fields, as `dataclasses.dataclass(frozen=True)` would make them, with the
same `__init__`, `repr`, `==`, `hash` and `__match_args__`, and assignment
and deletion refused.  `_record` writes one small source per class for
the hot methods and shares the rest, so importing lap loads neither
`dataclasses` nor `inspect`; a `_Field` class attribute leaves a field
out of repr, == and hash, or builds its default per instance.

Two arithmetic modes coexist: exact rationals (fractions.Fraction, the
default; every closed-form identity is checked exactly) and plain floats for
Monte Carlo work.  Integers are normalized to Fraction on entry so that
untyped literals stay exact.  Each formula is written once: the offline
optima score an exact sequence on its integer view, and float inputs run
the same code on the identity view (`_integer_view`).
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Tuple, Union

Number = Union[int, float, Fraction]

# distribution normalization slack in float mode
FLOAT_PROB_TOL = 1e-12


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimit(RuntimeError):
    """A limit would be passed: the states an exact pass holds or a
    candidate count past the budget, or a number past the digit limit."""


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
    if type(x) is Fraction:  # the common case, with no isinstance chain
        return x
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


def _count(x, least: int, message: str) -> int:
    """`x` when it is an int, not a bool, of at least `least`; else
    InvalidInput(message)."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise InvalidInput(message)
    return x


def _coerce_nonnegative(x: Number, what: str = "value") -> Number:
    x = _coerce(x, what)
    # a Fraction's sign is its numerator's, read without a rich comparison
    if (x.numerator if type(x) is Fraction else x) < 0:
        raise InvalidInput(f"{what} must be non-negative")
    return x


class _Field:
    """A record field's options past a plain default: `hidden` leaves it
    out of repr, == and hash; `default_factory` builds its default per
    instance."""

    def __init__(self, hidden=False, default_factory=None):
        self.hidden, self.default_factory = hidden, default_factory


_PLAIN = _Field()


def _record_repr(self):
    shown = (f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _frozen(self, name, *value):  # __setattr__ and __delattr__
    verb = "assign to" if value else "delete"
    raise AttributeError(f"cannot {verb} field {name!r}")


def _record(cls):
    """`cls` made a record of its annotated fields: `__init__` (calling
    `__post_init__` when the class has one), `__eq__` and `__hash__` from
    one source per class; `__repr__`, `__setattr__` and `__delattr__`
    shared.  A field's class attribute is its default, or a `_Field`."""
    names = cls.__match_args__ = tuple(cls.__annotations__)
    marks = [cls.__dict__.get(name, _PLAIN) for name in names]
    params, body, shown = [], [], []
    for i, (name, mark) in enumerate(zip(names, marks)):
        default, value = f"_marks[{i}]", name
        if isinstance(mark, _Field):  # no plain default
            if mark is not _PLAIN:  # a mark leaves the class
                delattr(cls, name)
            if mark.default_factory:  # the mark stands for no argument
                value = f"{default}.default_factory() if {name} is " \
                        f"{default} else {name}"
            else:
                default = None
        params.append(f"{name}={default}" if default else name)
        body.append(f"\n    _set(self, {name!r}, {value})")
        shown += [name] * (not (isinstance(mark, _Field) and mark.hidden))
    body += ["\n    self.__post_init__()"] * hasattr(cls, "__post_init__")
    own = "".join(f"self.{name}, " for name in shown)
    ns = {"_set": object.__setattr__, "_marks": marks}
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({own}) == ({own.replace('self.', 'other.')})\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({own}))\n", ns)
    for method in ("__init__", "__eq__", "__hash__"):
        ns[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, ns[method])
    cls._repr_fields = tuple(shown)
    cls.__repr__ = _record_repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@_record
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
        # computed on first read and kept in the instance dict; record
        # equality, hash and repr see only `entries`
        return sum(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    @staticmethod
    def zero(k: int) -> "ValueVector":
        return ValueVector((Fraction(0),) * k)


@_record
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
        """The first t candidates; they read this sequence's scaled
        entries, if it has them, and build none of their own."""
        _check_index(self, t)
        head = _trusted(Sequence, candidates=self.candidates[:t])
        scaled = self._scaled
        if scaled is not None:  # kept where `cached_property` keeps it
            head.__dict__["_scaled"] = (scaled[0][:t], scaled[1])
        return head

    @cached_property
    def _scaled(self):
        """The entries as ints times L, the lcm of their denominators, and
        L; None when any entry is not a Fraction.  Built on first read; a
        prefix's are its sequence's, at that sequence's L."""
        entries = [c.entries for c in self.candidates]
        if not all(type(e) is Fraction for row in entries for e in row):
            return None
        unit = math.lcm(*(e.denominator for row in entries for e in row))
        return [tuple(e.numerator * (unit // e.denominator) for e in row)
                for row in entries], unit


class _Memoizing:
    """One kept result per builder on an immutable instance."""

    def memoized(self, build, *args, **kwargs):
        """`build(self, *args, **kwargs)`, kept in the instance dict (like
        ValueVector.l1) in one slot per `build` for equal positional
        arguments of equal types (compared, not hashed; keyword arguments
        are no part of the key).  A miss drops the kept result first; an
        exception is not kept; a kept result is shared, so it is read-only."""
        memo = self.__dict__.setdefault("_memo", {})
        key = (args, tuple(map(type, args)))
        if build not in memo or memo[build][0] != key:
            memo.pop(build, None)
            memo[build] = (key, build(self, *args, **kwargs))
        return memo[build][1]


@_record
class AgentParams(_Memoizing):
    """Loss-aversion weight lambda plus the ambient dimension k; what a
    command derives from them alone it keeps with `memoized`."""

    lam: Number
    k: int

    def __post_init__(self):
        object.__setattr__(self, "lam", _coerce_nonnegative(self.lam, "lambda"))
        _count(self.k, 1, "k must be a positive integer")

    @cached_property
    def bias(self) -> Number:
        """The feature-amplified bias lambda * (k - 1), kept on first read
        (like ValueVector.l1)."""
        return self.lam * (self.k - 1)

    @property
    def regime(self) -> str:
        b = self.bias
        if b < 1:
            return "subcritical"
        if b == 1:
            return "critical"
        return "supercritical"


@_record
class FiniteDistribution:
    """Finite-support distribution over value vectors for one step."""

    atoms: Tuple[Tuple[ValueVector, Number], ...]

    def __post_init__(self):
        atoms = tuple((v, _coerce(p, "probability")) for v, p in self.atoms)
        if not atoms:
            raise InvalidInput("distribution needs at least one atom")
        k = atoms[0][0].k
        seen = set()
        for v, p in atoms:
            if v.k != k:
                raise InvalidInput("all atoms must share one dimension")
            if (p.numerator if type(p) is Fraction else p) <= 0:
                raise InvalidInput("probabilities must be strictly positive")
            # a support point's key is its entries as exact int ratios, so
            # Fraction(1, 2) and 0.5 collide with no Fraction.__hash__ call;
            # the key is hashed once, by add
            size = len(seen)
            seen.add(tuple(e.as_integer_ratio() for e in v.entries))
            if len(seen) == size:
                raise InvalidInput(
                    f"duplicate support point {_shown(v.entries)}")
        if all(isinstance(p, Fraction) for _, p in atoms):
            # one int sum over the lcm of the denominators
            den = math.lcm(*(p.denominator for _, p in atoms))
            total = sum(p.numerator * (den // p.denominator) for _, p in atoms)
            if total != den:
                raise InvalidInput(f"probabilities sum to "
                                   f"{_shown(Fraction(total, den))}, not 1")
        else:
            total = 0
            for _, p in atoms:
                total = total + p
            if abs(total - 1) > FLOAT_PROB_TOL:
                raise InvalidInput(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def k(self) -> int:
        return self.atoms[0][0].k


@_record
class ProductPrior(_Memoizing):
    """n independent per-step distributions; iid flags identical steps."""

    steps: Tuple[FiniteDistribution, ...]
    iid: Optional[bool] = None

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise InvalidInput("prior needs at least one step")
        actual = _is_iid(steps)
        if self.iid is None:
            object.__setattr__(self, "iid", actual)
        elif _json_bool(self.iid, "'iid'") != actual:
            raise InvalidInput("iid flag inconsistent with steps")
        object.__setattr__(self, "steps", steps)

    @staticmethod
    def iid_prior(dist: FiniteDistribution, n: int) -> "ProductPrior":
        return ProductPrior((dist,) * _count(n, 1, "n must be at least 1"))

    @staticmethod
    def deterministic(sigma: Sequence) -> "ProductPrior":
        """One single-atom step per candidate of the (checked) sequence."""
        one = Fraction(1)
        return _trusted_prior(tuple(
            _trusted(FiniteDistribution, atoms=((v, one),))
            for v in sigma.candidates))

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def k(self) -> int:
        return self.steps[0].k

    @property
    def support_size(self) -> int:
        return math.prod(len(d.atoms) for d in self.steps)

    def realizations(self) -> Iterator[Tuple[Sequence, Number]]:
        """All (sequence, probability) pairs of the product support."""
        for combo in itertools.product(*(d.atoms for d in self.steps)):
            yield (Sequence(tuple(v for v, _ in combo)),
                   math.prod(q for _, q in combo))


def _is_iid(steps: tuple) -> bool:
    """Whether every step equals the first; steps of two dimensions are
    refused.  An iid prior repeats one object: count's identity test makes
    this one C-level pass, with nothing to read per step; otherwise each
    distinct step object is asked for its k and compared once."""
    first = steps[0]
    if steps[-1] is first and steps.count(first) == len(steps):
        return True
    distinct = {id(d): d for d in steps}.values()
    if len({d.k for d in distinct}) > 1:
        raise InvalidInput("all steps must share one dimension")
    return all(d == first for d in distinct)


def _trusted(cls, **fields):
    """A `cls` (one of this module's records) holding `fields`
    as given, built by object.__new__ and object.__setattr__ with no
    `__post_init__`.  Only for values lap built itself that the checked
    constructor would keep unchanged: tuples of Fractions or finite floats,
    non-negative entries, positive probabilities summing to 1, distinct
    support points and one dimension throughout."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _trusted_prior(steps: tuple) -> ProductPrior:
    """`_trusted`'s ProductPrior of `steps`, its iid flag by `_is_iid`, as
    the checked constructor sets it."""
    return _trusted(ProductPrior, steps=steps, iid=_is_iid(steps))


@_record
class StoppingOutcome:
    """Result of running a stopping rule: chosen index (None means no
    selection), the rational value received, and the biased utility."""

    selection: Optional[int]
    value: Number
    utility: Number


def _check_index(sigma: Sequence, t: int) -> None:
    message = f"index {t} out of range 1..{sigma.n}"
    if _count(t, 1, message) > sigma.n:
        raise InvalidInput(message)


def _check_dims(x, params: AgentParams) -> None:
    """A prior or a sequence, named by its type, has the params' k."""
    if x.k != params.k:
        name = "prior" if isinstance(x, ProductPrior) else "sequence"
        raise InvalidInput(f"{name} and params dimensions differ")


def max_value(sigma: Sequence) -> Number:
    """V*: the largest L1 value in the sequence."""
    return max(c.l1 for c in sigma.candidates)


def _integer_view(sigma: Sequence, lam: Number):
    """The candidates' entries and lambda = a/b as (rows, a, b, L, exact),
    so that a stop on value v whose super candidate's norm is S scores
    b*v - a*(S - v) over b*L.  On the integer view (`exact`) the rows are
    the entries as ints times L (`Sequence._scaled`, built once per
    sequence and shared by its prefixes); when lambda or any entry is not a
    Fraction, the identity view: the entries themselves, with a = lambda
    and b = L = 1, so the same formula runs on the numbers themselves."""
    if type(lam) is Fraction and sigma._scaled is not None:
        rows, unit = sigma._scaled
        return rows, lam.numerator, lam.denominator, unit, True
    return [c.entries for c in sigma.candidates], lam, 1, 1, False


def offline_optimal_biased(sigma: Sequence,
                           params: AgentParams) -> StoppingOutcome:
    """Arg-max of the biased gambler utility over stops; ties resolve to the
    smallest index.  Walking away, which scores -lambda * ||s^(n)||_1, is
    never better: a pick at t scores at least -lambda * ||s^(t)||_1.  Each
    stop is scored on `_integer_view` and the winner decoded once."""
    _check_dims(sigma, params)
    rows, a, b, unit, exact = _integer_view(sigma, params.lam)
    best_t, best_u = 0, None
    s = rows[0]  # s^(t)'s entries; no vector per step
    for t, row in enumerate(rows):
        s = tuple(map(max, s, row))
        v = sum(row)
        u = b * v - a * (sum(s) - v)
        if best_u is None or u > best_u:
            best_t, best_u = t, u
    return StoppingOutcome(best_t + 1, sigma.candidates[best_t].l1,
                           Fraction(best_u, b * unit) if exact else best_u)


def offline_optimal_prophet_utility(sigma: Sequence,
                                    params: AgentParams) -> Number:
    """Best biased-prophet utility over all picks (the offline agent), on
    `_integer_view`: every pick shares s^(n), and the first best is kept."""
    _check_dims(sigma, params)
    rows, a, b, unit, exact = _integer_view(sigma, params.lam)
    # s^(n)'s L1 norm, the sum of the column maxima; the first row is
    # passed twice so one row's columns are its own
    s = sum(map(max, rows[0], *rows))
    u = max(b * v - a * (s - v) for v in map(sum, rows))
    return Fraction(u, b * unit) if exact else u


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
    return len({c.entries for c in sigma.candidates if not c.is_zero}) == \
        sigma.n


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


# a number string: an integer, a/b, or a decimal with an optional exponent
# with ASCII digits only: `\d` would take any Unicode decimal digit
_number = re.compile(r"([-+]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)"
                     r"(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)").fullmatch
# Bounds on a number string, checked before any int is built from it.  No
# digit run this program prints is past the interpreter's default int-to-str
# limit, 4,300; an exponent may reach past it (to 10,000, where 10**e still
# costs microseconds) so that a value just too long to print parses and then
# meets the same ResourceLimit as a computed one.
_MAX_DIGITS, _MAX_EXPONENT = 4300, 10000


def _parse_number(text: str) -> Fraction:
    """A number string as a Fraction, its size bounded before parsing, so
    a few bytes of input cannot set the parse cost."""
    m = _number(text)
    if m is None:
        raise ValueError(text)
    sign, num, den, whole, frac, exp = m.groups()
    frac, exp = frac or "", exp or ""
    runs = (num, den) if num is not None else (whole + frac,)
    power = exp.lstrip("+-0")  # the exponent's digits
    if max(map(len, runs)) > _MAX_DIGITS or len(power) > 5 or \
            int(power or 0) > _MAX_EXPONENT:
        shown = text if len(text) <= 32 else text[:32] + "..."
        raise InvalidInput(f"number {shown!r} has a digit run past "
                           f"{_MAX_DIGITS} or an exponent past {_MAX_EXPONENT}")
    if num is not None:
        return Fraction(int(sign + num), int(den))
    shift = int(power or 0) * (-1 if exp[:1] == "-" else 1) - len(frac)
    if shift >= 0:
        return Fraction(int(sign + whole + frac) * 10 ** shift)
    return Fraction(int(sign + whole + frac), 10 ** -shift)


def _parse_int(text: str) -> int:
    """An integer string as an int: [-+]?[0-9]+, not all that int takes."""
    if re.fullmatch(r"[-+]?[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)


def number_from_json(x, exact: bool = True) -> Number:
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise InvalidInput(f"expected a number, got {x!r}")
    if not exact and isinstance(x, float) and math.isfinite(x):
        return x
    try:  # Fraction rejects inf and nan, float() an int past its range
        value = _parse_number(x) if isinstance(x, str) else Fraction(x)
        return value if exact else float(value)
    except InvalidInput:
        raise
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


def _json_bool(x, what: str) -> bool:
    if not isinstance(x, bool):
        raise InvalidInput(
            f"{what} must be a boolean, got {type(x).__name__}")
    return x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InvalidInput(f"{what} must be a list, got {type(x).__name__}")
    return x


def _json_keys(obj, message: str, *keys: str) -> list:
    """obj[key] for each required key, in order, or InvalidInput(message)
    when obj is not an object or lacks one."""
    try:
        return [obj[key] for key in keys]
    except (TypeError, KeyError) as err:
        raise InvalidInput(message) from err


class _Numbers(dict):
    """Number string -> number_from_json(string, exact), kept for one
    prior_from_json or sequence_from_json call, so that an instance is
    parsed once per distinct number string.  Only str keys go in, so 1,
    1.0, true and "1" each keep their own check; a string that fails
    raises as number_from_json does and is not kept."""

    def __init__(self, exact: bool):
        super().__init__()
        self.exact = exact

    def __missing__(self, text: str) -> Number:
        value = self[text] = number_from_json(text, self.exact)
        return value

    def read(self, x) -> Number:
        return self[x] if type(x) is str else number_from_json(x, self.exact)


def _vector_from_json(row, numbers: _Numbers, what: str) -> ValueVector:
    return ValueVector(tuple(map(numbers.read, _json_list(row, what))))


def sequence_from_json(obj: dict, exact: bool = True) -> Sequence:
    k, rows = _json_keys(obj, "sequence JSON needs 'k' and 'candidates'",
                         "k", "candidates")
    k = _json_int(k, "'k'")
    numbers = _Numbers(exact)
    cands = tuple(_vector_from_json(row, numbers, "a candidate")
                  for row in _json_list(rows, "'candidates'"))
    sigma = Sequence(cands)
    if sigma.k != k:
        raise InvalidInput(f"declared k={k} but candidates have k={sigma.k}")
    return sigma


def _dist_to_json(dist: FiniteDistribution) -> dict:
    return {"atoms": [{"v": [number_to_json(e) for e in v.entries],
                       "p": number_to_json(p)} for v, p in dist.atoms]}


def _dist_from_json(obj: dict, numbers: _Numbers) -> FiniteDistribution:
    atoms, = _json_keys(obj, "step JSON needs 'atoms'", "atoms")
    pairs = []
    for a in _json_list(atoms, "'atoms'"):
        if not isinstance(a, dict) or "v" not in a or "p" not in a:
            raise InvalidInput("an atom needs 'v' and 'p'")
        pairs.append((_vector_from_json(a["v"], numbers, "an atom's 'v'"),
                      numbers.read(a["p"])))
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
    k, n, iid, raw_steps = _json_keys(
        obj, "prior JSON needs 'k', 'n', 'iid', and 'steps'",
        "k", "n", "iid", "steps")
    k = _json_int(k, "'k'")
    n = _json_int(n, "'n'")
    iid = _json_bool(iid, "'iid'")
    numbers = _Numbers(exact)
    dists = tuple(_dist_from_json(s, numbers)
                  for s in _json_list(raw_steps, "'steps'"))
    if iid and len(dists) == 1 and n > 1:
        # a tuple, which ProductPrior keeps as it is: an n-step iid prior
        # holds one n-long array of references while it is read
        dists = dists * n
    if len(dists) != n:
        raise InvalidInput(f"declared n={n} but got {len(dists)} steps")
    prior = ProductPrior(dists)
    if prior.k != k:
        raise InvalidInput(f"declared k={k} but steps have k={prior.k}")
    if iid != prior.iid:
        raise InvalidInput("iid flag inconsistent with steps")
    return prior
