"""Command line front end.

Subcommands: generate, evaluate, ratio, verify, sweep, monte-carlo, reduce.
_SUBCOMMANDS is the one place a subcommand is defined: its handler, which
main calls, and the only flags it accepts; an unknown or abbreviated flag
is a usage error.  --seed is taken by ratio, verify, sweep and
monte-carlo; --format (json or csv) by ratio and sweep; --budget-states
and --float by every subcommand but generate.  All computation runs on exact
rationals; --float only changes how report numbers are printed.  Exit codes:
0 success, 1 a verification check failed (the report is still emitted), 2
invalid input, resource limit (running out of memory is one), usage error or
an internal error (any other exception, reported as `error: internal error:
<type>: <message>`).
_GENERATORS is the one place an instance family's flags live: --gen reads
its choices from it, and one function checks, passes and prints (in the
instance id) the flags each family takes.
"""

import argparse
import collections.abc
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .core import (
    AgentParams,
    InvalidInput,
    ProductPrior,
    ResourceLimit,
    Sequence,
    ValueVector,
    _parse_int,
    _parse_number,
    _trusted,
    offline_optimal_biased,
    offline_optimal_prophet_utility,
    prior_from_json,
    prior_to_json,
    sequence_from_json,
    sequence_to_json,
)
from .instances import (
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
    random_prior_draws,
)
from .policies import (
    DEFAULT_STATE_BUDGET,
    Policy,
    policy_to_json,
    resolve_budget,
)
from .analysis import (
    CheckResult,
    ROW_FIELDS,
    _blank_row,
    detect_quality_paradox,
    exact_expectation,
    monte_carlo,
    ratio_report,
    ratio_row,
    render,
    verify_online_bound,
    verify_prophet_bound,
)

# --gen NAME: the flags that gen_NAME (dashes as underscores) takes, in
# argument order, and the side labels of a pair.  The generator is looked up
# in this module at call time, so a wrapper set on lap.cli sees each call.
_GENERATORS = {
    "alternating-geometric": (("n", "k", "beta"), None),
    "alternating-linear": (("n", "k"), None),
    "partial-sums": (("w", "k", "beta"), None),
    "worstcase-mixed": (("w", "k", "lambda", "eps"), None),
    "identical-value": (("k", "q"), None),
    "salient-feature": (("k", "a", "q"), None),
    "quality-pair": (("k", "q"), ("lower_quality", "higher_quality")),
    "dominance-pair": (("k", "n", "lambda", "eps"), ("base", "dominating")),
}

VERIFY_INSTANCES = 50


# ---------------------------------------------------------------------------
# argument types
# ---------------------------------------------------------------------------


def number(text: str) -> Fraction:
    """A numeric flag's text through core's bounded number grammar; a zero
    denominator, like a string outside the grammar, is a usage error."""
    try:
        return _parse_number(text)
    except InvalidInput as err:  # past the grammar's digit or exponent bound
        raise argparse.ArgumentTypeError(str(err))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def integer(text: str) -> int:
    """An integer flag's text through core's integer grammar."""
    return _parse_int(text)


class _Grid(collections.abc.Sequence):
    """The points start + i*step for i below count, each built when read,
    so a grid's size is known before any point exists."""

    def __init__(self, start: Fraction, step: Fraction, count: int):
        self.start, self.step, self.count = start, step, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> Fraction:
        return self.start + range(self.count)[i] * self.step


def grid(text: str) -> _Grid:
    """Inclusive start:stop:step grid of exact rationals; step defaults
    to 1, a bare value is a one-point grid.  A grid of more points than
    the default state budget is refused; no point is built here."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"grid {text!r} has too many fields")
    start = number(parts[0])
    stop = number(parts[1]) if len(parts) > 1 else start
    step = number(parts[2]) if len(parts) > 2 else Fraction(1)
    if step <= 0 or stop < start:
        raise ValueError("grid needs start <= stop and step > 0")
    count = (stop - start) // step + 1
    if count > DEFAULT_STATE_BUDGET:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {DEFAULT_STATE_BUDGET} points")
    return _Grid(start, step, count)


# bare spec names, then NAME: forms that read the text after the colon
_POLICY_SPECS = {
    "accept-last": Policy.accept_last,
    "optimal-biased": Policy.optimal_biased,
    "optimal-rational": Policy.optimal_rational,
    "fixed:": lambda arg: Policy.fixed_index(integer(arg)),
    "threshold:": lambda arg: Policy.threshold(number(arg)),
    "alpha:": lambda arg: Policy.from_alpha(number(arg)),
}


def policy_spec(text: str) -> Policy:
    """accept-last | optimal-biased | optimal-rational | fixed:T |
    threshold:V | alpha:A"""
    name, colon, arg = text.partition(":")
    make = _POLICY_SPECS.get(name + colon if arg else name)
    if make is None:
        raise ValueError(f"unknown policy spec {text!r}")
    return make(arg) if arg else make()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _dump_csv(rows: List[Dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(ROW_FIELDS),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _check_json(check: CheckResult, as_float: bool) -> Dict[str, Any]:
    return {
        "name": check.name,
        "passed": check.passed,
        "lhs": render(check.lhs, as_float),
        "rhs": render(check.rhs, as_float),
        "detail": {key: render(value, as_float)
                   for key, value in check.detail.items()},
        "counterexample": check.counterexample,
    }


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def _load_instance(path: str):
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as err:
        raise InvalidInput(f"cannot read {path}: {err}")
    try:
        obj = json.loads(text)
    except ValueError as err:  # a decode error, or an int past 4,300 digits
        raise InvalidInput(f"malformed JSON in {path}: {err}")
    if isinstance(obj, dict) and "candidates" in obj:
        return sequence_from_json(obj)
    if isinstance(obj, dict) and "steps" in obj:
        return prior_from_json(obj)
    raise InvalidInput(f"{path} holds neither a sequence nor a prior")


def _generator_args(args, k, lam):
    """The --gen family's flag values, in argument order, and the instance
    id that names them; k and lambda come apart because sweep takes them
    from its grids."""
    flags, _ = _GENERATORS[args.gen]
    given = dict(vars(args), k=k, lam=lam)
    values = []
    for flag in flags:
        value = given[_FLAGS[flag].get("dest", flag)]
        if value is None:
            raise InvalidInput(f"generator {args.gen} needs --{flag}")
        values.append(value)
    shown = ",".join(f"{flag}={value}" for flag, value in zip(flags, values))
    return tuple(values), f"{args.gen}({shown})"


def _build(gen: str, values: tuple):
    """The instance of family `gen` (a pair as a dict of its labeled
    sides) from its flag values."""
    _, labels = _GENERATORS[gen]
    obj = globals()["gen_" + gen.replace("-", "_")](*values)
    return dict(zip(labels, obj)) if labels else obj


def _generated(args, k, lam):
    """The --gen instance and its id."""
    values, ident = _generator_args(args, k, lam)
    return _build(args.gen, values), ident


def _instance_from_args(args):
    if args.gen and args.infile:
        raise InvalidInput("give either --gen or --in, not both")
    if args.gen:
        return _generated(args, args.k, args.lam)
    if args.infile:
        return _load_instance(args.infile), args.infile
    raise InvalidInput("an instance is required: --gen NAME or --in FILE")


def _as_prior(obj) -> ProductPrior:
    if isinstance(obj, ProductPrior):
        return obj
    if isinstance(obj, Sequence):
        return ProductPrior.deterministic(obj)
    raise InvalidInput("paired instances cannot be evaluated directly; "
                       "generate them and feed one side back with --in")


def _instance_json(obj):
    if isinstance(obj, Sequence):
        return sequence_to_json(obj)
    if isinstance(obj, ProductPrior):
        return prior_to_json(obj)
    return {label: sequence_to_json(side) for label, side in obj.items()}


def _require(args, **fields):
    for flag, value in fields.items():
        if value is None:
            raise InvalidInput(f"{args.command} needs --{flag}")


def _prior_from_args(args, **required):
    """The instance as a prior, the agent's params and the instance id;
    --lambda and the `required` flags are checked once the instance is."""
    obj, ident = _instance_from_args(args)
    prior = _as_prior(obj)
    _require(args, **{"lambda": args.lam, **required})
    return prior, AgentParams(args.lam, prior.k), ident


def _policy_payload(args, prior: ProductPrior, ident: str) -> Dict[str, Any]:
    """The fields evaluate and monte-carlo both report first."""
    return {"instance_id": ident, "n": prior.n, "k": prior.k,
            "lambda": render(args.lam, args.as_float),
            "policy": policy_to_json(args.policy)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> Tuple[str, bool]:
    if not args.gen:
        raise InvalidInput("generate needs --gen NAME")
    obj, _ = _generated(args, args.k, args.lam)
    return _dump_json(_instance_json(obj)), False


def _cmd_evaluate(args) -> Tuple[str, bool]:
    prior, params, ident = _prior_from_args(args, policy=args.policy)
    value = exact_expectation(prior, args.policy, params, budget=args.budget)
    payload = {**_policy_payload(args, prior, ident),
               "expected_utility": render(value, args.as_float)}
    return _dump_json(payload), False


def _cmd_ratio(args) -> Tuple[str, bool]:
    prior, params, ident = _prior_from_args(args)
    report = ratio_report(prior, params, args.budget)
    row = ratio_row(report, params, prior.n, ident, args.seed,
                    args.as_float)
    if args.format == "csv":
        return _dump_csv([row]), False
    return _dump_json(row), False


def _verify_bounds(rng, params, count, budget) -> List[CheckResult]:
    if params.bias < 1:
        # read once for every prior; a supercritical bias is refused by the
        # first check before the budget is read, as it was
        budget = resolve_budget(budget)
    checks = []
    for _ in range(count):
        prior = gen_random_prior(rng, k=params.k)
        checks.append(verify_prophet_bound(prior, params, budget))
        checks.append(verify_online_bound(prior, params, budget))
    return checks


def _verify_paradoxes(rng, params, count) -> List[CheckResult]:
    rational = AgentParams(Fraction(0), params.k)
    checks = []
    scenes = {}  # q -> its quality report: the scene depends on q alone
    for _ in range(count):
        q = rng.choice((Fraction(3, 2), Fraction(2), Fraction(5, 2),
                        Fraction(3)))
        if q not in scenes:
            scenes[q] = detect_quality_paradox(
                *gen_quality_pair(params.k, q), params)
        rep = scenes[q]
        checks.append(CheckResult(
            "quality-gambler-better", rep.gambler_better_on_higher,
            rep.gambler_high, rep.gambler_low,
            {"q": q, "prophet_worse_on_higher": rep.prophet_worse_on_higher}))
        full = _trusted(Sequence, candidates=tuple(
            _trusted(ValueVector, entries=support[0]) for support, _ in
            random_prior_draws(rng, k=params.k, atoms_max=1)))
        base = full.prefix(rng.randint(1, full.n))
        pr_full = offline_optimal_prophet_utility(full, rational)
        pr_base = offline_optimal_prophet_utility(base, rational)
        checks.append(CheckResult(
            "rational-prophet-monotone", pr_full >= pr_base,
            pr_full, pr_base, {}))
        gb_full = offline_optimal_biased(full, params).utility
        gb_base = offline_optimal_biased(base, params).utility
        checks.append(CheckResult(
            "gambler-extension-monotone", gb_full >= gb_base,
            gb_full, gb_base, {}))
    return checks


def _cmd_verify(args) -> Tuple[str, bool]:
    _require(args, **{"lambda": args.lam, "k": args.k, "seed": args.seed})
    count = args.trials if args.trials is not None else VERIFY_INSTANCES
    if count < 1:
        raise InvalidInput("verify needs a positive instance count")
    params = AgentParams(args.lam, args.k)
    if args.suite != "bounds" and params.k < 2:
        # refused before any instance is drawn; at k = 1 the bounds suite
        # can fail first only on a bad budget, so that is resolved first
        if args.suite == "all":
            resolve_budget(args.budget)
        raise InvalidInput("paradoxes suite needs k >= 2")
    rng = random.Random(args.seed)
    checks = []
    if args.suite in ("bounds", "all"):
        checks.extend(_verify_bounds(rng, params, count, args.budget))
    if args.suite in ("paradoxes", "all"):
        checks.extend(_verify_paradoxes(rng, params, count))
    failures = [c for c in checks if not c.passed]
    payload = {
        "suite": args.suite,
        "lambda": render(args.lam, args.as_float),
        "k": args.k,
        "seed": args.seed,
        "instances": count,
        "checks": len(checks),
        "passed": len(checks) - len(failures),
        "failed": len(failures),
        "failures": [_check_json(c, args.as_float) for c in failures],
    }
    return _dump_json(payload), bool(failures)


def _sweep_rows(args, values: tuple, ident: str,
                cells: List[AgentParams]) -> List[Dict[str, Any]]:
    """The rows of the sweep cells that share one instance id, all read
    from one instance and prior built here and dropped on return.  Cells
    whose instance the family refuses to build, or builds as a pair, get
    blank rows tagged unconstructible."""
    try:
        prior = _as_prior(_build(args.gen, values))
    except InvalidInput:  # a pair, or values the family refuses
        prior = None
    rows = []
    for params in cells:
        if prior is None:  # keep the grid point, tag the regime
            tag = (f"{args.gen}(unconstructible,k={params.k},"
                   f"lambda={params.lam})")
            rows.append(_blank_row(params, tag, args.seed, args.as_float))
            continue
        report = ratio_report(prior, params, args.budget)
        rows.append(ratio_row(report, params, prior.n, ident, args.seed,
                              args.as_float))
    return rows


def _cmd_sweep(args) -> Tuple[str, bool]:
    """One ratio row per (lambda, k) cell of the grids, lambda outer and k
    inner.  Cells are grouped by instance id, which names every flag value
    (lambda too for the families that take it), and each group's instance
    is built once: its prior's memo then serves one rank table and one V*
    law to every cell and keeps one biased DP, the current cell's.  Groups
    run in the order of their first cell and only one prior is alive at a
    time, so a sweep's memory does not grow with its grid.  A grid of more
    cells than the default state budget is refused before any point is
    listed, and a bad budget or a missing flag before any instance is
    built."""
    _require(args, **{"gen": args.gen, "lambda-grid": args.lambda_grid,
                      "k-grid": args.k_grid})
    if len(args.lambda_grid) * len(args.k_grid) > DEFAULT_STATE_BUDGET:
        raise InvalidInput(
            f"sweep grid has more than {DEFAULT_STATE_BUDGET} cells")
    if any(value.denominator != 1 for value in args.k_grid):
        raise InvalidInput("--k-grid must contain integers")
    ks = [int(value) for value in args.k_grid]
    args.budget = resolve_budget(args.budget)
    # both grids ascend and AgentParams refuses only lambda < 0 or k < 1,
    # so a refused cell is the first one, as when each cell was built in turn
    cells = [AgentParams(lam, k) for lam in args.lambda_grid for k in ks]
    groups: Dict[tuple, List[int]] = {}  # (values, id) -> cell indexes
    for index, params in enumerate(cells):
        key = _generator_args(args, params.k, params.lam)
        groups.setdefault(key, []).append(index)
    rows: List[Any] = [None] * len(cells)
    for (values, ident), indexes in groups.items():
        group = [cells[index] for index in indexes]
        for index, row in zip(indexes,
                              _sweep_rows(args, values, ident, group)):
            rows[index] = row
    if args.format == "json":
        return _dump_json(rows), False
    return _dump_csv(rows), False


def _cmd_monte_carlo(args) -> Tuple[str, bool]:
    prior, params, ident = _prior_from_args(
        args, policy=args.policy, trials=args.trials, seed=args.seed)
    est = monte_carlo(prior, args.policy, params, args.trials, args.seed,
                      budget=args.budget)
    payload = {**_policy_payload(args, prior, ident), "trials": est.trials,
               "seed": est.seed, "mean": est.mean,
               "half_width": est.half_width}
    return _dump_json(payload), False


def _cmd_reduce(args) -> Tuple[str, bool]:
    obj, ident = _instance_from_args(args)
    if not isinstance(obj, Sequence):
        raise InvalidInput("reduce needs a deterministic sequence instance")
    _require(args, **{"lambda": args.lam, "eps": args.eps})
    params = AgentParams(args.lam, obj.k)
    prior, meta = det_to_iid(obj, params, args.eps, n_override=args.n,
                             budget=args.budget)
    payload = {
        "instance_id": ident,
        "meta": {
            "m": meta.m,
            "x": render(meta.x, args.as_float),
            "alpha_exp": meta.alpha_exp,
            "nominal_n": meta.nominal_n,
            "epsilon": render(meta.epsilon, args.as_float),
            "log_base": meta.log_base,
        },
        "prior": prior_to_json(prior),
    }
    return _dump_json(payload), False


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_FLAGS = {
    "gen": dict(choices=_GENERATORS, help="instance family"),
    "in": dict(dest="infile", metavar="FILE",
               help="instance JSON produced by generate"),
    "n": dict(type=integer, help="candidate count / override"),
    "k": dict(type=integer, help="value dimension"),
    "lambda": dict(dest="lam", type=number, help="loss-aversion weight"),
    "beta": dict(type=number, help="growth ratio"),
    "eps": dict(type=number, help="tail probability / slack"),
    "w": dict(type=integer, help="row count"),
    "q": dict(type=number, help="base value"),
    "a": dict(type=number, help="shared feature value"),
    "policy": dict(type=policy_spec),
    "suite": dict(choices=("bounds", "paradoxes", "all"), default="all"),
    "trials": dict(type=integer, help="trials; for verify, instances per "
                                      f"suite (default {VERIFY_INSTANCES})"),
    "lambda-grid": dict(type=grid, metavar="START:STOP:STEP"),
    "k-grid": dict(type=grid, metavar="START:STOP[:STEP]"),
    "seed": dict(type=integer, help="rng seed"),
    "budget-states": dict(dest="budget", type=integer,
                          help="state budget "
                               "(env LAP_BUDGET_STATES, default 10^6)"),
    "out": dict(metavar="FILE", help="write output here"),
    "format": dict(choices=("json", "csv")),
    "float": dict(dest="as_float", action="store_true",
                  help="print numbers as floats, not exact rationals"),
}

_GENERATOR = ("gen", "n", "k", "lambda", "beta", "eps", "w", "q", "a")
_INSTANCE = _GENERATOR + ("in",)
_REPORT = ("budget-states", "out", "float")

# name, handler, help, the flags the handler reads, defaults
_SUBCOMMANDS = (
    ("generate", _cmd_generate, "emit an instance as JSON",
     _GENERATOR + ("out",), {}),
    ("evaluate", _cmd_evaluate, "exact expected utility of a policy",
     _INSTANCE + ("policy",) + _REPORT, {}),
    ("ratio", _cmd_ratio, "benchmark expectations and ratios",
     _INSTANCE + ("seed", "format") + _REPORT, {"format": "json"}),
    ("verify", _cmd_verify, "run seeded inequality sweeps",
     ("suite", "k", "lambda", "trials", "seed") + _REPORT, {}),
    ("sweep", _cmd_sweep, "ratio table over a parameter grid",
     ("gen", "n", "beta", "eps", "w", "q", "a", "lambda-grid", "k-grid",
      "seed", "format") + _REPORT, {"format": "csv"}),
    ("monte-carlo", _cmd_monte_carlo, "sampled expected utility",
     _INSTANCE + ("policy", "trials", "seed") + _REPORT, {}),
    ("reduce", _cmd_reduce, "deterministic sequence to iid prior",
     _INSTANCE + _REPORT, {}),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lap",
        description="Loss-averse prophet instances, policies, and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags, defaults in _SUBCOMMANDS:
        # no abbreviations: sweep --lambda must not mean --lambda-grid
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(handler=handler, **defaults)
    return parser


def _write_output(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise InvalidInput(f"cannot write {out_path}: {err}")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, failed = args.handler(args)
        _write_output(text, args.out)
    except InvalidInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ResourceLimit, OverflowError) as err:  # a float past its range
        print(f"error: resource limit: {err}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. an iid prior that declares n = 2**62
        print("error: resource limit: out of memory", file=sys.stderr)
        return 2
    except Exception as err:  # a defect; exit 1 would read as a counterexample
        print(f"error: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
