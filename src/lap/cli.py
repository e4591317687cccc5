"""Command line front end.

Subcommands: generate, evaluate, ratio, verify, sweep, monte-carlo, reduce.
Each accepts only the flags it reads (see _SUBCOMMANDS); an unknown or
abbreviated flag is a usage error.  --seed is taken by ratio, verify, sweep
and monte-carlo; --format (json or csv) by ratio and sweep; --budget-states
and --float by every subcommand but generate.  All computation runs on exact
rationals; --float only changes how report numbers are printed.  Exit codes:
0 success, 1 a verification check failed (the report is still emitted), 2
invalid input, resource limit, usage error or an internal error (any other
exception, reported as `error: internal error: <type>: <message>`).
"""

import argparse
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
)
from .policies import Policy, policy_to_json
from .analysis import (
    CheckResult,
    ROW_FIELDS,
    detect_quality_paradox,
    exact_expectation,
    monte_carlo,
    ratio_report,
    ratio_row,
    render,
    verify_online_bound,
    verify_prophet_bound,
)

GENERATORS = ("alternating-geometric", "alternating-linear", "partial-sums",
              "worstcase-mixed", "identical-value", "salient-feature",
              "quality-pair", "dominance-pair")

VERIFY_INSTANCES = 50


# ---------------------------------------------------------------------------
# argument types
# ---------------------------------------------------------------------------


def grid(text: str) -> List[Fraction]:
    """Inclusive start:stop:step grid of exact rationals; step defaults
    to 1, a bare value is a one-point grid."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"grid {text!r} has too many fields")
    start = Fraction(parts[0])
    stop = Fraction(parts[1]) if len(parts) > 1 else start
    step = Fraction(parts[2]) if len(parts) > 2 else Fraction(1)
    if step <= 0 or stop < start:
        raise ValueError("grid needs start <= stop and step > 0")
    out = []
    value = start
    while value <= stop:
        out.append(value)
        value += step
    return out


def policy_spec(text: str) -> Policy:
    """accept-last | optimal-biased | optimal-rational | fixed:T |
    threshold:V | alpha:A"""
    name, _, arg = text.partition(":")
    if not arg:
        if name == "accept-last":
            return Policy.accept_last()
        if name == "optimal-biased":
            return Policy.optimal_biased()
        if name == "optimal-rational":
            return Policy.optimal_rational()
    else:
        if name == "fixed":
            return Policy.fixed_index(int(arg))
        if name == "threshold":
            return Policy.threshold(Fraction(arg))
        if name == "alpha":
            return Policy.from_alpha(Fraction(arg))
    raise ValueError(f"unknown policy spec {text!r}")


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


def _build_generated(name: str, n=None, k=None, lam=None, beta=None,
                     eps=None, w=None, q=None, a=None):
    """Build one instance (or labeled pair) plus its identifier string."""

    def need(flag, value):
        if value is None:
            raise InvalidInput(f"generator {name} needs --{flag}")
        return value

    if name == "alternating-geometric":
        obj = gen_alternating_geometric(need("n", n), need("k", k),
                                        need("beta", beta))
        ident = f"alternating-geometric(n={n},k={k},beta={beta})"
    elif name == "alternating-linear":
        obj = gen_alternating_linear(need("n", n), need("k", k))
        ident = f"alternating-linear(n={n},k={k})"
    elif name == "partial-sums":
        obj = gen_partial_sums(need("w", w), need("k", k), need("beta", beta))
        ident = f"partial-sums(w={w},k={k},beta={beta})"
    elif name == "worstcase-mixed":
        obj = gen_worstcase_mixed(need("w", w), need("k", k),
                                  need("lambda", lam), need("eps", eps))
        ident = f"worstcase-mixed(w={w},k={k},lambda={lam},eps={eps})"
    elif name == "identical-value":
        obj = gen_identical_value(need("k", k), need("q", q))
        ident = f"identical-value(k={k},q={q})"
    elif name == "salient-feature":
        obj = gen_salient_feature(need("k", k), need("a", a), need("q", q))
        ident = f"salient-feature(k={k},a={a},q={q})"
    elif name == "quality-pair":
        low, high = gen_quality_pair(need("k", k), need("q", q))
        obj = {"lower_quality": low, "higher_quality": high}
        ident = f"quality-pair(k={k},q={q})"
    elif name == "dominance-pair":
        base, dom = gen_dominance_pair(need("k", k), need("n", n),
                                       need("lambda", lam), need("eps", eps))
        obj = {"base": base, "dominating": dom}
        ident = f"dominance-pair(k={k},n={n},lambda={lam},eps={eps})"
    else:
        raise InvalidInput(f"unknown generator {name!r}")
    return obj, ident


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


def _generated(args, k, lam):
    """The --gen instance; k and lambda come apart because sweep takes
    them from its grids."""
    return _build_generated(args.gen, n=args.n, k=k, lam=lam,
                            beta=args.beta, eps=args.eps, w=args.w,
                            q=args.q, a=args.a)


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> Tuple[str, bool]:
    if not args.gen:
        raise InvalidInput("generate needs --gen NAME")
    obj, _ = _generated(args, args.k, args.lam)
    return _dump_json(_instance_json(obj)), False


def _cmd_evaluate(args) -> Tuple[str, bool]:
    obj, ident = _instance_from_args(args)
    prior = _as_prior(obj)
    _require(args, **{"lambda": args.lam, "policy": args.policy})
    params = AgentParams(args.lam, prior.k)
    value = exact_expectation(prior, args.policy, params, budget=args.budget)
    payload = {
        "instance_id": ident,
        "n": prior.n,
        "k": prior.k,
        "lambda": render(args.lam, args.as_float),
        "policy": policy_to_json(args.policy),
        "expected_utility": render(value, args.as_float),
    }
    return _dump_json(payload), False


def _cmd_ratio(args) -> Tuple[str, bool]:
    obj, ident = _instance_from_args(args)
    prior = _as_prior(obj)
    _require(args, **{"lambda": args.lam})
    params = AgentParams(args.lam, prior.k)
    report = ratio_report(prior, params, args.budget)
    row = ratio_row(report, params, prior.n, ident, args.seed,
                    args.as_float)
    if args.format == "csv":
        return _dump_csv([row]), False
    return _dump_json(row), False


def _verify_bounds(rng, params, count, budget) -> List[CheckResult]:
    checks = []
    for _ in range(count):
        prior = gen_random_prior(rng, k=params.k)
        checks.append(verify_prophet_bound(prior, params, budget))
        checks.append(verify_online_bound(prior, params, budget))
    return checks


def _verify_paradoxes(rng, params, count) -> List[CheckResult]:
    if params.k < 2:
        raise InvalidInput("paradoxes suite needs k >= 2")
    rational = AgentParams(Fraction(0), params.k)
    checks = []
    for _ in range(count):
        q = rng.choice((Fraction(3, 2), Fraction(2), Fraction(5, 2),
                        Fraction(3)))
        low, high = gen_quality_pair(params.k, q)
        rep = detect_quality_paradox(low, high, params)
        checks.append(CheckResult(
            "quality-gambler-better", rep.gambler_better_on_higher,
            rep.gambler_high, rep.gambler_low,
            {"q": q, "prophet_worse_on_higher": rep.prophet_worse_on_higher}))
        sigma = gen_random_prior(rng, k=params.k, atoms_max=1)
        full = Sequence(tuple(d.atoms[0][0] for d in sigma.steps))
        base = full.prefix(rng.randint(1, full.n))
        pr_full = offline_optimal_prophet_utility(full, rational)
        pr_base = offline_optimal_prophet_utility(base, rational)
        checks.append(CheckResult(
            "rational-prophet-monotone", pr_full >= pr_base,
            pr_full, pr_base, {}))
        gb_full = offline_optimal_biased(full, params, True).utility
        gb_base = offline_optimal_biased(base, params, True).utility
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


def _blank_row(params: AgentParams, ident: str, seed,
               as_float: bool) -> Dict[str, Any]:
    row = dict.fromkeys(ROW_FIELDS, "")
    row.update({
        "lambda": render(params.lam, as_float),
        "k": params.k,
        "bias": render(params.bias, as_float),
        "regime": params.regime,
        "instance_id": ident,
        "seed": seed,
    })
    return row


def _cmd_sweep(args) -> Tuple[str, bool]:
    _require(args, gen=args.gen)
    if args.lambda_grid is None:
        raise InvalidInput("sweep needs --lambda-grid")
    if args.k_grid is None:
        raise InvalidInput("sweep needs --k-grid")
    if any(value.denominator != 1 for value in args.k_grid):
        raise InvalidInput("--k-grid must contain integers")
    ks = [int(value) for value in args.k_grid]
    rows = []
    for lam in args.lambda_grid:
        for k in ks:
            params = AgentParams(lam, k)
            try:
                obj, ident = _generated(args, k, lam)
                prior = _as_prior(obj)
                report = ratio_report(prior, params, args.budget)
                row = ratio_row(report, params, prior.n, ident, args.seed,
                                args.as_float)
            except InvalidInput:
                # unconstructible cell: keep the grid point, tag the regime
                ident = f"{args.gen}(unconstructible,k={k},lambda={lam})"
                row = _blank_row(params, ident, args.seed, args.as_float)
            rows.append(row)
    if args.format == "json":
        return _dump_json(rows), False
    return _dump_csv(rows), False


def _cmd_monte_carlo(args) -> Tuple[str, bool]:
    obj, ident = _instance_from_args(args)
    prior = _as_prior(obj)
    _require(args, **{"lambda": args.lam, "policy": args.policy,
                      "trials": args.trials, "seed": args.seed})
    params = AgentParams(args.lam, prior.k)
    est = monte_carlo(prior, args.policy, params, args.trials, args.seed,
                      budget=args.budget)
    payload = {
        "instance_id": ident,
        "n": prior.n,
        "k": prior.k,
        "lambda": render(args.lam, args.as_float),
        "policy": policy_to_json(args.policy),
        "trials": est.trials,
        "seed": est.seed,
        "mean": est.mean,
        "half_width": est.half_width,
    }
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


_COMMANDS = {
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "ratio": _cmd_ratio,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "monte-carlo": _cmd_monte_carlo,
    "reduce": _cmd_reduce,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_FLAGS = {
    "gen": dict(choices=GENERATORS, help="instance family"),
    "in": dict(dest="infile", metavar="FILE",
               help="instance JSON produced by generate"),
    "n": dict(type=int, help="candidate count / override"),
    "k": dict(type=int, help="value dimension"),
    "lambda": dict(dest="lam", type=Fraction, help="loss-aversion weight"),
    "beta": dict(type=Fraction, help="growth ratio"),
    "eps": dict(type=Fraction, help="tail probability / slack"),
    "w": dict(type=int, help="row count"),
    "q": dict(type=Fraction, help="base value"),
    "a": dict(type=Fraction, help="shared feature value"),
    "policy": dict(type=policy_spec),
    "suite": dict(choices=("bounds", "paradoxes", "all"), default="all"),
    "trials": dict(type=int, help="trials; for verify, instances per suite "
                                  f"(default {VERIFY_INSTANCES})"),
    "lambda-grid": dict(type=grid, metavar="START:STOP:STEP"),
    "k-grid": dict(type=grid, metavar="START:STOP[:STEP]"),
    "seed": dict(type=int, help="rng seed"),
    "budget-states": dict(dest="budget", type=int,
                          help="state/enumeration budget "
                               "(env LAP_BUDGET_STATES, default 10^6)"),
    "out": dict(metavar="FILE", help="write output here"),
    "format": dict(choices=("json", "csv")),
    "float": dict(dest="as_float", action="store_true",
                  help="print numbers as floats, not exact rationals"),
}

_GENERATOR = ("gen", "n", "k", "lambda", "beta", "eps", "w", "q", "a")
_INSTANCE = _GENERATOR + ("in",)
_REPORT = ("budget-states", "out", "float")

# name, help, the flags its _cmd_* reads, defaults
_SUBCOMMANDS = (
    ("generate", "emit an instance as JSON", _GENERATOR + ("out",), {}),
    ("evaluate", "exact expected utility of a policy",
     _INSTANCE + ("policy",) + _REPORT, {}),
    ("ratio", "benchmark expectations and ratios",
     _INSTANCE + ("seed", "format") + _REPORT, {"format": "json"}),
    ("verify", "run seeded inequality sweeps",
     ("suite", "k", "lambda", "trials", "seed") + _REPORT, {}),
    ("sweep", "ratio table over a parameter grid",
     ("gen", "n", "beta", "eps", "w", "q", "a", "lambda-grid", "k-grid",
      "seed", "format") + _REPORT, {"format": "csv"}),
    ("monte-carlo", "sampled expected utility",
     _INSTANCE + ("policy", "trials", "seed") + _REPORT, {}),
    ("reduce", "deterministic sequence to iid prior", _INSTANCE + _REPORT,
     {}),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lap",
        description="Loss-averse prophet instances, policies, and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, defaults in _SUBCOMMANDS:
        # no abbreviations: sweep --lambda must not mean --lambda-grid
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(**defaults)
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
        text, failed = _COMMANDS[args.command](args)
        _write_output(text, args.out)
    except InvalidInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ResourceLimit, OverflowError) as err:  # a float past its range
        print(f"error: resource limit: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a defect; exit 1 would read as a counterexample
        print(f"error: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
