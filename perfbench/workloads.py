"""The four benchmark workloads: sizes, seeded inputs and operation lists.

Every operation is one closed-loop call by a single client.  A CLI
operation runs `lap.cli.main(argv)` in process with stdout captured; the
patience operation calls `lap.policies.patience_compare` directly.  Both
are looked up on the module at call time, so the traced run sees them
through its wrappers.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from inputs import product_prior, succinct_sequence

LAMBDA = Fraction(1, 4)
SWEEP_GRID = ("--lambda-grid", "0:3:1/4", "--k-grid", "1:4")

# Sizes per workload.  "full" is what a measured run uses; "smoke" is a
# reduced pass of the same operations that checks the harness in seconds.
SIZES = {
    "full": {
        "exact-enum": {"priors": 4, "n": 4, "k": 3, "atoms": 4},
        "lattice-dp": {"priors": ((16, 3, 5),) * 3 + ((10, 4, 5),) * 3},
        "sampled": {"priors": 4, "n": 8, "k": 3, "atoms": 4, "trials": 500,
                    "mixed_trials": 2000, "mixed_w": 4},
        "many-small": {"instances": 50, "sweep_n": 40, "sweep_w": 6,
                       "reduce_m": 6, "reduce_n": 200},
    },
    "smoke": {
        "exact-enum": {"priors": 1, "n": 3, "k": 3, "atoms": 4},
        "lattice-dp": {"priors": ((6, 3, 5), (4, 4, 6))},
        "sampled": {"priors": 1, "n": 4, "k": 3, "atoms": 4, "trials": 200,
                    "mixed_trials": 200, "mixed_w": 2},
        "many-small": {"instances": 3, "sweep_n": 8, "sweep_w": 2,
                       "reduce_m": 3, "reduce_n": 10},
    },
}

WHY = {
    "exact-enum": "Realization enumeration (exact_expectation, "
                  "patience_compare, run_rule) is over 90% of the time and "
                  "the DP under 2%; a lattice pass in place of enumeration "
                  "moves it.",
    "lattice-dp": "The biased DP is most of the time and the supports "
                  "(about 10^11 and 10^7) are far too large to enumerate, "
                  "so DP and lattice changes show with no enumeration in "
                  "the mix.",
    "sampled": "The Monte Carlo trial loop (run_rule, ValueVector.join and "
               "its re-validation) is nearly all of the time and the DP "
               "about 1%; a lean core moves it.",
    "many-small": "Thousands of tiny priors: repeated DP, tiny "
                  "enumerations, offline optima, generators and rendering; "
                  "guards against an engine that only wins on big priors.",
}

# Which layers each workload drives, and which it leaves out.
LAYERS = {
    "exact-enum": {
        "loads": ["cli", "core.parse", "core.vectors", "core.realizations",
                  "policies.compile", "policies.threshold",
                  "policies.run_rule", "policies.patience",
                  "analysis.expectation"],
        "bypasses": ["instances", "analysis.mc", "analysis.ratio",
                     "analysis.verify", "policies.dp_biased (public)",
                     "core.offline"]},
    "lattice-dp": {
        "loads": ["cli", "core.parse", "core.vectors", "policies.dp_biased",
                  "policies.dp_rational", "policies.threshold",
                  "analysis.ratio"],
        "bypasses": ["core.realizations", "policies.run_rule",
                     "policies.compile", "instances", "analysis.expectation",
                     "analysis.mc", "analysis.verify"]},
    "sampled": {
        "loads": ["cli", "core.parse", "core.vectors", "policies.compile",
                  "policies.run_rule", "instances.gen", "analysis.mc"],
        "bypasses": ["core.realizations", "policies.patience",
                     "analysis.expectation", "analysis.ratio",
                     "analysis.verify"]},
    "many-small": {
        "loads": ["cli", "core.parse", "core.vectors", "core.realizations",
                  "core.offline", "policies.dp_biased",
                  "policies.dp_rational", "policies.threshold",
                  "policies.compile", "policies.run_rule", "instances.gen",
                  "analysis.expectation", "analysis.ratio",
                  "analysis.verify", "analysis.paradox"],
        "bypasses": ["policies.patience", "analysis.mc"]},
}

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Written down before any optimisation is measured against it.
LAYER_MAP = {
    "core.parse_s": [["ratio_s", "lattice-dp"]],
    "core.vectors_built": [["monte_carlo_s", "sampled"],
                           ["evaluate_s", "exact-enum"]],
    "core.realizations": [["evaluate_s", "exact-enum"],
                          ["patience_s", "exact-enum"]],
    "core.offline_s": [["verify_s", "many-small"]],
    "policies.dp_biased_s": [["ratio_s", "lattice-dp"],
                             ["verify_s", "many-small"],
                             ["sweep_s", "many-small"]],
    "policies.dp_biased_calls": [["verify_s", "many-small"]],
    "policies.dp_states": [["ratio_s", "lattice-dp"]],
    "policies.dp_reuse": [["verify_s", "many-small"]],
    "policies.dp_rational_s": [["ratio_s", "lattice-dp"]],
    "policies.threshold_s": [["evaluate_s", "exact-enum"],
                             ["ratio_s", "lattice-dp"]],
    "policies.compile_s": [["monte_carlo_s", "sampled"],
                           ["evaluate_s", "exact-enum"]],
    "policies.patience_s": [["patience_s", "exact-enum"]],
    "policies.run_rule_s": [["evaluate_s", "exact-enum"],
                            ["monte_carlo_s", "sampled"]],
    "policies.run_rule_calls": [["evaluate_s", "exact-enum"],
                                ["monte_carlo_s", "sampled"]],
    "instances.gen_s": [["verify_s", "many-small"],
                        ["sweep_s", "many-small"],
                        ["reduce_s", "many-small"]],
    "instances.priors_generated": [["verify_s", "many-small"]],
    "analysis.expectation_s": [["evaluate_s", "exact-enum"]],
    "analysis.mc_s": [["monte_carlo_s", "sampled"]],
    "analysis.mc_trials": [["monte_carlo_s", "sampled"]],
    "analysis.ratio_s": [["ratio_s", "lattice-dp"]],
    "analysis.verify_s": [["verify_s", "many-small"]],
    "analysis.paradox_s": [["verify_s", "many-small"]],
    "cli.self_s": [["wall_s", "many-small"]],
    "cli.output_bytes": [["wall_s", "many-small"]],
    "trace.overhead_s": [],
}

WORKLOAD_COMMANDS = {"exact-enum": ("evaluate", "patience"),
                     "lattice-dp": ("ratio",),
                     "sampled": ("monte-carlo",),
                     "many-small": ("verify", "sweep", "reduce")}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.  `argv` for a CLI call; `patience` holds
    (policy a, policy b, prior, params) for a direct patience_compare."""

    op_id: str
    command: str
    argv: Optional[Tuple[str, ...]] = None
    patience: Optional[tuple] = None


def _write(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle)


def build(lap, name, seed, size, workdir):
    """Make the workload's seeded inputs, write them under `workdir`, and
    return (ops, context) where context holds what the correctness gate
    needs to re-derive expected answers."""
    cfg = SIZES[size][name]
    rng = random.Random(f"{name}/{seed}")
    tag = f"{workdir}/{name}-{size}-{seed}"
    ops, ctx = [], {"priors": {}, "lam": LAMBDA}
    lam = str(LAMBDA)

    def prior_file(label, shape_seed, n, k, atoms):
        prior = product_prior(lap, rng, shape_seed, n, k, atoms)
        path = f"{tag}-{label}.json"
        _write(path, lap.core.prior_to_json(prior))
        ctx["priors"][label] = (path, prior)
        return path

    if name == "exact-enum":
        params = lap.core.AgentParams(LAMBDA, cfg["k"])
        policy = lap.policies.Policy
        for i in range(cfg["priors"]):
            label = f"p{i}"
            path = prior_file(label, f"{name}/{i}", cfg["n"], cfg["k"],
                              cfg["atoms"])
            prior = ctx["priors"][label][1]
            # optimal-rational is left out: its compiled rule is wrong (see
            # gate.known_defects, which still checks it on every run)
            for spec in ("accept-last", "alpha:1/2", "optimal-biased",
                         "fixed:4"):
                ops.append(Op(f"{label}/evaluate/{spec}", "evaluate",
                              ("evaluate", "--in", path, "--lambda", lam,
                               "--policy", spec)))
            ops.append(Op(f"{label}/patience/last-vs-biased", "patience",
                          patience=(policy.accept_last(),
                                    policy.optimal_biased(), prior, params)))
            ops.append(Op(f"{label}/patience/t5-vs-t3", "patience",
                          patience=(policy.threshold(Fraction(5)),
                                    policy.threshold(Fraction(3)),
                                    prior, params)))
    elif name == "lattice-dp":
        for i, (n, k, atoms) in enumerate(cfg["priors"]):
            label = f"p{i}"
            path = prior_file(label, f"{name}/{i}", n, k, atoms)
            ops.append(Op(f"{label}/ratio", "ratio",
                          ("ratio", "--in", path, "--lambda", lam)))
    elif name == "sampled":
        trials = str(cfg["trials"])
        for i in range(cfg["priors"]):
            label = f"p{i}"
            path = prior_file(label, f"{name}/{i}", cfg["n"], cfg["k"],
                              cfg["atoms"])
            for spec in ("accept-last", "optimal-biased"):
                ops.append(Op(f"{label}/monte-carlo/{spec}", "monte-carlo",
                              ("monte-carlo", "--in", path, "--lambda", lam,
                               "--policy", spec, "--trials", trials,
                               "--seed", "1")))
        ctx["mixed"] = (cfg["mixed_w"], 2, LAMBDA, Fraction(1, 5))
        ops.append(Op("worstcase-mixed/monte-carlo/optimal-biased",
                      "monte-carlo",
                      ("monte-carlo", "--gen", "worstcase-mixed",
                       "--w", str(cfg["mixed_w"]), "--k", "2",
                       "--lambda", lam, "--eps", "1/5",
                       "--policy", "optimal-biased",
                       "--trials", str(cfg["mixed_trials"]), "--seed", "1")))
    elif name == "many-small":
        count = str(cfg["instances"])
        ctx["instances"] = cfg["instances"]
        for suite, vlam, k in (("all", "1/3", 2), ("all", "1/4", 3),
                               ("bounds", "1/2", 2)):
            vseed = str(rng.randrange(2 ** 31))
            ops.append(Op(f"verify/{suite}/{vlam}/{k}", "verify",
                          ("verify", "--suite", suite, "--lambda", vlam,
                           "--k", str(k), "--seed", vseed,
                           "--trials", count)))
        ops.append(Op("sweep/alternating-geometric", "sweep",
                      ("sweep", "--gen", "alternating-geometric",
                       "--n", str(cfg["sweep_n"]), "--beta", "1/2")
                      + SWEEP_GRID))
        ops.append(Op("sweep/worstcase-mixed", "sweep",
                      ("sweep", "--gen", "worstcase-mixed",
                       "--w", str(cfg["sweep_w"]), "--eps", "1/5")
                      + SWEEP_GRID))
        sigma = succinct_sequence(lap, rng, cfg["reduce_m"], 2)
        path = f"{tag}-sequence.json"
        _write(path, lap.core.sequence_to_json(sigma))
        ctx["sequence"] = sigma
        ctx["reduce_n"] = cfg["reduce_n"]
        ops.append(Op("reduce", "reduce",
                      ("reduce", "--in", path, "--lambda", "1/2",
                       "--eps", "1/10", "--n", str(cfg["reduce_n"]))))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops, ctx
