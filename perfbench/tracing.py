"""Traced-run wrappers around lap's public entry points.

The wrappers are installed in the namespaces where callers look the
functions up (`lap.cli.exact_expectation`, `lap.analysis.compile_policy`,
...) for one traced pass and removed afterwards; nothing in lap changes.
Layer boundaries record a span (layer, function, start, end, parent span,
operation id) kept in memory.  The per-call hot paths (`run_rule`, the
`ValueVector` constructor, `ProductPrior.realizations`) are aggregated into
a time and a count, or a count alone, instead of one span per call.

A span's self time is its duration minus the time covered by its child
spans and by aggregated calls made inside it.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer, module, function names) of every span boundary.
SPANS = (
    ("core.parse", "cli", ("prior_from_json", "sequence_from_json")),
    ("core.offline", "cli", ("offline_optimal_biased",
                             "offline_optimal_prophet_utility")),
    ("core.offline", "analysis", ("offline_optimal_biased",
                                  "offline_optimal_prophet_utility")),
    ("core.offline", "instances", ("offline_optimal_biased",)),
    ("policies.dp_biased", "analysis", ("optimal_biased_policy",)),
    ("policies.dp_rational", "analysis", ("optimal_rational_policy",)),
    ("policies.threshold", "analysis", ("value_max_distribution",)),
    ("policies.threshold", "policies", ("value_max_distribution",
                                        "threshold_from_alpha")),
    ("policies.compile", "analysis", ("compile_policy",)),
    ("policies.compile", "policies", ("compile_policy",)),
    ("policies.patience", "policies", ("patience_compare",)),
    ("instances.gen", "cli", ("gen_alternating_geometric",
                              "gen_alternating_linear", "gen_dominance_pair",
                              "gen_identical_value", "gen_partial_sums",
                              "gen_quality_pair", "gen_random_prior",
                              "gen_salient_feature", "gen_worstcase_mixed",
                              "det_to_iid")),
    ("analysis.expectation", "cli", ("exact_expectation",)),
    ("analysis.expectation", "analysis", ("exact_expectation",)),
    ("analysis.mc", "cli", ("monte_carlo",)),
    ("analysis.ratio", "cli", ("ratio_report",)),
    ("analysis.verify", "cli", ("verify_prophet_bound",
                                "verify_online_bound")),
    ("analysis.paradox", "cli", ("detect_quality_paradox",)),
    ("cli.main", "cli", ("main",)),
)

# Hot paths aggregated into one time and one count per layer.
AGGREGATES = (
    ("policies.run_rule", "analysis", "run_rule"),
    ("policies.run_rule", "policies", "run_rule"),
)

# Per-layer metrics, their units, and how a pass's tracer yields them.
SELF_TIME = {
    "core.parse_s": "core.parse",
    "core.offline_s": "core.offline",
    "policies.dp_biased_s": "policies.dp_biased",
    "policies.dp_rational_s": "policies.dp_rational",
    "policies.threshold_s": "policies.threshold",
    "policies.compile_s": "policies.compile",
    "policies.patience_s": "policies.patience",
    "policies.run_rule_s": "policies.run_rule",
    "instances.gen_s": "instances.gen",
    "analysis.expectation_s": "analysis.expectation",
    "analysis.mc_s": "analysis.mc",
    "analysis.ratio_s": "analysis.ratio",
    "analysis.verify_s": "analysis.verify",
    "analysis.paradox_s": "analysis.paradox",
    "cli.self_s": "cli.main",
}
# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("core.vectors_built", "core.realizations",
                "policies.dp_biased_calls", "policies.dp_states",
                "policies.run_rule_calls", "analysis.mc_trials",
                "instances.priors_generated")
UNITS = dict({name: "s" for name in SELF_TIME},
             **{name: "count" for name in EXACT_COUNTS},
             **{"policies.dp_reuse": "ratio", "cli.output_bytes": "bytes",
                "trace.overhead_s": "s"})


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, pass_no):
        self.pass_no = pass_no
        self.op = None
        self.spans = []      # [layer, function, start, end, parent, op]
        self._stack = []     # [span index, seconds covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._dp_keys = set()

    def _child_done(self, seconds):
        if self._stack:
            self._stack[-1][1] += seconds

    def span(self, layer, fn, note=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            record = [layer, fn.__name__, 0.0, 0.0, parent, self.op]
            self.spans.append(record)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                record[2], record[3] = start, end
                self.self_s[layer] += end - start - frame[1]
                self.calls[layer] += 1
                self._child_done(end - start)
            if note is not None:
                note(args, kwargs, result)
            return result
        return wrapper

    def aggregate(self, layer, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.self_s[layer] += seconds
                self.calls[layer] += 1
                self._child_done(seconds)
        return wrapper

    # notes on arguments and results -------------------------------------

    def _note_dp(self, args, kwargs, result):
        prior, params = args[0], args[1] if len(args) > 1 else kwargs["params"]
        self._dp_keys.add((prior, params.lam))
        self.counts["policies.dp_states"] += result.state_count

    def _note_mc(self, args, kwargs, result):
        self.counts["analysis.mc_trials"] += result.trials

    def metrics(self):
        out = {name: self.self_s[layer] for name, layer in SELF_TIME.items()}
        calls = self.calls["policies.dp_biased"]
        out.update(self.exact_counts())
        out["policies.dp_reuse"] = len(self._dp_keys) / calls if calls else 0.0
        out["cli.output_bytes"] = self.counts["cli.output_bytes"]
        return out

    def exact_counts(self):
        return {
            "core.vectors_built": self.counts["core.vectors_built"],
            "core.realizations": self.counts["core.realizations"],
            "policies.dp_biased_calls": self.calls["policies.dp_biased"],
            "policies.dp_states": self.counts["policies.dp_states"],
            "policies.run_rule_calls": self.calls["policies.run_rule"],
            "analysis.mc_trials": self.counts["analysis.mc_trials"],
            "instances.priors_generated": self.calls["instances.gen"],
        }


@contextmanager
def installed(lap, tracer):
    """Wrap lap's entry points for the duration of the block."""
    modules = {"cli": lap.cli, "analysis": lap.analysis,
               "policies": lap.policies, "instances": lap.instances}
    notes = {"optimal_biased_policy": tracer._note_dp,
             "monte_carlo": tracer._note_mc}
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    vector_init = lap.core.ValueVector.__post_init__
    realizations = lap.core.ProductPrior.realizations
    counts = tracer.counts

    def counted_init(self):
        counts["core.vectors_built"] += 1
        vector_init(self)

    def counted_realizations(self, budget=None):
        for item in realizations(self, budget):
            counts["core.realizations"] += 1
            yield item

    try:
        for layer, module, names in SPANS:
            for attr in names:
                fn = getattr(modules[module], attr)
                patch(modules[module], attr,
                      tracer.span(layer, fn, notes.get(attr)))
        for layer, module, attr in AGGREGATES:
            patch(modules[module], attr,
                  tracer.aggregate(layer, getattr(modules[module], attr)))
        patch(lap.core.ValueVector, "__post_init__", counted_init)
        patch(lap.core.ProductPrior, "realizations", counted_realizations)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
