"""Benchmark for lap: seeded workloads, end-to-end and per-layer metrics.

One process, one thread, one client in a closed loop: each operation is
issued after the previous one returns.  Run from the repository root:

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 25 --trace 0

measures passes over the workload's operations for `--seconds` seconds
(at least three) and prints a `detail` line with every metric, then, as the
last line, `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0`
reports the end-to-end metrics of BENCHMARK.json; `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics.

End-to-end metrics, medians over untraced passes: `wall_s` (seconds per
pass), `<command>_s` (seconds per pass in one command), their `_rel`
twins (the same time in units of the reference burst sampled during the
pass, see reference.py), `wall_s_tail` and `wall_rel_tail` (the highest
pass with ten passes above it, or the slowest pass when there are ten or
fewer; the detail line gives the sample count and percentile), `setup_s`
(median of SETUP_REPEATS imports of lap plus input builds, each in a
fresh interpreter, spread evenly over the measured window), `peak_rss_mb`
and `fail_rate` (failed / attempted operations).  Seconds do not repeat on
a machine whose cores are shared, so BENCHMARK.json gates `wall_rel`.

    python3 perfbench/run.py --report [--trace 1] [--seed N]
        every metric of all four workloads, one child process each
    python3 perfbench/run.py --smoke
        reduced sizes, both trace modes: checks every metric is emitted with
        its unit and the correctness gate runs, in seconds
    python3 perfbench/run.py --record
        rewrites pins.json and provenance.json from the current program

A single run exits 0 once it has printed its result, correct or not;
--report and --smoke exit 1 when a metric is missing, and --report also
when an operation failed the gate or a known lap defect (gate.known_defects,
reported in the detail line but not counted as a failed operation) still
shows.  Every mode exits 2 when lap's sources are not under src/.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
import reference
import tracing
from workloads import (LAYER_MAP, LAYERS, SIZES, WHY, WORKLOAD_COMMANDS,
                       build)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = "perfbench/_work"
WORKLOADS = tuple(SIZES["full"])
DEFAULT_SEED = 1
SETUP_REPEATS = 15
MIN_PASSES = 3
LAP_MODULES = ("core", "policies", "instances", "analysis", "cli")


# One set-up, timed in a fresh interpreter: importing lap (with the
# standard modules it pulls in) plus building and writing the inputs.
SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import lap.cli
imported = time.perf_counter()
from workloads import build
start_build = time.perf_counter()
build(sys.modules["lap"], {name!r}, {seed!r}, {size!r}, {workdir!r})
print(imported - start + time.perf_counter() - start_build)
"""


def import_lap():
    for mod in LAP_MODULES:
        importlib.import_module(f"lap.{mod}")
    return sys.modules["lap"]


class Setups:
    """Set-ups of one workload, each timed in its own process.

    The share of time a shared machine spends in its slow state drifts
    over seconds, so the set-ups are spread evenly over the measured
    window instead of run back to back: their median then samples the
    same machine as the passes do."""

    def __init__(self, name, seed, size):
        self.code = SETUP_CODE.format(src=str(ROOT / "src"),
                                      bench=str(HERE), name=name, seed=seed,
                                      size=size, workdir=WORKDIR)
        self.times = []

    def run(self):
        proc = subprocess.run([sys.executable, "-c", self.code],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr}")
        self.times.append(float(proc.stdout))

    def catch_up(self, start, seconds):
        """Run the set-ups whose slot in the window has come."""
        while len(self.times) < SETUP_REPEATS and perf_counter() >= \
                start + seconds * len(self.times) / SETUP_REPEATS:
            self.run()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.run()
        return statistics.median(self.times)


def run_cli(lap, argv):
    """lap.cli.main in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lap.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue() + err.getvalue() * (rc != 0)


def run_op(lap, op):
    if op.argv is not None:
        return run_cli(lap, op.argv)
    verdict = lap.policies.patience_compare(*op.patience)
    return 0, f"{verdict.verdict} {verdict.witness!r}\n"


def run_pass(lap, ops, tracer=None):
    """One pass over the ops.  Returns op id -> (exit code, stdout) and, per
    command, its seconds and (untraced passes only) its cost relative to
    the reference burst sampled during the pass."""
    seconds = dict.fromkeys({op.command for op in ops}, 0.0)
    outputs = {}
    probe = reference.Probe()
    gc.collect()
    with probe if tracer is None else contextlib.nullcontext():
        for op in ops:
            if tracer is not None:
                tracer.op = op.op_id
            probed = probe.spent
            start = perf_counter()
            try:
                outputs[op.op_id] = run_op(lap, op)
            except Exception as err:  # a crashed op fails; the run goes on
                outputs[op.op_id] = (f"raised {type(err).__name__}", str(err))
            seconds[op.command] += perf_counter() - start - (
                probe.spent - probed)
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(
                    outputs[op.op_id][1].encode())
    if tracer is not None:
        return outputs, seconds, None
    speed = probe.speed()
    return outputs, seconds, {c: s / speed for c, s in seconds.items()}


def tail(samples):
    """Highest order statistic with at least ten samples above it, and its
    percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def load_pins(name, size, seed):
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    return pins.get(f"{name}/{size}/{seed}")


def measure(name, seed, seconds, traced, size):
    """Run one workload; return (result line, detail dict)."""
    os.makedirs(WORKDIR, exist_ok=True)
    setups = Setups(name, seed, size)
    setups.run()
    lap = import_lap()
    ops, ctx = build(lap, name, seed, size, WORKDIR)
    untraced, tracers, traced_walls = [], [], []
    first, digests = None, {}
    mismatched = set()  # (pass, op) whose output differs from pass 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        pass_no = len(untraced) + len(tracers)
        if traced and len(untraced) > len(tracers):
            tracer = tracing.Tracer(pass_no)
            with tracing.installed(lap, tracer):
                outputs, spent, _ = run_pass(lap, ops, tracer)
            tracers.append(tracer)
            traced_walls.append(sum(spent.values()))
        else:
            outputs, spent, rel = run_pass(lap, ops)
            untraced.append((spent, rel))
        if first is None:
            first = outputs
            digests = {op: gate.digest(text)
                       for op, (rc, text) in outputs.items()}
        # every pass must reproduce the first byte for byte
        mismatched |= {(pass_no, op) for op, (rc, text) in outputs.items()
                       if gate.digest(text) != digests[op]}
        setups.catch_up(start, seconds)
        enough = pass_no + 1 >= MIN_PASSES and \
            (not traced or len(tracers) >= 2)
        if enough and perf_counter() >= deadline:
            break
    passes = len(untraced) + len(tracers)

    pins = load_pins(name, size, seed)
    problems = gate.check(lap, name, ctx, first, pins,
                          lambda argv: run_cli(lap, argv))
    bad = {op: found for op, found in problems.items() if found}
    defects = gate.known_defects(name, ctx, lambda argv: run_cli(lap, argv))
    walls = [sum(spent.values()) for spent, _ in untraced]
    if traced:
        per_layer, repeat = layer_metrics(tracers, walls, traced_walls)
        if not repeat:
            bad["(trace)"] = ["exact counts differ between traced passes"]
            # the ops of every traced pass after the first failed to repeat
            mismatched |= {(t.pass_no, op.op_id)
                           for t in tracers[1:] for op in ops}
    # a pin table that does not match the op list fails every op
    failed_ops = set(first) if "(pins)" in bad else set(bad) & set(first)
    mismatched |= {(p, op) for p in range(passes) for op in failed_ops}
    failed = len(mismatched)
    attempted = passes * len(ops)

    rels = [sum(rel.values()) for _, rel in untraced]
    wall_tail, pct = tail(walls)
    e2e = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": wall_tail,
        "wall_rel": statistics.median(rels),
        "wall_rel_tail": tail(rels)[0],
        "setup_s": setups.median(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_rate": failed / attempted,
    }
    for command in WORKLOAD_COMMANDS[name]:
        key = command.replace("-", "_")
        e2e[f"{key}_s"] = statistics.median(s[command] for s, _ in untraced)
        e2e[f"{key}_rel"] = statistics.median(r[command] for _, r in untraced)
    detail = {
        "workload": name, "seed": seed, "size": size,
        "python": platform.python_version(), "nproc": nproc(),
        "passes": passes, "untraced_passes": len(untraced),
        "tail_percentile": pct, "setup_repeats": SETUP_REPEATS,
        "gate": {"ops_checked": len(first), "pinned": pins is not None,
                 "problems": bad, "known_defects": defects},
        "end_to_end": {k: {"value": v, "unit": unit_of(k)}
                       for k, v in e2e.items()},
    }
    if traced:
        detail["per_layer"] = per_layer
        detail["spans_file"] = write_spans(name, size, seed, tracers)
        chosen = {k: per_layer[k] for k in declared("per_layer")}
    else:
        chosen = {k: detail["end_to_end"][k] for k in declared("end_to_end")}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": chosen}
    return result, detail


def unit_of(metric):
    if metric.endswith("_rel") or metric.endswith("_rel_tail"):
        return "ref"
    return {"peak_rss_mb": "MB", "fail_rate": "ratio"}.get(metric, "s")


def layer_metrics(tracers, walls, traced_walls):
    """Median per-layer metrics over traced passes, and whether the exact
    counts repeated in every traced pass."""
    rows = [t.metrics() for t in tracers]
    counts = [t.exact_counts() for t in tracers]
    out = {}
    for key in rows[0]:
        value = statistics.median(r[key] for r in rows)
        out[key] = {"value": value, "unit": tracing.UNITS[key]}
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(walls),
        "unit": "s"}
    return out, all(c == counts[0] for c in counts)


def write_spans(name, size, seed, tracers):
    path = f"{WORKDIR}/spans-{name}-{size}-{seed}.json"
    with open(path, "w") as handle:
        json.dump({"fields": ["layer", "function", "start", "end",
                              "parent", "op"],
                   "passes": [t.spans for t in tracers]}, handle)
    return path


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def nproc():
    return len(os.sched_getaffinity(0))


# modes over all workloads ---------------------------------------------------

def children(seed, seconds, traced, size):
    """Run each workload in its own process; yield (name, result, detail)."""
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced)), "--size", size],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            yield name, None, None
            continue
        detail = json.loads(lines[-2].split(" ", 1)[1])
        yield name, json.loads(lines[-1]), detail


def report(seed, seconds, traced, size):
    """Print every metric by name and unit for each workload.  Returns
    (harness problems, workloads whose ops failed the gate)."""
    section = "per_layer" if traced else "end_to_end"
    missing, failing = [], []
    for name, result, detail in children(seed, seconds, traced, size):
        if result is None:
            print(f"{name}: run failed")
            missing.append(name)
            continue
        gate_info = detail["gate"]
        print(f"{name} (seed {seed}, {size}, {detail['passes']} passes, "
              f"{detail['untraced_passes']} untraced; tails at "
              f"p{detail['tail_percentile']:.0f}): "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} pinned={gate_info['pinned']}")
        for op, found in gate_info["problems"].items():
            print(f"  FAILED {op}: {'; '.join(found)}")
        for defect in gate_info["known_defects"]:
            print(f"  KNOWN DEFECT {defect}")
        metrics = detail[section]
        for key, m in metrics.items():
            print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
        expected = tracing.UNITS if traced else expected_e2e(name)
        missing += [f"{name}:{key}" for key, unit in sorted(expected.items())
                    if metrics.get(key, {}).get("unit") != unit]
        if gate_info["ops_checked"] == 0 or not gate_info["pinned"] and \
                (size, seed) in gate.PIN_TARGETS:
            missing.append(f"{name}:gate")
        if not result["correct"] or gate_info["known_defects"]:
            failing.append(name)
    return missing, failing


def expected_e2e(name):
    """End-to-end metric -> unit for a workload: the shared ones plus a
    time and a relative cost per command it runs."""
    names = ["wall_s", "wall_s_tail", "wall_rel", "wall_rel_tail", "setup_s",
             "peak_rss_mb", "fail_rate"]
    for command in WORKLOAD_COMMANDS[name]:
        key = command.replace("-", "_")
        names += [f"{key}_s", f"{key}_rel"]
    return {key: unit_of(key) for key in names}


def record():
    """Rewrite pins.json and provenance.json from the current program."""
    os.makedirs(WORKDIR, exist_ok=True)
    lap, pins = import_lap(), {}
    for name in WORKLOADS:
        for size, seed in gate.PIN_TARGETS:
            ops, ctx = build(lap, name, seed, size, WORKDIR)
            outputs, _, _ = run_pass(lap, ops)
            problems = gate.check(lap, name, ctx, outputs, None,
                                  lambda argv: run_cli(lap, argv))
            for op, found in problems.items():
                if found:
                    print(f"{name}/{size}/{seed} {op}: {'; '.join(found)}")
            pins[f"{name}/{size}/{seed}"] = {
                op: [rc, gate.digest(text)]
                for op, (rc, text) in outputs.items()}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    (HERE / "provenance.json").write_text(
        json.dumps(provenance(lap), indent=1) + "\n")


def provenance(lap):
    params = lap.core.AgentParams
    out = {
        "python": platform.python_version(), "nproc": nproc(),
        "client": "closed loop, one client, one process, one thread; "
                  "each set-up is timed in its own short-lived process",
        "waiting": "not measured: there is no queue, lock or second "
                   "thread, so no layer ever waits for another",
        "default_seed": DEFAULT_SEED, "pinned_seeds": list(gate.PINNED_SEEDS),
        "layer_map": LAYER_MAP, "workloads": {},
    }
    for name in WORKLOADS:
        entry = {"why": WHY[name], "layers": LAYERS[name],
                 "rng": f"random.Random('{name}/<seed>')", "inputs": {}}
        for seed in gate.PINNED_SEEDS:
            _, ctx = build(lap, name, seed, "full", WORKDIR)
            for label, (path, prior) in ctx["priors"].items():
                dp = lap.policies.optimal_biased_policy(
                    prior, params(ctx["lam"], prior.k))
                shape = {"n": prior.n, "k": prior.k,
                         "atoms": len(prior.steps[0].atoms),
                         "grid": "7 levels per coordinate; level 0 is 0, "
                                 "levels 1-6 are seeded values from "
                                 "{1/2, 1, ..., 5}",
                         "lambda": str(ctx["lam"]),
                         "support": prior.support_size,
                         "dp_states": dp.state_count}
                seen = entry["inputs"].setdefault(label, shape)
                if seen != shape:
                    raise SystemExit(f"{name}/{label}: shape depends on seed")
        entry["ops"] = {
            op.op_id: " ".join(op.argv) if op.argv else
            "lap.policies.patience_compare(a, b, prior, params)"
            for op in build(lap, name, DEFAULT_SEED, "full", WORKDIR)[0]}
        entry["sizes"] = SIZES["full"][name]
        out["workloads"][name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "lap" / "__init__.py").is_file():
        print(f"error: no lap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.record:
        record()
        return 0
    if args.report or args.smoke:
        size = "smoke" if args.smoke else args.size
        seconds = 1 if args.smoke else args.seconds
        modes = (False, True) if args.smoke else (bool(args.trace),)
        missing, failing = [], []
        for traced in modes:
            found = report(args.seed, seconds, traced, size)
            missing += found[0]
            failing += found[1]
        if failing:
            print("operations failed the gate, or known lap defects "
                  "still show, in: " + ", ".join(failing))
        if missing:
            print("harness problems: " + ", ".join(missing))
        # smoke checks the harness; a full report also needs correct output
        return 1 if missing or (failing and not args.smoke) else 0
    if args.workload is None:
        parser.error("--workload is required without --report/--smoke")
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
