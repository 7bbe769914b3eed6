"""Turns the driver's raw measurements into the benchmark's metrics.

Pure functions over plain data: the Chrome-trace reader, span self time,
the percentile rule, the output checks and the metric tables. run.py
does the I/O; test_analysis.py tests these helpers.
"""

import json
import statistics

MB = 1024.0 * 1024.0

# Spans that stand for one pass of an MEA loop: the lockstep round, the
# event-driven run and the pipeline's closed loops. Their children are the
# decorated layer calls (node steps, scores, action executions).
LOOP_SPANS = ("runtime.round", "runtime.run", "core.closed_loop.")


# --- Chrome trace-event JSON ------------------------------------------------

def read_chrome_trace(text):
    """Spans of a Chrome trace written by the driver, as dicts with
    integer nanosecond start/end and the identity fields from "args"."""
    spans = []
    for e in json.loads(text)["traceEvents"]:
        start = round(float(e["ts"]) * 1000.0)
        args = e["args"]
        spans.append({
            "name": e["name"], "tid": e["tid"], "start": start,
            "end": start + round(float(e["dur"]) * 1000.0),
            "id": args["id"], "parent": args["parent"],
            "ordinal": args["ordinal"], "node": args["node"],
            "items": args["items"],
        })
    return spans


# --- span arithmetic --------------------------------------------------------

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span in ns: its duration minus the part of its
    interval that the union of its children covers. Children may run in
    parallel on other threads, so they are merged, never summed."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        covered = union_length([iv for iv in clipped if iv[0] < iv[1]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def is_loop_span(name):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in LOOP_SPANS)


# --- statistics -------------------------------------------------------------

PERCENTILES = (99.9, 99.0, 90.0)


def _rank(p, n):
    """Nearest rank of percentile p (one decimal) among n samples:
    ceil(p * n / 100), in integers."""
    return max(1, -(-int(round(p * 10)) * n // 1000))


def tail_percentile(samples):
    """The highest of PERCENTILES with at least ten samples beyond it, as
    (percentile, value); None when not even p90 has ten beyond. Uses the
    nearest-rank value, so the reported sample is one that was measured."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        rank = _rank(p, len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def step_total(step_lists, pick):
    """Time of a section run several times, each run divided into the same
    steps: the sum over the steps of pick() over each step's times in the
    runs. With pick=min it is the section's time under the least
    interference the runs saw. Other tenants of a shared host only ever
    add time, and their load comes in phases longer than one repetition,
    so the fastest time of each step is the estimate those phases move
    least (Chen and Revels, "Robust benchmarking in noisy environments",
    2016); a median moves with every phase that covers half the run."""
    counts = sorted({len(steps) for steps in step_lists})
    if len(counts) != 1 or counts[0] == 0:
        raise ValueError("runs differ in their steps: %s" % counts)
    return sum(pick(column) for column in zip(*step_lists))


# --- output checks ----------------------------------------------------------

def _check(checks, name, ok, detail):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def check_pipeline(v):
    """Properties of the paper pipeline that hold for any seed."""
    checks = []
    _check(checks, "auc_ubf>=0.6", v["auc_ubf"] >= 0.6, v["auc_ubf"])
    _check(checks, "auc_hsmm>=0.6", v["auc_hsmm"] >= 0.6, v["auc_hsmm"])
    _check(checks, "availability(pfm)>availability(none)",
           v["availability"] > v["availability_none"],
           [v["availability"], v["availability_none"]])
    _check(checks, "unavail_ratio<0.5", v["unavail_ratio"] < 0.5,
           v["unavail_ratio"])
    return checks


def check_dense(v):
    checks = []
    _check(checks, "every node reached its horizon",
           v["check.nodes_at_horizon"] == v["check.nodes"],
           [v["check.nodes_at_horizon"], v["check.nodes"]])
    _check(checks, "rounds = horizon / interval",
           v["runtime.rounds"] == v["check.expected_rounds"],
           [v["runtime.rounds"], v["check.expected_rounds"]])
    _check(checks, "no node quarantined", v["check.quarantined"] == 0,
           v["check.quarantined"])
    return checks


def check_serving(v):
    checks = []
    _check(checks, "quarantines only where the fault plan scripts them",
           v["check.unscripted_quarantines"] == 0,
           v["check.unscripted_quarantines"])
    _check(checks, "joins equal the membership plan's",
           v["membership.joined"] == v["check.plan_joins"],
           [v["membership.joined"], v["check.plan_joins"]])
    _check(checks, "leaves equal the membership plan's",
           v["membership.left"] == v["check.plan_leaves"],
           [v["membership.left"], v["check.plan_leaves"]])
    # Injected-fault counts come from the registry. Bound each by the
    # opportunities it had, so a count read from freed memory (as
    # FaultInjector::stats() returns after a restart) cannot pass.
    _check(checks, "injected crashes = scripted crashes",
           v["injection.faults.node_crash"] == v["check.plan_crashes"],
           [v["injection.faults.node_crash"], v["check.plan_crashes"]])
    _check(checks, "injected action failures = failed action attempts",
           v["injection.faults.action_failure"] == v["core.action_faults"],
           [v["injection.faults.action_failure"], v["core.action_faults"]])
    _check(checks, "sample drops <= samples monitored",
           v["injection.faults.sample_drop"] <= v["telecom.samples"],
           [v["injection.faults.sample_drop"], v["telecom.samples"]])
    predictor = (v["injection.faults.predictor_throw"]
                 + v["injection.faults.predictor_nan"])
    _check(checks, "predictor faults <= predictor calls",
           predictor <= 3 * v["runtime.node_steps"],
           [predictor, 3 * v["runtime.node_steps"]])
    return checks


CHECKS = {"paper_pipeline": check_pipeline, "fleet_dense": check_dense,
          "fleet_serving": check_serving}


def check_run(raw):
    """Every output check of one driver run: the workload's properties on
    each repetition, identical fingerprints across repetitions (traced and
    library-traced ones included) and the reference run, no failed MEA
    evaluation."""
    checks = []
    reps = raw["reps"]
    for i, rep in enumerate(reps):
        for c in CHECKS[raw["workload"]](rep["values"]):
            c["name"] = "rep %d (%s): %s" % (i, rep["mode"], c["name"])
            checks.append(c)
    prints = sorted({rep["fingerprint"] for rep in reps})
    _check(checks, "fingerprints equal across repetitions and tracing modes",
           len(prints) == 1, prints)
    if raw.get("reference") is not None:
        _check(checks, "round-timed run matches one run()",
               raw["reference"]["fingerprint"] == reps[0]["fingerprint"],
               [raw["reference"]["fingerprint"], reps[0]["fingerprint"]])
    failed = sum(rep["values"]["failed"] for rep in reps)
    _check(checks, "no failed MEA evaluation", failed == 0, failed)
    return checks


# --- metrics ----------------------------------------------------------------

def plain_reps(raw):
    return [r for r in raw["reps"] if r["mode"] == "plain"]


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit)}.
    wall_s sums each step's fastest time over the run's repetitions,
    setup_s each set-up step's median over the passes (step_total)."""
    reps = plain_reps(raw)
    v = reps[0]["values"]
    wall = step_total([r["step_s"] for r in reps], min)
    return {
        "setup_s": (step_total(raw["setup_steps"], statistics.median), "s"),
        "wall_s": (wall, "s"),
        "sim_node_s_per_s": (v["sim_node_s"] / wall, "sim-s/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "availability": (v["availability"], "fraction"),
    }


def scoped_end_to_end(raw):
    """End-to-end metrics defined on some workloads only (see NOTES.md):
    they go into the record, not into the driver-facing metric set."""
    reps = plain_reps(raw)
    v = reps[0]["values"]
    out = {"fail_share": (v["failed"] / v["evaluations"], "fraction")}
    rounds = [x for r in reps for x in r["round_s"]]
    if rounds:
        out["round_p50_ms"] = (1e3 * statistics.median(rounds), "ms")
        tail = tail_percentile(rounds)
        if tail is not None and tail[0] >= 99.0:
            out["round_p99_ms"] = (1e3 * percentile(rounds, 99.0), "ms")
        out["rounds_timed"] = (len(rounds), "count")
    for name, unit in (("unavail_ratio", "ratio"), ("auc_ubf", "fraction"),
                       ("auc_hsmm", "fraction")):
        if name in v:
            out[name] = (v[name], unit)
    return out


def _sum_spans(spans, prefix, field=None):
    total = 0
    for s in spans:
        if s["name"] == prefix or s["name"].startswith(prefix + "."):
            total += (s["end"] - s["start"]) if field is None else s[field]
    return total


def per_layer(raw, spans):
    """Per-layer metrics of a traced run: {name: (value, unit)}. Times are
    span totals over the traced set-up pass and the traced repetition;
    counts are the traced repetition's."""
    traced = [r for r in raw["reps"] if r["mode"] == "traced"][0]
    program = [r for r in raw["reps"] if r["mode"] == "program_traced"][0]
    plain = statistics.median(r["wall_s"] for r in plain_reps(raw))
    v = traced["values"]
    wall = traced["wall"]
    threads = raw["threads"]
    ns = 1e-9

    step_ns = _sum_spans(spans, "telecom.step") + _sum_spans(spans, "telecom.run")
    unit_ticks = v["telecom.unit_ticks"] + v.get("setup.unit_ticks", 0.0)
    score_ns = _sum_spans(spans, "prediction.score")
    scores = _sum_spans(spans, "prediction.score", "items")

    selfs = self_times(spans)
    loops = [s for s in spans if is_loop_span(s["name"])]
    loop_ids = {s["id"] for s in loops}
    loop_ns = sum(s["end"] - s["start"] for s in loops)
    child_ns = sum(s["end"] - s["start"] for s in spans
                   if s["parent"] in loop_ids)
    if "runtime.monitor_s" in wall:  # fleets: the library's own stage clocks
        stages = (wall["runtime.monitor_s"], wall["runtime.evaluate_s"],
                  wall["runtime.act_s"])
    else:  # the pipeline's closed loops: the decorated calls inside them
        inside = [s for s in spans if s["parent"] in loop_ids]
        stages = tuple(ns * _sum_spans(inside, p) for p in
                       ("telecom.step", "prediction.score", "actions.execute"))
    repairs = v["repairs.prepared"] + v["repairs.unprepared"]
    rounds = v.get("runtime.rounds", v["evaluations"])
    node_steps = v.get("runtime.node_steps", v["evaluations"])
    dense_visits = v.get("runtime.dense_visits", v["evaluations"])

    m = {
        "telecom.step_s": (ns * step_ns, "s"),
        "telecom.ns_per_unit_tick": (step_ns / unit_ticks, "ns"),
        "telecom.samples": (v["telecom.samples"], "count"),
        "telecom.events": (v["telecom.events"], "count"),
        "telecom.failures": (v["telecom.failures"], "count"),
        "monitoring.window_s": (ns * (_sum_spans(spans, "monitoring.split")
                                      + _sum_spans(spans, "monitoring.sequences")),
                                "s"),
        "monitoring.trace_mb": (v["monitoring.trace_bytes"] / MB, "MB"),
        "prediction.train_s": (ns * _sum_spans(spans, "prediction.train"), "s"),
        "prediction.score_s": (ns * score_ns, "s"),
        "prediction.scores": (scores, "count"),
        "prediction.ns_per_score": (score_ns / scores if scores else 0.0, "ns"),
        "eval.grid_s": (ns * _sum_spans(spans, "eval.grid"), "s"),
        "eval.report_s": (ns * _sum_spans(spans, "eval.report"), "s"),
        "eval.instants": (_sum_spans(spans, "eval.report", "items"), "count"),
        "core.evaluations": (v["core.evaluations"], "count"),
        "core.warnings": (v["core.warnings"], "count"),
        "core.warning_share": (v["core.warnings"] / v["core.evaluations"],
                               "fraction"),
        "core.action_retries": (v["core.action_retries"], "count"),
        "core.actions_abandoned": (v["core.actions_abandoned"], "count"),
        "actions.execute_s": (ns * _sum_spans(spans, "actions.execute"), "s"),
        "actions.prepared_share": (v["repairs.prepared"] / repairs
                                   if repairs else 0.0, "fraction"),
        "runtime.monitor_s": (stages[0], "s"),
        "runtime.evaluate_s": (stages[1], "s"),
        "runtime.act_s": (stages[2], "s"),
        "runtime.self_s": (ns * sum(selfs[s["id"]] for s in loops), "s"),
        "runtime.busy_share": (child_ns / (threads * loop_ns), "fraction"),
        "runtime.rounds": (rounds, "count"),
        "runtime.epochs": (v.get("runtime.epochs", 0.0), "count"),
        "runtime.node_steps": (node_steps, "count"),
        "runtime.visit_share": (node_steps / dense_visits, "fraction"),
        "runtime.scratch_mb": (wall.get("runtime.scratch_bytes", 0.0) / MB,
                               "MB"),
        "runtime.quarantines": (v.get("runtime.quarantines", 0.0), "count"),
        "runtime.breaker_trips": (v.get("runtime.breaker_trips", 0.0), "count"),
        "runtime.scores_sanitized": (v.get("runtime.scores_sanitized",
                                           v["core.scores_sanitized"]), "count"),
        "membership.joined": (v.get("membership.joined", 0.0), "count"),
        "membership.left": (v.get("membership.left", 0.0), "count"),
        "membership.handoffs": (v.get("membership.handoffs", 0.0), "count"),
        "obs.trace_overhead_pct": (100.0 * (program["wall_s"] / plain - 1.0),
                                   "%"),
        "bench.trace_overhead_pct": (100.0 * (traced["wall_s"] / plain - 1.0),
                                     "%"),
    }
    for kind in ("state_cleanup", "preventive_failover", "load_lowering",
                 "prepared_repair"):
        name = "actions.executed." + kind
        m[name] = (v[name], "count")
    for kind in ("node_crash", "sample_drop", "predictor_throw",
                 "predictor_nan", "action_failure"):
        name = "injection.faults." + kind
        m[name] = (v.get(name, 0.0), "count")
    return m


def scoped_per_layer(spans):
    """Per-layer breakdowns named after one component (a predictor, a
    closed-loop arm): they exist on some workloads only and go into the
    record."""
    out = {}
    for s in spans:
        name = s["name"]
        for prefix, metric in (("prediction.train.", "prediction.train_s."),
                               ("prediction.score.", "prediction.score_s."),
                               ("core.closed_loop.", "core.closed_loop_s.")):
            if name.startswith(prefix):
                key = metric + name[len(prefix):]
                out[key] = out.get(key, 0.0) + 1e-9 * (s["end"] - s["start"])
    return {k: (v, "s") for k, v in sorted(out.items())}
