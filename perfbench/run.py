#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs one workload, checks
its outputs and prints its metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--record FILE]
  python3 perfbench/run.py compare OLD.jsonl NEW.jsonl
  python3 perfbench/run.py selftest

Run it from anywhere inside a checkout: it builds the library from src/
with perfbench/CMakeLists.txt into .bench_build/ and runs pfm_perfbench
there. The second-to-last line of standard output is the full record
(host signature, checks, every metric); the last line is the summary
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes the spans to
.bench_build/traces/. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pfm_perfbench")
WORKLOADS = ("paper_pipeline", "fleet_dense", "fleet_serving")
# Host fields two records must share to be compared. The git sha and the
# source digest identify the code under test and are expected to differ.
SIGNATURE_FIELDS = ("nproc", "threads", "compiler", "build_type", "simd")
RUN_TIMEOUT_S = 175

sys.dont_write_bytecode = True  # write nothing into the source tree
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s; run from a checkout of the "
             "repository" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "pfm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def run_driver(args, workdir, out, trace_out):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    if code:
        fail("driver exited with code %d" % code)
    with open(out) as f:
        return json.load(f)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record(raw):
    host = dict(raw["host"])
    host["threads"] = raw["threads"]
    host["git_sha"] = git_sha()
    host["source_sha256"] = source_digest()
    return host


def signature(host):
    key = json.dumps([host[f] for f in SIGNATURE_FIELDS])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def as_metrics(table):
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}


def measure(args):
    build()
    runs = os.path.join(BUILD_ROOT, "runs")
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(runs, tag)
    os.makedirs(workdir, exist_ok=True)
    traces = os.path.join(BUILD_ROOT, "traces")
    trace_out = os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(traces, exist_ok=True)
    try:
        raw = run_driver(args, workdir, os.path.join(workdir, "raw.json"),
                         trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = analysis.check_run(raw)
    correct = all(c["ok"] for c in checks)
    for c in checks:
        if not c["ok"]:
            log("CHECK FAILED: %s (%s)" % (c["name"], c["detail"]))
    attempted = int(sum(r["values"]["evaluations"] for r in raw["reps"]))
    failed = int(sum(r["values"]["failed"] for r in raw["reps"]))
    if not correct:
        failed = attempted

    if args.trace:
        with open(trace_out) as f:
            spans = analysis.read_chrome_trace(f.read())
        metrics = analysis.per_layer(raw, spans)
        scoped = analysis.scoped_per_layer(spans)
    else:
        metrics = analysis.end_to_end(raw)
        scoped = analysis.scoped_end_to_end(raw)

    host = host_record(raw)
    record = {
        "perfbench": 1, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "signature": signature(host), "correct": correct,
        "checks_failed": [c for c in checks if not c["ok"]],
        "fingerprint": raw["reps"][0]["fingerprint"],
        "repetitions": len(raw["reps"]),
        "metrics": as_metrics(metrics), "scoped_metrics": as_metrics(scoped),
    }
    line = json.dumps(record, sort_keys=True)
    if args.record:
        with open(args.record, "a") as f:
            f.write(line + "\n")
    print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": as_metrics(metrics)}))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    """Per workload and metric: both medians and the change against the
    bound in BENCHMARK.json. Refuses records whose host signatures differ."""
    bounds = {}
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_file):
        with open(bench_file) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["better"], m["bound"])
    old, new = load_records(old_path), load_records(new_path)
    refused = False
    for key in sorted({(r["workload"], r["trace"]) for r in old}
                      & {(r["workload"], r["trace"]) for r in new}):
        a = [r for r in old if (r["workload"], r["trace"]) == key]
        b = [r for r in new if (r["workload"], r["trace"]) == key]
        sigs = {r["signature"] for r in a + b}
        print("== %s (trace %d): %d vs %d records" % (key + (len(a), len(b))))
        if len(sigs) != 1:
            refused = True
            fields = {f: sorted({str(r["host"][f]) for r in a + b})
                      for f in SIGNATURE_FIELDS}
            print("  refused: host signatures differ: %s" % {
                f: v for f, v in fields.items() if len(v) > 1})
            continue
        for section in ("metrics", "scoped_metrics"):
            for name in sorted(set(a[0][section]) & set(b[0][section])):
                x = statistics.median(r[section][name]["value"] for r in a)
                y = statistics.median(r[section][name]["value"] for r in b)
                change = (y - x) / x if x else float("nan")
                verdict = ""
                if name in bounds:
                    better, bound = bounds[name]
                    worse = change if better == "lower" else -change
                    verdict = "REGRESSION" if worse > bound else "ok"
                print("  %-32s %14.6g -> %14.6g  %+8.2f%%  %s"
                      % (name, x, y, 100.0 * change, verdict))
    return 3 if refused else 0


def selftest():
    """Unit tests of the analysis helpers, including a round trip of a
    trace written by the driver."""
    build()
    directory = os.path.join(BUILD_ROOT, "selftest")
    os.makedirs(directory, exist_ok=True)
    trace = os.path.join(directory, "trace.json")
    if subprocess.run([BINARY, "--emit-test-trace", trace]).returncode:
        fail("driver could not write the test trace")
    env = dict(os.environ, PERFBENCH_TEST_TRACE=trace,
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "unittest", "-v",
                           "test_analysis"], cwd=HERE, env=env).returncode


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv == ["selftest"]:
        return selftest()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--record", help="also append the record line to FILE")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
