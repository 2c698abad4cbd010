#!/usr/bin/env python3
"""The verifier's end-to-end benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 verifbench/run.py --workload cold-corpus --seed 1 --seconds 10 --trace 0
    python3 verifbench/run.py --self-test

Builds the verifier and the workload runner from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in a fresh process,
checks every verdict against examples/corpus/expected, and prints the metrics
by name. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(ROOT, "examples", "corpus")
EXPECTED = os.path.join(CORPUS, "expected")

WORKLOADS = ("cold-corpus", "edit-loop", "daemon-mixed")
STEMS = ("clients_bad", "linkedlist_buggy", "linkedlist_functional",
         "linkedlist_safety", "stack_functional", "stack_safety", "vec")
# In-program tracing switches; an untraced run refuses to start under them.
TRACE_VARS = ("GILR_TRACE", "GILR_TIMING", "GILR_JOURNAL")
RUNNER_TIMEOUT_S = 170

END_TO_END = {  # name -> unit; the bounded metrics
    "verify_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them, not bounded: on a shared host they spread from run to
# run past the largest bound a metric may have (README.md).
SHOWN = {
    "edit_s_p50": "s",
    "edit_s_p90": "s",
    "request_s_p50": "s",
    "request_s_p99": "s",
    "requests_per_s": "1/s",
}

# The layers whose self times partition one traced op's wall time. The CLI
# workloads fill the first twelve, daemon-mixed the solver and server ones.
PARTITION = (
    "frontend.parse_s", "engine.lemma_s", "hybrid.encode_s",
    "sched.preload_s", "incr.load_s", "analysis.lint_s", "analysis.summary_s",
    "engine.self_s", "sched.self_s", "incr.flush_s", "frontend.render_s",
    "solver.query_s", "server.queue_wait_s", "server.run_self_s",
)

PER_LAYER = {  # name -> unit
    "solver.query_s": "s", "solver.queries": "count",
    "solver.memo_served": "count", "solver.branches": "count",
    "solver.theory_checks": "count", "solver.unknowns": "count",
    "solver.query_max_s": "s",
    "engine.lemma_s": "s", "engine.lemma_queries": "count",
    "engine.lemma_solver_s": "s",
    "engine.unsafe_s": "s", "engine.self_s": "s",
    "engine.obligations": "count", "engine.paths": "count",
    "engine.states": "count",
    "creusot.safe_s": "s", "creusot.obligations": "count",
    "hybrid.encode_s": "s",
    "analysis.lint_s": "s", "analysis.summary_s": "s",
    "analysis.triaged_static": "count",
    "sched.self_s": "s", "sched.preload_s": "s", "sched.memo_hits": "count",
    "sched.memo_lookups": "count", "sched.preloaded": "count",
    "incr.load_s": "s", "incr.flush_s": "s", "incr.store_bytes": "bytes",
    "incr.cached": "count", "incr.verified": "count",
    "incr.invalidated": "count", "incr.salvaged": "count",
    "incr.implied": "count", "incr.salvage_queries": "count",
    "incr.backend_gets": "count", "incr.backend_hits": "count",
    "incr.backend_puts": "count",
    "frontend.parse_s": "s", "frontend.render_s": "s",
    "frontend.bytes": "bytes",
    "server.run_s_p50": "s", "server.run_self_s": "s",
    "server.queue_wait_s": "s", "server.queue_wait_s_p50": "s",
    "server.queue_wait_s_p99": "s", "server.queue_pos_mean": "count",
    "server.rejected": "count", "server.resident_entries": "count",
    "sym.intern_nodes": "count", "sym.intern_hit_ratio": "ratio",
    "op.wall_s": "s", "op.layer_sum_s": "s", "op.untraced_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER.update({"module.%s.verify_s" % s: "s" for s in STEMS})


def fail(msg, code=2):
    print("verifbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "verifbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=log,
                   check=True)
    return os.path.join(out, "verifbench")


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "verifbench", "examples"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_workload(exe, argv, workdir, timeout=RUNNER_TIMEOUT_S):
    """Runs the workload runner in workdir; returns its JSON document."""
    os.makedirs(workdir, exist_ok=True)
    try:
        r = subprocess.run([exe] + argv, cwd=workdir, stdout=subprocess.PIPE,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("runner timed out after %d s" % timeout, 1)
    if r.returncode != 0:
        fail("runner exited with %d" % r.returncode, 1)
    return json.loads(r.stdout)


def pct(xs, p):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    k = max(1, -(-int(p * 1000) * len(xs) // 1000))
    return xs[min(k, len(xs)) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank percentile p of n samples."""
    return n - max(1, -(-int(p * 1000) * n // 1000))


def end_to_end(d):
    e = [o["e"] for o in d["ops"]]
    r = [o["r"] for o in d["ops"]]
    return {
        "verify_s_p50": statistics.median(d["passes"]),
        "edit_s_p50": statistics.median(e),
        "edit_s_p90": pct(e, 0.90),
        "request_s_p50": statistics.median(r),
        "request_s_p99": pct(r, 0.99),
        "requests_per_s": len(d["ops"]) / d["phase_s"],
        "setup_s": statistics.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_kb"] / 1024.0,
    }


def per_layer(d):
    m = {k: 0.0 for k in PER_LAYER}
    m.update(d["layers"])
    traced, plain = d["traced_ops"], d["baseline_ops"]
    for i, k in enumerate(("cached", "verified", "invalidated", "salvaged",
                           "implied", "salvage_queries")):
        m["incr." + k] = statistics.fmean(o["i"][i] for o in traced)
    m["op.wall_s"] = statistics.fmean(o["r"] for o in traced)
    m["op.untraced_s"] = statistics.fmean(o["r"] for o in plain)
    m["trace.overhead_s"] = m["op.wall_s"] - m["op.untraced_s"]
    m["op.layer_sum_s"] = sum(m[k] for k in PARTITION)
    for s in STEMS:
        xs = [o["r"] for o in traced if o["m"] == s]
        m["module.%s.verify_s" % s] = statistics.median(xs) if xs else 0.0
    return m


def report_end_to_end(d, m):
    n, p = len(d["ops"]), len(d["passes"])
    print("end-to-end (%s, seed %d):" % (d["workload"], d["seed"]))
    rows = [
        ("verify_s_p50", "pass over the 7 modules, %d passes" % p),
        ("setup_s", "median of %s" % ", ".join("%.3f" % x
                                                for x in d["setup_s"])),
        ("peak_rss_mb", "workload process"),
        ("edit_s_p50", "file written -> verdict, n=%d" % n),
        ("edit_s_p90", "n=%d, %d beyond" % (n, beyond(n, 0.90))),
        ("request_s_p50", "entry-point call -> verdict, n=%d" % n),
        ("request_s_p99", "n=%d, %d beyond" % (n, beyond(n, 0.99))),
        ("requests_per_s", "%d ops in %.2f s, %d client(s)"
         % (n, d["phase_s"], d["clients"])),
    ]
    for name, note in rows:
        unit = END_TO_END.get(name) or SHOWN[name]
        if name in SHOWN:
            note = "not bounded: " + note
        print("  %-16s %12.6g %-4s  %s" % (name, m[name], unit, note))


def report_layers(d, m):
    wall = m["op.wall_s"] or 1.0
    print("per-layer self time per op (%s, %d traced ops, flight timing on):"
          % (d["workload"], len(d["traced_ops"])))
    for k in PARTITION:
        if m[k]:
            print("  %-24s %10.6f s  %6.2f%%" % (k, m[k], 100 * m[k] / wall))
    print("  %-24s %10.6f s  (op wall %.6f s)" % ("sum", m["op.layer_sum_s"],
                                                  m["op.wall_s"]))
    print("  tracing overhead %.6f s per op (traced %.6f - untraced %.6f)"
          % (m["trace.overhead_s"], m["op.wall_s"], m["op.untraced_s"]))
    for k in sorted(m):
        if k not in PARTITION:
            print("  %-28s %14.6g %s" % (k, m[k], PER_LAYER[k]))


def ops_of(d):
    return d["setup_ops"] + d["ops"] + d["traced_ops"] + d["baseline_ops"]


def self_test(exe):
    """The oracle must pass the golden corpus and catch one flipped verdict;
    every edit site must keep the golden verdicts; BENCHMARK.json must name
    exactly the metrics this script prints."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if ({m["name"] for m in bench["end_to_end"]} != set(END_TO_END) or
            {m["name"] for m in bench["per_layer"]} != set(PER_LAYER)):
        print("self-test: BENCHMARK.json metric names differ from run.py")
        ok = False
    work = os.path.join(build_dir(), "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = subprocess.run([exe, "--check-edits", "--corpus", CORPUS,
                        "--expected", EXPECTED], cwd=work)
    print("self-test: edit sites keep the golden verdicts: %s"
          % ("ok" if r.returncode == 0 else "FAIL"))
    ok &= r.returncode == 0

    flipped = os.path.join(work, "expected-flipped")
    shutil.copytree(EXPECTED, flipped)
    with open(os.path.join(flipped, "vec.json")) as fh:
        doc = json.load(fh)
    doc["report"]["unsafe_side"][0]["ok"] = not doc["report"]["unsafe_side"][0]["ok"]
    with open(os.path.join(flipped, "vec.json"), "w") as fh:
        json.dump(doc, fh)
    for label, exp, want_failed in (("golden", EXPECTED, False),
                                    ("flipped", flipped, True)):
        d = run_workload(exe, ["--workload", "cold-corpus", "--seed", "1",
                             "--seconds", "0", "--trace", "0", "--corpus",
                             CORPUS, "--expected", exp],
                       os.path.join(work, label))
        ops = ops_of(d)
        failed = sum(1 for o in ops if "why" in o)
        frac = failed / len(ops)
        good = (frac > 0) == want_failed
        print("self-test: %s expectations: failed_frac %.4f (%d of %d): %s"
              % (label, frac, failed, len(ops), "ok" if good else "FAIL"))
        ok &= good
    shutil.rmtree(work, ignore_errors=True)
    print("self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    for need in (os.path.join(ROOT, "src", "CMakeLists.txt"), EXPECTED):
        if not os.path.exists(need):
            fail("not a verifier checkout: %s is missing"
                 % os.path.relpath(need, ROOT))
    if not a.trace:
        stray = [v for v in TRACE_VARS if os.environ.get(v)]
        if stray:
            fail("refusing an untraced run with %s set: in-program tracing "
                 "would skew the timings" % ", ".join(stray))

    t0 = time.monotonic()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 1)
    print("verifbench: build ready in %.1f s" % (time.monotonic() - t0),
          file=sys.stderr)
    if a.self_test:
        sys.exit(self_test(exe))

    work = os.path.join(build_dir(), "work-%s-%d" % (a.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        d = run_workload(exe, ["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace",
                             str(a.trace), "--corpus", CORPUS,
                             "--expected", EXPECTED], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = ops_of(d)
    failed = [o for o in ops if "why" in o]
    for o in failed[:10]:
        print("verifbench: wrong verdict: %s (%s): %s"
              % (o["m"], o["k"], o["why"]), file=sys.stderr)
    tags = {
        "build_type": d["build_type"], "compiler": d["compiler"],
        "nproc": os.cpu_count(), "seed": a.seed, "seconds": a.seconds,
        "repetitions": {"setup": len(d["setup_s"]),
                        "passes": len(d["passes"]), "ops": len(d["ops"]),
                        "traced_ops": len(d["traced_ops"])},
        "jobs": 1, "clients": d["clients"], "commit": commit(),
    }
    classes = {}
    for o in d["ops"]:
        c = classes.setdefault(o["k"], {"ops": 0, "cached": 0, "verified": 0,
                                        "invalidated": 0, "salvaged": 0,
                                        "implied": 0, "salvage_queries": 0})
        c["ops"] += 1
        for key, v in zip(("cached", "verified", "invalidated", "salvaged",
                           "implied", "salvage_queries"), o["i"]):
            c[key] += v
    print(json.dumps({"tags": tags, "workload": a.workload,
                      "failed_frac": len(failed) / len(ops),
                      "edit_classes": classes}))
    if a.trace:
        m = per_layer(d)
        report_layers(d, m)
        units = PER_LAYER
    else:
        m = end_to_end(d)
        report_end_to_end(d, m)
        units = END_TO_END
    print("  failed_frac %.6f (%d of %d ops)" % (len(failed) / len(ops),
                                                len(failed), len(ops)))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": m[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
