#!/usr/bin/env python3
"""Serving benchmark for the camllm simulator: simulator speed and
simulated serving, end to end and per layer.

Builds perfbench_driver from source (into .bench_build/perfbench at the
repository root), runs it, checks its outputs and prints every metric
by name with its unit. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exits non-zero when any self-check fails.

    python3 perfbench/run.py                       # all workloads
    python3 perfbench/run.py --workload shared-kv-7b --seed 3 \\
        --seconds 30 --trace 1 --save results.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

--trace 1 also writes a Chrome trace-event file (loads in Perfetto)
under .bench_build/perfbench/traces/. See README.md for the workloads,
the layers each one stresses, and the predictions each one tests.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["edge-chat-70b", "shared-kv-7b", "aged-device-7b"]
DRIVER_TIMEOUT_S = 170


def build():
    """Configure and build perfbench_driver; False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            print("build failed: %s" % e, file=sys.stderr)
            return False
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            print("build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def declared_units(trace):
    """name -> unit of the metrics BENCHMARK.json promises for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(workload, seed, seconds, trace):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=DRIVER_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise RuntimeError("driver exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def chrome_trace(rec):
    """Chrome trace-event JSON: host spans from this benchmark's own
    calls, and per-request sim-clock phases rebuilt from the stats.
    Each replica's requests get their own process; a request's spans
    share its id as thread id."""
    ev = [{"ph": "M", "pid": 1, "name": "process_name",
           "args": {"name": "host (wall clock)"}}]
    for s in rec["host_spans"]:
        ev.append({"ph": "X", "pid": 1, "tid": 1, "name": s["name"],
                   "ts": s["start_us"], "dur": s["dur_us"],
                   "args": {"index": s["index"]}})
    for k, st in enumerate(rec["replicas"]):
        phases, totals = 10 + 2 * k, 11 + 2 * k
        ev.append({"ph": "M", "pid": phases, "name": "process_name",
                   "args": {"name": "replica %d requests (sampled-layer "
                                    "sim clock)" % k}})
        ev.append({"ph": "M", "pid": totals, "name": "process_name",
                   "args": {"name": "replica %d per-request totals (placed "
                                    "at admission; position not recorded)"
                                    % k}})

        def span(pid, r, name, start_ns, dur_ns):
            if dur_ns > 0:
                ev.append({"ph": "X", "pid": pid, "tid": r["id"],
                           "name": name, "ts": start_ns / 1e3,
                           "dur": dur_ns / 1e3,
                           "args": {"request": r["id"], "replica": k,
                                    "outcome": r["outcome"]}})

        for r in st["requests"]:
            admit, first = r["admit_tick"], r["first_token_tick"]
            send = admit if rec["closed_loop"] else r["arrival"]
            if admit >= send:
                span(phases, r, "queued", send, admit - send)
            if metrics.first_token_emitted(r):
                if r["prompt"]:
                    span(phases, r, "prefill", admit, first - admit)
                span(phases, r, "decode", first, r["finish_tick"] - first)
            span(totals, r, "kv-blocked", admit, r["kv_blocked_time"])
            # recompute_time is extrapolated; scale it to the sim clock.
            span(totals, r, "recompute", admit,
                 r["recompute_time"] / st["extrapolation_factor"])
    return {"traceEvents": ev, "displayTimeUnit": "ms",
            "otherData": {"workload": rec["workload"],
                          "seed": rec["seed"]}}


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def print_metrics(title, ms):
    print(title)
    for name, m in ms.items():
        print("  %-30s %14s %-6s [%s]%s" % (
            name, fmt(m.value), m.unit, m.side,
            "  " + m.note if m.note else ""))


def report(rec, trace):
    """Print one workload's run; return (ok, e2e, layer)."""
    e2e = metrics.end_to_end(rec)
    layer = metrics.per_layer(rec)
    checks = metrics.self_checks(rec)
    n = sum(len(st["requests"]) for st in rec["replicas"])
    completed = sum(st["completed"] for st in rec["replicas"])
    print("== %s  seed %d  (%s, %d replica(s), %d requests, %d serve() "
          "calls) ==" % (rec["workload"], rec["seed"], rec["model"],
                         len(rec["replicas"]), n, len(rec["calls"])))
    if rec["closed_loop"]:
        print("closed loop: a client sends its next request when the last "
              "one completes; TTFT counts from send (= slot admission)")
    else:
        print("open loop: arrivals are exact sim-clock ticks, so the "
              "generator is never late (lateness 0 ms)")
    print("sim latencies are depth-extrapolated from sampled layers and "
          "carry that bias (ROADMAP, serving at full depth)")
    print_metrics("end-to-end:", e2e)
    print_metrics("per-layer:", layer)
    print("failed_share %.4f (attempted %d, completed %d)" % (
        metrics.failed_share(n, completed), n, completed))
    print("sim digest %s" % metrics.sim_digest(rec))
    for name, ok in checks:
        print("check %-62s %s" % (name, "ok" if ok else "FAILED"))
    if trace:
        path = os.path.join(BUILD, "traces", "%s-seed%d.trace.json" % (
            rec["workload"], rec["seed"]))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(chrome_trace(rec), f)
        print("chrome trace: %s" % os.path.relpath(path, ROOT))
        if "host.trace_overhead_ratio" in layer:
            print("tracing overhead: traced/untraced serve() wall = %.4f" %
                  layer["host.trace_overhead_ratio"].value)
    return all(ok for _, ok in checks), e2e, layer


def save(path, rec, trace, e2e, layer, ok):
    row = {"workload": rec["workload"], "seed": rec["seed"], "trace": trace,
           "correct": ok, "digest": metrics.sim_digest(rec),
           "metrics": {k: {"value": m.value, "unit": m.unit, "side": m.side}
                       for k, m in {**e2e, **layer}.items()}}
    with open(path, "a") as f:
        f.write(json.dumps(row) + "\n")


def compare(path_a, path_b):
    """Host metrics as median and IQR per side; any sim-side difference
    between runs of the same workload and seed is flagged."""

    def load(p):
        with open(p) as f:
            return [json.loads(line) for line in f if line.strip()]

    a, b = load(path_a), load(path_b)
    diffs = 0
    for wl in sorted({r["workload"] for r in a + b}):
        ra = [r for r in a if r["workload"] == wl]
        rb = [r for r in b if r["workload"] == wl]
        print("== %s  (%d vs %d runs) ==" % (wl, len(ra), len(rb)))
        names = sorted({k for r in ra + rb for k, m in r["metrics"].items()
                        if m["side"] == "host"})
        for name in names:
            va = [r["metrics"][name]["value"] for r in ra
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb
                  if name in r["metrics"]]
            if not va or not vb:
                continue
            (ma, ia), (mb, ib) = metrics.median_iqr(va), metrics.median_iqr(vb)
            print("  %-26s A %12.6g (IQR %.3g)  B %12.6g (IQR %.3g)  "
                  "B/A %.4f" % (name, ma, ia, mb, ib, mb / ma if ma else 0))
        by_key = {}
        for r in ra + rb:
            by_key.setdefault((r["seed"], r["trace"]), []).append(r)
        for (seed, trace), rows in sorted(by_key.items()):
            base = rows[0]
            for other in rows[1:]:
                for name, m in base["metrics"].items():
                    if m["side"] != "sim":
                        continue
                    o = other["metrics"].get(name)
                    if o is None or o["value"] != m["value"]:
                        diffs += 1
                        print("  SIM DIFF seed %d trace %d %s: %s vs %s" % (
                            seed, trace, name, m["value"],
                            o and o["value"]))
                if other["digest"] != base["digest"]:
                    diffs += 1
                    print("  SIM DIFF seed %d trace %d: digest %s vs %s" % (
                        seed, trace, base["digest"], other["digest"]))
    print("sim-side differences: %d" % diffs)
    return diffs == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="append each run's metrics to this "
                                   "JSONL file (input to --compare)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, out = True, 0, 0, {}
    for wl in workloads:
        try:
            rec = run_driver(wl, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print("%s: %s" % (wl, e), file=sys.stderr)
            return 1
        ok, e2e, layer = report(rec, args.trace)
        chosen = layer if args.trace else e2e
        reported = {k: m.unit for k, m in chosen.items()}
        complete = reported == declared_units(args.trace)
        print("check %-62s %s" % ("reports every declared metric with its "
                                  "unit", "ok" if complete else "FAILED"))
        correct = correct and ok and complete
        # One attempted operation per serve() call. Repeat calls must
        # reproduce their replica's first call; if any did not, count
        # every repeat as failed.
        calls = len(rec["calls"])
        attempted += calls
        if not rec["calls_identical"]:
            failed += calls - len(rec["replicas"])
        prefix = "" if len(workloads) == 1 else wl + "."
        for name, m in chosen.items():
            out[prefix + name] = {"value": m.value, "unit": m.unit}
        if args.save:
            save(args.save, rec, args.trace, e2e, layer, ok and complete)
        print()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
