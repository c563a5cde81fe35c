"""Metric math and self-checks for the serving benchmark.

Pure functions over one driver record (the JSON object perfbench_driver
prints). Simulated ("sim") values are deterministic for a seed; host
values are wall-clock measurements of the simulator itself.
"""

import hashlib
import json
import math
import statistics

NS_PER_MS = 1e6

# Paper reference for the figure path: Cam-LLM-L x Llama2-70B decode.
PAPER_DECODE_TOK_S_70B = 3.44

# Outcome codes of core::RequestOutcome.
COMPLETED, TIMED_OUT, CANCELLED, SHED_SLO, REJECTED = range(5)


def percentile(xs, p):
    """Nearest-rank percentile, the definition common/stats.h uses."""
    s = sorted(xs)
    rank = math.ceil(p / 100.0 * len(s))
    return s[min(max(rank, 1), len(s)) - 1]


def tail_from_samples(xs):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n), or None when fewer than 11 samples
    support any percentile. With nearest-rank percentiles the answer
    is the sample at rank n - 10, i.e. percentile 100 * (n - 10) / n.
    """
    n = len(xs)
    if n < 11:
        return None
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n, n


def tail_from_summary(n, quantiles):
    """Tail from a simulator summary that kept only a few percentiles.

    `quantiles` maps percentile -> value (nearest rank over n samples).
    Picks the highest percentile with at least ten samples beyond its
    rank; returns (value, percentile, n) or None.
    """
    for p in sorted(quantiles, reverse=True):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return quantiles[p], float(p), n
    return None


def first_token_emitted(req):
    return req["tokens_emitted"] >= 1


def ttft_from_send_ms(req, factor, closed_loop):
    """TTFT in extrapolated ms from when the client sent the request.

    Open loop: the client sends at its arrival tick, so this is the
    simulator's TTFT. Closed loop: the client sends the next turn only
    when the previous one is done, i.e. at its slot admission, so the
    wait before admission (scaled like the simulator scales it) is not
    part of the turn's TTFT.
    """
    ttft = req["ttft_ms"]
    if closed_loop:
        ttft -= (req["admit_tick"] - req["arrival"]) / NS_PER_MS * factor
    return ttft


def queue_wait_ms(req, closed_loop):
    """Sim-clock ms from send to slot admission (0 for closed loop)."""
    if closed_loop:
        return 0.0
    return (req["admit_tick"] - req["arrival"]) / NS_PER_MS


def slo_attain(reqs, ttft_ms, ttft_limit_ms, tbt_limit_ms):
    """Share of attempted requests that completed within both limits.

    `ttft_ms[i]` is request i's TTFT from send. Failed, shed and
    timed-out requests count as misses.
    """
    if not reqs:
        return 0.0
    met = sum(
        1
        for r, t in zip(reqs, ttft_ms)
        if r["outcome"] == COMPLETED
        and t <= ttft_limit_ms
        and r["mean_tbt_ms"] <= tbt_limit_ms
    )
    return met / len(reqs)


def failed_share(attempted, completed):
    return (attempted - completed) / attempted if attempted else 0.0


def median_iqr(values):
    """(median, Q3 - Q1) with statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0], 0.0
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[2] - q[0]


def sim_digest(record):
    """Digest of every simulated field of the record."""
    blob = json.dumps(
        [record["replicas"], record["engine_decode_tok_s"]], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pass_wall_s(record, traced):
    """Wall time of one pass over every replica: per replica, the
    median of its serve() calls with the given tracing state (or of
    all its calls when it has none in that state)."""
    total = 0.0
    for k in range(len(record["replicas"])):
        calls = [c for c in record["calls"] if c["replica"] == k]
        walls = [c["wall_s"] for c in calls if c["traced"] == traced]
        total += statistics.median(walls or [c["wall_s"] for c in calls])
    return total


def trace_overhead_ratio(record):
    """Traced / untraced wall of the replica served both ways, or None."""
    def wall(traced):
        w = [c["wall_s"] for c in record["calls"]
             if c["replica"] == 0 and c["traced"] == traced]
        return statistics.median(w) if w else None
    on, off = wall(True), wall(False)
    return on / off if on and off else None


# ServeStats fields that add up across replicas.
SUM_FIELDS = [
    "total_tokens", "sim_events", "prefill_channel_bytes",
    "decode_channel_bytes", "recompute_channel_bytes",
    "kv_swap_channel_bytes", "preemptions", "partial_evictions",
    "recompute_tokens", "kv_block_allocs", "kv_block_frees",
    "swap_out_blocks", "swap_in_blocks", "swap_refused_blocks",
    "prefix_hit_tokens", "admitted", "completed", "shed_slo", "timeouts",
    "cancelled", "rejected_infeasible", "read_retries",
    "retry_channel_bytes", "remap_bytes", "channels_lost", "reissued_jobs",
    "refresh_pages", "refresh_channel_bytes", "refresh_deferred_beats",
]


def pool(replicas):
    """Combine replica stats as if served back to back on one device.

    Counts add; rates divide pooled tokens by the summed extrapolated
    makespans; utilizations are weighted by sim makespan; requests are
    concatenated, each tagged with its replica and extrapolation
    factor.
    """
    p = {f: sum(r[f] for r in replicas) for f in SUM_FIELDS}
    spans = [r["sim_makespan"] * r["extrapolation_factor"] / 1e9
             for r in replicas]
    sim = [r["sim_makespan"] for r in replicas]
    p["decode_tok_s"] = p["total_tokens"] / sum(spans)
    p["goodput_tok_s"] = sum(
        r["goodput_tokens_per_s"] * s for r, s in zip(replicas, spans)
    ) / sum(spans)
    for f in ("avg_channel_util", "npu_array_util"):
        p[f] = sum(r[f] * t for r, t in zip(replicas, sim)) / sum(sim)
    p["kv_high_water_share"] = max(
        r["kv_blocks_high_water"] / r["kv_blocks_total"]
        if r["kv_blocks_total"] else 0.0 for r in replicas)
    p["wear_spread_pe"] = max(r["wear_spread_pe"] for r in replicas)
    p["requests"] = [
        dict(q, replica=k, factor=r["extrapolation_factor"])
        for k, r in enumerate(replicas) for q in r["requests"]]
    return p


class Metric:
    """One reported metric: value, unit, which clock, and a note."""

    def __init__(self, value, unit, side, note=""):
        self.value = value
        self.unit = unit
        self.side = side  # "host" or "sim"
        self.note = note


def _tail_metric(tail, unit):
    value, pct, n = tail
    return Metric(value, unit, "sim", "p%.1f of n=%d" % (pct, n))


def end_to_end(rec):
    """The user-facing metrics of one run, by name.

    A tail metric is omitted when its sample supports no percentile.
    """
    reps = rec["replicas"]
    p = pool(reps)
    reqs = p["requests"]
    closed = rec["closed_loop"]
    ttft = [ttft_from_send_ms(r, r["factor"], closed) for r in reqs]
    ttft_samples = [t for r, t in zip(reqs, ttft) if first_token_emitted(r)]

    m = {
        "sim_tok_per_wall_s": Metric(
            p["total_tokens"] / pass_wall_s(rec, False), "tok/s", "host",
            "%d sim tokens per pass over %d replica(s)"
            % (p["total_tokens"], len(reps))),
        "setup_s": Metric(
            statistics.median(rec["setup_s"]), "s", "host",
            "median of %d batches' time per set-up" % len(rec["setup_s"])),
        "peak_rss_mb": Metric(rec["peak_rss_mb"], "MB", "host"),
        "decode_tok_s": Metric(p["decode_tok_s"], "tok/s", "sim"),
        "goodput_tok_s": Metric(p["goodput_tok_s"], "tok/s", "sim"),
    }
    if ttft_samples:
        m["ttft_p50_ms"] = Metric(
            percentile(ttft_samples, 50), "ms", "sim",
            "n=%d" % len(ttft_samples))
    tail = tail_from_samples(ttft_samples)
    if tail:
        m["ttft_tail_ms"] = _tail_metric(tail, "ms")
    # Per-gap TBT samples stay inside the simulator, which keeps only
    # p50/p95/p99 per serve(); with several replicas report the median
    # over replicas of each replica's figure.
    with_gaps = [r for r in reps if r["tbt_n"]]
    if with_gaps:
        m["tbt_p50_ms"] = Metric(
            statistics.median(r["tbt_p50_ms"] for r in with_gaps), "ms",
            "sim", "per-gap, median over %d replica(s) of n=%s gaps"
            % (len(with_gaps), "/".join(str(r["tbt_n"]) for r in with_gaps)))
    tails = [t for t in (tail_from_summary(
        r["tbt_n"], {50: r["tbt_p50_ms"], 95: r["tbt_p95_ms"],
                     99: r["tbt_p99_ms"]}) for r in reps) if t]
    if len(tails) == len(reps):
        m["tbt_tail_ms"] = Metric(
            statistics.median(t[0] for t in tails), "ms", "sim",
            "per-gap p%s, median over %d replica(s)"
            % ("/".join("%g" % t[1] for t in tails), len(tails)))
    m["slo_attain"] = Metric(
        slo_attain(reqs, ttft, rec["slo_ttft_ms"], rec["slo_tbt_ms"]),
        "share", "sim",
        "TTFT <= %g ms and mean TBT <= %g ms"
        % (rec["slo_ttft_ms"], rec["slo_tbt_ms"]))
    m["completed_share"] = Metric(
        p["completed"] / len(reqs), "share", "sim",
        "failed_share = %.4f" % failed_share(len(reqs), p["completed"]))
    return m


def per_layer(rec):
    """Single-layer metrics of one run, by name, grouped by module."""
    p = pool(rec["replicas"])
    reqs = p["requests"]
    closed = rec["closed_loop"]
    mb = 1e6
    traced = any(c["traced"] for c in rec["calls"])
    wall = pass_wall_s(rec, traced)
    waits = [queue_wait_ms(r, closed) for r in reqs if first_token_emitted(r)]
    prompt_tokens = sum(r["prompt"] for r in reqs)

    def count(v):
        return Metric(v, "count", "sim")

    def mbytes(field):
        return Metric(p[field] / mb, "MB", "sim")

    m = {
        "sim.events": count(p["sim_events"]),
        "sim.events_per_token": count(p["sim_events"] / p["total_tokens"]),
        "sim.events_per_wall_s": Metric(p["sim_events"] / wall, "1/s", "host"),
        "flash.channel_util": Metric(p["avg_channel_util"], "share", "sim"),
        "flash.decode_mb": mbytes("decode_channel_bytes"),
        "flash.prefill_mb": mbytes("prefill_channel_bytes"),
        "flash.kv_swap_mb": mbytes("kv_swap_channel_bytes"),
        "flash.retry_mb": mbytes("retry_channel_bytes"),
        "flash.read_retries": count(p["read_retries"]),
        "flash.refresh_pages": count(p["refresh_pages"]),
        "flash.refresh_mb": mbytes("refresh_channel_bytes"),
        "flash.refresh_deferred_beats": count(p["refresh_deferred_beats"]),
        "flash.remap_mb": mbytes("remap_bytes"),
        "flash.reissued_jobs": count(p["reissued_jobs"]),
        "flash.wear_spread_pe": Metric(
            p["wear_spread_pe"], "PE", "sim", "max over replicas"),
        "npu.array_util": Metric(p["npu_array_util"], "share", "sim"),
    }
    if waits:
        m["sched.queue_wait_p50_ms"] = Metric(
            percentile(waits, 50), "ms", "sim", "sim clock, n=%d" % len(waits))
    tail = tail_from_samples(waits)
    if tail:
        m["sched.queue_wait_tail_ms"] = _tail_metric(tail, "ms")
        m["sched.queue_wait_tail_ms"].note = \
            "sim clock, " + m["sched.queue_wait_tail_ms"].note
    m.update({
        "sched.prefill_chunks": count(sum(r["prefill_chunks"] for r in reqs)),
        "sched.admitted": count(p["admitted"]),
        "sched.shed_slo": count(p["shed_slo"]),
        "sched.timeouts": count(p["timeouts"]),
        "kv.high_water_share": Metric(
            p["kv_high_water_share"], "share", "sim",
            "high water / pool blocks, max over replicas (0 = unbounded)"),
        "kv.preemptions": count(p["preemptions"]),
        "kv.partial_evictions": count(p["partial_evictions"]),
        "kv.recompute_tokens": count(p["recompute_tokens"]),
        "kv.swap_out_blocks": count(p["swap_out_blocks"]),
        "kv.swap_in_blocks": count(p["swap_in_blocks"]),
        "kv.swap_refused_blocks": count(p["swap_refused_blocks"]),
        "kv.prefix_hit_share": Metric(
            p["prefix_hit_tokens"] / prompt_tokens if prompt_tokens else 0.0,
            "share", "sim", "prefix-hit tokens / prompt tokens"),
        "kv.blocked_ms_sum": Metric(
            sum(r["kv_blocked_time"] for r in reqs) / NS_PER_MS, "ms", "sim",
            "sim clock"),
        "core.engine.decode_tok_s": Metric(
            rec["engine_decode_tok_s"], "tok/s", "sim",
            "L x Llama2-70B, paper %.2f tok/s, error %+.1f%%; the model is "
            "unvalidated beyond this figure"
            % (PAPER_DECODE_TOK_S_70B,
               100.0 * (rec["engine_decode_tok_s"] / PAPER_DECODE_TOK_S_70B
                        - 1.0))),
        "host.serve_wall_s": Metric(
            wall, "s", "host", "one pass over %d replica(s)%s"
            % (len(rec["replicas"]), ", traced" if traced else "")),
    })
    ratio = trace_overhead_ratio(rec)
    if ratio:
        m["host.trace_overhead_ratio"] = Metric(
            ratio, "ratio", "host", "traced / untraced serve() wall")
    return m


# Per-workload "mechanism fired" guards: a workload must keep
# exercising the layer it exists for.
# Each guard sees the pooled stats and the per-replica stats.
MECHANISM_GUARDS = {
    "edge-chat-70b": [
        ("zero preemptions", lambda p, reps: p["preemptions"] == 0),
        ("zero read retries", lambda p, reps: p["read_retries"] == 0),
    ],
    "shared-kv-7b": [
        ("preemptions > 0", lambda p, reps: p["preemptions"] > 0),
        ("swap-ins > 0", lambda p, reps: p["swap_in_blocks"] > 0),
        ("prefix hits > 0", lambda p, reps: p["prefix_hit_tokens"] > 0),
    ],
    "aged-device-7b": [
        ("read retries > 0", lambda p, reps: p["read_retries"] > 0),
        ("refresh pages > 0", lambda p, reps: p["refresh_pages"] > 0),
        ("exactly one channel lost per replica",
         lambda p, reps: all(r["channels_lost"] == 1 for r in reps)),
    ],
}


def self_checks(rec):
    """[(name, ok)] for one run; any False fails the run."""
    reps = rec["replicas"]
    p = pool(reps)

    def balanced(st):
        outcomes = (st["completed"] + st["shed_slo"] + st["timeouts"]
                    + st["cancelled"] + st["rejected_infeasible"])
        done = sum(q["outcome"] == COMPLETED for q in st["requests"])
        return outcomes == len(st["requests"]) and st["completed"] == done

    checks = [
        ("outcome balance", all(balanced(st) for st in reps)),
        ("completed requests emitted exact token counts", all(
            q["tokens_emitted"] == q["decode_tokens"] + (1 if q["prompt"]
                                                         else 0)
            for q in p["requests"] if q["outcome"] == COMPLETED)),
        ("emitted tokens add up", all(
            st["total_tokens"] == sum(q["tokens_emitted"]
                                      for q in st["requests"])
            for st in reps)),
        ("kv block allocs == frees", all(
            st["kv_block_allocs"] == st["kv_block_frees"] for st in reps)),
        ("sim stats identical across serve() calls (tracing on and off)",
         rec["calls_identical"]),
    ]
    for name, guard in MECHANISM_GUARDS.get(rec["workload"], []):
        checks.append(("mechanism: " + name, guard(p, reps)))
    return checks
