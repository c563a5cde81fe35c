/**
 * @file
 * Serving benchmark driver: builds one named workload's replica traces
 * from a seed, times set-up, calls core::Scheduler::serve() on each
 * replica on one thread for a wall budget, times one
 * core::CambriconEngine::decodeToken() of Cam-LLM-L x Llama2-70B, and
 * prints one JSON record on stdout. run.py turns the record into
 * metrics, self-checks and an optional Chrome trace.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *
 * Simulated results are deterministic for a seed: every serve() of a
 * replica must give byte-identical stats ("calls_identical"). With
 * --trace 1 host spans are recorded in memory and one replica is also
 * served untraced, so the identity check covers tracing on and off.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/scheduler.h"

using namespace camllm;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
usSinceStart(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kProcessStart)
        .count();
}

/** One serve() input: a request trace and the options to serve it. */
struct Replica
{
    std::vector<core::ServeRequest> requests;
    core::SchedOptions opt;
};

/**
 * A workload: independent replicas of one traffic mix, served one
 * after another on the same device configuration, plus the SLO limits
 * that score it (extrapolated ms, set from single-stream service
 * times; see README.md). Pooling a few short independent replicas
 * keeps a run's latency percentiles from hinging on one trajectory's
 * preemption or fault cascade.
 */
struct Workload
{
    core::CamConfig config;
    llm::ModelConfig model;
    std::vector<Replica> replicas;
    bool closed_loop = false;
    double slo_ttft_ms = 0.0;
    double slo_tbt_ms = 0.0;
};

/** Fisher-Yates shuffle of @p v[first, last) driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, std::size_t first, std::size_t last, Rng &rng)
{
    for (std::size_t i = last - first; i > 1; --i)
        std::swap(v[first + i - 1], v[first + rng.below(i)]);
}

/**
 * n integers spread evenly over [lo, hi]: one uniform draw inside
 * each of n equal strata, in seed-shuffled order. The multiset's sum
 * barely moves between seeds, so seed-to-seed spread in the metrics
 * comes from ordering and timing rather than from one seed drawing a
 * heavier trace than another.
 */
std::vector<std::uint32_t>
stratified(std::size_t n, std::uint32_t lo, std::uint32_t hi, Rng &rng)
{
    std::vector<std::uint32_t> v(n);
    const double width = double(hi - lo + 1) / double(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = lo + std::uint32_t((double(i) + rng.uniform()) * width);
    shuffle(v, 0, n, rng);
    return v;
}

/**
 * stratified(), reordered so that every run of @p b consecutive values
 * (n a multiple of b) holds one value from each of b equal sub-ranges
 * of [lo, hi]. Any prefix of the sequence then carries close to its
 * share of the total, so position-driven statistics of a FCFS queue,
 * such as the median request's wait, barely move between seeds.
 */
std::vector<std::uint32_t>
balanced(std::size_t n, std::size_t b, std::uint32_t lo, std::uint32_t hi,
         Rng &rng)
{
    std::vector<std::uint32_t> v = stratified(n, lo, hi, rng);
    std::sort(v.begin(), v.end()); // v[i] is stratum i's draw
    const std::size_t runs = n / b;
    std::vector<std::size_t> slot(runs);
    std::vector<std::uint32_t> out(n);
    for (std::size_t c = 0; c < b; ++c) {
        for (std::size_t k = 0; k < runs; ++k)
            slot[k] = k;
        shuffle(slot, 0, runs, rng);
        for (std::size_t k = 0; k < runs; ++k)
            out[slot[k] * b + c] = v[c * runs + k];
    }
    for (std::size_t k = 0; k < runs; ++k)
        shuffle(out, k * b, (k + 1) * b, rng);
    return out;
}

/** n paced arrivals over [0, window): request i lands uniformly
 *  inside the i-th of n equal slots. */
std::vector<Tick>
pacedArrivals(std::size_t n, double window_s, Rng &rng)
{
    std::vector<Tick> t(n);
    for (std::size_t i = 0; i < n; ++i)
        t[i] = secondsToTicks((double(i) + rng.uniform()) * window_s /
                              double(n));
    return t;
}

/**
 * edge-chat-70b: the paper's setting. One client on Cam-LLM-L x
 * Llama2-70B sends a conversation's turns back-to-back (closed loop,
 * zero think time): all turns queue at t = 0 and max_batch = 1 admits
 * each one when the previous reply finishes, so a turn is sent at its
 * admission. Each turn prefills a 64-256-token prompt on the growing
 * conversation context and decodes a 7-13-token reply; a conversation
 * starts on a 512-768-token warm context and a new one starts when
 * the next turn would pass 4K tokens.
 */
Workload
edgeChat(std::uint64_t seed)
{
    Workload w;
    w.config = core::presetL();
    w.model = llm::llama2_70b();
    w.closed_loop = true;
    Rng rng(seed);
    const std::size_t turns = 22;
    const std::uint32_t max_context = 4096;
    const auto prompts = stratified(turns, 64, 256, rng);
    const auto replies = stratified(turns, 7, 13, rng);
    const auto warm = [&] { return 512 + std::uint32_t(rng.below(257)); };
    std::uint32_t context = warm();
    Replica r;
    for (std::size_t i = 0; i < turns; ++i) {
        if (context + prompts[i] + replies[i] + 1 > max_context)
            context = warm();
        core::ServeRequest q;
        q.prompt = prompts[i];
        q.context = context;
        q.decode_tokens = replies[i];
        r.requests.push_back(q);
        context += q.prompt + q.decode_tokens + 1;
    }
    r.opt.max_batch = 1;
    w.replicas.push_back(r);
    w.slo_ttft_ms = 14500.0;
    w.slo_tbt_ms = 274.0;
    return w;
}

/**
 * shared-kv-7b: eight clients in a closed loop (zero think time) on
 * Cam-LLM-L x Llama2-7B: 48 requests queue at t = 0 and max_batch = 8
 * admits the next one whenever a slot frees. Chunked-256 prefill,
 * contended NPU, paged KV in 64-token blocks with room for half of
 * what the eight admitted requests need on average, with swap,
 * partial eviction and prefix sharing on, so KV stalls, evictions,
 * swaps and prefix hits happen throughout the run. Prompts run
 * 128-1024 tokens and replies 9-25, both in balanced() order; half
 * the requests lead with the same 256-token system prompt.
 */
Workload
sharedKv(std::uint64_t seed)
{
    Workload w;
    w.config = core::presetL();
    w.model = llm::llama2_7b();
    w.closed_loop = true;
    Rng rng(seed);
    const std::size_t n = 48;
    const std::uint32_t prefix = 256, block = 64;
    auto prompts = balanced(n, 8, 128, 1024, rng);
    auto replies = balanced(n, 8, 9, 25, rng);
    // Half the requests share the system prompt; a sharer's prompt
    // must extend past the prefix by at least one block.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    shuffle(order, 0, n, rng);
    std::vector<bool> shared(n, false);
    std::size_t sharers = 0;
    for (std::size_t i : order)
        if (sharers < n / 2 && prompts[i] >= prefix + block) {
            shared[i] = true;
            ++sharers;
        }
    // The queue head is a sharer. The tree maps cached blocks only at
    // admission, and the first KV stall admits and preempts the whole
    // queue within ~0.1 s of sim time, so some request of the initial
    // wave must have published the prefix by then. The head starts
    // first and is the last eviction victim; with a non-sharing head,
    // seeds 13 and 22 (of 1-36) saw no prefix hit at all.
    const std::size_t head =
        std::size_t(std::find(shared.begin(), shared.end(), true) -
                    shared.begin());
    std::swap(prompts[0], prompts[head]);
    std::swap(replies[0], replies[head]);
    shared[head] = shared[0];
    shared[0] = true;
    Replica r;
    std::uint64_t demand_blocks = 0;
    for (std::size_t i = 0; i < n; ++i) {
        core::ServeRequest q;
        q.prompt = prompts[i];
        q.decode_tokens = replies[i];
        if (shared[i]) {
            q.prefix_id = 1;
            q.prefix_tokens = prefix;
        }
        r.requests.push_back(q);
        demand_blocks += (q.prompt + q.decode_tokens + block - 1) / block;
    }
    const std::uint64_t token_kv_bytes =
        std::uint64_t(w.model.kvDim()) *
        (llm::QuantSpec::of(w.config.quant).act_bits / 8) *
        w.model.n_layers;
    r.opt.max_batch = 8;
    r.opt.policy = core::SchedPolicy::ChunkedInterleave;
    r.opt.prefill_chunk = 256;
    r.opt.npu_contention = true;
    r.opt.kv_block_tokens = block;
    r.opt.kv_budget_bytes = demand_blocks * r.opt.max_batch / 2 / n *
                            block * token_kv_bytes;
    r.opt.kv_swap = true;
    r.opt.kv_partial_evict = true;
    r.opt.kv_prefix_sharing = true;
    w.replicas.push_back(r);
    w.slo_ttft_ms = 145000.0;
    w.slo_tbt_ms = 650.0;
    return w;
}

/**
 * aged-device-7b: open-loop traffic on Cam-LLM-L x Llama2-7B on an
 * aged device: 500 h retention at 2000 P/E with +/-60% per-plane skew
 * and wear tracking, ECC-32 codeword tails, retention refresh,
 * channel 0 offline halfway through each replica, and deadlines plus
 * ShedNewest SLO admission. Arrivals are paced (one per 0.67 s slot,
 * uniform inside it) at about a third of the device's capacity, so
 * most requests are served alone and the fault, ECC, refresh and
 * remap paths, not queueing, set their latency.
 */
Workload
agedDevice(std::uint64_t seed)
{
    Workload w;
    w.config = core::presetL();
    w.model = llm::llama2_7b();
    Rng rng(seed);
    const std::size_t replicas = 2, n = 12;
    const double window_s = 8.0;
    for (std::size_t k = 0; k < replicas; ++k) {
        const auto at = pacedArrivals(n, window_s, rng);
        const auto prompts = stratified(n, 32, 128, rng);
        const auto replies = stratified(n, 1, 3, rng);
        Replica r;
        for (std::size_t i = 0; i < n; ++i) {
            core::ServeRequest q;
            q.arrival = at[i];
            q.prompt = prompts[i];
            q.decode_tokens = replies[i];
            r.requests.push_back(q);
        }
        r.opt.max_batch = 4;
        r.opt.policy = core::SchedPolicy::ChunkedInterleave;
        r.opt.prefill_chunk = 256;
        r.opt.request_deadline = 60 * kSec;
        r.opt.slo_ttft_ms = 300000.0;
        r.opt.degrade = core::DegradePolicy::ShedNewest;
        flash::FaultSpec &f = r.opt.faults;
        f.seed = rng.next();
        f.retention_hours = 500.0;
        f.pe_cycles = 2000.0;
        f.wear_tracking = true;
        f.wear_skew = 0.6;
        f.ecc_correctable_bits = 32;
        f.refresh_pages_per_s = 1000.0;
        f.addOffline(0, secondsToTicks(window_s / 2.0));
        w.replicas.push_back(r);
    }
    w.slo_ttft_ms = 580.0;
    w.slo_tbt_ms = 73.5;
    return w;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    if (name == "edge-chat-70b")
        w = edgeChat(seed);
    else if (name == "shared-kv-7b")
        w = sharedKv(seed);
    else if (name == "aged-device-7b")
        w = agedDevice(seed);
    else
        return false;
    return true;
}

/** Minimal JSON object writer; doubles keep all 17 digits. */
class Json
{
  public:
    Json &
    key(const char *k)
    {
        sep();
        s_ += '"';
        s_ += k;
        s_ += "\":";
        fresh_ = true;
        return *this;
    }
    Json &
    num(double v)
    {
        sep();
        char b[32];
        std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
        s_ += b;
        return *this;
    }
    Json &
    num(std::uint64_t v)
    {
        sep();
        s_ += std::to_string(v);
        return *this;
    }
    Json &
    str(const std::string &v)
    {
        sep();
        s_ += '"' + v + '"';
        return *this;
    }
    Json &
    boolean(bool v)
    {
        sep();
        s_ += v ? "true" : "false";
        return *this;
    }
    Json &
    raw(const std::string &v)
    {
        sep();
        s_ += v;
        return *this;
    }
    Json &
    open(char c)
    {
        sep();
        s_ += c;
        fresh_ = true;
        return *this;
    }
    Json &
    close(char c)
    {
        s_ += c;
        fresh_ = false;
        return *this;
    }
    const std::string &text() const { return s_; }

  private:
    void
    sep()
    {
        if (!fresh_ && !s_.empty())
            s_ += ',';
        fresh_ = false;
    }
    std::string s_;
    bool fresh_ = true;
};

/** The aggregate and per-request ServeStats fields the benchmark
 *  reports or checks, serialized; repeat serve() calls must produce
 *  the same string. */
std::string
serializeStats(const core::ServeStats &s)
{
    Json j;
    j.open('{');
    j.key("total_tokens").num(s.total_tokens);
    j.key("sim_makespan").num(s.sim_makespan);
    j.key("extrapolation_factor").num(s.extrapolation_factor);
    j.key("sim_events").num(s.sim_events);
    j.key("finite_run_tokens_per_s").num(s.finite_run_tokens_per_s);
    j.key("goodput_tokens_per_s").num(s.goodput_tokens_per_s);
    j.key("avg_channel_util").num(s.avg_channel_util);
    j.key("npu_array_util").num(s.npu_array_util);
    j.key("tbt_n").num(s.tbt.n);
    j.key("tbt_p50_ms").num(s.tbt.p50_ms);
    j.key("tbt_p95_ms").num(s.tbt.p95_ms);
    j.key("tbt_p99_ms").num(s.tbt.p99_ms);
    j.key("prefill_channel_bytes").num(s.prefill_channel_bytes);
    j.key("decode_channel_bytes").num(s.decode_channel_bytes);
    j.key("recompute_channel_bytes").num(s.recompute_channel_bytes);
    j.key("kv_swap_channel_bytes").num(s.kv_swap_channel_bytes);
    j.key("preemptions").num(std::uint64_t(s.preemptions));
    j.key("partial_evictions").num(std::uint64_t(s.partial_evictions));
    j.key("recompute_tokens").num(s.recompute_tokens);
    j.key("kv_blocks_total").num(s.kv_blocks_total);
    j.key("kv_blocks_high_water").num(s.kv_blocks_high_water);
    j.key("kv_block_allocs").num(s.kv_block_allocs);
    j.key("kv_block_frees").num(s.kv_block_frees);
    j.key("swap_out_blocks").num(s.swap_out_blocks);
    j.key("swap_in_blocks").num(s.swap_in_blocks);
    j.key("swap_refused_blocks").num(s.swap_refused_blocks);
    j.key("prefix_hit_tokens").num(s.prefix_hit_tokens);
    j.key("admitted").num(std::uint64_t(s.admitted));
    j.key("completed").num(std::uint64_t(s.completed));
    j.key("shed_slo").num(std::uint64_t(s.shed_slo));
    j.key("timeouts").num(std::uint64_t(s.timeouts));
    j.key("cancelled").num(std::uint64_t(s.cancelled));
    j.key("rejected_infeasible").num(std::uint64_t(s.rejected_infeasible));
    j.key("read_retries").num(s.read_retries);
    j.key("retry_channel_bytes").num(s.retry_channel_bytes);
    j.key("remap_bytes").num(s.remap_bytes);
    j.key("channels_lost").num(std::uint64_t(s.channels_lost));
    j.key("reissued_jobs").num(s.reissued_jobs);
    j.key("refresh_pages").num(s.refresh_pages);
    j.key("refresh_channel_bytes").num(s.refresh_channel_bytes);
    j.key("refresh_deferred_beats").num(s.refresh_deferred_beats);
    j.key("wear_spread_pe").num(s.wear_spread_pe);
    j.key("requests").open('[');
    for (const core::ServeRequestStats &r : s.requests) {
        j.open('{');
        j.key("id").num(std::uint64_t(r.id));
        j.key("prompt").num(std::uint64_t(r.prompt));
        j.key("context").num(std::uint64_t(r.context));
        j.key("decode_tokens").num(std::uint64_t(r.decode_tokens));
        j.key("arrival").num(r.arrival);
        j.key("admit_tick").num(r.admit_tick);
        j.key("first_token_tick").num(r.first_token_tick);
        j.key("finish_tick").num(r.finish_tick);
        j.key("prefill_time").num(r.prefill_time);
        j.key("prefill_chunks").num(std::uint64_t(r.prefill_chunks));
        j.key("ttft_ms").num(r.ttft_ms);
        j.key("mean_tbt_ms").num(r.mean_tbt_ms);
        j.key("outcome").num(std::uint64_t(r.outcome));
        j.key("tokens_emitted").num(std::uint64_t(r.tokens_emitted));
        j.key("preemptions").num(std::uint64_t(r.preemptions));
        j.key("recompute_time").num(r.recompute_time);
        j.key("kv_blocked_time").num(r.kv_blocked_time);
        j.key("swapped_in_blocks").num(std::uint64_t(r.swapped_in_blocks));
        j.key("prefix_reused_tokens")
            .num(std::uint64_t(r.prefix_reused_tokens));
        j.close('}');
    }
    j.close(']');
    j.close('}');
    return j.text();
}

/** One host span, recorded only when tracing is on. */
struct Span
{
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int index = -1; ///< serve() replica, or set-up number

};

struct Tracer
{
    bool on = false;
    std::vector<Span> spans;

    /** Time @p fn; record a span when tracing. Returns seconds. */
    double
    time(const char *name, const std::function<void()> &fn, int tag = -1)
    {
        const Clock::time_point t0 = Clock::now();
        fn();
        const Clock::time_point t1 = Clock::now();
        if (on)
            spans.push_back(
                {name, usSinceStart(t0),
                 std::chrono::duration<double, std::micro>(t1 - t0)
                     .count(),
                 tag});
        return std::chrono::duration<double>(t1 - t0).count();
    }
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "edge-chat-70b|shared-kv-7b|aged-device-7b --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        char *end = nullptr;
        if (a == "--workload")
            name = argv[i + 1];
        else if (a == "--seed")
            seed = std::strtoull(argv[i + 1], &end, 10);
        else if (a == "--seconds")
            seconds = std::strtod(argv[i + 1], &end);
        else if (a == "--trace")
            trace = int(std::strtol(argv[i + 1], &end, 10));
        else
            return usage();
        if (end && *end != '\0')
            return usage();
    }
    if (argc % 2 == 0 || !(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage();

    // --- set-up -----------------------------------------------------------
    // One set-up (trace generation and Scheduler ctor) takes a few
    // microseconds, and the host's speed wanders on a sub-second scale:
    // a 0.5 ms burst of set-ups read anywhere from 2.3 to 4.1 us per
    // set-up from one process to the next. So set-ups repeat for
    // kSetupWindowS in batches of kSetupBatch, and setup_s is the
    // median batch's time per set-up. A traced run records the spans
    // of the first set-up only.
    const double kSetupWindowS = 2.0;
    const int kSetupBatch = 100;
    Tracer tracer;
    tracer.on = trace == 1;
    Workload w;
    std::unique_ptr<core::Scheduler> sched;
    bool known = true;
    tracer.time("setup.trace_gen",
                [&] { known = makeWorkload(name, seed, w); });
    if (!known)
        return usage();
    tracer.time("setup.scheduler_ctor", [&] {
        sched = std::make_unique<core::Scheduler>(w.config, w.model);
    });
    std::vector<double> setup_s;
    const Clock::time_point window_start = Clock::now();
    while (secondsSince(window_start) < kSetupWindowS) {
        const Clock::time_point t0 = Clock::now();
        for (int k = 0; k < kSetupBatch; ++k) {
            makeWorkload(name, seed, w);
            sched = std::make_unique<core::Scheduler>(w.config, w.model);
        }
        setup_s.push_back(secondsSince(t0) / kSetupBatch);
    }

    // --- serve() every replica, in passes, for the wall budget -----------
    // An untraced run makes whole passes while the next one is
    // predicted to fit. A traced run makes one traced pass and then
    // serves replica 0 again untraced, so tracing on and off can be
    // compared for both wall time and simulated stats.
    struct Call
    {
        std::size_t replica;
        bool traced;
        double wall_s;
    };
    std::vector<Call> calls;
    std::vector<std::string> stats(w.replicas.size());
    bool identical = true;
    const auto serveOne = [&](std::size_t k, bool traced) {
        tracer.on = traced;
        core::ServeStats st;
        const double wall = tracer.time("serve", [&] {
            st = sched->serve(w.replicas[k].requests, w.replicas[k].opt);
        }, int(k));
        calls.push_back({k, traced, wall});
        std::string s = serializeStats(st);
        if (stats[k].empty())
            stats[k] = std::move(s);
        else
            identical = identical && s == stats[k];
        return wall;
    };
    const Clock::time_point budget_start = Clock::now();
    if (trace == 1) {
        for (std::size_t k = 0; k < w.replicas.size(); ++k)
            serveOne(k, true);
        serveOne(0, false);
    } else {
        double pass_s = 0.0;
        do {
            pass_s = 0.0;
            for (std::size_t k = 0; k < w.replicas.size(); ++k)
                pass_s += serveOne(k, false);
        } while (secondsSince(budget_start) + pass_s <= seconds);
    }

    // --- the figure path: one decode token of L x Llama2-70B -------------
    tracer.on = trace == 1;
    core::TokenStats tok;
    std::unique_ptr<core::CambriconEngine> engine;
    tracer.time("engine.ctor", [&] {
        engine = std::make_unique<core::CambriconEngine>(
            core::presetL(), llm::llama2_70b());
    });
    const double engine_s =
        tracer.time("engine.decodeToken", [&] { tok = engine->decodeToken(); });

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Json j;
    j.open('{');
    j.key("workload").str(name);
    j.key("seed").num(seed);
    j.key("model").str(w.model.name);
    j.key("closed_loop").boolean(w.closed_loop);
    j.key("slo_ttft_ms").num(w.slo_ttft_ms);
    j.key("slo_tbt_ms").num(w.slo_tbt_ms);
    j.key("setup_s").open('[');
    for (double v : setup_s)
        j.num(v);
    j.close(']');
    j.key("calls").open('[');
    for (const Call &c : calls) {
        j.open('{');
        j.key("replica").num(std::uint64_t(c.replica));
        j.key("traced").boolean(c.traced);
        j.key("wall_s").num(c.wall_s);
        j.close('}');
    }
    j.close(']');
    j.key("calls_identical").boolean(identical);
    j.key("engine_decode_tok_s").num(tok.tokens_per_s);
    j.key("engine_wall_s").num(engine_s);
    j.key("peak_rss_mb").num(double(ru.ru_maxrss) / 1024.0);
    j.key("replicas").open('[');
    for (const std::string &st : stats)
        j.raw(st);
    j.close(']');
    j.key("host_spans").open('[');
    for (const Span &s : tracer.spans) {
        j.open('{');
        j.key("name").str(s.name);
        j.key("start_us").num(s.start_us);
        j.key("dur_us").num(s.dur_us);
        j.key("index").num(double(s.index));
        j.close('}');
    }
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}
