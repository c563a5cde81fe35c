/**
 * @file
 * Seeded differential harness for Scheduler::serve(). Each seed
 * expands into a small (request trace, SchedOptions, FaultSpec) tuple
 * on preset S x OPT-6.7B that mixes the serving features — FCFS vs
 * chunked prefill, NPU contention, contiguous / paged / bounded KV,
 * swap-to-flash, partial eviction, prefix sharing, deadlines and
 * cancellation, SLO shedding and slowdown, read retries, channel
 * slowdown/loss and the wear/ECC/refresh co-design — and serves it.
 * The run is folded into an FNV-1a digest over integer fields only
 * (per-request ticks, outcome, token and KV counters, plus every
 * integer ServeStats counter except sim_events), so the digest is
 * exact and platform-stable.
 *
 * The digest leaves out sim_events, the kernel's callback count: it
 * measures host work, not simulated behaviour, and a change that runs
 * the same simulation in fewer events must still match every digest.
 * kSimEvents pins that count exactly for four seeds instead, so a
 * change to it is always deliberate.
 *
 * kGoldenDigests holds the digests the scheduler produced before its
 * facade and memo layers were removed. Refactors of serve() must keep
 * every one of them; they are a contract, never re-recorded to make a
 * failure go away.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/arrivals.h"
#include "core/presets.h"
#include "core/scheduler.h"
#include "core/sweep.h"
#include "llm/model_config.h"
#include "llm/quant.h"

namespace camllm::core {
namespace {

struct ServeCase
{
    std::vector<ServeRequest> requests;
    SchedOptions opt;
};

/** Expand @p seed into one small serve. Every draw comes from one
 *  xoshiro stream, so a seed names the same case on every host. */
ServeCase
makeCase(std::uint64_t seed, const CamConfig &cfg,
         const llm::ModelConfig &model)
{
    Rng rng(seed);
    ServeCase c;
    SchedOptions &opt = c.opt;

    opt.max_batch = std::uint32_t(1 + rng.below(4));
    if (rng.chance(0.5)) {
        opt.policy = SchedPolicy::ChunkedInterleave;
        opt.prefill_chunk = std::uint32_t(16) << rng.below(2);
    }
    opt.npu_contention = rng.chance(0.5);

    // Trace: burst or spaced arrivals; warm decode-only requests mixed
    // with prompted ones, some tagged with one of two shared prefixes.
    // Every prefill chunk and decode step streams the sampled layers'
    // weights once, so the shapes stay small to keep each serve cheap.
    const std::size_t n = rng.chance(0.35) ? 3 : 2;
    const bool burst = rng.chance(0.3);
    Tick t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ServeRequest r;
        if (rng.chance(0.4)) {
            r.context = std::uint32_t(4 + rng.below(125));
        } else {
            r.prompt = std::uint32_t(1 + rng.below(40));
            if (rng.chance(0.2))
                r.context = std::uint32_t(rng.below(65));
        }
        r.decode_tokens = std::uint32_t(1 + rng.below(3));
        if (!burst)
            t += rng.below(21) * kMs;
        r.arrival = t;
        if (r.context == 0 && r.prompt >= 2 && rng.chance(0.5)) {
            r.prefix_id = 1 + rng.below(2);
            r.prefix_tokens = r.prefix_id == 1 ? 16 : 24;
        }
        if (rng.chance(0.1))
            r.cancel_at = r.arrival + (1 + rng.below(100)) * kMs;
        c.requests.push_back(r);
    }

    // KV: contiguous, paged-unbounded, or a bounded pool sized between
    // just under the largest single request (some requests then get
    // rejected as infeasible) and the trace's whole demand.
    const std::uint32_t kv_mode = std::uint32_t(rng.below(3));
    if (kv_mode >= 1)
        opt.kv_block_tokens = std::uint32_t(4) << rng.below(3);
    if (kv_mode == 2) {
        const std::uint32_t B = opt.kv_block_tokens;
        std::uint64_t peak = 0, sum = 0;
        for (const ServeRequest &r : c.requests) {
            const std::uint64_t tokens =
                std::uint64_t(r.context) + r.prompt + r.decode_tokens;
            const std::uint64_t blocks = (tokens + B - 1) / B;
            peak = std::max(peak, blocks);
            sum += blocks;
        }
        std::uint64_t blocks = peak + rng.below(sum - peak + 1);
        if (rng.chance(0.1))
            blocks = std::max<std::uint64_t>(1, peak - 1);
        const std::uint64_t token_kv_bytes =
            std::uint64_t(model.kvDim()) *
            (llm::QuantSpec::of(cfg.quant).act_bits / 8) *
            model.n_layers;
        opt.kv_budget_bytes = blocks * B * token_kv_bytes;
        opt.kv_swap = rng.chance(0.5);
        opt.kv_partial_evict = rng.chance(0.5);
    }
    if (kv_mode >= 1)
        opt.kv_prefix_sharing = rng.chance(0.5);

    // Resilience: deadlines and SLO-aware admission.
    if (rng.chance(0.2))
        opt.request_deadline = (20 + rng.below(200)) * kMs;
    if (rng.chance(0.25)) {
        opt.slo_ttft_ms = double(50 + rng.below(1500));
        if (rng.chance(0.5))
            opt.degrade = DegradePolicy::ProportionalSlowdown;
    }

    // Faults: soft read failures, a channel slowdown window or loss,
    // and the reliability co-design knobs.
    flash::FaultSpec &f = opt.faults;
    f.seed = 1 + rng.below(1000);
    if (rng.chance(0.2))
        f.ucp_rate = 0.01 * double(1 + rng.below(5));
    if (rng.chance(0.15)) {
        const auto ch =
            std::uint32_t(rng.below(cfg.flash.geometry.channels));
        const Tick t0 = rng.below(30) * kMs;
        if (rng.chance(0.5))
            f.addOffline(ch, t0);
        else
            f.addSlowdown(ch, double(2 + rng.below(7)), t0,
                          t0 + (5 + rng.below(40)) * kMs);
    }
    if (rng.chance(0.1)) {
        f.wear_tracking = true;
        f.wear_skew = 0.1 * double(rng.below(7));
        f.pe_cycles = double(rng.below(1000));
        f.retention_hours = double(rng.below(200));
        f.wear_policy = rng.chance(0.5) ? flash::WearPolicy::LeastWorn
                                        : flash::WearPolicy::Bump;
        f.ecc_correctable_bits = std::uint32_t(8 * rng.below(5));
        if (rng.chance(0.5))
            f.refresh_pages_per_s = double(500 * (1 + rng.below(4)));
    }
    return c;
}

/** FNV-1a over the integer fields of one serve's results. */
std::uint64_t
digest(const ServeStats &s)
{
    Fnv1a h;
    for (const ServeRequestStats &r : s.requests) {
        h.add(r.id).add(r.prompt).add(r.context).add(r.decode_tokens);
        h.add(r.arrival).add(r.admit_tick).add(r.first_token_tick);
        h.add(r.finish_tick).add(r.first_token.token_time);
        h.add(r.prefill_time).add(r.prefill_chunks);
        h.add(r.total_token_time).add(r.mean_token_time);
        h.add(std::uint8_t(r.outcome)).add(r.tokens_emitted);
        h.add(r.preemptions).add(r.recompute_time);
        h.add(r.recompute_chunks).add(r.kv_blocked_time);
        h.add(r.swapped_in_blocks).add(r.prefix_reused_tokens);
    }
    h.add(s.max_batch).add(s.total_tokens).add(s.sim_makespan);
    h.add(s.ttft.n).add(s.tbt.n);
    h.add(s.prefill_channel_bytes).add(s.decode_channel_bytes);
    h.add(s.recompute_channel_bytes);
    h.add(s.preemptions).add(s.recompute_tokens);
    h.add(s.kv_blocks_total).add(s.kv_blocks_high_water);
    h.add(s.kv_block_allocs).add(s.kv_block_frees);
    h.add(s.partial_evictions).add(s.swap_out_blocks);
    h.add(s.swap_in_blocks).add(s.swap_refused_blocks);
    h.add(s.kv_swap_channel_bytes);
    h.add(s.prefix_hit_blocks).add(s.prefix_hit_tokens);
    h.add(s.prefix_inserted_blocks).add(s.prefix_dropped_blocks);
    h.add(s.admitted).add(s.completed).add(s.shed_slo);
    h.add(s.timeouts).add(s.cancelled).add(s.rejected_infeasible);
    h.add(s.read_retries).add(s.retry_channel_bytes);
    h.add(s.remap_bytes).add(s.channels_lost).add(s.reissued_jobs);
    h.add(s.refresh_pages).add(s.refresh_channel_bytes);
    h.add(s.refresh_deferred_beats);
    return h.value();
}

/**
 * Seed whose serve deadlocks: its bounded pool with prefix sharing
 * leaves cold prefix-cache blocks behind, and the admission of a
 * warm-context request waits for free blocks without shedding them
 * (only a running request's growth drops cold cache blocks). Nothing
 * is left to free a block, the event queue drains with requests
 * stranded, and serve() aborts on its outcome-balance audit. It has
 * no digest (slot 0 below) and is pinned by the death test instead.
 */
constexpr std::uint64_t kAdmissionDeadlockSeed = 107;

// Digests of seeds 1..160, recorded before the batch-engine facade,
// the sweep memo and the scheduler knobs only they used were removed,
// and re-recorded on that same simulator when sim_events left the
// digest.
constexpr std::uint64_t kGoldenDigests[] = {
    0x30dfead9913e5fbc, 0x94f649b8eed2705e, 0x5ef905451bf7416c,
    0x9d8f48c8236e8ee7, 0x009a6997762ce081, 0x5e7b3bef1a0ef782,
    0x1163f34ac12df906, 0xd6566346e7fbaedb, 0x8cca5002810065f8,
    0x2c8d8179c5108b69, 0xfbbf9cb6fd5fa14d, 0x9ad84b6df62db4a2,
    0x162d3c4e759f8e47, 0x6d5770dbb3aa37fd, 0x56b6f6a84a535fed,
    0x4914f4f200a6e3cb, 0xe4416a781af62489, 0x00834976624f080d,
    0x1b95c6949e11c691, 0xd2085e88993ca329, 0xaf232e66f6829434,
    0x90b7ba3d203a8c42, 0xf035172807e94c4e, 0xcad28a553e30afb0,
    0x27cadead3deb5e77, 0x10b02bc4ef317fbc, 0x47cc62f7807c6d22,
    0x0f104b5d422c1d99, 0x799c1dcf401ba437, 0xe815931d1ccdaf0d,
    0x46e67ee552b9ba07, 0x448561bf62473cb1, 0x69e31c86153d2849,
    0xc8d9e37553706c96, 0x8eabd9d54cde4eee, 0xcd04b619528c86de,
    0xe0f490083bfaed01, 0x936bdcce507f6c1c, 0x3e565a282021c3c7,
    0x65b5ae9ced5a54db, 0xda79c8e368f48a90, 0x3225940189c78c3f,
    0x15a945dd2bf85adc, 0x02775bb5f792f627, 0x740f3c0ae172d3f6,
    0x553904048625e815, 0x7321ba21a4f6660f, 0x645aa5572557e704,
    0xdd58633a63d80664, 0xa22cb84d4d14f4e3, 0xae72abeb59a1f922,
    0xbb141bc08e1d9dfe, 0xe1d11af8e65990b9, 0xfc56269be0039587,
    0x5b824d0380233cd7, 0xccdd237800132204, 0xfd7a0689613a8f66,
    0x8ad872af85eb6209, 0xd6650d9622c236db, 0x3df082823ca2a57d,
    0x0b459d860070ea69, 0xa0f77bef80636c47, 0xe5667f318017d491,
    0xcf025937158d69de, 0x1267f5bcb88f803d, 0x03a21f00e858b5f8,
    0x62bb1525357101e4, 0xe1505f4a2918b855, 0x082c97330a0871e5,
    0xc88a2b5eb4dfc55b, 0x3d8efdfe5ae30416, 0xa221a5b1e005e5c6,
    0xfd56a70b61f5d986, 0x53e0e79b0bb5ff86, 0x31cf988b2da02b9c,
    0x221106f6e5db9f3b, 0xa28772d5f39a4f75, 0x2c226579944eac69,
    0xa7240990e9019dd2, 0xd67b2de01fb4a1a9, 0x3a5e48b4eef87b73,
    0x32dd251446c361b7, 0x9e8aa9c8c132038a, 0x360edddf1dc4efe5,
    0xfded56cc11abb12e, 0xb242ae5c548d6d81, 0x009b36fee3da682d,
    0x11bb36a1f9bd199f, 0x8a3b435af3e40f1e, 0xb945a54c67611e69,
    0x04b218d28c2a6cb0, 0x84ed15dd228072ef, 0x091e398b1222c1ba,
    0x6e6095899753cc00, 0x86ec34028c57067a, 0xa6f47956c7d09a4c,
    0xd874c349f555ae3e, 0x74f8f5ce05c8f8a4, 0xb419e3ab3046849e,
    0x65ba2195ef189851, 0xf17137ee53a0da08, 0x8571ad61c0ca45e6,
    0xa1e68df3d7a5ecf5, 0xa6ae3ee5903a96f2, 0x545b44747e625ec2,
    0x0048e119a0ca37ba, 0x0000000000000000, 0x1bc5972f796b16c4,
    0x02d2fe4a6b1be1c4, 0xbed0a560c75f03ed, 0x1bffe117546c2a1e,
    0x3fde3a671b88b848, 0xb2f11f368f9d9b71, 0x514b7b2e1c324a09,
    0xe45fadceef823ebe, 0x9448aa371ac32076, 0x71f845798c4b1844,
    0xe18f70181db3fa8e, 0xead6741a33a0c3b5, 0xb9f27222a54a25d3,
    0xb833f0f0299b5c97, 0x2060deffbea8c830, 0x53571904c80ee0c4,
    0x59aa7445cda10564, 0x6d6ac48c6af8d449, 0x82d2c7b099039608,
    0x97697d30cf606846, 0x854db56e3fc4c251, 0x5a556c73d474a1c7,
    0x43159523340b5e92, 0xbcaf612dea7a7b4c, 0x115dec42457a5b55,
    0x7c28692cbac643b6, 0xb2417334957d1ed1, 0x6ac6c05b77b4c66f,
    0x2e7dc7c7f164280e, 0x51a33a777d3faa14, 0x61f89950de7ed5fd,
    0x70611c7b35084ce5, 0xbddadf7795717fc5, 0x42fcb0070dcbf3fd,
    0x6b6bfeddb8a76df5, 0x98ab7ff084613420, 0x780af99c647fa315,
    0xe9907b6b0dee7484, 0x80040039780b6405, 0xca983782bc3bf519,
    0xb31719fc0582438c, 0x582b380de2495678, 0xfa902c9add8ae3bc,
    0xcb8df283132b68ff, 0x2bf104b9b3267c21, 0x5e3949231639ec53,
    0x40325ffd843bf60b, 0x246f60ddc65f421f, 0xf53356e88f0d600b,
    0x720299984b425e59, 0x61b05d766f5d9ada, 0x879bc1694db18163,
    0x39f0e2f6fc28a5be,
};

/**
 * Kernel callbacks of four seeds' serves, recorded once the lockstep
 * dies of a tile were stepped as one group: fault-free (3), chunked
 * prefill with KV swap (97), soft read failures (2), and a channel
 * lost mid-serve (37).
 */
constexpr struct
{
    std::uint64_t seed;
    std::uint64_t sim_events;
} kSimEvents[] = {
    {3, 1743511},
    {97, 3340027},
    {2, 2198480},
    {37, 2405447},
};

TEST(ServeDigest, SeededServesMatchRecordedDigests)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();
    const Scheduler sched(cfg, model);
    const std::size_t n_seeds = std::size(kGoldenDigests);
    // Seeds are independent serves: fan them out over the sweep pool
    // (results come back in seed order on any thread count).
    const std::vector<ServeStats> runs =
        ParallelSweep().map<ServeStats>(n_seeds, [&](std::size_t i) {
            if (i + 1 == kAdmissionDeadlockSeed)
                return ServeStats{};
            const ServeCase c = makeCase(i + 1, cfg, model);
            return sched.serve(c.requests, c.opt);
        });
    for (std::size_t i = 0; i < n_seeds; ++i) {
        const std::uint64_t seed = i + 1;
        if (seed == kAdmissionDeadlockSeed)
            continue;
        const ServeStats &s = runs[i];

        // Outcome balance and token bookkeeping hold on every seed.
        EXPECT_EQ(s.completed + s.shed_slo + s.timeouts + s.cancelled +
                      s.rejected_infeasible,
                  s.requests.size())
            << "seed " << seed;
        EXPECT_EQ(s.kv_block_allocs, s.kv_block_frees)
            << "seed " << seed;
        for (const ServeRequestStats &r : s.requests) {
            if (r.outcome == RequestOutcome::Completed) {
                EXPECT_EQ(r.tokens_emitted,
                          r.decode_tokens + (r.prompt > 0 ? 1u : 0u))
                    << "seed " << seed << " request " << r.id;
            }
        }

        char got[24], want[24];
        std::snprintf(got, sizeof got, "0x%016" PRIx64, digest(s));
        std::snprintf(want, sizeof want, "0x%016" PRIx64,
                      kGoldenDigests[i]);
        EXPECT_STREQ(got, want) << "seed " << seed;
    }
    for (const auto &pin : kSimEvents)
        EXPECT_EQ(runs[pin.seed - 1].sim_events, pin.sim_events)
            << "seed " << pin.seed;
}

// Known defect, kept visible: see kAdmissionDeadlockSeed. When the
// admission path learns to shed cold prefix-cache blocks this serve
// completes, this test fails, and the seed gets a recorded digest.
TEST(ServeDigestDeathTest, ColdPrefixBlocksDeadlockWarmAdmission)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();
    const ServeCase c = makeCase(kAdmissionDeadlockSeed, cfg, model);
    EXPECT_DEATH(Scheduler(cfg, model).serve(c.requests, c.opt),
                 "request accounting out of balance");
}

} // namespace
} // namespace camllm::core
