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
 * integer ServeStats counter), so the digest is exact and
 * platform-stable.
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
    h.add(s.sim_events).add(s.ttft.n).add(s.tbt.n);
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
// the sweep memo and the scheduler knobs only they used were removed.
constexpr std::uint64_t kGoldenDigests[] = {
    0xcd180a81691b2846, 0xd2588d39c06ce412, 0x49e0e2b96524a119,
    0xe60af64a561fb019, 0x73e5fe3493201cd3, 0x2750051f8f853ba7,
    0x14e81d00cd171750, 0xf70afbcee4ec5e2f, 0x88f1932e70da66c8,
    0xc376fabeea6b9fe8, 0xf49fe99d89279096, 0x8f145e34367e4980,
    0x6b4de0a65cd4a1f6, 0xf241db565ec44f18, 0x55be44befc8bf3fe,
    0xa87f162ac0d23181, 0x10e64796d9858253, 0x1af48e2fedfdfabf,
    0xfc0416a3b3d4aca3, 0xeb4d16f9258496db, 0xb808351136bdbff1,
    0xff5f80e6017eda4d, 0x752da9ee62e8298e, 0xf695542c131babc1,
    0x1dbedeb0ddf577ed, 0x4ef41f2ac79b06f5, 0x1071ec9d451126ca,
    0xefd981557e5e1434, 0x172692961d5de535, 0x87ab0fafacd5bcd4,
    0xa33da70c6ad7cff4, 0xa2e5b1cb92c2dceb, 0x9022b5afd2f7309a,
    0x86b5ea51cfaeb3bf, 0x4bd40f7495eba016, 0x5aa85079ac9a9978,
    0xd526bc570d54ec87, 0x84aa15630b871797, 0xb53ad0cb8aaf311f,
    0x0173c0cbbe634c55, 0xa8acf761542fed5f, 0x4109da8236f1b27d,
    0x1df7a0e194e8c5a9, 0x05d08b5af97108ba, 0x241a82d877c2c4bf,
    0x74743998d463bf02, 0x937b2bcdd5639287, 0x4d2cb3c972efdb20,
    0xcdd5be2838727169, 0x62e0eaba22110855, 0x628a9f2b9934c0ef,
    0x25e0709d41b8cc91, 0x8495b4f8c37214bf, 0x75a4dad230b35fc6,
    0xe95c405d4a3375bb, 0x5dc298fbbe15a528, 0x428ffa3d1336d1e5,
    0x39ef1b4aac8aad27, 0x3c770b816092f186, 0x264165c5993dca6a,
    0xe3d95a23fbd8dd2a, 0x147bebb90369798e, 0xab105afbfea04031,
    0x5b98ccb6f1d249e8, 0x64658c18136792a0, 0xffac30829409c797,
    0xe4480165d2698364, 0xc753878b1b136907, 0xb4bee71fbfc259bd,
    0xaf776cd32631a773, 0x0977bb5f5fdd854d, 0x8e8f81b5c48c8a09,
    0xddef398014bae51d, 0xa61fc19445a14873, 0x4e5be2ce1498860d,
    0x263dd26758e04a4f, 0xc78c86868ffd1ace, 0xa8362eb47193a4bd,
    0x1aa2cea4d65f349a, 0x6e8f812eaddf956e, 0x1ccb71145ca7e4c5,
    0x2e61b7e10e518cf3, 0x1cd241e397729681, 0xc640408fae068740,
    0x7c07074fc46ec47a, 0xa77d58471cb53083, 0x83a47cd0b79a38c1,
    0xee681bc4e3af6ef4, 0x2b91020670e9723f, 0x08a8ea6b319d7f45,
    0xbf407336149800b4, 0xabfc5a88e5f7bee1, 0xcf39e55968fac571,
    0x1a7541b1c0ae5991, 0x47d3515be32cd41d, 0x2983b8f0468a9ec7,
    0xc51370e7c78ca1f1, 0xc984402b18ada138, 0x0dc06e6b782f6322,
    0x6ce5613fac225c73, 0xdba086187768ff0f, 0x2a4bb505d6a513fb,
    0x158632d16ffc652a, 0x940eb566db7c5408, 0x178579892cddd770,
    0x641b0ce5ee6ff98e, 0x0000000000000000, 0x0517dfd0e2043499,
    0x91c9c1d844065e49, 0x830114a9ac38121a, 0xa43b988df79fe445,
    0xaa0027fd1495dc61, 0x13897bfafb4850fe, 0xe85b8ef02ed95fc0,
    0xa50b43be3ca4ca4a, 0x9e7d86f9681aa9ca, 0xa305e226a8d40e38,
    0x2fd37b3001eb9801, 0xd91425eaecfa743f, 0xacb7fadbb8699c36,
    0xc3921b7e0b033a31, 0x6c80bb1e37c03ad7, 0x55c6d7c0b3925ce3,
    0xc2dce8f96867a102, 0x63ce9c3180ad6fdc, 0xc876d6f37540cae2,
    0x1add6f32516ca64c, 0x2b57829b4ff0d04f, 0xb9a3452515041d8f,
    0x0c883a3f460f68bd, 0x56e8c5f78c61a6db, 0x67a802bba59af860,
    0x278c20e3a0f71345, 0x7773398bf84c8feb, 0xe1d43dbf3b79d4d7,
    0xa9db891742ca3bd7, 0xaa57273403c3a077, 0x15d65b236eafebe0,
    0xbeabc464b1b816be, 0x82c7073d160fdb4c, 0x7bb75f3e22a4e1d8,
    0xdc1765764e9a6b4e, 0x62eefaf1430e900c, 0x0a3053c2dcf9ffd8,
    0xfdf48a63fcb2eead, 0x92910f1ff933c52d, 0x229602f209cbf978,
    0xbc1bd36582ebb7d0, 0x06b24c8743643283, 0x7880b3d36a96831c,
    0x7202e49b63fc7226, 0xdedfc657ba3779a4, 0x345f5b6d7dfdaec0,
    0xf70da1487a4f7e87, 0x1843191e4f3c0593, 0xc0a5417366e4b81a,
    0x7faeee8f88682f9d, 0x4fb1a44231edde93, 0x194643fade76c0c2,
    0x81699e10736ab683,
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
