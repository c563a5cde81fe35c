/**
 * @file
 * Tests for continuous-batching decode through Scheduler::serve():
 * batch-of-one equivalence with CambriconEngine::decodeToken()
 * (bit-exact, across quant modes and configs), determinism across
 * sweep-thread settings, admission waves beyond the batch limit,
 * per-token KV growth, and throughput/fairness under concurrency.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/arrivals.h"
#include "core/engine.h"
#include "core/presets.h"
#include "core/scheduler.h"
#include "core/sweep.h"
#include "llm/model_config.h"
#include "serving_golden.h"

namespace camllm::core {
namespace {

// One decode-only request at batch one is the single-stream engine:
// same device construction order, same graph, same event sequence.
TEST(Scheduler, BatchOfOneMatchesSingleStreamBitExactly)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();

    const TokenStats single =
        CambriconEngine(cfg, model).decodeToken();

    SchedOptions opt;
    opt.max_batch = 1;
    const ServeStats ss = Scheduler(cfg, model).serve(
        {ServeRequest{0, cfg.seq_len, 1, 0}}, opt);

    ASSERT_EQ(ss.requests.size(), 1u);
    expectSameStats(single, ss.requests[0].first_token);
    EXPECT_EQ(ss.requests[0].total_token_time, single.token_time);
    EXPECT_DOUBLE_EQ(ss.requests[0].tokens_per_s, single.tokens_per_s);
    EXPECT_DOUBLE_EQ(ss.aggregate_tokens_per_s, single.tokens_per_s);
    EXPECT_DOUBLE_EQ(ss.fairness_jain, 1.0);
}

TEST(Scheduler, BatchOfOneMatchesAcrossQuantAndConfig)
{
    const llm::ModelConfig model = llm::opt6_7b();
    for (auto quant : {llm::QuantMode::W8A8, llm::QuantMode::W4A16}) {
        CamConfig cfg = presetCustom(8, 2);
        cfg.quant = quant;
        cfg.seq_len = 384;
        const TokenStats single =
            CambriconEngine(cfg, model).decodeToken();
        SchedOptions opt;
        opt.max_batch = 1;
        const ServeStats ss = Scheduler(cfg, model).serve(
            {ServeRequest{0, cfg.seq_len, 1, 0}}, opt);
        expectSameStats(single, ss.requests[0].first_token);
    }
}

// The serving bench evaluates batch points inside ParallelSweep;
// per-request stats must be identical no matter how many workers the
// pool runs (each point's simulation is self-contained).
TEST(Scheduler, DecodeOnlyDeterministicAcrossSweepThreads)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();
    const auto runPoint = [&](std::size_t) {
        SchedOptions opt;
        opt.max_batch = 2;
        return Scheduler(cfg, model).serve(goldenRequests(), opt);
    };
    ParallelSweep one(1), four(4);
    const auto a = one.map<ServeStats>(4, runPoint);
    const auto b = four.map<ServeStats>(4, runPoint);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].requests.size(), b[p].requests.size());
        EXPECT_EQ(a[p].sim_makespan, b[p].sim_makespan);
        EXPECT_DOUBLE_EQ(a[p].aggregate_tokens_per_s,
                         b[p].aggregate_tokens_per_s);
        for (std::size_t r = 0; r < a[p].requests.size(); ++r) {
            expectSameStats(a[p].requests[r].first_token,
                            b[p].requests[r].first_token);
            EXPECT_EQ(a[p].requests[r].total_token_time,
                      b[p].requests[r].total_token_time);
            EXPECT_EQ(a[p].requests[r].admit_tick,
                      b[p].requests[r].admit_tick);
            EXPECT_EQ(a[p].requests[r].finish_tick,
                      b[p].requests[r].finish_tick);
        }
    }
}

TEST(Scheduler, AdmitsBeyondBatchLimitAndRetiresInWaves)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();
    const std::vector<ServeRequest> reqs = {{0, 256, 1, 0},
                                            {0, 512, 1, 0},
                                            {0, 768, 1, 0},
                                            {0, 1024, 1, 0},
                                            {0, 320, 1, 0}};
    SchedOptions opt;
    opt.max_batch = 2;
    const ServeStats ss = Scheduler(cfg, model).serve(reqs, opt);
    ASSERT_EQ(ss.requests.size(), 5u);
    EXPECT_EQ(ss.total_tokens, 5u);

    // First two admitted at t = 0; the rest only after a retirement.
    EXPECT_EQ(ss.requests[0].admit_tick, 0u);
    EXPECT_EQ(ss.requests[1].admit_tick, 0u);
    for (std::size_t i = 2; i < 5; ++i)
        EXPECT_GT(ss.requests[i].admit_tick, 0u);
    for (const ServeRequestStats &r : ss.requests) {
        EXPECT_GT(r.finish_tick, r.admit_tick);
        EXPECT_LE(r.finish_tick, ss.sim_makespan);
        EXPECT_GT(r.tokens_per_s, 0.0);
    }
}

TEST(Scheduler, MultiTokenRequestGrowsItsKvStream)
{
    CamConfig cfg = presetS();
    cfg.seq_len = 256;
    const llm::ModelConfig model = llm::opt6_7b();

    SchedOptions opt;
    opt.max_batch = 1;
    const ServeStats ss = Scheduler(cfg, model).serve(
        {ServeRequest{0, 256, 3, 0}}, opt);
    ASSERT_EQ(ss.requests.size(), 1u);
    EXPECT_EQ(ss.requests[0].decode_tokens, 3u);
    EXPECT_EQ(ss.total_tokens, 3u);

    // First token equals a plain decode at the same context; the mean
    // over three tokens is higher because the KV stream grows.
    const TokenStats single =
        CambriconEngine(cfg, model).decodeToken();
    expectSameStats(single, ss.requests[0].first_token);
    EXPECT_GE(ss.requests[0].mean_token_time, single.token_time);
}

TEST(Scheduler, ConcurrencyRaisesAggregateThroughput)
{
    const CamConfig cfg = presetS();
    const llm::ModelConfig model = llm::opt6_7b();
    const std::vector<ServeRequest> reqs(4, ServeRequest{0, 512, 1, 0});

    const Scheduler sched(cfg, model);
    SchedOptions opt;
    opt.max_batch = 1;
    const ServeStats serial = sched.serve(reqs, opt);
    opt.max_batch = 4;
    const ServeStats batched = sched.serve(reqs, opt);

    // Four streams fill each other's channel bubbles; at minimum the
    // shared device must not get slower than strictly serial service.
    EXPECT_GT(batched.aggregate_tokens_per_s,
              serial.aggregate_tokens_per_s * 1.02);
    EXPECT_GE(batched.avg_channel_util, serial.avg_channel_util - 1e-9);
    // Identical requests must be served near-evenly.
    EXPECT_GT(batched.fairness_jain, 0.98);
}

} // namespace
} // namespace camllm::core
