/**
 * @file
 * The recorded continuous-batching contract shared by the serving
 * suites: per-request ticks of a decode-only FCFS serve on
 * presetS / OPT-6.7B at max_batch 2 with free NPU arbitration, and a
 * field-by-field TokenStats comparison. The numbers were recorded
 * before the scheduler existed; they are the contract, not a snapshot
 * of the current implementation, and are never re-recorded.
 */

#ifndef CAMLLM_TESTS_SERVING_GOLDEN_H
#define CAMLLM_TESTS_SERVING_GOLDEN_H

#include <gtest/gtest.h>

#include <vector>

#include "core/arrivals.h"
#include "core/engine.h"

namespace camllm::core {

inline void
expectSameStats(const TokenStats &a, const TokenStats &b)
{
    EXPECT_EQ(a.token_time, b.token_time);
    EXPECT_DOUBLE_EQ(a.tokens_per_s, b.tokens_per_s);
    EXPECT_DOUBLE_EQ(a.avg_channel_util, b.avg_channel_util);
    EXPECT_EQ(a.channel_bytes_high, b.channel_bytes_high);
    EXPECT_EQ(a.channel_bytes_low, b.channel_bytes_low);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.array_read_bytes, b.array_read_bytes);
    EXPECT_EQ(a.pages_computed, b.pages_computed);
    EXPECT_EQ(a.pages_read, b.pages_read);
    EXPECT_DOUBLE_EQ(a.npu_flops, b.npu_flops);
    EXPECT_DOUBLE_EQ(a.flash_flops, b.flash_flops);
    EXPECT_EQ(a.weight_bytes_flash, b.weight_bytes_flash);
    EXPECT_EQ(a.weight_bytes_npu, b.weight_bytes_npu);
    EXPECT_EQ(a.extrapolated, b.extrapolated);
    EXPECT_EQ(a.simulated_layers, b.simulated_layers);
}

struct Golden
{
    Tick admit, finish, total;
};

/** Per-request (admit, finish, total token time) of goldenRequests()
 *  served at max_batch 2. */
inline constexpr Golden kGolden[4] = {
    {0, 161723879, 1111725799},
    {0, 85240587, 560241547},
    {85240587, 255464719, 1120226052},
    {161723879, 246867591, 560144672},
};
inline constexpr Tick kGoldenMakespan = 255464719;

/** Four warm-context decode-only requests queued at t = 0:
 *  (context, decode tokens) = {256,2}, {512,1}, {1024,2}, {384,1}. */
inline std::vector<ServeRequest>
goldenRequests()
{
    return {{0, 256, 2, 0},
            {0, 512, 1, 0},
            {0, 1024, 2, 0},
            {0, 384, 1, 0}};
}

} // namespace camllm::core

#endif // CAMLLM_TESTS_SERVING_GOLDEN_H
