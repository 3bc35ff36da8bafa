/**
 * @file
 * Tests for the simulated learner group: shard partitioning properties,
 * functional collectives, and communication accounting.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "device/device_manager.h"
#include "dist/learner_group.h"
#include "dist/process_group.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serial.h"

namespace edkm {
namespace {

class DistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
    }
};

TEST_F(DistTest, ShardRangesPartitionExactly)
{
    for (int world : {1, 2, 3, 8}) {
        LearnerGroup g(world);
        for (int64_t n : {int64_t(1), int64_t(7), int64_t(64),
                          int64_t(1000), int64_t(65536)}) {
            int64_t covered = 0;
            int64_t prev_end = 0;
            for (int r = 0; r < world; ++r) {
                auto [b, e] = g.shardRange(n, r);
                EXPECT_EQ(b, prev_end); // contiguous, ordered
                EXPECT_LE(e, n);
                covered += e - b;
                prev_end = e;
            }
            EXPECT_EQ(covered, n) << "world=" << world << " n=" << n;
            EXPECT_EQ(prev_end, n);
        }
    }
}

TEST_F(DistTest, ShardSizesBalanced)
{
    LearnerGroup g(8);
    // Sizes differ by at most 1.
    int64_t mn = 1 << 30, mx = 0;
    for (int r = 0; r < 8; ++r) {
        int64_t s = g.shardSize(1001, r);
        mn = std::min(mn, s);
        mx = std::max(mx, s);
    }
    EXPECT_LE(mx - mn, 1);
}

TEST_F(DistTest, BadRankFatal)
{
    LearnerGroup g(4);
    EXPECT_THROW(g.shardRange(10, 4), FatalError);
    EXPECT_THROW(g.shardRange(10, -1), FatalError);
    EXPECT_THROW(LearnerGroup(0), FatalError);
}

TEST_F(DistTest, AllGatherConcatenatesAndAccounts)
{
    LearnerGroup g(4);
    Rng rng(5);
    std::vector<Tensor> shards;
    for (int r = 0; r < 4; ++r) {
        shards.push_back(Tensor::rand({2, 3}, rng));
    }
    Tensor full = g.allGather(shards);
    EXPECT_EQ(full.shape(), (Shape{8, 3}));
    EXPECT_NEAR(full.at({6, 1}), shards[3].at({0, 1}), 1e-6);
    // Ring all-gather moves (L-1)/L of the payload.
    EXPECT_EQ(g.stats().allGathers, 1);
    EXPECT_EQ(g.stats().allGatherBytes, 8 * 3 * 4 * 3 / 4);
}

TEST_F(DistTest, AllReduceMeanAverages)
{
    LearnerGroup g(2);
    Tensor a = Tensor::fromVector({2, 4}, {2});
    Tensor b = Tensor::fromVector({4, 8}, {2});
    Tensor mean = g.allReduceMean({a, b});
    EXPECT_TRUE(allclose(mean, Tensor::fromVector({3, 6}, {2})));
    EXPECT_EQ(g.stats().allReduces, 1);
}

TEST_F(DistTest, CollectivesAdvanceSimulatedTime)
{
    DeviceManager &mgr = DeviceManager::instance();
    double t0 = mgr.simulatedSeconds();
    LearnerGroup g(8);
    g.recordAllGather(1 << 20);
    EXPECT_GT(mgr.simulatedSeconds(), t0);
    double t1 = mgr.simulatedSeconds();
    g.recordAllReduce(1 << 20);
    EXPECT_GT(mgr.simulatedSeconds(), t1);
}

TEST_F(DistTest, SingleLearnerMovesNothing)
{
    LearnerGroup g(1);
    g.recordAllGather(1 << 20);
    EXPECT_EQ(g.stats().allGatherBytes, 0);
    auto [b, e] = g.shardRange(100, 0);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
}

TEST_F(DistTest, ShardsFewerElementsThanLearners)
{
    // n < world: the first n learners get one element each, the rest
    // hold empty (but valid) ranges.
    LearnerGroup g(8);
    int64_t total = 0;
    for (int r = 0; r < 8; ++r) {
        auto [b, e] = g.shardRange(3, r);
        EXPECT_GE(e, b);
        EXPECT_EQ(g.shardSize(3, r), r < 3 ? 1 : 0);
        total += e - b;
    }
    EXPECT_EQ(total, 3);
}

TEST_F(DistTest, ShardsZeroElements)
{
    LearnerGroup g(4);
    for (int r = 0; r < 4; ++r) {
        auto [b, e] = g.shardRange(0, r);
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 0);
        EXPECT_EQ(g.shardSize(0, r), 0);
    }
}

TEST_F(DistTest, SingleLearnerOwnsEverythingAtAnySize)
{
    LearnerGroup g(1);
    for (int64_t n : {int64_t(0), int64_t(1), int64_t(12345)}) {
        auto [b, e] = g.shardRange(n, 0);
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, n);
    }
}

TEST_F(DistTest, GeneratorCollectivesMatchFunctionalPeers)
{
    // The generator collectives must agree with the existing functional
    // ones bit-for-bit when fed the same contributions.
    LearnerGroup g(4);
    Rng rng(11);
    std::vector<Tensor> shards;
    for (int r = 0; r < 4; ++r) {
        shards.push_back(Tensor::rand({2, 3}, rng));
    }
    Tensor via_list = g.allGather(shards);
    Tensor via_fn = g.allGatherShards(
        8, 3, [&](int r) { return shards[static_cast<size_t>(r)]; });
    EXPECT_EQ(0, std::memcmp(via_list.rawData<float>(),
                             via_fn.rawData<float>(), 8 * 3 * 4));

    std::vector<Tensor> parts;
    for (int r = 0; r < 4; ++r) {
        parts.push_back(Tensor::rand({6}, rng));
    }
    Tensor mean = g.allReduceMean(parts);
    Tensor sum = g.allReduceSumDet(
        6, [&](int r) { return parts[static_cast<size_t>(r)]; });
    const float *pm = mean.rawData<float>();
    const float *ps = sum.rawData<float>();
    for (int64_t i = 0; i < 6; ++i) {
        // allReduceMean applies the same double-accumulate then * 1/L.
        EXPECT_EQ(pm[i], ps[i] * 0.25f);
    }
}

TEST_F(DistTest, RingLedgerMatchesTransportMeasuredBytes)
{
    // Run the same two collectives over a functional group and over a
    // real 2-process transport; with world | rows the ring model's
    // byte count must equal the bytes the transport actually moved
    // (which is what the cross-process ledger records).
    constexpr int kWorld = 2;
    constexpr int64_t kRows = 8, kCols = 3, kN = 6;
    auto run_collectives = [](LearnerGroup &g) {
        g.allGatherShards(kRows, kCols, [&](int r) {
            auto [b, e] = g.shardRange(kRows, r);
            std::vector<float> block(
                static_cast<size_t>((e - b) * kCols));
            for (size_t i = 0; i < block.size(); ++i) {
                block[i] = static_cast<float>(r * 100 + (b + 1)) +
                           static_cast<float>(i);
            }
            return Tensor::fromVector(block, {e - b, kCols});
        });
        g.allReduceSumDet(kN, [&](int r) {
            std::vector<float> part(static_cast<size_t>(kN),
                                    static_cast<float>(r + 1));
            return Tensor::fromVector(part, {kN});
        });
    };

    LearnerGroup functional(kWorld, 0);
    run_collectives(functional);

    dist::ProcessGroupOptions pg;
    pg.world = kWorld;
    pg.kind = dist::TransportKind::kShm;
    std::vector<std::vector<uint8_t>> blobs = dist::ProcessGroup::run(
        pg, [&](dist::Transport &transport) {
            LearnerGroup g(transport);
            run_collectives(g);
            std::vector<uint8_t> out;
            serial::appendPod(out, g.stats().allGatherBytes);
            serial::appendPod(out, g.stats().allReduceBytes);
            return out;
        });
    for (const std::vector<uint8_t> &blob : blobs) {
        size_t at = 0;
        int64_t measured_gather = serial::readPod<int64_t>(blob, at);
        int64_t measured_reduce = serial::readPod<int64_t>(blob, at);
        EXPECT_EQ(measured_gather, functional.stats().allGatherBytes);
        EXPECT_EQ(measured_reduce, functional.stats().allReduceBytes);
    }
    EXPECT_EQ(functional.stats().allGatherBytes,
              kRows * kCols * 4 * (kWorld - 1) / kWorld);
    EXPECT_EQ(functional.stats().allReduceBytes,
              (kWorld - 1) * kN * 4);
}

} // namespace
} // namespace edkm
