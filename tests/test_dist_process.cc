/**
 * @file
 * Tests for the real multi-process dist subsystem: ProcessGroup
 * rendezvous and rank assignment, the bit-identity gate (multi-process
 * sharded clustering == single-process simulation, both transports,
 * 2 and 4 learners), failure paths (child death surfaces a typed error
 * at the parent without hanging) and shm hygiene (no leaked segments).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <vector>

#include <unistd.h>

#include "device/device_manager.h"
#include "dist/process_group.h"
#include "dist/sharded_cluster.h"
#include "dist/transport.h"
#include "util/rng.h"

namespace edkm {
namespace dist {
namespace {

using Clock = std::chrono::steady_clock;

/** Leaked shm segments created by this process (edkm_<pid>_*
 *  entries). Segments of other test processes running in parallel
 *  are not counted. */
int
edkmShmEntries()
{
    DIR *d = ::opendir("/dev/shm");
    if (d == nullptr) {
        return 0; // no tmpfs mount: nothing can leak
    }
    const std::string prefix =
        "edkm_" + std::to_string(::getpid()) + "_";
    int count = 0;
    while (struct dirent *e = ::readdir(d)) {
        if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) ==
            0) {
            ++count;
        }
    }
    ::closedir(d);
    return count;
}

class DistProcess : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
    }
};

TEST_F(DistProcess, RankAssignmentAndBarrier)
{
    for (TransportKind kind :
         {TransportKind::kShm, TransportKind::kSocket}) {
        ProcessGroupOptions pg;
        pg.world = 3;
        pg.kind = kind;
        std::vector<std::vector<uint8_t>> results =
            ProcessGroup::run(pg, [](Transport &t) {
                // The rendezvous barrier already ran; report identity.
                return std::vector<uint8_t>{
                    static_cast<uint8_t>(t.rank()),
                    static_cast<uint8_t>(t.worldSize())};
            });
        ASSERT_EQ(results.size(), 3u);
        for (int r = 0; r < 3; ++r) {
            ASSERT_EQ(results[static_cast<size_t>(r)].size(), 2u);
            EXPECT_EQ(results[static_cast<size_t>(r)][0], r);
            EXPECT_EQ(results[static_cast<size_t>(r)][1], 3);
        }
    }
}

TEST_F(DistProcess, SingleLearnerWorld)
{
    ProcessGroupOptions pg;
    pg.world = 1;
    std::vector<std::vector<uint8_t>> results =
        ProcessGroup::run(pg, [](Transport &t) {
            t.barrier(); // must be a no-op, not a hang
            return std::vector<uint8_t>{static_cast<uint8_t>(t.rank())};
        });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0][0], 0);
}

/** Payload far larger than the shm ring: exercises the interleaved
 *  (wraparound) exchange path. */
TEST_F(DistProcess, LargePayloadWrapsRing)
{
    ProcessGroupOptions pg;
    pg.world = 2;
    pg.kind = TransportKind::kShm;
    pg.shmRingBytes = 256; // force many wraparounds
    std::vector<std::vector<uint8_t>> results =
        ProcessGroup::run(pg, [](Transport &t) {
            std::vector<uint8_t> mine(8192);
            for (size_t i = 0; i < mine.size(); ++i) {
                mine[i] = static_cast<uint8_t>((i + t.rank() * 7) % 251);
            }
            std::vector<size_t> sizes(2, mine.size());
            std::vector<std::vector<uint8_t>> chunks;
            t.allGatherBytes(mine, sizes, chunks);
            // Return the peer's chunk so the parent can verify it.
            return chunks[static_cast<size_t>(1 - t.rank())];
        });
    for (int r = 0; r < 2; ++r) {
        const std::vector<uint8_t> &peer =
            results[static_cast<size_t>(r)];
        ASSERT_EQ(peer.size(), 8192u);
        for (size_t i = 0; i < peer.size(); ++i) {
            ASSERT_EQ(peer[i],
                      static_cast<uint8_t>((i + (1 - r) * 7) % 251));
        }
    }
}

/** The hard gate: multi-process clustering output bit-identical to the
 *  single-process simulation at equal shard layout, on both transports,
 *  at 2 and 4 learners. */
TEST_F(DistProcess, BitIdentitySimVsProcesses)
{
    Rng rng(42);
    Tensor w = Tensor::rand({24, 16}, rng);
    ShardedClusterOptions opts;
    opts.edkm.dkm.bits = 3;
    opts.edkm.dkm.maxIters = 4;
    opts.edkm.uniquify = true;

    for (int world : {2, 4}) {
        ShardedClusterResult sim =
            shardedClusterSimulate(w, opts, world);
        for (TransportKind kind :
             {TransportKind::kShm, TransportKind::kSocket}) {
            ProcessGroupOptions pg;
            pg.world = world;
            pg.kind = kind;
            ShardedClusterResult proc =
                shardedClusterProcesses(w, opts, pg);
            SCOPED_TRACE("world=" + std::to_string(world) + " kind=" +
                         transportKindName(kind));
            ASSERT_EQ(proc.weights.size(), sim.weights.size());
            EXPECT_EQ(0, std::memcmp(proc.weights.data(),
                                     sim.weights.data(),
                                     sim.weights.size() * 4));
            ASSERT_EQ(proc.centroids.size(), sim.centroids.size());
            EXPECT_EQ(0, std::memcmp(proc.centroids.data(),
                                     sim.centroids.data(),
                                     sim.centroids.size() * 4));
            EXPECT_EQ(proc.iterations, sim.iterations);
            EXPECT_EQ(proc.uniqueCount, sim.uniqueCount);
            // Equal shard layout: the cross-process ledger (measured
            // bytes) must equal the functional ledger (ring model) for
            // the all-reduce, which moves exactly (L-1)*n*4 in both.
            EXPECT_EQ(proc.comm.allReduceBytes,
                      sim.comm.allReduceBytes);
            EXPECT_GT(proc.transportBytesReceived, 0);
        }
    }
}

TEST_F(DistProcess, BitIdentityWithoutUniquification)
{
    Rng rng(7);
    Tensor w = Tensor::rand({40}, rng);
    ShardedClusterOptions opts;
    opts.edkm.dkm.bits = 2;
    opts.edkm.dkm.maxIters = 3;
    opts.edkm.uniquify = false;

    ShardedClusterResult sim = shardedClusterSimulate(w, opts, 2);
    ProcessGroupOptions pg;
    pg.world = 2;
    pg.kind = TransportKind::kSocket;
    ShardedClusterResult proc = shardedClusterProcesses(w, opts, pg);
    ASSERT_EQ(proc.weights.size(), sim.weights.size());
    EXPECT_EQ(0, std::memcmp(proc.weights.data(), sim.weights.data(),
                             sim.weights.size() * 4));
    EXPECT_EQ(proc.uniqueCount, 0);
}

TEST_F(DistProcess, ChildDeathSurfacesTypedErrorFast)
{
    for (TransportKind kind :
         {TransportKind::kShm, TransportKind::kSocket}) {
        ProcessGroupOptions pg;
        pg.world = 2;
        pg.kind = kind;
        pg.timeoutSec = 20.0;
        auto t0 = Clock::now();
        try {
            ProcessGroup::run(pg, [](Transport &t) {
                if (t.rank() == 1) {
                    ::_exit(7); // die mid-collective, no report
                }
                // Rank 0 blocks on the now-dead peer; it must be
                // released by abort/EOF, not by running out the clock.
                t.barrier();
                return std::vector<uint8_t>{0};
            });
            FAIL() << "expected DistError ("
                   << transportKindName(kind) << ")";
        } catch (const DistError &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("rank"), std::string::npos) << what;
        }
        double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        // Typed error well before the collective timeout: the parent
        // reacts to the death, it does not wait it out.
        EXPECT_LT(elapsed, 15.0)
            << "transport " << transportKindName(kind);
    }
}

TEST_F(DistProcess, ChildErrorPropagatesMessage)
{
    ProcessGroupOptions pg;
    pg.world = 2;
    pg.kind = TransportKind::kSocket;
    try {
        ProcessGroup::run(pg, [](Transport &t) {
            if (t.rank() == 0) {
                throw DistError("synthetic failure in learner");
            }
            t.barrier();
            return std::vector<uint8_t>{1};
        });
        FAIL() << "expected DistError";
    } catch (const DistError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
        EXPECT_NE(what.find("synthetic failure"), std::string::npos)
            << what;
    }
}

TEST_F(DistProcess, ShmSegmentsNeverLeak)
{
    int before = edkmShmEntries();

    // Successful run.
    {
        ProcessGroupOptions pg;
        pg.world = 2;
        pg.kind = TransportKind::kShm;
        ProcessGroup::run(pg, [](Transport &t) {
            t.barrier();
            return std::vector<uint8_t>{static_cast<uint8_t>(t.rank())};
        });
    }
    EXPECT_EQ(edkmShmEntries(), before);

    // Failure run: children SIGKILLed mid-collective. The segment is
    // unlinked before fork, so even this leaks nothing.
    {
        ProcessGroupOptions pg;
        pg.world = 2;
        pg.kind = TransportKind::kShm;
        EXPECT_THROW(ProcessGroup::run(pg,
                                       [](Transport &t) {
                                           if (t.rank() == 1) {
                                               ::_exit(3);
                                           }
                                           t.barrier();
                                           return std::vector<uint8_t>{
                                               0};
                                       }),
                     DistError);
    }
    EXPECT_EQ(edkmShmEntries(), before);
}

TEST_F(DistProcess, TransportKindFromEnv)
{
    ::setenv("EDKM_DIST_TRANSPORT", "socket", 1);
    EXPECT_EQ(transportKindFromEnv(), TransportKind::kSocket);
    ::setenv("EDKM_DIST_TRANSPORT", "shm", 1);
    EXPECT_EQ(transportKindFromEnv(), TransportKind::kShm);
    ::setenv("EDKM_DIST_TRANSPORT", "bogus", 1);
    EXPECT_EQ(transportKindFromEnv(), TransportKind::kShm);
    ::unsetenv("EDKM_DIST_TRANSPORT");
    EXPECT_EQ(transportKindFromEnv(), TransportKind::kShm);
}

} // namespace
} // namespace dist
} // namespace edkm
