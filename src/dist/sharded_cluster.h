/**
 * @file
 * The sharded eDKM/DKM clustering loop, end-to-end over a LearnerGroup
 * (paper section 2.2).
 *
 * Every learner r owns rows shardRange(U, r) of the attention table
 * (U = unique values, or |W| when uniquification is off) and computes
 * only its block per iteration. The centroid update needs the global
 * attention mass m and value sum nv, obtained with one deterministic
 * all-reduce of the per-rank [2k] partials; the final soft weights come
 * from one sharded all-gather of the per-row table·c products. Because
 * each rank's compute is deterministic and the collectives combine
 * contributions in rank order, the result is bit-identical whether the
 * group is functional (one process simulating L learners) or backed by
 * a real transport with L processes — at any learner count, on any
 * transport. tests/test_dist_process.cc enforces that gate in ctest.
 */

#ifndef EDKM_DIST_SHARDED_CLUSTER_H_
#define EDKM_DIST_SHARDED_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "core/edkm.h"
#include "dist/learner_group.h"
#include "dist/process_group.h"
#include "tensor/tensor.h"

namespace edkm {
namespace dist {

/** Knobs of one sharded clustering run. */
struct ShardedClusterOptions
{
    /** Clustering hyper-parameters (dkm.*, halfKind, uniquify). */
    EdkmConfig edkm;
};

/** What one sharded clustering run produces (identical on all ranks). */
struct ShardedClusterResult
{
    std::vector<float> weights;   ///< soft-clustered W~, flattened
    std::vector<float> centroids; ///< final [k] centroids
    int iterations = 0;
    int64_t uniqueCount = 0; ///< 0 when uniquification is off

    DistStats comm; ///< this rank's collective ledger

    /** Transport byte counters (0 in functional mode). */
    int64_t transportBytesSent = 0;
    int64_t transportBytesReceived = 0;
};

/**
 * Run the sharded clustering loop as learner @p group.rank() of
 * @p group.worldSize(). Works identically over a functional group and a
 * transport-backed one; the returned weights/centroids are bit-identical
 * across ranks, modes, transports and learner counts.
 */
ShardedClusterResult shardedClusterRank(const Tensor &w,
                                        const ShardedClusterOptions &opts,
                                        LearnerGroup &group);

/** Single-process reference: one functional group of @p world learners. */
ShardedClusterResult shardedClusterSimulate(const Tensor &w,
                                            const ShardedClusterOptions &opts,
                                            int world);

/**
 * Real multi-process run: spawn @p pg.world learner processes, each
 * running shardedClusterRank over the process transport. Verifies every
 * rank returned byte-identical weights and centroids (throws DistError
 * otherwise) and returns rank 0's result.
 */
ShardedClusterResult shardedClusterProcesses(
    const Tensor &w, const ShardedClusterOptions &opts,
    const ProcessGroupOptions &pg);

} // namespace dist
} // namespace edkm

#endif // EDKM_DIST_SHARDED_CLUSTER_H_
