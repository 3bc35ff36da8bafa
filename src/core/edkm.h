/**
 * @file
 * eDKM: memory-efficient differentiable k-means (the paper's primary
 * contribution).
 *
 * EdkmLayer computes exactly the same soft clustering as DkmLayer but
 * restructures what is *saved* for backward, following section 2.2:
 *
 *  - Uniquification: 16-bit weights have at most 2^16 distinct patterns,
 *    so each iteration saves an attention *table* T [unique x |C|] plus a
 *    single shared *index list* [|W|] (u16) instead of the dense map
 *    A [|W| x |C|]. Attention rows are computed once per unique value;
 *    attention pooling uses multiplicity counts, which is algebraically
 *    identical to the dense computation.
 *
 *  - Sharding: in fully synchronous data-parallel training every learner
 *    holds identical weights, so the index list (or the dense map's rows
 *    when uniquification is off) can be sharded across |L| learners,
 *    keeping O(|W|/|L|) per learner. The missing shards are all-gathered
 *    back for backward; the simulation regenerates them deterministically
 *    and accounts the communication (src/dist).
 *
 *  - Backward modes: kReconstruct (paper-faithful) applies the standard
 *    dense backward formulas member by member, in member order ("to stay
 *    compatible with the existing autograd implementation"), but reads
 *    each member's dense attention row straight from the saved table
 *    (row idx[i]) instead of gathering the |W| x |C| map; the gA row
 *    stays a k-float local. Iterations before the last carry no
 *    member-specific gA term, so their per-member gradient terms are
 *    computed once per unique value and replayed in member order. The
 *    result is bit-identical to materialising the map (see
 *    tests/test_edkm.cc) as long as neither side contracts multiplies
 *    and adds into FMAs; the build compiles edkm.cc and that test with
 *    -ffp-contract=off. Without uniquification the saved dense map is
 *    read directly. kFused (our extension) evaluates the backward
 *    entirely in table space, reassociating the member sums per unique
 *    value. Both agree up to float association.
 *
 * Saved tensors flow through SavedTensor, hence through any installed
 * marshaling context (section 2.1) — benches install MarshalContext to
 * offload them to CPU with duplicate detection.
 */

#ifndef EDKM_CORE_EDKM_H_
#define EDKM_CORE_EDKM_H_

#include <cstdint>
#include <memory>

#include "autograd/variable.h"
#include "core/dkm.h"
#include "core/palettize.h"
#include "core/uniquify.h"
#include "dist/learner_group.h"
#include "tensor/tensor.h"
#include "util/half.h"

namespace edkm {

/** eDKM configuration: DKM hyper-parameters + memory techniques. */
struct EdkmConfig
{
    /** Shared clustering hyper-parameters. */
    DkmConfig dkm;

    /** 16-bit bucketing used by uniquification. */
    HalfKind halfKind = HalfKind::kBf16;

    /** U: save attention tables + index list instead of dense maps. */
    bool uniquify = true;

    /** S: shard the per-learner saved payload over the learner group. */
    bool shard = false;

    /** This learner's rank (simulation runs rank's view). */
    int rank = 0;

    /** How backward consumes the saved representation. */
    enum class BackwardMode {
        kReconstruct, ///< paper: dense formulas, rows read from the table
        kFused,       ///< extension: stay in table space
    };
    BackwardMode backwardMode = BackwardMode::kReconstruct;
};

/** Diagnostics of the last EdkmLayer::forward. */
struct EdkmReport
{
    int iterations = 0;
    float temperatureUsed = 0.0f;
    int64_t uniqueCount = 0;   ///< 0 when uniquification is off
    int64_t savedBytes = 0;    ///< logical bytes stashed for backward
    int64_t denseMapBytes = 0; ///< what one dense iteration map would be
};

/**
 * Memory-efficient differentiable weight clustering layer.
 *
 * Construct once per weight tensor family; forward() may be called every
 * fine-tuning step. Pass a LearnerGroup to enable sharding accounting.
 */
class EdkmLayer
{
  public:
    explicit EdkmLayer(EdkmConfig config,
                       std::shared_ptr<LearnerGroup> group = nullptr);

    /** Differentiable soft clustering (same contract as DkmLayer). */
    Variable forward(const Variable &w);

    /** Palettize @p w against the last forward's centroids. */
    PalettizedTensor palettize(const Tensor &w) const;

    /** Centroids after the last forward ([k] f32). */
    const Tensor &centroids() const { return centroids_; }

    /** Diagnostics of the last forward. */
    const EdkmReport &report() const { return report_; }

    const EdkmConfig &config() const { return config_; }

  private:
    EdkmConfig config_;
    std::shared_ptr<LearnerGroup> group_;
    Tensor centroids_;
    EdkmReport report_;
};

} // namespace edkm

#endif // EDKM_CORE_EDKM_H_
