/**
 * @file
 * Cross-device tensor marshaling (paper section 2.1).
 *
 * MarshalContext is a SavedTensorHooks implementation that offloads
 * tensors saved for backward from the GPU to CPU memory, while avoiding
 * redundant copies: before copying, it checks whether a tensor with the
 * same data storage has already been offloaded, by navigating the forward
 * computation graph through data-storage-invariant operations (view,
 * transpose, permute, slice, select, squeeze, unsqueeze) within a bounded
 * number of hops (the paper found 4 sufficient). On a hit it records only
 * a reference to the existing CPU copy plus the list of view operations
 * needed to reconstruct the saved tensor at unpack time.
 *
 * Detection strategies:
 *  - kGraphWalk  (paper-faithful): BFS over producer/consumer edges of
 *    storage-invariant nodes, bounded by maxHops.
 *  - kNone: always copy (the baseline in Table 2's first row).
 *
 * Set offloadEnabled=false for the no-offload baseline where saved
 * tensors simply stay on the GPU.
 *
 * Every copy runs inline in pack(): on a miss the saved tensor's
 * logical contents are copied to the offload device before pack()
 * returns, so there is never a copy in flight.
 */

#ifndef EDKM_MARSHAL_MARSHAL_H_
#define EDKM_MARSHAL_MARSHAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/node.h"
#include "device/device.h"
#include "tensor/tensor.h"

namespace edkm {

/** Tunables of the marshaling layer. */
struct MarshalConfig
{
    /** Duplicate-detection strategy. */
    enum class Detection { kGraphWalk, kNone };

    Detection detection = Detection::kGraphWalk;

    /** Bound on the forward-graph walk (paper: 4). */
    int maxHops = 4;

    /** Where to offload saved tensors. */
    Device offloadDevice = Device::cpu();

    /** Master switch; false = retain saved tensors on their device. */
    bool offloadEnabled = true;

    /** Tensors smaller than this stay on their device (not worth a
     *  transaction). */
    int64_t minOffloadBytes = 1024;
};

/** Counters exposed for tests and the Table 2 / Fig 2 benches. */
struct MarshalStats
{
    int64_t packs = 0;             ///< saved tensors entering the hook
    int64_t copies = 0;            ///< actual device->CPU materialisations
    int64_t duplicatesAvoided = 0; ///< saves resolved to a reference
    int64_t bytesCopied = 0;       ///< bytes actually moved to CPU
    int64_t bytesAvoided = 0;      ///< logical bytes NOT moved thanks to
                                   ///< duplicate detection
    int64_t unpacks = 0;           ///< backward retrievals
    int64_t walkSteps = 0;         ///< graph-walk nodes visited in total
    int64_t passthroughs = 0;      ///< small/CPU tensors kept in place
};

/**
 * Saved-tensor hook pair implementing eDKM's marshaling. Install around a
 * forward pass with SavedTensorHooksGuard; must outlive the backward pass
 * of every graph built while installed.
 *
 * Thread model: single-owner. One thread drives pack()/unpack(), and
 * every copy runs on that thread, so nothing here is shared across
 * threads: no mutex, and nothing is annotated with GUARDED_BY. Only
 * the resident-byte counter is atomic: an entry may outlive the
 * context and die on whichever thread drops the last graph holding it.
 */
class MarshalContext : public SavedTensorHooks
{
  public:
    explicit MarshalContext(MarshalConfig config = MarshalConfig{});

    std::shared_ptr<void> pack(const SavedSource &src) override;
    Tensor unpack(const std::shared_ptr<void> &handle) override;

    /**
     * No-op: every copy completes inside pack(), so there is nothing
     * to join. Kept as the point where a caller may time marshaling.
     */
    void sync() {}

    const MarshalStats &stats() const { return stats_; }
    const MarshalConfig &config() const { return config_; }

    /** Bytes currently resident on the offload device via this context. */
    int64_t residentBytes() const;

    /** Reset counters (keeps live entries). */
    void resetStats() { stats_ = MarshalStats{}; }

  private:
    struct CpuEntry;
    struct PackHandle;

    /** Walk the forward graph from @p start looking for an offloaded
     *  neighbor; fills @p trace with replay ops on success. */
    std::shared_ptr<CpuEntry> graphWalk(
        const std::shared_ptr<VarImpl> &start,
        std::vector<ViewSpec> &trace);

    /** Registry lookup helper (prunes dead weak entries lazily). */
    std::shared_ptr<CpuEntry> lookup(uint64_t key);

    MarshalConfig config_;
    MarshalStats stats_;

    /** Saved variable id -> CPU entry (graph walk). */
    std::unordered_map<uint64_t, std::weak_ptr<CpuEntry>> registry_;

    /** Shared byte counter decremented by dying entries. */
    std::shared_ptr<std::atomic<int64_t>> resident_bytes_;
};

} // namespace edkm

#endif // EDKM_MARSHAL_MARSHAL_H_
