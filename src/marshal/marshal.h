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
 *  - kStorageId  (extension): offload the *whole* source storage once and
 *    key the registry by storage identity; any view reconstructs from
 *    metadata. Trades potentially larger copies for O(1) detection.
 *  - kNone: always copy (the baseline in Table 2's first row).
 *
 * Set offloadEnabled=false for the no-offload baseline where saved
 * tensors simply stay on the GPU.
 *
 * Async offload (asyncOffload=true): the device->CPU materialisation is
 * queued on the edkm::runtime pool instead of blocking pack(), hiding
 * marshaling latency behind forward compute exactly as the paper hides
 * the transfer behind the next layer's kernels. Registry bookkeeping
 * stays synchronous, so duplicate detection is unaffected; unpack()
 * joins the specific entry's copy and sync() joins all of them.
 * offloadAsync() additionally lets callers prefetch a tensor they know
 * will be saved (keyed by storage identity, any detection mode).
 */

#ifndef EDKM_MARSHAL_MARSHAL_H_
#define EDKM_MARSHAL_MARSHAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
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
    enum class Detection { kGraphWalk, kStorageId, kNone };

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

    /**
     * Queue copies on the runtime pool instead of blocking pack().
     *
     * Contract (as with any async D2H copy): the source storage must
     * not be mutated in place until the copy completes. unpack() and
     * the destructor join automatically, but code that mutates saved
     * storages *before* backward — e.g. an optimizer step while a
     * never-backwarded auxiliary graph still holds saves — must call
     * MarshalContext::sync() first.
     */
    bool asyncOffload = false;

    /**
     * Double-buffered prefetch: offloadAsync() keeps the two most
     * recent eager snapshots and recycles the older one's CPU storage
     * for the next copy when nothing references it any more (its saves
     * were unpacked or never taken) and the sizes match. Steady-state
     * loops that prefetch one same-sized tensor per iteration then run
     * with two CPU buffers total instead of one allocation per
     * iteration. Rotation first joins the old snapshot's copy, then
     * skips reuse — never forces it — when the snapshot is still
     * referenced, so the reuse count depends only on the sequence of
     * offloads and saves, never on copy timing.
     */
    bool doubleBuffer = false;
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
    int64_t asyncCopies = 0;       ///< copies queued off the critical path
    int64_t bufferReuses = 0;      ///< offload buffers recycled
                                   ///< (doubleBuffer)
};

/**
 * Saved-tensor hook pair implementing eDKM's marshaling. Install around a
 * forward pass with SavedTensorHooksGuard; must outlive the backward pass
 * of every graph built while installed.
 *
 * Thread model: single-owner. One thread drives pack()/unpack()/sync();
 * registry bookkeeping is never touched concurrently. The only
 * cross-thread traffic is the async offload copies themselves, which
 * run on the runtime pool and synchronise with the owner exclusively
 * through the entry futures in `pending_` (future::get is the
 * happens-before edge) — hence no mutex, and nothing here is annotated
 * with GUARDED_BY.
 */
class MarshalContext : public SavedTensorHooks
{
  public:
    explicit MarshalContext(MarshalConfig config = MarshalConfig{});
    ~MarshalContext() override;

    std::shared_ptr<void> pack(const SavedSource &src) override;
    Tensor unpack(const std::shared_ptr<void> &handle) override;

    /**
     * Prefetch: begin copying @p t's whole storage to the offload
     * device in the background (inline when asyncOffload is off).
     * Keyed by storage identity; a later pack() of @p t or any view of
     * its storage resolves to this copy without moving bytes again.
     * No-op for tensors that would pass through (small / already on the
     * offload device / offload disabled).
     *
     * The copy is a *snapshot*: if the storage is mutated in place
     * (e.g. an optimizer step), call offloadAsync again before the
     * next forward — repeated calls replace the registered snapshot.
     */
    void offloadAsync(const Tensor &t);

    /**
     * Join every queued copy; rethrows the first copy failure. Called
     * implicitly by unpack() (per entry) and the destructor. Must be
     * called before mutating any storage saved while this context was
     * installed (see MarshalConfig::asyncOffload).
     */
    void sync();

    const MarshalStats &stats() const { return stats_; }
    const MarshalConfig &config() const { return config_; }

    /** Bytes currently resident on the offload device via this context. */
    int64_t residentBytes() const;

    /** Copies queued but not yet joined (diagnostics/tests). */
    int64_t pendingCopies() const;

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

    /** Eager-offload registry lookup (storage-id keyed). */
    std::shared_ptr<CpuEntry> lookupEager(uint64_t storage_id);

    /** Materialise @p entry's CPU copy of @p t's *whole storage*,
     *  inline or on the runtime pool per config_.asyncOffload. A
     *  non-null @p reuse storage (same size) is written in place
     *  instead of allocating. */
    void copyStorage(const std::shared_ptr<CpuEntry> &entry,
                     const Tensor &t,
                     std::shared_ptr<Storage> reuse = nullptr);

    /** Materialise @p entry's CPU copy of @p t's logical contents. */
    void copyLogical(const std::shared_ptr<CpuEntry> &entry,
                     const Tensor &t);

    /** Run @p copy now or enqueue it on the runtime pool. */
    void dispatchCopy(const std::shared_ptr<CpuEntry> &entry,
                      std::function<void()> copy);

    MarshalConfig config_;
    MarshalStats stats_;

    /** var-id (graph walk) or storage-id (storage mode) -> CPU entry. */
    std::unordered_map<uint64_t, std::weak_ptr<CpuEntry>> registry_;

    /** storage-id -> eagerly offloaded entry (offloadAsync). Owned:
     *  prefetched copies stay resident for the context's lifetime
     *  (bounded to the latest two when doubleBuffer is on). */
    std::unordered_map<uint64_t, std::shared_ptr<CpuEntry>>
        eager_registry_;

    /** Rotating eager snapshots (doubleBuffer): newest and previous.
     *  The one rotated out donates its CPU storage when unreferenced. */
    std::shared_ptr<CpuEntry> db_front_;
    std::shared_ptr<CpuEntry> db_back_;

    /** Futures of copies queued and not yet joined. */
    std::vector<std::shared_future<void>> pending_;

    /** First failure of an already-pruned copy (rethrown by sync()). */
    std::exception_ptr deferred_error_;

    /** Shared byte counter decremented by dying entries. */
    std::shared_ptr<std::atomic<int64_t>> resident_bytes_;
};

} // namespace edkm

#endif // EDKM_MARSHAL_MARSHAL_H_
