#include "marshal/marshal.h"

#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_set>
#include <utility>

#include "device/device_manager.h"
#include "runtime/runtime.h"
#include "util/logging.h"

namespace edkm {

/**
 * One materialised CPU copy. Kept alive by the saved-tensor handles that
 * reference it; the registry holds only weak pointers, so the copy dies
 * with the autograd graph (matching PyTorch packed-object lifetime).
 *
 * With asyncOffload the copy job may still be in flight: `ready` joins
 * it. The job holds only a raw pointer to the entry and the destructor
 * joins `ready` first, so destruction never races the copy, and once
 * `ready` is set the job holds no reference: use_count() is then a
 * function of the owners alone.
 */
struct MarshalContext::CpuEntry
{
    Tensor cpuTensor;   ///< contiguous logical copy on the offload device
    Device srcDevice;   ///< where the original lived
    uint64_t srcStorageId = 0;
    std::shared_ptr<std::atomic<int64_t>> residentBytes; ///< shared counter
    std::shared_future<void> ready; ///< invalid == copied synchronously

    /** Block until cpuTensor is materialised (rethrows copy errors). */
    void
    join() const
    {
        if (ready.valid()) {
            ready.get();
        }
    }

    ~CpuEntry()
    {
        if (ready.valid()) {
            ready.wait(); // never destruct under a live copy job
        }
        if (residentBytes) {
            residentBytes->fetch_sub(cpuTensor.storageBytes(),
                                     std::memory_order_relaxed);
        }
    }
};

/** Opaque handle returned by pack(). */
struct MarshalContext::PackHandle
{
    std::shared_ptr<CpuEntry> entry; ///< null for passthrough
    std::vector<ViewSpec> trace;     ///< replay: entry tensor -> saved tensor
    Tensor passthrough;              ///< retained in place (small / CPU /
                                     ///< offload disabled)
    Device origDevice;               ///< device to restore onto

    /** Reconstruct-by-metadata over entry->cpuTensor's storage (used by
     *  storage-id dedup and eager-offload hits, where the storage may
     *  not be materialised until unpack). */
    bool viewOfStorage = false;
    Shape viewShape;
    Shape viewStrides;
    int64_t viewOffset = 0;
    DType viewDtype = DType::kF32;
};

MarshalContext::MarshalContext(MarshalConfig config)
    : config_(config),
      resident_bytes_(std::make_shared<std::atomic<int64_t>>(0))
{
    EDKM_CHECK(config_.maxHops >= 0, "maxHops must be >= 0");
}

MarshalContext::~MarshalContext()
{
    // Join outstanding copies; swallow errors (nothing can observe the
    // result any more).
    for (const std::shared_future<void> &f : pending_) {
        if (f.valid()) {
            f.wait();
        }
    }
}

int64_t
MarshalContext::residentBytes() const
{
    return resident_bytes_->load(std::memory_order_relaxed);
}

int64_t
MarshalContext::pendingCopies() const
{
    int64_t live = 0;
    for (const std::shared_future<void> &f : pending_) {
        if (f.valid() && f.wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready) {
            ++live;
        }
    }
    return live;
}

void
MarshalContext::sync()
{
    std::exception_ptr first;
    std::swap(first, deferred_error_);
    for (const std::shared_future<void> &f : pending_) {
        if (!f.valid()) {
            continue;
        }
        try {
            f.get();
        } catch (...) {
            if (!first) {
                first = std::current_exception();
            }
        }
    }
    pending_.clear();
    if (first) {
        std::rethrow_exception(first);
    }
}

void
MarshalContext::dispatchCopy(const std::shared_ptr<CpuEntry> &entry,
                             std::function<void()> copy)
{
    if (!config_.asyncOffload) {
        copy();
        return;
    }
    ++stats_.asyncCopies;
    // The shared future joins the job from unpack (per entry), sync
    // (all) or ~CpuEntry.
    std::shared_ptr<runtime::ThreadPool> pool =
        runtime::Runtime::instance().pool();
    entry->ready = pool->submit(std::move(copy)).share();
    // Drop already-finished futures so pending_ tracks in-flight work
    // instead of the context's whole copy history; failures of pruned
    // copies are parked for the next sync() to rethrow.
    if (pending_.size() >= 64) {
        std::vector<std::shared_future<void>> live;
        live.reserve(pending_.size());
        for (const std::shared_future<void> &f : pending_) {
            if (!f.valid()) {
                continue;
            }
            if (f.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                live.push_back(f);
                continue;
            }
            try {
                f.get();
            } catch (...) {
                if (!deferred_error_) {
                    deferred_error_ = std::current_exception();
                }
            }
        }
        pending_ = std::move(live);
    }
    pending_.push_back(entry->ready);
}

void
MarshalContext::copyLogical(const std::shared_ptr<CpuEntry> &entry,
                            const Tensor &t)
{
    Device dst = config_.offloadDevice;
    auto counter = resident_bytes_;
    dispatchCopy(entry, [e = entry.get(), t, dst, counter] {
        e->cpuTensor = t.to(dst);
        counter->fetch_add(e->cpuTensor.storageBytes(),
                           std::memory_order_relaxed);
    });
}

void
MarshalContext::copyStorage(const std::shared_ptr<CpuEntry> &entry,
                            const Tensor &t, std::shared_ptr<Storage> reuse)
{
    Device src = t.device();
    Device dst = config_.offloadDevice;
    auto counter = resident_bytes_;
    dispatchCopy(entry, [e = entry.get(), t, src, dst, counter,
                         reuse = std::move(reuse)]() mutable {
        std::shared_ptr<Storage> cpu_storage =
            reuse ? std::move(reuse)
                  : Storage::allocate(t.storageBytes(), dst);
        std::memcpy(cpu_storage->data(), t.storagePtr()->data(),
                    static_cast<size_t>(t.storageBytes()));
        DeviceManager::instance().recordTransfer(src, dst,
                                                 t.storageBytes());
        int64_t elems = t.storageBytes() / dtypeSize(t.dtype());
        e->cpuTensor = Tensor::wrapStorage(
            std::move(cpu_storage), {elems}, {1}, 0, t.dtype());
        counter->fetch_add(e->cpuTensor.storageBytes(),
                           std::memory_order_relaxed);
    });
}

std::shared_ptr<MarshalContext::CpuEntry>
MarshalContext::lookup(uint64_t key)
{
    auto it = registry_.find(key);
    if (it == registry_.end()) {
        return nullptr;
    }
    std::shared_ptr<CpuEntry> entry = it->second.lock();
    if (!entry) {
        registry_.erase(it);
    }
    return entry;
}

std::shared_ptr<MarshalContext::CpuEntry>
MarshalContext::lookupEager(uint64_t storage_id)
{
    auto it = eager_registry_.find(storage_id);
    return it == eager_registry_.end() ? nullptr : it->second;
}

void
MarshalContext::offloadAsync(const Tensor &t)
{
    if (!t.defined()) {
        return;
    }
    int64_t logical_bytes = t.numel() * dtypeSize(t.dtype());
    bool offloadable = config_.offloadEnabled &&
                       t.device() != config_.offloadDevice &&
                       logical_bytes >= config_.minOffloadBytes;
    if (!offloadable) {
        return;
    }
    // Re-offloading the same storage replaces the entry: the storage
    // may have been mutated in place (e.g. an optimizer step), so the
    // snapshot must be refreshed — call offloadAsync once per
    // iteration, before the forward that saves the tensor. Handles
    // from earlier saves keep the old snapshot alive (and correct for
    // their graph's backward).
    auto entry = std::make_shared<CpuEntry>();
    entry->srcDevice = t.device();
    entry->srcStorageId = t.storageId();
    entry->residentBytes = resident_bytes_;

    // Double buffering: rotate the eager window and try to recycle the
    // snapshot falling out of it. Stealing is only legal when nothing
    // else can observe the old bytes: no pack handle (saved tensor)
    // references the entry, and the entry holds the storage's sole
    // reference. The outgoing copy is joined first (it was issued two
    // offloads ago), so whether it is recycled depends only on the
    // offload sequence, never on copy timing.
    std::shared_ptr<Storage> reuse;
    if (config_.doubleBuffer) {
        std::shared_ptr<CpuEntry> cand = std::move(db_back_);
        db_back_ = std::move(db_front_);
        db_front_ = entry;
        if (cand) {
            auto it = eager_registry_.find(cand->srcStorageId);
            if (it != eager_registry_.end() && it->second == cand) {
                eager_registry_.erase(it);
            }
            if (cand->ready.valid()) {
                cand->ready.wait();
            }
            if (cand.use_count() == 1 &&
                cand->cpuTensor.defined() &&
                cand->cpuTensor.storageBytes() == t.storageBytes() &&
                cand->cpuTensor.storagePtr().use_count() == 1) {
                reuse = cand->cpuTensor.storagePtr();
                resident_bytes_->fetch_sub(
                    cand->cpuTensor.storageBytes(),
                    std::memory_order_relaxed);
                cand->cpuTensor = Tensor();
                cand->residentBytes = nullptr;
                ++stats_.bufferReuses;
            }
        }
    }

    copyStorage(entry, t, std::move(reuse));
    ++stats_.copies;
    stats_.bytesCopied += t.storageBytes();
    eager_registry_[t.storageId()] = std::move(entry);
}

std::shared_ptr<MarshalContext::CpuEntry>
MarshalContext::graphWalk(const std::shared_ptr<VarImpl> &start,
                          std::vector<ViewSpec> &trace)
{
    if (!start) {
        return nullptr;
    }

    // BFS state: variable impl + the replay trace that turns the *found*
    // entry's content into the content of the tensor being saved.
    struct Item
    {
        std::shared_ptr<VarImpl> impl;
        int hops;
        std::vector<ViewSpec> trace;
    };

    std::deque<Item> queue;
    std::unordered_set<uint64_t> visited;
    queue.push_back({start, 0, {}});
    visited.insert(start->id);

    while (!queue.empty()) {
        Item item = std::move(queue.front());
        queue.pop_front();
        ++stats_.walkSteps;

        if (std::shared_ptr<CpuEntry> entry = lookup(item.impl->id)) {
            trace = std::move(item.trace);
            return entry;
        }
        if (item.hops >= config_.maxHops) {
            continue;
        }

        // Producer direction: X = spec(I)  =>  prepend spec.
        if (item.impl->gradFn && item.impl->gradFn->storageInvariant()) {
            const Node &fn = *item.impl->gradFn;
            EDKM_ASSERT(fn.inputImpls.size() == 1,
                        "view op with multiple inputs");
            if (auto input = fn.inputImpls[0].lock()) {
                if (visited.insert(input->id).second) {
                    std::vector<ViewSpec> t = item.trace;
                    t.insert(t.begin(), *fn.viewSpec());
                    queue.push_back({input, item.hops + 1, std::move(t)});
                }
            }
        }

        // Consumer direction: O = spec(X)  =>  X = spec^-1(O), prepend
        // the inverse (only when the op is lossless).
        for (const std::weak_ptr<Node> &weak : item.impl->consumers) {
            std::shared_ptr<Node> c = weak.lock();
            if (!c || !c->storageInvariant() ||
                !c->viewSpec()->invertible()) {
                continue;
            }
            std::shared_ptr<VarImpl> out = c->outputImpl.lock();
            if (!out || !visited.insert(out->id).second) {
                continue;
            }
            std::vector<ViewSpec> t = item.trace;
            t.insert(t.begin(), c->viewSpec()->inverse());
            queue.push_back({out, item.hops + 1, std::move(t)});
        }
    }
    return nullptr;
}

std::shared_ptr<void>
MarshalContext::pack(const SavedSource &src)
{
    ++stats_.packs;
    const Tensor &t = src.tensor;
    auto handle = std::make_shared<PackHandle>();
    handle->origDevice = t.defined() ? t.device() : Device::cpu();

    int64_t logical_bytes = t.numel() * dtypeSize(t.dtype());

    bool offloadable = config_.offloadEnabled && t.defined() &&
                       t.device() != config_.offloadDevice &&
                       logical_bytes >= config_.minOffloadBytes;
    if (!offloadable) {
        handle->passthrough = t;
        ++stats_.passthroughs;
        return handle;
    }

    // Fill reconstruct-by-metadata info for a whole-storage entry.
    auto view_of_storage = [&](const std::shared_ptr<CpuEntry> &entry) {
        handle->entry = entry;
        handle->viewOfStorage = true;
        handle->viewShape = t.shape();
        handle->viewStrides = t.strides();
        handle->viewOffset = t.offset();
        handle->viewDtype = t.dtype();
    };

    // Eager-offload registry first (storage identity, any mode).
    if (auto entry = lookupEager(t.storageId())) {
        view_of_storage(entry);
        ++stats_.duplicatesAvoided;
        stats_.bytesAvoided += logical_bytes;
        return handle;
    }

    // Duplicate detection.
    if (config_.detection == MarshalConfig::Detection::kGraphWalk) {
        std::vector<ViewSpec> trace;
        if (auto entry = graphWalk(src.impl, trace)) {
            handle->entry = std::move(entry);
            handle->trace = std::move(trace);
            ++stats_.duplicatesAvoided;
            stats_.bytesAvoided += logical_bytes;
            return handle;
        }
    } else if (config_.detection == MarshalConfig::Detection::kStorageId) {
        if (auto entry = lookup(t.storageId())) {
            // Reconstruct this view over the full offloaded storage
            // (deferred to unpack: the copy may still be in flight).
            view_of_storage(entry);
            ++stats_.duplicatesAvoided;
            stats_.bytesAvoided += logical_bytes;
            return handle;
        }
    }

    // Miss: materialise a CPU copy (inline, or queued on the runtime
    // pool when asyncOffload is on) and register it immediately so
    // subsequent saves dedup against it either way.
    auto entry = std::make_shared<CpuEntry>();
    entry->srcDevice = t.device();
    entry->srcStorageId = t.storageId();
    entry->residentBytes = resident_bytes_;
    if (config_.detection == MarshalConfig::Detection::kStorageId) {
        // Offload the whole storage so any view reconstructs later.
        copyStorage(entry, t);
        view_of_storage(entry);
        registry_[t.storageId()] = entry;
        stats_.bytesCopied += t.storageBytes();
    } else {
        copyLogical(entry, t);
        if (src.impl) {
            registry_[src.impl->id] = entry;
        }
        stats_.bytesCopied += logical_bytes;
    }
    ++stats_.copies;
    handle->entry = std::move(entry);
    return handle;
}

Tensor
MarshalContext::unpack(const std::shared_ptr<void> &opaque)
{
    ++stats_.unpacks;
    auto handle = std::static_pointer_cast<PackHandle>(opaque);
    EDKM_ASSERT(handle != nullptr, "unpack: null handle");

    // Passthroughs carry the tensor directly.
    if (handle->passthrough.defined()) {
        if (handle->passthrough.device() != handle->origDevice) {
            return handle->passthrough.to(handle->origDevice);
        }
        return handle->passthrough;
    }

    EDKM_ASSERT(handle->entry != nullptr, "unpack: empty handle");
    handle->entry->join(); // async copy may still be in flight

    // Storage-id / eager-offload hits reconstruct the view by metadata
    // over the offloaded whole storage.
    if (handle->viewOfStorage) {
        Tensor content = Tensor::wrapStorage(
            handle->entry->cpuTensor.storagePtr(), handle->viewShape,
            handle->viewStrides, handle->viewOffset, handle->viewDtype);
        return content.to(handle->origDevice);
    }

    Tensor content = handle->entry->cpuTensor;
    for (const ViewSpec &spec : handle->trace) {
        content = spec.apply(content);
    }
    return content.to(handle->origDevice);
}

} // namespace edkm
