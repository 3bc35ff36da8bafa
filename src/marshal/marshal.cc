#include "marshal/marshal.h"

#include <deque>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace edkm {

/**
 * One materialised CPU copy. Kept alive by the saved-tensor handles that
 * reference it; the registry holds only weak pointers, so the copy dies
 * with the autograd graph (matching PyTorch packed-object lifetime).
 */
struct MarshalContext::CpuEntry
{
    Tensor cpuTensor; ///< contiguous logical copy on the offload device
    std::shared_ptr<std::atomic<int64_t>> residentBytes; ///< shared counter

    ~CpuEntry()
    {
        residentBytes->fetch_sub(cpuTensor.storageBytes(),
                                 std::memory_order_relaxed);
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
};

MarshalContext::MarshalContext(MarshalConfig config)
    : config_(config),
      resident_bytes_(std::make_shared<std::atomic<int64_t>>(0))
{
    EDKM_CHECK(config_.maxHops >= 0, "maxHops must be >= 0");
}

int64_t
MarshalContext::residentBytes() const
{
    return resident_bytes_->load(std::memory_order_relaxed);
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
    }

    // Miss: copy inline and register the copy so later saves dedup
    // against it.
    auto entry = std::make_shared<CpuEntry>();
    entry->residentBytes = resident_bytes_;
    entry->cpuTensor = t.to(config_.offloadDevice);
    resident_bytes_->fetch_add(entry->cpuTensor.storageBytes(),
                               std::memory_order_relaxed);
    if (src.impl) {
        registry_[src.impl->id] = entry;
    }
    stats_.bytesCopied += logical_bytes;
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
    Tensor content = handle->entry->cpuTensor;
    for (const ViewSpec &spec : handle->trace) {
        content = spec.apply(content);
    }
    return content.to(handle->origDevice);
}

} // namespace edkm
