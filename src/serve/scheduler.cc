#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "tensor/ops.h"
#include "util/logging.h"

namespace edkm {
namespace serve {

BatchScheduler::BatchScheduler(InferenceEngine &engine,
                               SchedulerConfig config)
    : engine_(&engine), config_(config)
{
    EDKM_CHECK(config_.maxBatch >= 1,
               "BatchScheduler: maxBatch must be positive, got ",
               config_.maxBatch);
    EDKM_CHECK(config_.prefillChunkTokens >= 0 &&
                   config_.prefixCacheBytes >= 0 &&
                   config_.kvCapacity >= 0,
               "BatchScheduler: negative config value");
    stats_.batchHistogram.assign(
        static_cast<size_t>(config_.maxBatch) + 1, 0);
    if (config_.prefixCacheBytes > 0) {
        const nn::LlamaConfig &m = engine_->config();
        prefix_ = std::make_unique<PrefixCache>(
            m.layers, m.heads, m.dim / m.heads, config_.prefixCacheBytes);
    }
}

bool
BatchScheduler::hasCapacity() const
{
    return static_cast<int>(slots_.size()) < config_.maxBatch;
}

void
BatchScheduler::admit(Request request, DoneFn done)
{
    EDKM_CHECK(hasCapacity(),
               "BatchScheduler: admit() without capacity (", active(),
               " of ", config_.maxBatch, " slots in flight)");
    EDKM_CHECK(done != nullptr, "BatchScheduler: null completion");
    SchedulerRequestStats rstats;
    rstats.promptTokens = static_cast<int64_t>(request.prompt.size());
    // Validation failures complete the request through its callback —
    // one bad request must never take the step loop down.
    try {
        EDKM_CHECK(!request.prompt.empty(),
                   "BatchScheduler: empty prompt in request");
        EDKM_CHECK(request.maxNewTokens >= 0,
                   "BatchScheduler: negative maxNewTokens");
        // Interruptions beat admission: a request cancelled or expired
        // while queueing completes right here, taking no slot.
        if (request.cancel != nullptr && request.cancel->cancelled()) {
            ++stats_.admitted;
            ++stats_.released;
            done(Response{},
                 std::make_exception_ptr(Cancelled(
                     "BatchScheduler: request cancelled before "
                     "admission")),
                 rstats);
            return;
        }
        if (request.expired(std::chrono::steady_clock::now())) {
            ++stats_.admitted;
            ++stats_.deadlineEvicted;
            done(Response{},
                 std::make_exception_ptr(DeadlineExceeded(
                     "BatchScheduler: request deadline passed before "
                     "admission")),
                 rstats);
            return;
        }
        if (request.maxNewTokens == 0) {
            Response res;
            res.tokens = std::move(request.prompt);
            ++stats_.admitted;
            ++stats_.completed;
            done(std::move(res), nullptr, rstats);
            return;
        }
        int64_t needed = kvPositionsNeeded(request);
        EDKM_CHECK(config_.kvCapacity == 0 ||
                       needed <= config_.kvCapacity,
                   "BatchScheduler: request needs ", needed,
                   " KV positions, over the configured capacity ",
                   config_.kvCapacity);
        auto slot = std::make_unique<Slot>();
        slot->request = std::move(request);
        slot->tokens = slot->request.prompt;
        slot->stats = rstats;
        int64_t cap =
            config_.kvCapacity > 0 ? config_.kvCapacity : needed;
        const nn::LlamaConfig &m = engine_->config();
        slot->kv = std::make_unique<KvCache>(m.layers, m.heads,
                                             m.dim / m.heads, cap);
        if (prefix_ != nullptr) {
            // Cap reuse at prompt-1: the last prompt position must be
            // prefilled so its logits can sample the first new token.
            int64_t reused = prefix_->lookup(
                slot->tokens,
                static_cast<int64_t>(slot->tokens.size()) - 1,
                *slot->kv);
            slot->prefilled = reused;
            slot->stats.reusedPrefixTokens = reused;
        }
        slots_.push_back(std::move(slot));
        // Take the callback only once nothing above can throw: the
        // handler below still needs it.
        slots_.back()->done = std::move(done);
        ++stats_.admitted;
        stats_.peakBatch = std::max(stats_.peakBatch,
                                    static_cast<int64_t>(slots_.size()));
    } catch (...) {
        ++stats_.admitted;
        ++stats_.failed;
        done(Response{}, std::current_exception(), rstats);
    }
}

void
BatchScheduler::finish(Slot &slot)
{
    Response res;
    res.tokens = std::move(slot.tokens);
    slot.stats.newTokens = slot.generated;
    ++stats_.completed;
    slot.done(std::move(res), nullptr, slot.stats);
    slot.done = nullptr;
}

void
BatchScheduler::fail(Slot &slot, std::exception_ptr err)
{
    ++stats_.failed;
    slot.done(Response{}, err, slot.stats);
    slot.done = nullptr;
}

void
BatchScheduler::evictInterrupted()
{
    if (slots_.empty()) {
        return;
    }
    auto now = std::chrono::steady_clock::now();
    bool any = false;
    for (auto &sp : slots_) {
        Slot &slot = *sp;
        if (slot.done == nullptr) {
            continue;
        }
        slot.stats.newTokens = slot.generated;
        if (slot.request.cancel != nullptr &&
            slot.request.cancel->cancelled()) {
            ++stats_.released;
            slot.done(Response{},
                      std::make_exception_ptr(Cancelled(
                          "BatchScheduler: request released after " +
                          std::to_string(slot.generated) + " of " +
                          std::to_string(slot.request.maxNewTokens) +
                          " token(s)")),
                      slot.stats);
            slot.done = nullptr;
            any = true;
        } else if (slot.request.expired(now)) {
            ++stats_.deadlineEvicted;
            slot.done(Response{},
                      std::make_exception_ptr(DeadlineExceeded(
                          "BatchScheduler: request deadline exceeded "
                          "after " +
                          std::to_string(slot.generated) + " of " +
                          std::to_string(slot.request.maxNewTokens) +
                          " token(s)")),
                      slot.stats);
            slot.done = nullptr;
            any = true;
        }
    }
    if (any) {
        // Frees the evicted slots' KvCache and batch row before the
        // next forward — survivors step as if the evictee had simply
        // finished, which the bit-identity contract already covers.
        reapFinished();
    }
}

void
BatchScheduler::reapFinished()
{
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const std::unique_ptr<Slot> &s) {
                                    return s->done == nullptr;
                                }),
                 slots_.end());
}

void
BatchScheduler::prefillPhase()
{
    int64_t budget = config_.prefillChunkTokens > 0
                         ? config_.prefillChunkTokens
                         : std::numeric_limits<int64_t>::max();
    for (auto &sp : slots_) {
        Slot &slot = *sp;
        if (slot.decoding || slot.done == nullptr || budget <= 0) {
            continue;
        }
        int64_t prompt_len =
            static_cast<int64_t>(slot.request.prompt.size());
        int64_t c = std::min(prompt_len - slot.prefilled, budget);
        try {
            std::vector<int64_t> chunk(
                slot.request.prompt.begin() + slot.prefilled,
                slot.request.prompt.begin() + slot.prefilled + c);
            Tensor logits = engine_->prefillChunk(
                Tensor::fromIndices(chunk, {1, c}), *slot.kv);
            slot.prefilled += c;
            budget -= c;
            ++slot.stats.prefillChunks;
            ++stats_.prefillChunks;
            stats_.prefillTokens += c;
            if (slot.prefilled < prompt_len) {
                continue; // budget spent; next step resumes the prompt
            }
            // Prompt complete: bank the head for later requests, then
            // sample the first new token from the last prompt
            // position's logits — exactly generate()'s sequence.
            if (prefix_ != nullptr) {
                prefix_->insert(slot.request.prompt, prompt_len,
                                *slot.kv);
            }
            Tensor last = logits.slice(0, c - 1, c);
            slot.next = argmaxLastDim(last).flatAtInt(0);
            slot.tokens.push_back(slot.next);
            slot.generated = 1;
            slot.decoding = true;
            if (slot.generated == slot.request.maxNewTokens) {
                finish(slot);
            }
        } catch (...) {
            fail(slot, std::current_exception());
        }
    }
    reapFinished();
}

void
BatchScheduler::decodePhase()
{
    std::vector<Slot *> batch;
    std::vector<int64_t> toks;
    std::vector<KvCache *> kvs;
    for (auto &sp : slots_) {
        if (sp->decoding && sp->done != nullptr) {
            batch.push_back(sp.get());
            toks.push_back(sp->next);
            kvs.push_back(sp->kv.get());
        }
    }
    if (batch.empty()) {
        return;
    }
    try {
        Tensor logits = engine_->decodeStepBatch(toks, kvs);
        Tensor next = argmaxLastDim(logits);
        ++stats_.steps;
        stats_.decodedTokens += static_cast<int64_t>(batch.size());
        ++stats_.batchHistogram[batch.size()];
        for (size_t i = 0; i < batch.size(); ++i) {
            Slot &slot = *batch[i];
            slot.next = next.flatAtInt(static_cast<int64_t>(i));
            slot.tokens.push_back(slot.next);
            ++slot.generated;
            ++slot.stats.decodeSteps;
            if (slot.generated == slot.request.maxNewTokens) {
                finish(slot);
            }
        }
    } catch (...) {
        // The shared forward failed: per-request cache state may be
        // torn mid-layer, so every participant fails (the loop and the
        // other, still-prefilling slots keep going).
        std::exception_ptr err = std::current_exception();
        for (Slot *slot : batch) {
            fail(*slot, err);
        }
    }
    reapFinished();
}

void
BatchScheduler::step()
{
    // Interrupted slots leave between steps — never mid-forward.
    evictInterrupted();
    if (slots_.empty()) {
        return;
    }
    prefillPhase();
    decodePhase();
}

void
BatchScheduler::swapEngine(InferenceEngine &next)
{
    EDKM_CHECK(!busy(), "BatchScheduler: swapEngine with ", active(),
               " request(s) in flight (drain first)");
    const nn::LlamaConfig &a = engine_->config();
    const nn::LlamaConfig &b = next.config();
    engine_ = &next;
    if (prefix_ != nullptr) {
        if (a.layers == b.layers && a.heads == b.heads &&
            a.dim / a.heads == b.dim / b.heads) {
            prefix_->advanceGeneration();
        } else {
            // KV geometry changed: banked rows cannot even be shaped
            // for the new artifact. Start a fresh cache (its stats
            // restart; the scheduler's own counters carry on).
            prefix_ = std::make_unique<PrefixCache>(
                b.layers, b.heads, b.dim / b.heads,
                config_.prefixCacheBytes);
        }
    }
}

std::vector<BatchScheduler::Response>
BatchScheduler::run(std::vector<Request> requests)
{
    std::vector<Response> out(requests.size());
    std::vector<std::exception_ptr> errors(requests.size());
    size_t next_admit = 0, completed = 0;
    while (completed < requests.size()) {
        while (next_admit < requests.size() && hasCapacity()) {
            size_t idx = next_admit++;
            admit(std::move(requests[idx]),
                  [&out, &errors, &completed, idx](
                      Response &&res, std::exception_ptr err,
                      const SchedulerRequestStats &) {
                      out[idx] = std::move(res);
                      errors[idx] = err;
                      ++completed;
                  });
        }
        step();
    }
    for (const std::exception_ptr &err : errors) {
        if (err != nullptr) {
            std::rethrow_exception(err);
        }
    }
    return out;
}

PrefixCacheStats
BatchScheduler::prefixStats() const
{
    return prefix_ != nullptr ? prefix_->stats() : PrefixCacheStats{};
}

std::string
BatchScheduler::statsJson() const
{
    PrefixCacheStats px = prefixStats();
    std::ostringstream os;
    os << "{\"admitted\": " << stats_.admitted
       << ", \"completed\": " << stats_.completed
       << ", \"failed\": " << stats_.failed
       << ", \"deadline_evicted\": " << stats_.deadlineEvicted
       << ", \"released\": " << stats_.released
       << ", \"active\": " << active()
       << ", \"decode_steps\": " << stats_.steps
       << ", \"decoded_tokens\": " << stats_.decodedTokens
       << ", \"prefill_chunks\": " << stats_.prefillChunks
       << ", \"prefill_tokens\": " << stats_.prefillTokens
       << ", \"peak_batch\": " << stats_.peakBatch
       << ", \"batch_histogram\": [";
    for (size_t b = 1; b < stats_.batchHistogram.size(); ++b) {
        os << (b == 1 ? "" : ", ") << stats_.batchHistogram[b];
    }
    os << "], \"prefix_cache\": {\"enabled\": "
       << (prefix_ != nullptr ? "true" : "false")
       << ", \"hits\": " << px.hits << ", \"misses\": " << px.misses
       << ", \"reused_tokens\": " << px.reusedTokens
       << ", \"insertions\": " << px.insertions
       << ", \"rejected\": " << px.rejected
       << ", \"evictions\": " << px.evictions
       << ", \"evicted_bytes\": " << px.evictedBytes
       << ", \"bytes\": " << px.bytes
       << ", \"entries\": " << px.entries
       << ", \"generation\": " << px.generation
       << ", \"generation_flushes\": " << px.generationFlushes << "}}";
    return os.str();
}

} // namespace serve
} // namespace edkm
