#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace edkm {
namespace serve {

namespace {

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Server::Server(std::shared_ptr<const ArtifactReader> reader,
               ServerConfig config)
    : config_(config), reader_(std::move(reader))
{
    EDKM_CHECK(reader_ != nullptr, "Server: null reader");
    engine_ = std::make_unique<InferenceEngine>(reader_, engineConfig());
    scheduler_ = std::make_unique<BatchScheduler>(*engine_,
                                                  config_.scheduler);
    sched_json_ = scheduler_->statsJson();
    // lint:allow(raw-thread) the dedicated step loop (see the matching
    // note on the loop_ member).
    loop_ = std::thread([this] { batchLoop(); });
}

Server::~Server()
{
    // Drain: the loop exits only once the queue is empty and no slot is
    // in flight, so every submitted ticket completes (or was cancelled
    // by release()) before the members die.
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    loop_.join();
}

EngineConfig
Server::engineConfig() const
{
    EngineConfig cfg;
    cfg.decodeCacheBytes = config_.decodeCacheBytes;
    return cfg;
}

void
Server::batchLoop()
{
    util::MutexLock lock(mutex_);
    for (;;) {
        // Sleep only when idle: while a slot is in flight (or a swap
        // awaits its cutover) the predicate stays true and the loop
        // keeps stepping without waiting. Spelled as an explicit
        // predicate loop so the guarded reads are checked under the
        // lock the analysis sees held.
        while (!(stop_ || !queue_.empty() || scheduler_->busy() ||
                 loop_gen_ < gen_)) {
            cv_.wait(mutex_);
        }
        if (stop_ && queue_.empty() && !scheduler_->busy()) {
            break;
        }
        // Generation cutover: every in-flight slot has drained and the
        // queue head (if any) no longer belongs to the loop's
        // generation — retarget the scheduler between steps. One
        // generation per pass; stacked swaps cut over one at a time.
        if (loop_gen_ < gen_ && !scheduler_->busy()) {
            bool head_blocks = false;
            if (!queue_.empty()) {
                auto it = records_.find(queue_.front());
                head_blocks = it != records_.end() &&
                              it->second->generation == loop_gen_;
            }
            if (!head_blocks) {
                auto pit = pending_engines_.begin();
                EDKM_CHECK(pit != pending_engines_.end(),
                           "Server: generation ", loop_gen_,
                           " cutover with no pending engine");
                int64_t g = pit->first;
                std::unique_ptr<InferenceEngine> next =
                    std::move(pit->second);
                pending_engines_.erase(pit);
                scheduler_->swapEngine(*next);
                // The old engine dies here, dropping its pin on the
                // old mapping; not-yet-released old records hold the
                // only remaining pins.
                engine_ = std::move(next);
                loop_gen_ = g;
                sched_json_ = scheduler_->statsJson();
                cv_.notify_all(); // swap() waits on loop_gen_
                continue;
            }
        }
        while (!queue_.empty() && scheduler_->hasCapacity()) {
            RequestId id = queue_.front();
            auto it = records_.find(id);
            if (it == records_.end()) {
                // Cancelled between queueing and admission.
                queue_.pop_front();
                continue;
            }
            if (it->second->generation != loop_gen_) {
                // Newer artifact: drain the current slots, cut over,
                // then admit. FIFO order means nothing behind the head
                // can belong to the loop's generation either.
                break;
            }
            queue_.pop_front();
            Record *raw = it->second.get();
            raw->queued = false;
            raw->stats.queueMillis = millisSince(raw->submitted);
            queue_wait_hist_.record(raw->stats.queueMillis);
            Request req = raw->request;
            // Admit unlocked: the completion callback (which may fire
            // synchronously on validation failure) takes mutex_. The
            // record outlives the callback because release() waits on
            // its future once `queued` is cleared.
            lock.unlock();
            auto t0 = std::chrono::steady_clock::now();
            scheduler_->admit(
                std::move(req),
                [this, raw, t0](Response &&res, std::exception_ptr err,
                                const SchedulerRequestStats &st) {
                    raw->stats.promptTokens = st.promptTokens;
                    raw->stats.newTokens = st.newTokens;
                    raw->stats.prefillChunks = st.prefillChunks;
                    raw->stats.decodeSteps = st.decodeSteps;
                    raw->stats.reusedPrefixTokens = st.reusedPrefixTokens;
                    raw->stats.millis = millisSince(t0);
                    if (err == nullptr) {
                        raw->response = std::move(res);
                    }
                    raw->reader.reset(); // drop the mapping pin
                    {
                        util::MutexLock inner(mutex_);
                        ++completed_;
                        e2e_hist_.record(millisSince(raw->submitted));
                    }
                    // Fulfil last: waiters read the fields above after
                    // get(), which synchronises with set_value.
                    if (err != nullptr) {
                        raw->promise.set_exception(err);
                    } else {
                        raw->promise.set_value();
                    }
                });
            lock.lock();
        }
        if (scheduler_->busy()) {
            lock.unlock();
            scheduler_->step();
            lock.lock();
        }
        // Publish the metrics snapshot under the lock — the only place
        // scheduler state crosses to other threads (metricsJson()).
        sched_json_ = scheduler_->statsJson();
    }
    // Unblock swap() calls racing the destructor: they check loop_gen_
    // and fail loudly instead of waiting forever.
    loop_done_ = true;
    cv_.notify_all();
}

Server::RequestId
Server::submit(Request request)
{
    auto rec = std::make_unique<Record>();
    // Every ticket carries a live cancel token (creating one here if
    // the caller passed none), so release() can interrupt it in flight.
    if (request.cancel == nullptr) {
        request.cancel = std::make_shared<CancelToken>();
    }
    rec->request = std::move(request);
    rec->submitted = std::chrono::steady_clock::now();
    // Promise-backed ticket, wired up BEFORE the record is visible:
    // wait()/release() must always find a valid future.
    rec->done = rec->promise.get_future().share();
    rec->queued = true;
    RequestId id;
    {
        util::MutexLock lock(mutex_);
        id = next_id_++;
        rec->stats.id = id;
        rec->generation = gen_;
        rec->stats.generation = gen_;
        rec->reader = reader_;
        records_.emplace(id, std::move(rec));
        queue_.push_back(id);
        peak_queue_ =
            std::max(peak_queue_, static_cast<int64_t>(queue_.size()));
    }
    cv_.notify_all();
    return id;
}

std::vector<Server::RequestId>
Server::submit(std::vector<Request> batch)
{
    std::vector<RequestId> ids;
    ids.reserve(batch.size());
    for (Request &r : batch) {
        ids.push_back(submit(std::move(r)));
    }
    return ids;
}

std::shared_future<void>
Server::ticket(RequestId id) const
{
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: unknown request id ", id);
    return it->second->done;
}

Server::Response
Server::wait(RequestId id)
{
    // Copy the future out under the lock, block outside it, then
    // re-look the record up: a concurrent release() of the same ticket
    // erases the Record, and reading it unlocked after done.get()
    // would be a use-after-free.
    ticket(id).get(); // blocks; rethrows the request's exception
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: request ", id,
               " was released while being waited on");
    return it->second->response;
}

std::vector<Server::Response>
Server::wait(const std::vector<RequestId> &ids)
{
    std::vector<Response> out;
    out.reserve(ids.size());
    for (RequestId id : ids) {
        out.push_back(wait(id));
    }
    return out;
}

Server::RequestStats
Server::requestStats(RequestId id) const
{
    ticket(id).wait();
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    EDKM_CHECK(it != records_.end(), "Server: request ", id,
               " was released while its stats were being read");
    return it->second->stats;
}

void
Server::release(RequestId id)
{
    // Wait for the step loop's callback (which holds a raw pointer to
    // the record) outside the lock, erase under it. Releasing an
    // already-released ticket is a no-op, so concurrent reapers need no
    // coordination.
    std::shared_future<void> done;
    {
        util::MutexLock lock(mutex_);
        auto it = records_.find(id);
        if (it == records_.end()) {
            return;
        }
        // A ticket still waiting in the queue is cancelled right here —
        // no scheduler slot was ever taken, so the step loop needs no
        // notice. Concurrent wait()ers of the same ticket get the
        // cancellation exception.
        if (it->second->queued) {
            for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
                if (*qit == id) {
                    queue_.erase(qit);
                    break;
                }
            }
            it->second->promise.set_exception(
                std::make_exception_ptr(Cancelled(
                    "Server: request " + std::to_string(id) +
                    " released before admission")));
            ++completed_;
            ++cancelled_;
            records_.erase(it);
            return;
        }
        // Admitted (or already completed — then the token fires into
        // the void): request cancellation, so an in-flight ticket is
        // evicted at its next between-steps check instead of running
        // to completion nobody will read.
        it->second->request.cancel->requestCancel();
        done = it->second->done;
    }
    cv_.notify_all(); // wake the step loop to run the eviction
    done.wait();
    util::MutexLock lock(mutex_);
    records_.erase(id);
}

void
Server::release(const std::vector<RequestId> &ids)
{
    for (RequestId id : ids) {
        release(id);
    }
}

void
Server::swap(std::shared_ptr<const ArtifactReader> next)
{
    EDKM_CHECK(next != nullptr, "Server: swap to a null reader");
    // Probe-build an engine first: an artifact that cannot back an
    // engine (missing sections, bad geometry, failed checksum under
    // eager verify) fails the swap() call right here, before any
    // server state changes.
    auto probe = std::make_unique<InferenceEngine>(next, engineConfig());
    util::MutexLock lock(mutex_);
    reader_ = next;
    int64_t target = ++gen_;
    // The probe becomes the loop's next engine: the cutover path never
    // needs a throwing construction.
    pending_engines_.emplace(target, std::move(probe));
    cv_.notify_all();
    while (!(loop_gen_ >= target || loop_done_)) {
        cv_.wait(mutex_);
    }
    EDKM_CHECK(loop_gen_ >= target,
               "Server: step loop stopped before the swap to generation ",
               target, " cut over");
}

int64_t
Server::generation() const
{
    util::MutexLock lock(mutex_);
    return gen_;
}

const EngineStats &
Server::engineStats() const
{
    return engine_->stats();
}

int64_t
Server::completed() const
{
    util::MutexLock lock(mutex_);
    return completed_;
}

int64_t
Server::cancelled() const
{
    util::MutexLock lock(mutex_);
    return cancelled_;
}

std::string
Server::metricsJson() const
{
    int64_t depth, peak, cancelled, completed, generation;
    std::string sched, queue_wait, e2e;
    {
        // Snapshot everything under one hold — counters, histograms
        // and the scheduler block are mutually consistent.
        util::MutexLock lock(mutex_);
        depth = static_cast<int64_t>(queue_.size());
        peak = peak_queue_;
        cancelled = cancelled_;
        completed = completed_;
        generation = gen_;
        queue_wait = queue_wait_hist_.json();
        e2e = e2e_hist_.json();
        sched = sched_json_;
    }
    std::ostringstream os;
    os << "{\"generation\": " << generation
       << ", \"completed\": " << completed
       << ", \"queue_depth\": " << depth
       << ", \"peak_queue_depth\": " << peak
       << ", \"cancelled\": " << cancelled
       << ", \"latency\": {\"queue_wait\": " << queue_wait
       << ", \"e2e\": " << e2e << "}"
       << ", \"scheduler\": " << sched << "}";
    return os.str();
}

} // namespace serve
} // namespace edkm
