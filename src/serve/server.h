/**
 * @file
 * Continuous-batching request server over one shared ArtifactReader.
 *
 * The Server owns ONE InferenceEngine plus a BatchScheduler driven by a
 * dedicated step-loop thread (a plain std::thread, not a pool worker,
 * so engine-internal parallelFor still fans out across the runtime
 * pool). submit() enqueues a promise-backed ticket on a server-owned
 * queue; the loop admits queued requests into scheduler slots whenever
 * one frees, and every in-flight request's next token rides one batched
 * forward per step. release() of a ticket still waiting in the queue
 * cancels it without touching the step loop (the wait() throws); the
 * destructor drains queue and in-flight slots before joining the loop.
 *
 * The response depends only on the request and the artifact — never on
 * batch composition or arrival order: it is bit-identical to a serial
 * InferenceEngine::generate of the same request, which
 * tests/test_server.cc enforces under an 8-submitter interleaving
 * stress, hot swaps and randomized arrivals.
 *
 * *Hot model swap* (swap()): load artifact N+1 while N keeps serving.
 * Every ticket is stamped with the server generation current at
 * submit() and pins its own ArtifactReader, so a swap never drops or
 * re-targets a ticket: requests submitted before the swap complete
 * against artifact N, requests submitted after run against N+1, and
 * no request ever mixes weights from both. The step loop drains the
 * in-flight slots, then retargets the scheduler
 * (BatchScheduler::swapEngine) between steps. The old mapping is
 * released once the last old-generation record completes (records drop
 * their reader pin at completion).
 *
 * *Deadlines and cancellation*: Request::deadline and Request::cancel
 * flow through the scheduler. Expiry / release() of an in-flight ticket
 * interrupts it at the next between-steps check (never mid-forward —
 * surviving requests stay bit-identical), and wait() rethrows the
 * typed DeadlineExceeded / Cancelled error.
 */

#ifndef EDKM_SERVE_SERVER_H_
#define EDKM_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "util/histogram.h"
#include "util/thread_annotations.h"

namespace edkm {
namespace serve {

/** Server knobs. */
struct ServerConfig
{
    /** Byte budget of the engine's lazy decode cache (see
     *  EngineConfig::decodeCacheBytes). */
    int64_t decodeCacheBytes = EngineConfig{}.decodeCacheBytes;
    /** Step-loop knobs: batch width, prefill chunking, prefix cache and
     *  per-request KV capacity. */
    SchedulerConfig scheduler;
};

/** Batching request server over one shared artifact reader. */
class Server
{
  public:
    using Request = InferenceEngine::Request;
    using Response = InferenceEngine::Response;
    using RequestId = int64_t;

    /** Per-request accounting, available once the request completed. */
    struct RequestStats
    {
        RequestId id = 0;
        int64_t generation = 0; ///< artifact generation served against
        int64_t promptTokens = 0;
        int64_t newTokens = 0;
        double millis = 0.0; ///< execution time (excluding queue wait)
        double queueMillis = 0.0; ///< submit-to-execution-start wait
        int64_t prefillChunks = 0;      ///< prefill continuations run
        int64_t decodeSteps = 0;        ///< batched steps joined
        int64_t reusedPrefixTokens = 0; ///< restored from the prefix cache
    };

    Server(std::shared_ptr<const ArtifactReader> reader,
           ServerConfig config = ServerConfig{});

    /** Blocks until every in-flight request has drained. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Enqueue one request; returns the ticket for wait(). */
    RequestId submit(Request request);

    /** Enqueue a batch; tickets are returned in request order. */
    std::vector<RequestId> submit(std::vector<Request> batch);

    /**
     * Block until request @p id completes and return its response.
     * Rethrows the request's exception if it failed. Callable more
     * than once per ticket.
     */
    Response wait(RequestId id);

    /** wait() for each ticket, in order. */
    std::vector<Response> wait(const std::vector<RequestId> &ids);

    /** Stats of a completed request (wait() it first). */
    RequestStats requestStats(RequestId id) const;

    /**
     * Forget request @p id: blocks until it completes, then frees its
     * record (response, stats, prompt). Completed requests are
     * otherwise retained so wait()/requestStats() stay answerable —
     * long-lived servers should release tickets they are done with, or
     * memory grows by one record per request served. Idempotent;
     * racing a release against a wait() of the same ticket makes the
     * wait throw (never read freed memory).
     */
    void release(RequestId id);

    /** release() each ticket. */
    void release(const std::vector<RequestId> &ids);

    /**
     * Hot-swap the served artifact: tickets submitted after swap()
     * returns run against @p next, tickets already submitted complete
     * against the artifact they were stamped with at submit() — none
     * are dropped, none mix generations (the prefix cache flushes at
     * the generation boundary). Blocks until the step loop has drained
     * its slots and retargeted the scheduler. Concurrent
     * submit()/wait()/release() are safe throughout. Throws (and leaves
     * the server untouched) if @p next cannot back an engine.
     */
    void swap(std::shared_ptr<const ArtifactReader> next);

    /** Artifact generation new submissions are stamped with (starts at
     *  0, +1 per swap()). */
    int64_t generation() const;

    /** Stats of the serving engine. Only meaningful while no request
     *  is in flight (the step loop otherwise mutates its counters). */
    const EngineStats &engineStats() const;

    /** Requests completed (successfully or not) so far, including
     *  queued tickets cancelled by release(). */
    int64_t completed() const;

    /** Queued tickets cancelled by release() before admission. */
    int64_t cancelled() const;

    /**
     * Serving metrics as a JSON object string: queue depth / peak /
     * cancellations, plus the scheduler's counters — step batch-size
     * histogram, per-phase token counts and the prefix cache's
     * hit/miss/eviction accounting. The scheduler block is a
     * snapshot the step loop publishes after each step, so it is exact
     * as of the most recent step (and fully exact once idle).
     */
    std::string metricsJson() const;

  private:
    struct Record
    {
        /** Its cancel token is always set (submit() creates one if the
         *  caller passed none): release() of an admitted ticket fires
         *  it. */
        Request request;
        Response response;
        RequestStats stats;
        /** Completion: the scheduler's callback fulfils the promise. */
        std::shared_future<void> done;
        std::promise<void> promise;
        bool queued = false; ///< still awaiting admission
        /** Server generation at submit(): the artifact this ticket is
         *  served against, swap or no swap. */
        int64_t generation = 0;
        /** Pins the ticket's artifact mapping until completion (reset
         *  then, so a swapped-out mapping can unmap). */
        std::shared_ptr<const ArtifactReader> reader;
        std::chrono::steady_clock::time_point submitted;
    };

    /** The step loop (dedicated thread). */
    void batchLoop() EDKM_EXCLUDES(mutex_);
    /** What every engine this server builds is configured with. */
    EngineConfig engineConfig() const;
    /** Completion future of @p id (copied out under the lock; safe to
     *  block on while release() erases the record). */
    std::shared_future<void> ticket(RequestId id) const
        EDKM_EXCLUDES(mutex_);

    ServerConfig config_;
    /** The serving engine. NOT guarded by mutex_ on purpose: only the
     *  step loop touches it (rebuilt at the generation cutover while it
     *  alone runs). engineStats() reads are documented as only
     *  meaningful while idle. */
    std::unique_ptr<InferenceEngine> engine_;

    mutable util::Mutex mutex_;
    /** Artifact new submissions pin (swap() repoints it). */
    std::shared_ptr<const ArtifactReader> reader_ EDKM_GUARDED_BY(mutex_);
    std::unordered_map<RequestId, std::unique_ptr<Record>> records_
        EDKM_GUARDED_BY(mutex_);
    RequestId next_id_ EDKM_GUARDED_BY(mutex_) = 1;
    /** Generation new submissions are stamped with. */
    int64_t gen_ EDKM_GUARDED_BY(mutex_) = 0;
    int64_t completed_ EDKM_GUARDED_BY(mutex_) = 0;
    /** Submit-to-start and submit-to-completion latencies (ms). */
    LatencyHistogram queue_wait_hist_ EDKM_GUARDED_BY(mutex_);
    LatencyHistogram e2e_hist_ EDKM_GUARDED_BY(mutex_);

    // The scheduler object (and its engine) is stepped only by loop_
    // with mutex_ released; the queue and flags below are shared under
    // mutex_.
    std::unique_ptr<BatchScheduler> scheduler_;
    /** Submitted, not yet admitted. */
    std::deque<RequestId> queue_ EDKM_GUARDED_BY(mutex_);
    util::CondVar cv_; ///< wakes the loop: submit/swap/stop
    bool stop_ EDKM_GUARDED_BY(mutex_) = false;
    /** Loop exited (unblocks waiting swaps). */
    bool loop_done_ EDKM_GUARDED_BY(mutex_) = false;
    /** Generation the step loop is serving. */
    int64_t loop_gen_ EDKM_GUARDED_BY(mutex_) = 0;
    /** Engines probe-built by swap(), installed by the loop at the
     *  generation cutover (keyed by target generation). */
    std::map<int64_t, std::unique_ptr<InferenceEngine>> pending_engines_
        EDKM_GUARDED_BY(mutex_);
    int64_t cancelled_ EDKM_GUARDED_BY(mutex_) = 0;
    int64_t peak_queue_ EDKM_GUARDED_BY(mutex_) = 0;
    /** Scheduler stats snapshot, published by the loop under mutex_
     *  after each step so metricsJson() never races the step loop. */
    std::string sched_json_ EDKM_GUARDED_BY(mutex_);
    // lint:allow(raw-thread) the dedicated step loop: deliberately NOT
    // a pool worker, so engine-internal parallelFor still fans out
    // across the runtime pool (see batchLoop()). Joined by the
    // destructor before any member above is torn down.
    std::thread loop_;
};

} // namespace serve

namespace api {
/** Re-exported beside InferenceEngine as the api:: serving surface. */
using Server = serve::Server;
} // namespace api

} // namespace edkm

#endif // EDKM_SERVE_SERVER_H_
