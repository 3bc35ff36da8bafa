#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/logging.h"

namespace edkm {
namespace runtime {

namespace {

/** Set while a pool worker executes a job (nested-call detection). */
thread_local bool tl_in_worker = false;

} // namespace

/** Shared bookkeeping of one forChunks() invocation. */
struct ThreadPool::ForState
{
    std::function<void(int64_t, int64_t, int64_t)> body;
    int64_t begin = 0;
    int64_t grain = 1;
    int64_t total = 0; ///< number of chunks

    std::atomic<int64_t> next{0}; ///< next chunk index to claim
    std::atomic<int64_t> done{0}; ///< chunks executed or skipped
    std::atomic<bool> failed{false};

    util::Mutex mutex;
    util::CondVar cv;
    std::exception_ptr error EDKM_GUARDED_BY(mutex);

    /** Claim-and-run loop shared by the caller and the runner jobs. */
    void
    drain()
    {
        for (;;) {
            int64_t ci = next.fetch_add(1, std::memory_order_relaxed);
            if (ci >= total) {
                return;
            }
            if (!failed.load(std::memory_order_relaxed)) {
                int64_t b = begin + ci * grain;
                int64_t e = std::min(b + grain, begin + totalExtent());
                try {
                    body(ci, b, e);
                } catch (...) {
                    {
                        util::MutexLock lock(mutex);
                        if (!error) {
                            error = std::current_exception();
                        }
                    }
                    failed.store(true, std::memory_order_relaxed);
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                total) {
                util::MutexLock lock(mutex);
                cv.notify_all();
            }
        }
    }

    int64_t extent = 0; ///< end - begin

    int64_t
    totalExtent() const
    {
        return extent;
    }
};

ThreadPool::ThreadPool(int threads)
{
    int lanes = std::max(1, threads);
    workers_.reserve(static_cast<size_t>(lanes - 1));
    for (int i = 0; i < lanes - 1; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_) {
        t.join();
    }
}

bool
ThreadPool::inWorker()
{
    return tl_in_worker;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            util::MutexLock lock(mutex_);
            // Explicit predicate loop (not a wait-with-lambda): the
            // analysis checks the guarded reads right here, under the
            // lock it can see held.
            while (!stop_ && jobs_.empty()) {
                cv_.wait(mutex_);
            }
            if (jobs_.empty()) {
                return; // stop_ and drained
            }
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        tl_in_worker = true;
        job();
        tl_in_worker = false;
        // Release the callable (and anything it captured) immediately
        // instead of holding it across the next queue wait.
        job = nullptr;
    }
}

void
ThreadPool::forChunks(int64_t begin, int64_t end, int64_t grain,
                      const std::function<void(int64_t, int64_t, int64_t)>
                          &body)
{
    if (end <= begin) {
        return;
    }
    int64_t g = std::max<int64_t>(1, grain);
    int64_t extent = end - begin;
    int64_t nchunks = (extent + g - 1) / g;

    // Serial path: no workers, a single chunk, or a nested call from a
    // worker (running inline avoids deadlock). Chunks execute in index
    // order, which is also the reduction-combine order, so numerics match
    // the parallel path exactly.
    if (workers_.empty() || nchunks == 1 || inWorker()) {
        for (int64_t ci = 0; ci < nchunks; ++ci) {
            int64_t b = begin + ci * g;
            body(ci, b, std::min(b + g, end));
        }
        return;
    }

    auto st = std::make_shared<ForState>();
    st->body = body; // copy: runner jobs may outlive this frame's refs
    st->begin = begin;
    st->grain = g;
    st->total = nchunks;
    st->extent = extent;

    // One runner job per worker lane (capped by the chunk count); the
    // caller is the final lane. Runners that wake after all chunks are
    // claimed return immediately.
    int64_t runners = std::min<int64_t>(
        static_cast<int64_t>(workers_.size()), nchunks - 1);
    {
        util::MutexLock lock(mutex_);
        for (int64_t i = 0; i < runners; ++i) {
            jobs_.emplace_back([st] { st->drain(); });
        }
    }
    if (runners == 1) {
        cv_.notify_one();
    } else {
        cv_.notify_all();
    }

    st->drain();

    util::MutexLock lock(st->mutex);
    while (st->done.load(std::memory_order_acquire) != st->total) {
        st->cv.wait(st->mutex);
    }
    if (st->error) {
        std::rethrow_exception(st->error);
    }
}

} // namespace runtime
} // namespace edkm
