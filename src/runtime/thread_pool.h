/**
 * @file
 * Chunked thread pool: the execution engine under edkm::runtime.
 *
 * Design goals, in priority order:
 *
 *  1. *Determinism*: work is split into chunks by a caller-supplied grain
 *     that depends only on the problem size, never on the thread count.
 *     parallel-for bodies write disjoint outputs per chunk; reductions
 *     combine per-chunk partials in chunk-index order. A run with 1
 *     thread and a run with 64 threads therefore produce bit-identical
 *     results (see tests/test_runtime.cc).
 *
 *  2. *Safety*: exceptions thrown inside a chunk propagate to the caller
 *     (first one wins, remaining chunks are skipped); nested forChunks
 *     calls from inside a worker degrade to inline serial execution
 *     instead of deadlocking the pool.
 *
 *  3. *Simplicity*: no work stealing. Chunks are claimed from a shared
 *     atomic counter, which load-balances irregular chunks well enough
 *     for the |W| x |C| kernels this library runs.
 */

#ifndef EDKM_RUNTIME_THREAD_POOL_H_
#define EDKM_RUNTIME_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace edkm {
namespace runtime {

/**
 * Fixed-size pool of worker threads executing chunked loops. The
 * constructing thread participates in forChunks() as an extra lane, so
 * ThreadPool(1) owns no OS threads and runs everything inline.
 */
class ThreadPool
{
  public:
    /** @param threads total lanes including the caller (min 1). */
    explicit ThreadPool(int threads);

    /** Drains queued jobs, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (workers + the calling thread). */
    int
    threadCount() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Split [begin, end) into ceil((end-begin)/grain) chunks and invoke
     * @p body(chunk_index, chunk_begin, chunk_end) for each, spread over
     * the pool (the caller participates). Blocks until every chunk has
     * run. The chunk decomposition depends only on (begin, end, grain).
     *
     * The first exception thrown by any chunk is rethrown here; chunks
     * not yet started when it fires are skipped.
     *
     * Re-entrant calls from a worker thread run serially inline.
     */
    void forChunks(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t, int64_t)>
                       &body);

    /** True when called from inside one of this process's pool workers. */
    static bool inWorker();

  private:
    struct ForState;

    void workerLoop();

    /** Written only by the constructor, joined by the destructor;
     *  in between it is read-only (threadCount), so unguarded. */
    std::vector<std::thread> workers_;
    util::Mutex mutex_;
    util::CondVar cv_;
    std::deque<std::function<void()>> jobs_ EDKM_GUARDED_BY(mutex_);
    bool stop_ EDKM_GUARDED_BY(mutex_) = false;
};

} // namespace runtime
} // namespace edkm

#endif // EDKM_RUNTIME_THREAD_POOL_H_
