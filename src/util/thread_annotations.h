/**
 * @file
 * Clang Thread Safety Analysis vocabulary for the eDKM codebase.
 *
 * Two layers:
 *
 *  1. The raw EDKM_* attribute macros (CAPABILITY, GUARDED_BY,
 *     REQUIRES, ...) mapping onto clang's `-Wthread-safety` attributes.
 *     Under any other compiler they expand to nothing, so annotations
 *     cost zero and the code stays portable. The CMake option
 *     EDKM_THREAD_SAFETY (default ON for clang) arms the analysis with
 *     `-Werror=thread-safety`, turning every lock-discipline violation
 *     into a compile error; tests/compile_fail/ proves the arming.
 *
 *  2. Annotated synchronization types — util::Mutex, util::MutexLock,
 *     util::CondVar — thin zero-overhead wrappers over the std::
 *     primitives. All mutex/condvar sites in src/ use these instead of
 *     std::mutex / std::condition_variable so the analysis can see
 *     them. (std::mutex itself carries no capability attributes, so
 *     code locking it directly is invisible to the checker.)
 *
 * House conventions (docs/static_analysis.md has the full rules):
 *
 *  - Every field written by more than one thread is either
 *    EDKM_GUARDED_BY(some mutex), std::atomic, or carries a comment
 *    explaining the ownership protocol that makes it safe (e.g. the
 *    Server's engine, owned by its step loop).
 *  - Helpers that expect their caller to hold a lock say so with
 *    EDKM_REQUIRES(mutex) instead of re-locking or trusting comments.
 *  - Condition-variable waits use explicit `while (!pred) cv.wait(mu);`
 *    loops rather than lambda predicates: the analysis treats a lambda
 *    body as a separate function and cannot see that the enclosing
 *    wait holds the lock.
 *  - EDKM_NO_THREAD_SAFETY_ANALYSIS is a last resort and every use
 *    must carry a written justification on the same declaration.
 */

#ifndef EDKM_UTIL_THREAD_ANNOTATIONS_H_
#define EDKM_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define EDKM_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef EDKM_THREAD_ANNOTATION__
#define EDKM_THREAD_ANNOTATION__(x) // no-op off clang
#endif

/** Marks a type as a lockable capability ("mutex", "role", ...). */
#define EDKM_CAPABILITY(x) EDKM_THREAD_ANNOTATION__(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define EDKM_SCOPED_CAPABILITY EDKM_THREAD_ANNOTATION__(scoped_lockable)

/** Field may only be read/written while holding @p x. */
#define EDKM_GUARDED_BY(x) EDKM_THREAD_ANNOTATION__(guarded_by(x))

/** Pointee (not the pointer) is guarded by @p x. */
#define EDKM_PT_GUARDED_BY(x) EDKM_THREAD_ANNOTATION__(pt_guarded_by(x))

/** Lock-ordering edge: this capability acquires after the arguments. */
#define EDKM_ACQUIRED_AFTER(...) \
    EDKM_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/** Lock-ordering edge: this capability acquires before the arguments. */
#define EDKM_ACQUIRED_BEFORE(...) \
    EDKM_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

/** Caller must hold the listed capabilities (exclusively). */
#define EDKM_REQUIRES(...) \
    EDKM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/** Caller must hold the listed capabilities at least shared. */
#define EDKM_REQUIRES_SHARED(...) \
    EDKM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/** Function acquires the listed capabilities and does not release. */
#define EDKM_ACQUIRE(...) \
    EDKM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities. */
#define EDKM_RELEASE(...) \
    EDKM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/** Function acquires the capabilities iff it returns @p ret. */
#define EDKM_TRY_ACQUIRE(ret, ...) \
    EDKM_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/** Caller must NOT hold the listed capabilities (deadlock guard). */
#define EDKM_EXCLUDES(...) \
    EDKM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/** Runtime assertion that the capability is held (trusted by the
 *  analysis from this point on). */
#define EDKM_ASSERT_CAPABILITY(x) \
    EDKM_THREAD_ANNOTATION__(assert_capability(x))

/** Function returns a reference to the named capability. */
#define EDKM_RETURN_CAPABILITY(x) \
    EDKM_THREAD_ANNOTATION__(lock_returned(x))

/**
 * Opt this function out of the analysis. Policy: every use must carry
 * a justification comment on the same declaration; the CI clang build
 * treats an unexplained site as a review defect (the determinism
 * linter's fixture suite counts them).
 */
#define EDKM_NO_THREAD_SAFETY_ANALYSIS \
    EDKM_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace edkm {
namespace util {

class CondVar;

/**
 * std::mutex with a capability attribute, so GUARDED_BY / REQUIRES
 * annotations against it are enforced at compile time under clang.
 * Same cost and semantics as std::mutex (the lock functions are
 * forwarding inlines).
 */
class EDKM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() EDKM_ACQUIRE()
    {
        mu_.lock();
    }

    void
    unlock() EDKM_RELEASE()
    {
        mu_.unlock();
    }

    bool
    try_lock() EDKM_TRY_ACQUIRE(true)
    {
        return mu_.try_lock();
    }

  private:
    friend class CondVar;
    std::mutex mu_;
};

/**
 * RAII lock over util::Mutex — the annotated replacement for
 * std::lock_guard AND std::unique_lock: unlock()/lock() support the
 * unlock-work-relock pattern (e.g. Server::batchLoop admitting
 * requests outside the lock), and the analysis tracks the state across
 * those calls. Destroying an unlocked MutexLock is fine.
 */
class EDKM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) EDKM_ACQUIRE(mu) : mu_(mu), owned_(true)
    {
        mu_.lock();
    }

    ~MutexLock() EDKM_RELEASE()
    {
        if (owned_) {
            mu_.unlock();
        }
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Release early (before more work that must not hold the lock). */
    void
    unlock() EDKM_RELEASE()
    {
        owned_ = false;
        mu_.unlock();
    }

    /** Re-acquire after an unlock(). */
    void
    lock() EDKM_ACQUIRE()
    {
        mu_.lock();
        owned_ = true;
    }

  private:
    Mutex &mu_;
    bool owned_;
};

/**
 * Condition variable paired with util::Mutex. wait() takes the Mutex
 * itself (caller must hold it — enforced via EDKM_REQUIRES), not a
 * lock object, and callers spell the predicate as an explicit while
 * loop so guarded reads inside it stay visible to the analysis:
 *
 *     util::MutexLock lock(mutex_);
 *     while (!ready_) {      // ready_ EDKM_GUARDED_BY(mutex_): checked
 *         cv_.wait(mutex_);
 *     }
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mu, sleep, re-acquire before returning.
     *  The analysis sees the capability held across the call (the
     *  release/re-acquire inside the std wait is invisible, and nets
     *  out held — the same contract std::condition_variable gives). */
    void
    wait(Mutex &mu) EDKM_REQUIRES(mu)
    {
        std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
        cv_.wait(relock);
        relock.release(); // ownership stays with the caller's MutexLock
    }

    void
    notify_one()
    {
        cv_.notify_one();
    }

    void
    notify_all()
    {
        cv_.notify_all();
    }

  private:
    std::condition_variable cv_;
};

} // namespace util
} // namespace edkm

#endif // EDKM_UTIL_THREAD_ANNOTATIONS_H_
