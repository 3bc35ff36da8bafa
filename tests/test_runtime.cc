/**
 * @file
 * Tests for the edkm::runtime subsystem: pool lifecycle, exception
 * propagation, nested-call safety, SerialGuard, EDKM_NUM_THREADS
 * resolution, and — the safety rail of the whole hot-path refactor —
 * bit-identical kmeans/dkm/edkm results between serial and 8-thread
 * execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/dkm.h"
#include "core/edkm.h"
#include "core/kmeans.h"
#include "device/device_manager.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace {

/** Restore the global pool to the ambient default on scope exit. */
class ThreadCountScope
{
  public:
    explicit ThreadCountScope(int threads)
    {
        runtime::Runtime::instance().setThreadCount(threads);
    }
    ~ThreadCountScope()
    {
        runtime::Runtime::instance().setThreadCount(
            runtime::Runtime::defaultThreadCount());
    }
};

TEST(ThreadPool, StartupShutdownAndBasicCoverage)
{
    for (int threads : {1, 2, 8}) {
        runtime::ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        std::vector<int> hits(1000, 0);
        pool.forChunks(0, 1000, 7,
                       [&](int64_t, int64_t b, int64_t e) {
                           for (int64_t i = b; i < e; ++i) {
                               ++hits[static_cast<size_t>(i)];
                           }
                       });
        for (int h : hits) {
            EXPECT_EQ(h, 1); // every index covered exactly once
        }
    }
}

TEST(ThreadPool, ChunkDecompositionIsThreadCountIndependent)
{
    auto chunks_of = [](runtime::ThreadPool &pool) {
        std::vector<std::pair<int64_t, int64_t>> spans(12);
        pool.forChunks(3, 100, 9,
                       [&](int64_t ci, int64_t b, int64_t e) {
                           spans[static_cast<size_t>(ci)] = {b, e};
                       });
        return spans;
    };
    runtime::ThreadPool serial(1), wide(8);
    EXPECT_EQ(chunks_of(serial), chunks_of(wide));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(
        pool.forChunks(0, 1000, 10,
                       [&](int64_t, int64_t b, int64_t) {
                           if (b >= 500) {
                               fatal("boom at ", b);
                           }
                       }),
        FatalError);
    // Pool still functional after the failed loop.
    std::atomic<int64_t> sum{0};
    pool.forChunks(0, 100, 10, [&](int64_t, int64_t b, int64_t e) {
        sum.fetch_add(e - b);
    });
    EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock)
{
    runtime::ThreadPool pool(4);
    std::vector<int> hits(64 * 64, 0);
    pool.forChunks(0, 64, 4, [&](int64_t, int64_t ob, int64_t oe) {
        for (int64_t o = ob; o < oe; ++o) {
            // Nested loop from a worker: must run inline, not re-enter
            // the queue (which could deadlock a saturated pool).
            pool.forChunks(0, 64, 8,
                           [&](int64_t, int64_t ib, int64_t ie) {
                               for (int64_t i = ib; i < ie; ++i) {
                                   ++hits[static_cast<size_t>(
                                       o * 64 + i)];
                               }
                           });
        }
    });
    for (int h : hits) {
        ASSERT_EQ(h, 1);
    }
}

TEST(Runtime, EnvVariableControlsDefaultThreadCount)
{
    ASSERT_EQ(setenv("EDKM_NUM_THREADS", "3", 1), 0);
    EXPECT_EQ(runtime::Runtime::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("EDKM_NUM_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(runtime::Runtime::defaultThreadCount(), 1);
    ASSERT_EQ(setenv("EDKM_NUM_THREADS", "1", 1), 0);
    EXPECT_EQ(runtime::Runtime::defaultThreadCount(), 1);
    unsetenv("EDKM_NUM_THREADS");
    EXPECT_GE(runtime::Runtime::defaultThreadCount(), 1);
}

TEST(Runtime, SetThreadCountSwapsPool)
{
    ThreadCountScope scope(5);
    EXPECT_EQ(runtime::Runtime::instance().threadCount(), 5);
    runtime::Runtime::instance().setThreadCount(2);
    EXPECT_EQ(runtime::Runtime::instance().threadCount(), 2);
}

TEST(Runtime, SerialGuardKeepsWorkOnCallingThread)
{
    ThreadCountScope scope(8);
    std::thread::id caller = std::this_thread::get_id();
    runtime::SerialGuard guard;
    EXPECT_TRUE(runtime::SerialGuard::active());
    runtime::parallelFor(0, 10000, 10, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(Runtime, ParallelReduceMatchesSerialBitExactly)
{
    // Float accumulation is order-sensitive: identical results across
    // thread counts prove the combine order really is fixed.
    Rng rng(21);
    std::vector<float> xs(100000);
    for (float &x : xs) {
        x = rng.uniform(-1.0f, 1.0f);
    }
    auto reduce = [&] {
        return runtime::parallelReduce<float>(
            0, static_cast<int64_t>(xs.size()), 1009, 0.0f,
            [&](int64_t b, int64_t e) {
                float s = 0.0f;
                for (int64_t i = b; i < e; ++i) {
                    s += xs[static_cast<size_t>(i)];
                }
                return s;
            },
            [](float a, float b) { return a + b; });
    };
    float serial_sum;
    {
        runtime::SerialGuard guard;
        serial_sum = reduce();
    }
    ThreadCountScope scope(8);
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(reduce(), serial_sum);
    }
}

// ---------------------------------------------------------------------
// Serial-vs-parallel determinism of the clustering stack.
// ---------------------------------------------------------------------

class RuntimeDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
        Rng rng(31);
        w = Tensor::randn({4096}, rng, Device::cpu(), 0.02f)
                .to(DType::kBf16)
                .to(DType::kF32);
        Rng up(32);
        upstream = Tensor::randn({4096}, up);
    }

    static void
    expectBitIdentical(const Tensor &a, const Tensor &b)
    {
        ASSERT_EQ(a.shape(), b.shape());
        std::vector<float> va = a.toVector(), vb = b.toVector();
        for (size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(va[i], vb[i]) << "element " << i << " differs";
        }
    }

    Tensor w;
    Tensor upstream;
};

TEST_F(RuntimeDeterminism, KmeansIdenticalSerialVs8Threads)
{
    std::vector<float> values = w.toVector();
    KMeansResult serial_r, parallel_r;
    {
        runtime::SerialGuard guard;
        Rng rng(7);
        serial_r = kmeans1d(values, {}, 16, rng, 10);
    }
    {
        ThreadCountScope scope(8);
        Rng rng(7);
        parallel_r = kmeans1d(values, {}, 16, rng, 10);
    }
    EXPECT_EQ(serial_r.centroids, parallel_r.centroids);
    EXPECT_EQ(serial_r.assignments, parallel_r.assignments);
    EXPECT_EQ(serial_r.inertia, parallel_r.inertia);
    EXPECT_EQ(serial_r.iterations, parallel_r.iterations);
}

TEST_F(RuntimeDeterminism, DkmIdenticalSerialVs8Threads)
{
    DkmConfig cfg;
    cfg.bits = 3;
    cfg.maxIters = 4;
    cfg.temperature = 2e-4f;
    auto run_once = [&] {
        DkmLayer layer(cfg);
        Variable wv(w.clone(), true);
        Variable out = layer.forward(wv);
        Variable loss =
            af::sumAll(af::mul(out, af::constant(upstream)));
        backward(loss);
        return std::make_pair(out.data(), wv.grad());
    };
    Tensor serial_out, serial_grad;
    {
        runtime::SerialGuard guard;
        std::tie(serial_out, serial_grad) = run_once();
    }
    ThreadCountScope scope(8);
    auto [par_out, par_grad] = run_once();
    expectBitIdentical(serial_out, par_out);
    expectBitIdentical(serial_grad, par_grad);
}

TEST_F(RuntimeDeterminism, EdkmIdenticalSerialVs8ThreadsAllModes)
{
    // The fixture's 4096 weights fit in one backward chunk; the larger
    // input spans many, with thousands of unique values.
    Rng rng(33);
    Tensor w_big = Tensor::randn({int64_t{1} << 16}, rng, Device::cpu(),
                                 0.02f)
                       .to(DType::kBf16)
                       .to(DType::kF32);
    Tensor up_big = Tensor::randn({int64_t{1} << 16}, rng);
    auto group = std::make_shared<LearnerGroup>(4);
    for (const auto &input :
         {std::make_pair(w, upstream), std::make_pair(w_big, up_big)}) {
        const Tensor &weights = input.first;
        const Tensor &grads = input.second;
        for (bool uniq : {true, false}) {
            for (bool shard : {false, true}) {
                for (auto mode : {EdkmConfig::BackwardMode::kReconstruct,
                                  EdkmConfig::BackwardMode::kFused}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "n=" << weights.numel() << " U=" << uniq
                                 << " S=" << shard << " mode="
                                 << static_cast<int>(mode));
                    EdkmConfig cfg;
                    cfg.dkm.bits = 3;
                    cfg.dkm.maxIters = 3;
                    cfg.dkm.temperature = 2e-4f;
                    cfg.uniquify = uniq;
                    cfg.shard = shard;
                    cfg.backwardMode = mode;
                    auto run_once = [&] {
                        EdkmLayer layer(cfg, group);
                        Variable wv(weights.clone(), true);
                        Variable out = layer.forward(wv);
                        Variable loss =
                            af::sumAll(af::mul(out, af::constant(grads)));
                        backward(loss);
                        return std::make_pair(out.data(), wv.grad());
                    };
                    Tensor serial_out, serial_grad;
                    {
                        runtime::SerialGuard guard;
                        std::tie(serial_out, serial_grad) = run_once();
                    }
                    ThreadCountScope scope(8);
                    auto [par_out, par_grad] = run_once();
                    expectBitIdentical(serial_out, par_out);
                    expectBitIdentical(serial_grad, par_grad);
                }
            }
        }
    }
}

TEST_F(RuntimeDeterminism, UniquifyIdenticalSerialVs8Threads)
{
    UniqueDecomposition serial_dec, parallel_dec;
    {
        runtime::SerialGuard guard;
        serial_dec = uniquify(w, HalfKind::kBf16);
    }
    {
        ThreadCountScope scope(8);
        parallel_dec = uniquify(w, HalfKind::kBf16);
    }
    EXPECT_EQ(serial_dec.values, parallel_dec.values);
    EXPECT_EQ(serial_dec.counts, parallel_dec.counts);
    EXPECT_EQ(serial_dec.indexList.toIntVector(),
              parallel_dec.indexList.toIntVector());
}

} // namespace
} // namespace edkm
