/**
 * @file
 * Randomized differential harness for the fused palettized decode
 * kernel and cross-backend kernel equivalence.
 *
 * Sweeps seeded random shapes (k, n, bits in {2,3,4}, column alignment
 * offsets, tail lengths not divisible by 8/16) and asserts, via raw
 * float-bit comparison:
 *   - fused kernel vs an independent scalar reference reimplementation,
 *   - every available backend vs the scalar dispatch table (the loops
 *     are table-driven over availableBackends(), so a newly added
 *     backend — e.g. AVX-512 — gets coverage with no test changes),
 *   - fused vs staged paletteMatmulT vs the dense matmul reference,
 *   - 1-thread vs 8-thread decode determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/palettize.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
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

/** Random input row with exact zeros sprinkled in (the fused kernel
 *  must replay the staged path's zero skip). */
std::vector<float>
randomRow(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (float &x : v) {
        x = rng.uniform(0.0, 1.0) < 0.2 ? 0.0f
                                        : static_cast<float>(
                                              rng.uniform(-3.0, 3.0));
    }
    return v;
}

struct PackedWeight
{
    int64_t rows;
    int64_t k;
    int bits;
    std::vector<float> lut;
    std::vector<uint8_t> packed;
};

PackedWeight
randomPackedWeight(int64_t rows, int64_t k, int bits, uint64_t seed)
{
    Rng rng(seed);
    PackedWeight w;
    w.rows = rows;
    w.k = k;
    w.bits = bits;
    int lut_n = 1 << bits;
    w.lut.resize(static_cast<size_t>(lut_n));
    for (float &c : w.lut) {
        c = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    std::vector<int32_t> idx(static_cast<size_t>(rows * k));
    for (int32_t &i : idx) {
        i = static_cast<int32_t>(rng.randint(0, lut_n - 1));
    }
    w.packed = packBits(idx, bits);
    return w;
}

/** Independent scalar reference: the staged m==1 contract per element —
 *  ascending p, skip x[p] == 0.0f, separate IEEE mul then add. */
std::vector<float>
referenceDot(const std::vector<float> &x, const PackedWeight &w,
             int64_t col0, int64_t cols)
{
    std::vector<float> out(static_cast<size_t>(cols));
    for (int64_t j = 0; j < cols; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < w.k; ++p) {
            float xv = x[static_cast<size_t>(p)];
            if (xv == 0.0f) {
                continue;
            }
            int32_t id = unpackBitsAt(w.packed.data(), w.bits,
                                      (col0 + j) * w.k + p);
            acc = acc + xv * w.lut[static_cast<size_t>(id)];
        }
        out[static_cast<size_t>(j)] = acc;
    }
    return out;
}

void
expectBitsEqual(const std::vector<float> &a, const std::vector<float> &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(float)))
        << what;
}

std::vector<float>
tensorBits(const Tensor &t)
{
    return t.toVector();
}

// ---------------------------------------------------------------------
// Fused kernel vs scalar reference, every backend, randomized shapes.
// ---------------------------------------------------------------------

TEST(KernelEquivalence, FusedMatchesReferenceOnEveryBackend)
{
    // Tail lengths deliberately not divisible by 8 or 16, plus
    // exact-lane and sub-lane cases.
    const int64_t kDims[] = {1, 3, 8, 17, 64, 129};
    const int64_t kCols[] = {1, 2, 7, 9, 15, 16, 17, 31, 33, 157};
    const int bitsList[] = {2, 3, 4};
    uint64_t seed = 1234;
    for (int bits : bitsList) {
        for (int64_t k : kDims) {
            for (int64_t cols : kCols) {
                PackedWeight w = randomPackedWeight(cols, k, bits,
                                                    ++seed);
                std::vector<float> x = randomRow(k, ++seed);
                std::vector<float> ref = referenceDot(x, w, 0, cols);
                for (auto b : kernels::availableBackends()) {
                    const kernels::KernelTable &kt = kernels::table(b);
                    std::vector<float> got(static_cast<size_t>(cols),
                                           -1.0f);
                    kt.paletteDotFused(x.data(), k, w.packed.data(),
                                       bits, w.lut.data(), 0, cols,
                                       got.data());
                    expectBitsEqual(
                        ref, got,
                        std::string("fused vs reference, backend=") +
                            kernels::backendName(b) + " bits=" +
                            std::to_string(bits) + " k=" +
                            std::to_string(k) + " cols=" +
                            std::to_string(cols));
                }
            }
        }
    }
}

TEST(KernelEquivalence, FusedColumnOffsetsAndPartialRanges)
{
    // col0 offsets exercise unaligned bitstream starts: with bits=3 and
    // k=33 a column's bit offset takes every value mod 8 across rows.
    PackedWeight w = randomPackedWeight(/*rows=*/64, /*k=*/33,
                                        /*bits=*/3, 99);
    std::vector<float> x = randomRow(33, 77);
    const int64_t offsets[] = {0, 1, 3, 5, 8, 13};
    for (int64_t col0 : offsets) {
        for (int64_t cols : {int64_t{1}, int64_t{9}, int64_t{17},
                             64 - col0}) {
            if (col0 + cols > w.rows) {
                continue;
            }
            std::vector<float> ref = referenceDot(x, w, col0, cols);
            for (auto b : kernels::availableBackends()) {
                std::vector<float> got(static_cast<size_t>(cols));
                kernels::table(b).paletteDotFused(
                    x.data(), w.k, w.packed.data(), w.bits,
                    w.lut.data(), col0, cols, got.data());
                expectBitsEqual(
                    ref, got,
                    std::string("fused offset col0=") +
                        std::to_string(col0) + " cols=" +
                        std::to_string(cols) + " backend=" +
                        kernels::backendName(b));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fused vs staged vs dense paletteMatmulT, tensor level.
// ---------------------------------------------------------------------

TEST(KernelEquivalence, FusedVsStagedVsDenseMatmul)
{
    struct Geometry
    {
        int64_t in, out;
    };
    const Geometry geoms[] = {{17, 9}, {64, 64}, {129, 33}, {8, 157}};
    const int bitsList[] = {2, 3, 4};
    uint64_t seed = 4321;
    for (int bits : bitsList) {
        for (const Geometry &g : geoms) {
            Rng rng(++seed);
            int lut_n = 1 << bits;
            std::vector<float> lut(static_cast<size_t>(lut_n));
            for (float &c : lut) {
                c = static_cast<float>(rng.uniform(-1.5, 1.5));
            }
            std::vector<int32_t> assign(
                static_cast<size_t>(g.in * g.out));
            for (int32_t &a : assign) {
                a = static_cast<int32_t>(rng.randint(0, lut_n - 1));
            }
            PalettizedTensor p = PalettizedTensor::fromAssignments(
                {g.out, g.in}, lut, assign, bits);
            PaletteView v = viewOf(p);

            std::vector<float> xv = randomRow(g.in, ++seed);
            Tensor x = Tensor::fromVector(xv, {1, g.in});

            int64_t calls0 = paletteFusedCalls();
            Tensor fused = paletteMatmulT(x, v);
            int64_t calls1 = paletteFusedCalls();
            if (g.out > 1) {
                EXPECT_EQ(calls1, calls0 + 1)
                    << "fused path not taken for out=" << g.out;
            }
            Tensor staged = paletteMatmulTStaged(x, v);
            Tensor dense = matmul(x, p.decompress().transpose(0, 1));

            expectBitsEqual(tensorBits(staged), tensorBits(fused),
                            "fused vs staged");
            expectBitsEqual(tensorBits(dense), tensorBits(fused),
                            "fused vs dense matmul");
        }
    }
}

TEST(KernelEquivalence, FusedPathFallbacks)
{
    PackedWeight w = randomPackedWeight(24, 16, 3, 5150);
    PalettizedTensor p;
    {
        Rng rng(5151);
        std::vector<int32_t> assign(24 * 16);
        for (int32_t &a : assign) {
            a = static_cast<int32_t>(rng.randint(0, 7));
        }
        p = PalettizedTensor::fromAssignments({24, 16}, w.lut, assign,
                                              3);
    }
    PaletteView v = viewOf(p);

    // m > 1 goes staged: the fused counter must not move.
    Tensor x2 = Tensor::fromVector(randomRow(32, 6), {2, 16});
    int64_t c0 = paletteFusedCalls();
    Tensor viaM2 = paletteMatmulT(x2, v);
    EXPECT_EQ(paletteFusedCalls(), c0);

    // out == 1 goes staged (matvec accumulation order differs).
    PalettizedTensor p1;
    {
        Rng rng(5152);
        std::vector<int32_t> assign(16);
        for (int32_t &a : assign) {
            a = static_cast<int32_t>(rng.randint(0, 7));
        }
        p1 = PalettizedTensor::fromAssignments({1, 16}, w.lut, assign,
                                               3);
    }
    Tensor x1 = Tensor::fromVector(randomRow(16, 7), {1, 16});
    c0 = paletteFusedCalls();
    Tensor via1 = paletteMatmulT(x1, viewOf(p1));
    EXPECT_EQ(paletteFusedCalls(), c0);
}

// ---------------------------------------------------------------------
// Thread-count determinism of the fused decode.
// ---------------------------------------------------------------------

TEST(KernelEquivalence, FusedDecodeThreadCountInvariant)
{
    Rng rng(31337);
    const int64_t in = 256, out = 301;
    const int bits = 4;
    std::vector<float> lut(16);
    for (float &c : lut) {
        c = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    std::vector<int32_t> assign(static_cast<size_t>(in * out));
    for (int32_t &a : assign) {
        a = static_cast<int32_t>(rng.randint(0, 15));
    }
    PalettizedTensor p = PalettizedTensor::fromAssignments(
        {out, in}, lut, assign, bits);
    PaletteView v = viewOf(p);
    Tensor x = Tensor::fromVector(randomRow(in, 404), {1, in});

    std::vector<float> serial, threaded;
    {
        ThreadCountScope s(1);
        serial = tensorBits(paletteMatmulT(x, v));
    }
    {
        ThreadCountScope s(8);
        threaded = tensorBits(paletteMatmulT(x, v));
    }
    expectBitsEqual(serial, threaded, "1 vs 8 threads, fused decode");
}

// ---------------------------------------------------------------------
// Cross-backend randomized sweep of the other hot kernels (complements
// the static-size loops in test_kernels.cc; table-driven so new
// backends are covered for free).
// ---------------------------------------------------------------------

TEST(KernelEquivalence, RandomizedShapesAcrossBackends)
{
    const kernels::KernelTable &sc =
        kernels::table(kernels::Backend::kScalar);
    Rng shapes(2025);
    for (int round = 0; round < 12; ++round) {
        int64_t n = 1 + static_cast<int64_t>(shapes.randint(0, 299));
        int64_t rows = 1 + static_cast<int64_t>(shapes.randint(0, 16));
        std::vector<float> a = randomRow(rows * n, 900 + round);
        std::vector<float> b = randomRow(n, 1900 + round);
        for (auto be : kernels::availableBackends()) {
            const kernels::KernelTable &kt = kernels::table(be);
            std::string tag = std::string(kernels::backendName(be)) +
                              " n=" + std::to_string(n);

            EXPECT_EQ(sc.dot(a.data(), b.data(), n),
                      kt.dot(a.data(), b.data(), n))
                << "dot " << tag;
            EXPECT_EQ(sc.reduceMax(a.data(), n),
                      kt.reduceMax(a.data(), n))
                << "reduceMax " << tag;

            std::vector<float> y0(static_cast<size_t>(rows));
            std::vector<float> y1(static_cast<size_t>(rows));
            sc.matvec(a.data(), rows, n, b.data(), y0.data());
            kt.matvec(a.data(), rows, n, b.data(), y1.data());
            expectBitsEqual(y0, y1, "matvec " + tag);

            std::vector<float> o0 = b, o1 = b;
            sc.axpy(a.data(), 1.375f, o0.data(), n);
            kt.axpy(a.data(), 1.375f, o1.data(), n);
            expectBitsEqual(o0, o1, "axpy " + tag);
        }
    }
}

} // namespace
} // namespace edkm
