/**
 * @file
 * edkm::kernels — vectorized inner kernels with runtime backend dispatch.
 *
 * Every function here operates on raw contiguous f32 buffers (callers —
 * mostly tensor/ops.cc and the clustering core — handle layout/dtype).
 * A `KernelTable` is one backend's full set of kernels; the scalar
 * reference table is always available, and AVX2 / AVX-512 / NEON tables
 * are linked in when the build enables them (CMake option `EDKM_SIMD`,
 * default ON).
 *
 * Backend selection happens once per process in `active()`:
 *   1. `EDKM_SIMD=off|scalar|0` (env) forces the scalar reference;
 *      `avx2|avx512|neon` pins a specific backend (falling back to the
 *      best available one, with a warning, when it is unusable).
 *   2. Otherwise the best compiled-in backend the CPU supports wins
 *      (avx512 > avx2 > neon > scalar).
 *
 * Numerics contract: all backends are **bit-identical** — elementwise
 * kernels map 1:1 onto IEEE single ops, and reductions use the fixed
 * virtual accumulator width `kAccLanes` (see simd.h) regardless of the
 * hardware lane count. Switching backends (or disabling SIMD) never
 * changes results; combined with the runtime layer's chunk-determinism
 * this keeps clustering output bit-identical across thread counts too.
 *
 * exp-family kernels (`expv`, `siluv`, `sigmoidv`, the softmax/attention
 * row kernels) use a shared degree-5 polynomial expf (Cephes-style,
 * ~2 ulp, saturating at exp(88), flushing to 0 below exp(-87.34), and
 * propagating NaN) — identical across backends, slightly different from
 * libm's std::exp.
 */

#ifndef EDKM_KERNELS_KERNELS_H_
#define EDKM_KERNELS_KERNELS_H_

#include <cstdint>
#include <vector>

namespace edkm {
namespace kernels {

/** Virtual accumulator lane count shared by every backend. Reductions
 *  (dot, sum, max) accumulate into kAccLanes independent slots — slot l
 *  holds elements with index ≡ l (mod kAccLanes) — then fold the slots
 *  in ascending lane order, then fold the tail in element order. */
constexpr int kAccLanes = 8;

enum class Backend
{
    kScalar,
    kAvx2,
    kAvx512,
    kNeon,
};

/** Human-readable backend name ("scalar", "avx2", "avx512", "neon"). */
const char *backendName(Backend b);

/**
 * Random-access read of one @p bits-wide value of a packBits
 * little-endian bitstream (bits in [1, 16]) starting at raw bit offset
 * @p bitpos. Touches only the bytes holding the value, so it is safe up
 * to the last element of a minimally-sized stream. The hot fused-decode
 * loops use this form directly with incrementally maintained bit
 * offsets, avoiding a 64-bit multiply per extracted index.
 */
inline int32_t
unpackBitsAtBit(const uint8_t *stream, int bits, int64_t bitpos)
{
    int64_t byte = bitpos >> 3;
    int off = static_cast<int>(bitpos & 7);
    uint32_t acc = static_cast<uint32_t>(stream[byte]) >> off;
    int got = 8 - off;
    while (got < bits) {
        ++byte;
        acc |= static_cast<uint32_t>(stream[byte]) << got;
        got += 8;
    }
    return static_cast<int32_t>(acc & ((1u << bits) - 1u));
}

/**
 * Random-access read of the @p i-th @p bits-wide value of a packBits
 * stream (element-index form of unpackBitsAtBit). Lives in the kernels
 * layer so the fused palette-decode kernels can walk index streams
 * without a dependency on core/; core/palettize.h re-exports it as
 * `edkm::unpackBitsAt`.
 */
inline int32_t
unpackBitsAt(const uint8_t *stream, int bits, int64_t i)
{
    return unpackBitsAtBit(stream, bits, i * bits);
}

/**
 * Signature of the fused palettized dot-product kernels: one [1,k] x
 * [k,cols] product read straight off a packed LUT+index weight. @p x is
 * the k-long input row; the weight is a [rows, k] palettized matrix
 * whose n-bit indices are packBits-packed row-major (element (r, p) at
 * stream position r*k + p), decoded through the 2^bits-entry @p lut.
 * Writes out[j] = sum_p x[p] * lut[idx(col0 + j, p)] for j in
 * [0, cols).
 */
using PaletteDotFn = void (*)(const float *x, int64_t k,
                              const uint8_t *packed, int bits,
                              const float *lut, int64_t col0,
                              int64_t cols, float *out);

/**
 * One backend's kernels. All pointers are non-null; buffers must be
 * valid for the stated lengths, and in/out may alias only when noted.
 */
struct KernelTable
{
    Backend backend;

    // ---- elementwise binary: o[i] = a[i] OP b[i] ----
    void (*add)(const float *a, const float *b, float *o, int64_t n);
    void (*sub)(const float *a, const float *b, float *o, int64_t n);
    void (*mul)(const float *a, const float *b, float *o, int64_t n);
    void (*div)(const float *a, const float *b, float *o, int64_t n);

    // ---- elementwise unary / scalar-parameter ----
    void (*scale)(const float *a, float s, float *o, int64_t n);
    void (*offset)(const float *a, float s, float *o, int64_t n);
    void (*negate)(const float *a, float *o, int64_t n);
    void (*absval)(const float *a, float *o, int64_t n);
    void (*squarev)(const float *a, float *o, int64_t n);
    void (*sqrtv)(const float *a, float *o, int64_t n);
    void (*reluv)(const float *a, float *o, int64_t n);
    void (*clampv)(const float *a, float lo, float hi, float *o,
                   int64_t n);
    void (*expv)(const float *a, float *o, int64_t n);
    void (*siluv)(const float *a, float *o, int64_t n);
    void (*sigmoidv)(const float *a, float *o, int64_t n);

    /** o[i] += s * a[i] (o accumulates in place). */
    void (*axpy)(const float *a, float s, float *o, int64_t n);

    // ---- reductions (virtual kAccLanes accumulator semantics) ----
    float (*reduceMax)(const float *a, int64_t n);
    float (*dot)(const float *a, const float *b, int64_t n);

    // ---- blocked matvec micro-kernel ----
    /** y[i] = dot(a[i*k .. i*k+k), x) for i in [0, rows). (The former
     *  vecmat sibling was retired when matmul's m==1 path switched to
     *  the row-shape-invariant axpy column loop.) */
    void (*matvec)(const float *a, int64_t rows, int64_t k,
                   const float *x, float *y);

    // ---- fused rows ----
    /** Row-softmax in place-able form: o[r,:] = softmax(a[r,:]) for
     *  r in [0, rows), row length k. a == o allowed. */
    void (*softmaxRows)(const float *a, int64_t rows, int64_t k,
                        float *o);
    /** Fused attention table: o[r,j] = softmax_j((u[r]-c[j])^2 * nis)
     *  with nis = -1/tau. One pass, no intermediates. */
    void (*attentionRows)(const float *u, int64_t rows, const float *c,
                          int64_t k, float neg_inv_tau, float *o);
    /** o[r,j] = |u[r] - c[j]| (the cdist1d forward). */
    void (*absDiffRows)(const float *u, int64_t rows, const float *c,
                        int64_t k, float *o);

    // ---- fused palettized decode (the m==1 serving hot path) ----
    /** Walk packed indices -> LUT gathers -> multiply-accumulate, no
     *  dense staging buffer. Replays the staged decode-then-axpy path's
     *  exact per-element FP sequence — ascending p, skip x[p] == 0.0f,
     *  separate IEEE mul then add — and maps vector lanes to
     *  *independent output columns*, so the result is bit-identical to
     *  the staged path on every backend at any hardware width. */
    PaletteDotFn paletteDotFused;
    /** Fused distance+argmin against ascending-sorted @p c: out[i] is
     *  the index minimising |v[i] - c[j]|, lowest index on ties —
     *  bit-compatible with the binary-search nearestCentroid. */
    void (*nearestRows)(const float *v, int64_t n, const float *c,
                        int64_t k, int32_t *out);

    // ---- optimizer ----
    /** One AdamW element-update over [0, n): identical formula to the
     *  reference scalar loop in nn/adamw.cc. */
    void (*adamwStep)(float *p, float *m, float *v, const float *g,
                      int64_t n, float lr, float beta1, float beta2,
                      float eps, float weight_decay, float bc1,
                      float bc2);
};

/** The backend the process resolved to (env + CPU + build). */
const KernelTable &active();

/** A specific backend's table; falls back to scalar when @p b was not
 *  compiled in or the CPU lacks it. */
const KernelTable &table(Backend b);

/** Backends usable in this process (always contains kScalar). */
std::vector<Backend> availableBackends();

// ----------------------------------------------------------------------
// Layout helpers with no per-backend variance.
// ----------------------------------------------------------------------

/** Gather rows: out[i,:] = table[idx[i],:] (row length k), coalescing
 *  runs of consecutive source rows into single memcpy calls. */
void gatherRowsU16(const float *table, int64_t k, const uint16_t *idx,
                   int64_t n, float *out);

/** Gather scalars: out[i] = src[idx[i]]. */
void gatherU16(const float *src, const uint16_t *idx, int64_t n,
               float *out);

} // namespace kernels
} // namespace edkm

#endif // EDKM_KERNELS_KERNELS_H_
