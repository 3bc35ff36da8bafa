#include "kernels/kernels.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "kernels/kernels_impl.h"
#include "util/logging.h"

namespace edkm {
namespace kernels {

#if defined(EDKM_HAVE_AVX2)
const KernelTable &avx2KernelTable(); // defined in kernels_avx2.cc
#endif
#if defined(EDKM_HAVE_AVX512)
const KernelTable &avx512KernelTable(); // defined in kernels_avx512.cc
#endif
#if defined(EDKM_HAVE_NEON)
const KernelTable &neonKernelTable(); // defined in kernels_neon.cc
#endif

namespace {

const KernelTable &
scalarKernelTable()
{
    static const KernelTable t =
        impl::makeKernelTable<ScalarTag>(Backend::kScalar);
    return t;
}

/** True when the running CPU can execute @p b (build support aside). */
bool
cpuSupports(Backend b)
{
    switch (b) {
    case Backend::kScalar:
        return true;
    case Backend::kAvx2:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case Backend::kAvx512:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
        // avx512f is the only feature the backend's intrinsics need
        // (and it implies avx2 for the ReduceTag reduction path).
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__) || defined(__ARM_NEON)
        return true; // NEON is architectural on aarch64
#else
        return false;
#endif
    }
    return false;
}

/** Compiled-in + CPU-supported check. */
bool
backendUsable(Backend b)
{
    switch (b) {
    case Backend::kScalar:
        return true;
    case Backend::kAvx2:
#if defined(EDKM_HAVE_AVX2)
        return cpuSupports(Backend::kAvx2);
#else
        return false;
#endif
    case Backend::kAvx512:
#if defined(EDKM_HAVE_AVX512)
        return cpuSupports(Backend::kAvx512);
#else
        return false;
#endif
    case Backend::kNeon:
#if defined(EDKM_HAVE_NEON)
        return cpuSupports(Backend::kNeon);
#else
        return false;
#endif
    }
    return false;
}

std::string
lowered(const char *s)
{
    std::string out;
    for (; *s; ++s) {
        out.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(*s))));
    }
    return out;
}

/** Best usable backend in priority order (all bit-identical, so this
 *  is purely a speed preference). */
Backend
bestBackend()
{
    if (backendUsable(Backend::kAvx512)) {
        return Backend::kAvx512;
    }
    if (backendUsable(Backend::kAvx2)) {
        return Backend::kAvx2;
    }
    if (backendUsable(Backend::kNeon)) {
        return Backend::kNeon;
    }
    return Backend::kScalar;
}

/** Resolve the process-wide backend once: EDKM_SIMD env override, then
 *  the best usable backend. A pinned backend that is unusable (build or
 *  CPU) falls back gracefully — to the best available one, with a
 *  warning — because every backend is bit-identical anyway. */
Backend
resolveBackend()
{
    if (const char *env = std::getenv("EDKM_SIMD")) {
        std::string v = lowered(env);
        if (v == "off" || v == "0" || v == "scalar" || v == "false") {
            return Backend::kScalar;
        }
        if (v == "avx2") {
            if (backendUsable(Backend::kAvx2)) {
                return Backend::kAvx2;
            }
            warn("EDKM_SIMD=avx2 requested but AVX2 is unavailable "
                 "(build or CPU); falling back to scalar kernels");
            return Backend::kScalar;
        }
        if (v == "avx512") {
            if (backendUsable(Backend::kAvx512)) {
                return Backend::kAvx512;
            }
            Backend best = bestBackend();
            warn("EDKM_SIMD=avx512 requested but AVX-512 is unavailable "
                 "(build or CPU); falling back to ", backendName(best),
                 " kernels (bit-identical)");
            return best;
        }
        if (v == "neon") {
            if (backendUsable(Backend::kNeon)) {
                return Backend::kNeon;
            }
            warn("EDKM_SIMD=neon requested but NEON is unavailable "
                 "(build or CPU); falling back to scalar kernels");
            return Backend::kScalar;
        }
        if (v != "on" && v != "auto" && v != "1") {
            warn("EDKM_SIMD='", env, "' not recognised; using auto");
        }
    }
    return bestBackend();
}

} // namespace

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::kScalar:
        return "scalar";
    case Backend::kAvx2:
        return "avx2";
    case Backend::kAvx512:
        return "avx512";
    case Backend::kNeon:
        return "neon";
    }
    return "unknown";
}

const KernelTable &
table(Backend b)
{
    if (!backendUsable(b)) {
        return scalarKernelTable();
    }
    switch (b) {
#if defined(EDKM_HAVE_AVX2)
    case Backend::kAvx2:
        return avx2KernelTable();
#endif
#if defined(EDKM_HAVE_AVX512)
    case Backend::kAvx512:
        return avx512KernelTable();
#endif
#if defined(EDKM_HAVE_NEON)
    case Backend::kNeon:
        return neonKernelTable();
#endif
    default:
        return scalarKernelTable();
    }
}

const KernelTable &
active()
{
    static const KernelTable &t = table(resolveBackend());
    return t;
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> out = {Backend::kScalar};
    if (backendUsable(Backend::kAvx2)) {
        out.push_back(Backend::kAvx2);
    }
    if (backendUsable(Backend::kAvx512)) {
        out.push_back(Backend::kAvx512);
    }
    if (backendUsable(Backend::kNeon)) {
        out.push_back(Backend::kNeon);
    }
    return out;
}

void
gatherRowsU16(const float *table, int64_t k, const uint16_t *idx,
              int64_t n, float *out)
{
    // Coalesce runs of consecutive source rows into one memcpy: unique
    // index lists from uniquify frequently visit neighbouring buckets.
    int64_t i = 0;
    while (i < n) {
        int64_t run = 1;
        while (i + run < n && idx[i + run] == idx[i + run - 1] + 1) {
            ++run;
        }
        std::memcpy(out + i * k, table + static_cast<int64_t>(idx[i]) * k,
                    static_cast<size_t>(run * k) * sizeof(float));
        i += run;
    }
}

void
gatherU16(const float *src, const uint16_t *idx, int64_t n, float *out)
{
    for (int64_t i = 0; i < n; ++i) {
        out[i] = src[idx[i]];
    }
}

} // namespace kernels
} // namespace edkm
