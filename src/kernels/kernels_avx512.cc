// AVX-512 backend instantiation. This TU is compiled with -mavx512f
// (and the EDKM_COMPILE_AVX512 definition) only when the build host
// targets x86, the compiler knows the flag and the EDKM_SIMD CMake
// option allows it; otherwise it compiles to nothing. The library-wide
// -ffp-contract=off matters here: -mavx512f drags in FMA, and the
// scalar tail loops of the shared kernel templates must not be
// contracted into fused multiply-adds or this backend would break the
// bit-identity contract. Dispatch in kernels.cc additionally checks
// cpuid (avx512f) at runtime before ever calling into this table.
//
// Elementwise kernels run 16 lanes wide; reductions go through the
// 8-lane ReduceTag mapping (simd.h) so the virtual kAccLanes
// accumulator keeps its shape.

#if defined(EDKM_COMPILE_AVX512) && defined(__AVX512F__)

// GCC's _mm512_undefined_* self-initialise on purpose ("__Y = __Y"),
// which -Wmaybe-uninitialized reports once inlined via simd.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include "kernels/kernels_impl.h"

namespace edkm {
namespace kernels {

const KernelTable &
avx512KernelTable()
{
    static const KernelTable t =
        impl::makeKernelTable<Avx512Tag>(Backend::kAvx512);
    return t;
}

} // namespace kernels
} // namespace edkm

#pragma GCC diagnostic pop

#endif // EDKM_COMPILE_AVX512 && __AVX512F__
