/**
 * @file
 * kUnallocatableNewTokens new tokens on the tiny 2-layer test models ask
 * for a KV cache of about 140 TB, over the x86-64 address space, so the
 * allocation fails without touching memory. Uninstrumented builds see
 * std::bad_alloc; ASan and TSan abort on a failed throwing `new`
 * instead, so tests run those cases only when kAllocFailureThrows.
 */

#ifndef EDKM_TESTS_ALLOC_FAILURE_H_
#define EDKM_TESTS_ALLOC_FAILURE_H_

#include <cstdint>

namespace edkm {
namespace test {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kAllocFailureThrows = false;
#else
inline constexpr bool kAllocFailureThrows = true;
#endif
inline constexpr int64_t kUnallocatableNewTokens = int64_t{1} << 40;

} // namespace test
} // namespace edkm

#endif // EDKM_TESTS_ALLOC_FAILURE_H_
