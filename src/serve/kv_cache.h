/**
 * @file
 * Per-request key/value cache for incremental decode.
 *
 * A KvCache holds one K and one V tensor per transformer layer, shaped
 * [groups, capacity, head_dim] (groups == heads: one cache per
 * request). Rows [0, position) hold the rope'd keys and raw values of
 * every token run so far; position advances once per engine call, by
 * the request's segment length, after all layers have written their
 * rows.
 *
 * The cache is plain bookkeeping: it never computes. The engine writes
 * a segment's rows through write() and attends over slices of k()/v()
 * via nn::attentionChunk, for a prefill chunk and a one-position
 * decode step alike. Capacity is fixed at construction — writing past
 * it throws a FatalError naming the capacity, which is the overflow
 * contract tests/test_serve.cc pins.
 *
 * Not thread-safe; a cache belongs to exactly one engine (which itself
 * belongs to one serving thread).
 */

#ifndef EDKM_SERVE_KV_CACHE_H_
#define EDKM_SERVE_KV_CACHE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace edkm {
namespace serve {

class KvCache
{
  public:
    /**
     * Allocate zeroed K/V tensors for @p layers layers of @p groups
     * attention groups, @p head_dim wide, with room for @p capacity
     * token positions.
     */
    KvCache(int64_t layers, int64_t groups, int64_t head_dim,
            int64_t capacity);

    int64_t layers() const { return static_cast<int64_t>(k_.size()); }
    int64_t groups() const { return groups_; }
    int64_t headDim() const { return head_dim_; }
    int64_t capacity() const { return capacity_; }

    /** Token positions filled so far (== the next write position). */
    int64_t position() const { return pos_; }

    /** Heap bytes pinned by the K and V tensors together. */
    int64_t bytes() const;

    /** Layer @p layer's key rows, [groups, capacity, head_dim]. */
    const Tensor &k(int64_t layer) const;
    /** Layer @p layer's value rows, [groups, capacity, head_dim]. */
    const Tensor &v(int64_t layer) const;

    /**
     * Write @p k / @p v — contiguous [groups, n, head_dim] f32 tensors —
     * into rows [position(), position()+n) of layer @p layer. Every
     * layer writes the same positions; advance() moves the position
     * once all layers have. Throws FatalError (naming the capacity)
     * when the rows would run past the end of the cache.
     */
    void write(int64_t layer, const Tensor &k, const Tensor &v);

    /** Advance the position by @p n token(s); bounds-checked. */
    void advance(int64_t n);

    /** Forget all cached positions (capacity and storage are kept). */
    void reset() { pos_ = 0; }

  private:
    int64_t groups_ = 0;
    int64_t head_dim_ = 0;
    int64_t capacity_ = 0;
    int64_t pos_ = 0;
    std::vector<Tensor> k_, v_;
};

} // namespace serve
} // namespace edkm

#endif // EDKM_SERVE_KV_CACHE_H_
