/**
 * @file
 * Zero-copy serving engine over a saved model artifact.
 *
 * InferenceEngine runs the MiniLlama transformer forward directly from
 * an ArtifactReader, without ever calling ModelArtifact::reconstruct:
 *
 *   - raw_f32 sections are consumed through borrowed tensor views of
 *     the file mapping (zero heap bytes);
 *   - palettized sections run through the streamed LUT+index matmul
 *     (paletteMatmulT) and palette row gather — the dense weight is
 *     never materialised;
 *   - dense_f16 / affine sections decode to dense f32 lazily on first
 *     touch, into an LRU cache bounded by a byte budget.
 *
 * Every entry point is input checks plus one private run() over a
 * segment batch. A segment is one request's run of c >= 1 consecutive
 * positions, with its own KvCache (or none, for forward()). Norms, the
 * q/k/v/o projections and the MLP run once over all rows; attention
 * runs per segment, in order: rope at the segment's positions, bank
 * its K/V rows, then nn::attentionChunk over the cached prefix plus
 * the segment. forward() is one cache-less segment per batch row,
 * prefill() is prefillChunk() from position 0, and decodeStep() is
 * decodeStepBatch() of one.
 *
 * Logits are bit-identical to forward on the eagerly reconstructed
 * nn::MiniLlama (the contract test_serve.cc enforces per codec):
 *   - the same tensor kernels run in the same order under NoGrad;
 *   - matmul rows accumulate the same way at any row count
 *     (ops::matmul / matmulStreamed row-shape invariance), so batch
 *     composition never changes a row;
 *   - attentionChunk replays the eager masked attention for any chunk
 *     of positions: masked columns exp-flush to exactly +0, trailing
 *     zero columns change neither the softmax denominator nor the
 *     zero-skipping value matmul, and RoPE rows are position-pure.
 *
 * generate() decodes incrementally through a KvCache: one prefill
 * banks the prompt, then each new token costs a one-position step over
 * the cache — O(1) forwards per token instead of O(t).
 *
 * The engine is not thread-safe: one thread drives it at a time
 * (serve::Server's step loop owns exactly one).
 */

#ifndef EDKM_SERVE_ENGINE_H_
#define EDKM_SERVE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "core/palettize.h"
#include "nn/transformer.h"
#include "serve/kv_cache.h"
#include "serve/reader.h"
#include "tensor/tensor.h"
#include "util/cancel.h"

namespace edkm {
namespace serve {

/** A request ran past its deadline (queued or mid-decode). */
class DeadlineExceeded : public FatalError
{
  public:
    explicit DeadlineExceeded(const std::string &msg) : FatalError(msg)
    {
    }
};

/** A request's cancel token fired (e.g. Server::release in flight). */
class Cancelled : public FatalError
{
  public:
    explicit Cancelled(const std::string &msg) : FatalError(msg) {}
};

/** Engine knobs. */
struct EngineConfig
{
    /**
     * Byte budget of the lazy decode cache (dense_f16 / affine
     * sections decoded to f32). The least-recently-used entry is
     * evicted first; a single weight larger than the budget still
     * loads (the cache never refuses the tensor being requested).
     */
    int64_t decodeCacheBytes = 64ll << 20;

    /**
     * Fixed KV-cache capacity in token positions; requests needing
     * more (prompt + new tokens) throw a FatalError naming it.
     * 0 sizes the cache per request (and reuses a grown cache).
     */
    int64_t kvCapacity = 0;
};

/** Counters exposed for benches and tests. */
struct EngineStats
{
    int64_t decodes = 0;         ///< lazy dense decodes performed
    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    int64_t evictions = 0;
    int64_t cacheBytes = 0;      ///< dense f32 bytes currently cached
    int64_t streamedMatmuls = 0; ///< palettized LUT+index matmuls run
    int64_t fusedDecodes = 0;    ///< of those, m==1 fused-kernel decodes
    int64_t borrowedViews = 0;   ///< zero-copy sections in use
    int64_t prefills = 0;        ///< prefill chunks run (prefill() is one)
    int64_t decodeSteps = 0;     ///< token rows decoded
    int64_t kvCacheBytes = 0;    ///< K/V bytes of the live cache
};

/** Batched request API over the artifact-backed forward. */
class InferenceEngine
{
  public:
    /**
     * Wire the engine to @p reader. Validates that every parameter the
     * manifest geometry requires has a payload section of the right
     * shape; throws FatalError naming the first missing/mismatched one.
     */
    explicit InferenceEngine(std::shared_ptr<const ArtifactReader> reader,
                             EngineConfig config = EngineConfig{});

    const nn::LlamaConfig &config() const { return reader_->config(); }
    const EngineConfig &engineConfig() const { return config_; }

    /**
     * @p tokens [B, S] integer tensor.
     * @return logits [B*S, vocab] — bit-identical to
     *         reconstruct().forward(tokens).
     */
    Tensor forward(const Tensor &tokens);

    /** One generation request (greedy decode). */
    struct Request
    {
        Request() = default;
        /** Deadline and cancel stay at their defaults (none): the
         *  {prompt, n} shape callers were built on keeps compiling
         *  without -Wmissing-field-initializers noise. */
        Request(std::vector<int64_t> prompt_tokens, int64_t max_new)
            : prompt(std::move(prompt_tokens)), maxNewTokens(max_new)
        {
        }

        std::vector<int64_t> prompt;
        int64_t maxNewTokens = 0;
        /**
         * Absolute completion deadline; time_point::max() (the
         * default) means none. Checked cooperatively between decode
         * steps — never mid-forward, so tokens already produced are
         * bit-identical to an undisturbed run — and surfaced as
         * DeadlineExceeded.
         */
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();
        /** Optional cancel token; firing it surfaces Cancelled at the
         *  next between-steps check. */
        std::shared_ptr<CancelToken> cancel;

        /** True once the deadline has passed (never for the default). */
        bool
        expired(std::chrono::steady_clock::time_point now) const
        {
            return deadline != std::chrono::steady_clock::time_point::max() &&
                   now > deadline;
        }
    };

    /** Completed request: prompt followed by the generated tokens. */
    struct Response
    {
        std::vector<int64_t> tokens;
    };

    /**
     * Greedy-decode one request through the KV cache: the prompt is
     * prefilled once and each new token costs one single-position
     * decode step. Tokens are bit-identical to recomputing the full
     * prefix at every step.
     */
    Response generate(const Request &request);

    /** Serve a batch of requests. */
    std::vector<Response> generate(const std::vector<Request> &batch);

    /**
     * prefillChunk() from position 0: @p kv must be empty. Returns the
     * [S, vocab] logits, bit-identical to forward().
     */
    Tensor prefill(const Tensor &tokens, KvCache &kv);

    /**
     * decodeStepBatch() of one: decode @p token at kv.position() and
     * return its [1, vocab] logits — bit-identical to the last row of
     * forward() over the whole prefix.
     */
    Tensor decodeStep(int64_t token, KvCache &kv);

    /**
     * Run the @p tokens [1, c] chunk as one segment at positions
     * [kv.position(), kv.position() + c), banking each layer's rope'd
     * keys / raw values into @p kv (whose rows [0, position()) must
     * hold the prefix — banked by earlier chunks of this request, or
     * copied in from a shared PrefixCache). Returns the chunk's
     * [c, vocab] logits; row i equals row position() + i of forward()
     * over the whole prefix, so any split of a prompt into chunks
     * gives the same banked rows and logits.
     */
    Tensor prefillChunk(const Tensor &tokens, KvCache &kv);

    /**
     * One batched decode step: token @p i of @p tokens is a one-
     * position segment over @p kvs[i] (prefilled, distinct caches, any
     * positions). Appends each request's K/V rows to its own cache and
     * returns the [B, vocab] logits; row i is bit-identical to
     * `decodeStep(tokens[i], *kvs[i])` whatever the batch's size,
     * order or composition. The scheduler's step loop is built on it.
     */
    Tensor decodeStepBatch(const std::vector<int64_t> &tokens,
                           const std::vector<KvCache *> &kvs);

    /** The engine-owned KV cache of the last generate() (may be null;
     *  exposed for tests and benches). */
    const KvCache *kvCache() const { return kv_.get(); }

    const EngineStats &stats() const { return stats_; }

    /** Heap bytes currently pinned by decoded weights (cache only —
     *  borrowed views cost no heap). */
    int64_t residentWeightBytes() const { return stats_.cacheBytes; }

  private:
    struct CacheSlot
    {
        Tensor tensor;
        int64_t bytes = 0;
        uint64_t lastUse = 0;
    };

    /** Dense f32 weight: borrowed view (raw_f32) or lazy LRU decode. */
    Tensor denseWeight(const std::string &name);

    /** Cached zero-copy palette view of a palettized section. */
    const PaletteView &palette(const std::string &name);

    Variable linearForward(const std::string &path, const Variable &x);
    Variable rmsNorm(const Variable &x, const std::string &name);
    Variable embed(const Tensor &flat_tokens);

    /** One request's run of consecutive positions in a run() batch. */
    struct Segment
    {
        /** The request's cache; its position is the segment's first.
         *  Null: no cache, the segment attends over its own rows from
         *  position 0 (forward()). */
        KvCache *kv = nullptr;
        int64_t len = 0; ///< positions (token rows), >= 1
    };

    /**
     * The one forward every entry point runs. @p tokens [R] holds the
     * segments' tokens back to back. Norms, projections and the MLP
     * run once over all R rows; attention runs per segment, in order.
     * Banks each cached segment's K/V rows and advances its cache.
     * Returns the [R, vocab] logits.
     */
    Tensor run(const Tensor &tokens, const std::vector<Segment> &segments);
    Variable attention(int64_t layer, const Variable &x,
                       const std::vector<Segment> &segments);
    Variable block(int64_t layer, const Variable &x,
                   const std::vector<Segment> &segments);
    void ensureKv(int64_t needed);
    void ensureRope(int64_t len);
    void evictToBudget();

    std::shared_ptr<const ArtifactReader> reader_;
    EngineConfig config_;
    EngineStats stats_;

    std::unordered_map<std::string, Tensor> borrowed_;
    std::unordered_map<std::string, PaletteView> palettes_;
    std::unordered_map<std::string, CacheSlot> cache_;
    uint64_t use_clock_ = 0;

    // RoPE rows [0, rope_rows_) (grown geometrically) and the
    // engine-owned KV cache generate() reuses.
    Tensor cos_table_, sin_table_;
    int64_t rope_rows_ = 0;
    std::unique_ptr<KvCache> kv_;
};

/**
 * KV positions @p request needs (maxNewTokens >= 1): the prompt plus
 * every generated token except the last, which is never fed back.
 * generate() and BatchScheduler::admit() both size caches by it.
 * Throws FatalError naming the request's size when the count overflows.
 */
int64_t kvPositionsNeeded(const InferenceEngine::Request &request);

} // namespace serve

namespace api {
/** The serving surface is re-exported under api:: alongside Session. */
using InferenceEngine = serve::InferenceEngine;
} // namespace api

} // namespace edkm

#endif // EDKM_SERVE_ENGINE_H_
