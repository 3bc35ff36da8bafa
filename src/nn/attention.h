/**
 * @file
 * Multi-head self-attention with rotary position embeddings and causal
 * masking (the LLaMA decoder's attention block).
 */

#ifndef EDKM_NN_ATTENTION_H_
#define EDKM_NN_ATTENTION_H_

#include <memory>

#include "nn/layers.h"
#include "nn/module.h"

namespace edkm {
namespace nn {

/**
 * Build the RoPE cos/sin tables for @p s positions at @p head_dim
 * (rotate-half convention: both halves share the angle). One
 * definition shared by the train-time attention module and the
 * serving engine, so their position embeddings can never diverge.
 */
void buildRopeTables(int64_t s, int64_t head_dim, Tensor &cos_out,
                     Tensor &sin_out);

/** The [1, s, s] additive causal mask (0 on/below diagonal, -1e9
 *  above). */
Tensor buildCausalMask(int64_t s);

/**
 * Causal attention of a chunk of queries over cached keys/values:
 * @p q holds the roped queries of positions [pos0, pos0 + c) as
 * [G, c, hd] (G = batch * heads), @p k_cache / @p v_cache are
 * [G, capacity, hd] with rows [0, pos0 + c) already written — the
 * prefix banked by earlier chunks plus this chunk's own rows. Row i of
 * the result attends over positions [0, pos0 + i].
 *
 * Bit-identity contract: row i equals row pos0 + i of the full-prefix
 * masked attention bit for bit. Columns beyond pos0 + i get the same
 * -1e9 additive mask the full forward adds, so they exp-flush to
 * exactly +0; columns from pos0 + c on are dropped, since zeros at the
 * tail change neither the softmax denominator nor the value matmul,
 * which skips zero weights. A one-position chunk (c == 1, a decode
 * step) masks no column, so it adds no mask at all. Chunked prefill,
 * prefix-cache reuse and single-position decode therefore all
 * reproduce the one-shot forward bit-exactly.
 */
Tensor attentionChunk(const Tensor &q, const Tensor &k_cache,
                      const Tensor &v_cache, int64_t pos0);

/** Causal RoPE multi-head attention over [B, S, D] inputs. */
class MultiHeadAttention : public Module
{
  public:
    /**
     * @param dim    model width (must divide by heads; head dim even).
     * @param heads  number of attention heads.
     */
    MultiHeadAttention(int64_t dim, int64_t heads, Rng &rng);

    /** @p x [B, S, D] -> [B, S, D] with causal masking. */
    Variable forward(const Variable &x);

    std::string kind() const override { return "attention"; }

    Linear &wq() { return *wq_; }
    Linear &wk() { return *wk_; }
    Linear &wv() { return *wv_; }
    Linear &wo() { return *wo_; }

  private:
    /** Precompute (cached) RoPE cos/sin and the causal mask for @p s. */
    void ensureCaches(int64_t s);

    int64_t dim_, heads_, head_dim_;
    std::shared_ptr<Linear> wq_, wk_, wv_, wo_;
    Tensor rope_cos_, rope_sin_; ///< [S, head_dim]
    Tensor causal_mask_;         ///< [1, S, S] (0 / -1e9)
    int64_t cached_seq_ = -1;
};

} // namespace nn
} // namespace edkm

#endif // EDKM_NN_ATTENTION_H_
