#include "nn/attention.h"

#include <cmath>

#include "autograd/functional.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace edkm {
namespace nn {

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t heads, Rng &rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads)
{
    EDKM_CHECK(dim % heads == 0, "attention: heads must divide dim");
    EDKM_CHECK(head_dim_ % 2 == 0, "attention: head dim must be even");
    wq_ = registerModule("wq", std::make_shared<Linear>(dim, dim, rng));
    wk_ = registerModule("wk", std::make_shared<Linear>(dim, dim, rng));
    wv_ = registerModule("wv", std::make_shared<Linear>(dim, dim, rng));
    wo_ = registerModule("wo", std::make_shared<Linear>(dim, dim, rng));
}

void
buildRopeTables(int64_t s, int64_t head_dim, Tensor &cos_out,
                Tensor &sin_out)
{
    // RoPE frequencies: theta_i = 10000^{-2i/d}, cos/sin per position.
    cos_out = Tensor::empty({s, head_dim});
    sin_out = Tensor::empty({s, head_dim});
    float *pc = cos_out.rawData<float>();
    float *ps = sin_out.rawData<float>();
    int64_t half = head_dim / 2;
    for (int64_t pos = 0; pos < s; ++pos) {
        for (int64_t i = 0; i < half; ++i) {
            double freq = std::pow(
                10000.0, -2.0 * static_cast<double>(i) / head_dim);
            double angle = static_cast<double>(pos) * freq;
            float c = static_cast<float>(std::cos(angle));
            float sn = static_cast<float>(std::sin(angle));
            // Halves share the angle (rotate-half convention).
            pc[pos * head_dim + i] = c;
            pc[pos * head_dim + half + i] = c;
            ps[pos * head_dim + i] = sn;
            ps[pos * head_dim + half + i] = sn;
        }
    }
}

Tensor
buildCausalMask(int64_t s)
{
    Tensor mask = Tensor::zeros({1, s, s});
    float *pm = mask.rawData<float>();
    for (int64_t i = 0; i < s; ++i) {
        for (int64_t j = i + 1; j < s; ++j) {
            pm[i * s + j] = -1e9f;
        }
    }
    return mask;
}

Tensor
attentionChunk(const Tensor &q, const Tensor &k_cache,
               const Tensor &v_cache, int64_t pos0)
{
    EDKM_CHECK(q.dim() == 3, "attentionChunk: q must be [G,c,hd]");
    int64_t g = q.size(0), c = q.size(1), hd = q.size(2);
    EDKM_CHECK(c >= 1, "attentionChunk: empty chunk");
    for (const Tensor *cache : {&k_cache, &v_cache}) {
        EDKM_CHECK(cache->dim() == 3 && cache->size(0) == g &&
                       cache->size(2) == hd,
                   "attentionChunk: cache must be [", g, ",cap,", hd,
                   "]");
    }
    int64_t cols = pos0 + c;
    EDKM_CHECK(pos0 >= 0 && cols <= k_cache.size(1),
               "attentionChunk: chunk [", pos0, ",", cols,
               ") outside the cache capacity ", k_cache.size(1));

    Tensor keys = k_cache.slice(1, 0, cols);      // [G, cols, hd]
    Tensor vals = v_cache.slice(1, 0, cols);
    float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    Tensor att = matmul(q, keys.transpose(1, 2)); // [G, c, cols]
    att = mulScalar(att, scale);
    if (c > 1) {
        // The full forward adds a [1, S, S] additive mask (0 visible,
        // -1e9 masked) before the softmax; replay exactly that for the
        // chunk's rows, over the [0, cols) columns that survive the
        // tail drop. A single row sees every column, so it adds none.
        Tensor mask = Tensor::zeros({1, c, cols});
        float *pm = mask.rawData<float>();
        for (int64_t i = 0; i < c; ++i) {
            for (int64_t j = pos0 + i + 1; j < cols; ++j) {
                pm[i * cols + j] = -1e9f;
            }
        }
        att = add(att, mask);
    }
    att = softmaxLastDim(att);
    return matmul(att, vals);                     // [G, c, hd]
}

void
MultiHeadAttention::ensureCaches(int64_t s)
{
    if (cached_seq_ == s) {
        return;
    }
    buildRopeTables(s, head_dim_, rope_cos_, rope_sin_);
    causal_mask_ = buildCausalMask(s);
    cached_seq_ = s;
}

Variable
MultiHeadAttention::forward(const Variable &x)
{
    const Shape &shape = x.data().shape();
    EDKM_CHECK(shape.size() == 3 && shape[2] == dim_,
               "attention: expected [B,S,", dim_, "]");
    int64_t b = shape[0], s = shape[1];
    ensureCaches(s);

    // Project, split heads: [B,S,D] -> [B*H, S, hd].
    auto split_heads = [&](Linear &proj) {
        Variable flat = af::view(x, {b * s, dim_});
        Variable y = proj.forward(flat); // [B*S, D]
        y = af::view(y, {b, s, heads_, head_dim_});
        y = af::transpose(y, 1, 2); // [B, H, S, hd] (view)
        y = af::contiguous(y);
        return af::view(y, {b * heads_, s, head_dim_});
    };
    Variable q = split_heads(*wq_);
    Variable k = split_heads(*wk_);
    Variable v = split_heads(*wv_);

    // Rotary position embedding on q/k.
    q = af::rope(q, rope_cos_, rope_sin_);
    k = af::rope(k, rope_cos_, rope_sin_);

    // Scaled dot-product attention with the causal mask.
    float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    Variable att = af::matmul(q, af::transpose(k, -2, -1)); // [B*H,S,S]
    att = af::mulScalar(att, scale);
    att = af::add(att, af::constant(causal_mask_));
    att = af::softmaxLastDim(att);
    Variable ctx = af::matmul(att, v); // [B*H, S, hd]

    // Merge heads and project out.
    ctx = af::view(ctx, {b, heads_, s, head_dim_});
    ctx = af::transpose(ctx, 1, 2); // [B,S,H,hd]
    ctx = af::contiguous(ctx);
    ctx = af::view(ctx, {b * s, dim_});
    Variable out = wo_->forward(ctx);
    return af::view(out, {b, s, dim_});
}

} // namespace nn
} // namespace edkm
