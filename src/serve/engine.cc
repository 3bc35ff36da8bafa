#include "serve/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "autograd/functional.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace edkm {
namespace serve {

namespace {

/** Parameter names + shapes the manifest geometry requires. */
std::vector<std::pair<std::string, Shape>>
expectedParameters(const nn::LlamaConfig &cfg)
{
    int64_t d = cfg.dim, h = cfg.resolvedHidden(), v = cfg.vocab;
    std::vector<std::pair<std::string, Shape>> out;
    out.emplace_back("embed.weight", Shape{v, d});
    for (int64_t i = 0; i < cfg.layers; ++i) {
        std::string p = "blocks." + std::to_string(i) + ".";
        out.emplace_back(p + "norm1.weight", Shape{d});
        for (const char *w : {"wq", "wk", "wv", "wo"}) {
            out.emplace_back(p + "attn." + w + ".weight", Shape{d, d});
        }
        out.emplace_back(p + "norm2.weight", Shape{d});
        out.emplace_back(p + "mlp.w1.weight", Shape{h, d});
        out.emplace_back(p + "mlp.w2.weight", Shape{d, h});
        out.emplace_back(p + "mlp.w3.weight", Shape{h, d});
    }
    out.emplace_back("final_norm.weight", Shape{d});
    out.emplace_back("lm_head.weight", Shape{v, d});
    return out;
}

/** RMSNorm epsilon: nn::RMSNorm's default, which MiniLlama uses. */
constexpr float kRmsEps = 1e-5f;

} // namespace

InferenceEngine::InferenceEngine(
    std::shared_ptr<const ArtifactReader> reader, EngineConfig cfg)
    : reader_(std::move(reader)), config_(cfg)
{
    EDKM_CHECK(reader_ != nullptr, "InferenceEngine: null reader");
    EDKM_CHECK(config_.decodeCacheBytes >= 0,
               "InferenceEngine: negative decode-cache budget");
    for (const auto &[name, shape] : expectedParameters(config())) {
        EDKM_CHECK(reader_->contains(name),
                   "InferenceEngine: artifact has no section for "
                   "parameter '",
                   name, "' required by its own geometry");
        const api::TensorSection &s = reader_->section(name);
        EDKM_CHECK(s.shape == shape, "InferenceEngine: section '", name,
                   "' shape disagrees with the manifest geometry");
    }
}

Tensor
InferenceEngine::denseWeight(const std::string &name)
{
    const api::TensorSection &s = reader_->section(name);
    if (s.codec == api::Codec::kRawF32) {
        auto it = borrowed_.find(name);
        if (it != borrowed_.end()) {
            return it->second;
        }
        Tensor t = reader_->denseView(name);
        borrowed_.emplace(name, t);
        ++stats_.borrowedViews;
        return t;
    }
    // dense_f16 / affine: lazy decode into the LRU cache.
    auto it = cache_.find(name);
    if (it != cache_.end()) {
        ++stats_.cacheHits;
        it->second.lastUse = ++use_clock_;
        return it->second.tensor;
    }
    ++stats_.cacheMisses;
    ++stats_.decodes;
    CacheSlot slot;
    slot.tensor = reader_->decode(name);
    slot.bytes = slot.tensor.storageBytes();
    slot.lastUse = ++use_clock_;
    stats_.cacheBytes += slot.bytes;
    Tensor t = slot.tensor;
    cache_.emplace(name, std::move(slot));
    evictToBudget();
    return t;
}

void
InferenceEngine::evictToBudget()
{
    while (stats_.cacheBytes > config_.decodeCacheBytes &&
           cache_.size() > 1) {
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            if (victim == cache_.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        stats_.cacheBytes -= victim->second.bytes;
        ++stats_.evictions;
        cache_.erase(victim);
    }
}

const PaletteView &
InferenceEngine::palette(const std::string &name)
{
    auto it = palettes_.find(name);
    if (it != palettes_.end()) {
        return it->second;
    }
    auto [ins, ok] = palettes_.emplace(name, reader_->paletteView(name));
    (void)ok;
    ++stats_.borrowedViews;
    return ins->second;
}

Variable
InferenceEngine::linearForward(const std::string &path, const Variable &x)
{
    std::string name = path + ".weight";
    const api::TensorSection &s = reader_->section(name);
    if (s.codec == api::Codec::kPalettized) {
        ++stats_.streamedMatmuls;
        int64_t fused0 = paletteFusedCalls();
        Variable r =
            af::constant(paletteMatmulT(x.data(), palette(name)));
        stats_.fusedDecodes += paletteFusedCalls() - fused0;
        return r;
    }
    Tensor w = denseWeight(name);
    return af::matmul(x, af::transpose(af::constant(w), 0, 1));
}

Variable
InferenceEngine::rmsNorm(const Variable &x, const std::string &name)
{
    Variable w = af::constant(denseWeight(name));
    Variable ms = af::meanDim(af::square(x), -1, /*keepdim=*/true);
    Variable inv = af::div(x, af::sqrt(af::addScalar(ms, kRmsEps)));
    return af::mul(inv, w);
}

Variable
InferenceEngine::embed(const Tensor &flat_tokens)
{
    const api::TensorSection &s = reader_->section("embed.weight");
    if (s.codec == api::Codec::kPalettized) {
        return af::constant(
            paletteGatherRows(palette("embed.weight"), flat_tokens));
    }
    Variable table = af::constant(denseWeight("embed.weight"));
    return af::gatherRows(table, flat_tokens);
}

namespace {

/** Rows [r0, r0+c) of a [R, heads*hd] projection split into
 *  [heads, c, hd] — the eager forward's head split for one request (a
 *  view, no copy, when c == 1). */
Tensor
headRows(const Tensor &y, int64_t r0, int64_t c, int64_t heads)
{
    int64_t hd = y.size(1) / heads;
    return y.slice(0, r0, r0 + c)
        .view({c, heads, hd})
        .transpose(0, 1)
        .contiguous();
}

} // namespace

Variable
InferenceEngine::attention(int64_t layer, const Variable &x,
                           const std::vector<Segment> &segments)
{
    int64_t dim = config().dim, heads = config().heads;
    std::string p = "blocks." + std::to_string(layer) + ".attn.";

    // One [R, D] x [D, D] pass per projection serves every segment:
    // row r is bit-identical to the projection of that row alone
    // (ops::matmul / matmulStreamed row-shape invariance).
    Tensor q = linearForward(p + "wq", x).data();
    Tensor k = linearForward(p + "wk", x).data();
    Tensor v = linearForward(p + "wv", x).data();

    // The attention core runs per segment, in order: rope at its own
    // positions, bank its K/V rows, attend over its own keys.
    float *pc = q.rawData<float>();
    int64_t r0 = 0;
    for (const Segment &seg : segments) {
        int64_t c = seg.len;
        int64_t p0 = seg.kv != nullptr ? seg.kv->position() : 0;
        Tensor cos = cos_table_.slice(0, p0, p0 + c);
        Tensor sin = sin_table_.slice(0, p0, p0 + c);
        auto roped = [&](const Tensor &y) {
            return af::rope(af::constant(headRows(y, r0, c, heads)), cos,
                            sin)
                .data();
        };
        Tensor qs = roped(q);
        Tensor att;
        if (seg.kv != nullptr) {
            // Bank rows [p0, p0+c) (run() advances the position after
            // all layers), then attend over prefix + segment. The
            // banked copies are the only ones kept past the write.
            seg.kv->write(layer, roped(k), headRows(v, r0, c, heads));
            att = nn::attentionChunk(qs, seg.kv->k(layer),
                                     seg.kv->v(layer), p0);
        } else {
            att = nn::attentionChunk(qs, roped(k),
                                     headRows(v, r0, c, heads), 0);
        }
        // [H, c, hd] -> [c, dim]: the eager forward's transpose+merge,
        // written over the segment's own q rows, which nothing reads
        // again. q ends up holding the context wo projects.
        Tensor merged = att.transpose(0, 1).contiguous();
        std::memcpy(pc + r0 * dim, merged.rawData<float>(),
                    static_cast<size_t>(c * dim) * sizeof(float));
        r0 += c;
    }
    return linearForward(p + "wo", af::constant(q));
}

Variable
InferenceEngine::block(int64_t layer, const Variable &x,
                       const std::vector<Segment> &segments)
{
    std::string p = "blocks." + std::to_string(layer) + ".";
    Variable h = af::add(
        x, attention(layer, rmsNorm(x, p + "norm1.weight"), segments));
    Variable n = rmsNorm(h, p + "norm2.weight");
    Variable gate = af::silu(linearForward(p + "mlp.w1", n));
    Variable up = linearForward(p + "mlp.w3", n);
    // A statement of its own, so the gate*up product is freed before
    // the residual add allocates (a temporary lives to the end of the
    // full expression).
    Variable m = linearForward(p + "mlp.w2", af::mul(gate, up));
    return af::add(h, m);
}

Tensor
InferenceEngine::run(const Tensor &tokens,
                     const std::vector<Segment> &segments)
{
    NoGradGuard ng;
    int64_t rows = 0, positions = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
        const Segment &seg = segments[i];
        EDKM_CHECK(seg.len >= 1, "InferenceEngine: empty segment");
        rows += seg.len;
        if (seg.kv == nullptr) {
            positions = std::max(positions, seg.len);
            continue;
        }
        const KvCache &kv = *seg.kv;
        EDKM_CHECK(kv.layers() == config().layers &&
                       kv.groups() == config().heads &&
                       kv.headDim() == config().dim / config().heads,
                   "InferenceEngine: KV cache geometry disagrees with "
                   "the model");
        EDKM_CHECK(kv.position() + seg.len <= kv.capacity(),
                   "InferenceEngine: ", seg.len, " token(s) at position ",
                   kv.position(), " overflow the cache capacity ",
                   kv.capacity());
        for (size_t j = 0; j < i; ++j) {
            EDKM_CHECK(segments[j].kv != seg.kv,
                       "InferenceEngine: the same KV cache appears "
                       "twice in one batch");
        }
        positions = std::max(positions, kv.position() + seg.len);
    }
    EDKM_CHECK(tokens.dim() == 1 && tokens.size(0) == rows,
               "InferenceEngine: ", tokens.numel(),
               " token(s) for segments of ", rows, " row(s)");
    ensureRope(positions);

    Variable h = embed(tokens);
    for (int64_t l = 0; l < config().layers; ++l) {
        h = block(l, h, segments);
    }
    h = rmsNorm(h, "final_norm.weight");
    Tensor logits = linearForward("lm_head", h).data();
    for (const Segment &seg : segments) {
        if (seg.kv != nullptr) {
            seg.kv->advance(seg.len);
        }
    }
    return logits;
}

Tensor
InferenceEngine::forward(const Tensor &tokens)
{
    EDKM_CHECK(tokens.dim() == 2,
               "InferenceEngine: tokens must be [B,S]");
    int64_t b = tokens.size(0), s = tokens.size(1);
    // One cache-less segment per batch row.
    return run(tokens.contiguous().view({b * s}),
               std::vector<Segment>(static_cast<size_t>(b),
                                    Segment{nullptr, s}));
}

Tensor
InferenceEngine::prefill(const Tensor &tokens, KvCache &kv)
{
    EDKM_CHECK(kv.position() == 0,
               "InferenceEngine: prefill needs an empty cache "
               "(reset() it first)");
    return prefillChunk(tokens, kv);
}

Tensor
InferenceEngine::prefillChunk(const Tensor &tokens, KvCache &kv)
{
    EDKM_CHECK(tokens.dim() == 2 && tokens.size(0) == 1,
               "InferenceEngine: prefill takes a single [1,c] request");
    int64_t c = tokens.size(1);
    Tensor logits = run(tokens.contiguous().view({c}), {Segment{&kv, c}});
    ++stats_.prefills;
    return logits;
}

Tensor
InferenceEngine::decodeStep(int64_t token, KvCache &kv)
{
    return decodeStepBatch({token}, {&kv});
}

Tensor
InferenceEngine::decodeStepBatch(const std::vector<int64_t> &tokens,
                                 const std::vector<KvCache *> &kvs)
{
    int64_t bsz = static_cast<int64_t>(tokens.size());
    EDKM_CHECK(bsz >= 1, "InferenceEngine: empty decode batch");
    EDKM_CHECK(kvs.size() == tokens.size(),
               "InferenceEngine: decode batch has ", tokens.size(),
               " token(s) but ", kvs.size(), " cache(s)");
    std::vector<Segment> segments;
    segments.reserve(kvs.size());
    for (size_t i = 0; i < kvs.size(); ++i) {
        EDKM_CHECK(kvs[i] != nullptr,
                   "InferenceEngine: null KV cache in decode batch");
        EDKM_CHECK(kvs[i]->position() >= 1,
                   "InferenceEngine: decode needs prefilled caches");
        EDKM_CHECK(tokens[i] >= 0 && tokens[i] < config().vocab,
                   "InferenceEngine: token ", tokens[i],
                   " outside the vocab");
        segments.push_back(Segment{kvs[i], 1});
    }
    Tensor logits = run(Tensor::fromIndices(tokens, {bsz}), segments);
    stats_.decodeSteps += bsz;
    return logits;
}

void
InferenceEngine::ensureRope(int64_t len)
{
    if (rope_rows_ >= len) {
        return;
    }
    // Rows are position-pure (the same builder the eager model uses,
    // and row p of any table equals row p of a longer one), so growing
    // never changes a row; grow geometrically to amortise rebuilds.
    rope_rows_ = std::max(len, 2 * rope_rows_);
    nn::buildRopeTables(rope_rows_, config().dim / config().heads,
                        cos_table_, sin_table_);
}

void
InferenceEngine::ensureKv(int64_t needed)
{
    EDKM_CHECK(config_.kvCapacity == 0 || needed <= config_.kvCapacity,
               "InferenceEngine: request needs ", needed,
               " KV positions, over the configured capacity ",
               config_.kvCapacity);
    int64_t cap =
        config_.kvCapacity > 0 ? config_.kvCapacity : needed;
    if (kv_ == nullptr || kv_->capacity() < cap) {
        kv_ = std::make_unique<KvCache>(config().layers, config().heads,
                                        config().dim / config().heads,
                                        cap);
    } else {
        kv_->reset();
    }
    stats_.kvCacheBytes = kv_->bytes();
}

namespace {

/**
 * Cooperative between-steps interruption point: cancellation first
 * (release() should win over a racing deadline), then the deadline.
 * Tokens already decoded are untouched, so an undisturbed rerun of the
 * same request reproduces them bit-identically up to the throw.
 */
void
throwIfInterrupted(const InferenceEngine::Request &request)
{
    if (request.cancel != nullptr && request.cancel->cancelled()) {
        throw Cancelled("InferenceEngine: request cancelled");
    }
    if (request.deadline !=
            std::chrono::steady_clock::time_point::max() &&
        request.expired(std::chrono::steady_clock::now())) {
        throw DeadlineExceeded(
            "InferenceEngine: request deadline exceeded");
    }
}

} // namespace

InferenceEngine::Response
InferenceEngine::generate(const Request &request)
{
    EDKM_CHECK(!request.prompt.empty(),
               "InferenceEngine: empty prompt in request");
    EDKM_CHECK(request.maxNewTokens >= 0,
               "InferenceEngine: negative maxNewTokens");
    throwIfInterrupted(request);
    Response res;
    res.tokens = request.prompt;
    if (request.maxNewTokens == 0) {
        return res;
    }
    int64_t s = static_cast<int64_t>(request.prompt.size());
    ensureKv(kvPositionsNeeded(request));
    Tensor prompt = Tensor::fromIndices(request.prompt, {1, s});
    Tensor logits = prefill(prompt, *kv_);
    Tensor last = logits.slice(0, logits.size(0) - 1, logits.size(0));
    int64_t next = argmaxLastDim(last).flatAtInt(0);
    res.tokens.push_back(next);
    for (int64_t step = 1; step < request.maxNewTokens; ++step) {
        throwIfInterrupted(request);
        next = argmaxLastDim(decodeStep(next, *kv_)).flatAtInt(0);
        res.tokens.push_back(next);
    }
    return res;
}

int64_t
kvPositionsNeeded(const InferenceEngine::Request &request)
{
    int64_t prompt = static_cast<int64_t>(request.prompt.size());
    EDKM_CHECK(request.maxNewTokens <=
                   std::numeric_limits<int64_t>::max() - prompt,
               "request of ", prompt, " prompt + ", request.maxNewTokens,
               " new tokens overflows the KV position count");
    return prompt + request.maxNewTokens - 1;
}

std::vector<InferenceEngine::Response>
InferenceEngine::generate(const std::vector<Request> &batch)
{
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request &r : batch) {
        out.push_back(generate(r));
    }
    return out;
}

} // namespace serve
} // namespace edkm
