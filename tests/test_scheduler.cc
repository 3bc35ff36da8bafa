/**
 * @file
 * Continuous-batching scheduler tests. The load-bearing contract is
 * bit-identity: whatever the batch size, admission order, prefill
 * chunking or prefix-cache state, every request's tokens must equal the
 * ones a lone InferenceEngine::generate produces — for every codec an
 * artifact can carry. Also covers the engine's chunked-prefill and
 * batched-decode primitives directly, prefix-cache churn (eviction
 * exactness at tight byte budgets, partial-prefix reuse, reuse after
 * eviction), failure isolation, and the metrics JSON surface.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_failure.h"
#include "api/plan.h"
#include "api/session.h"
#include "serve/engine.h"
#include "serve/prefix_cache.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace {

nn::MiniLlama
tinyModel(uint64_t seed = 7)
{
    nn::LlamaConfig cfg;
    cfg.vocab = 64;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.seed = seed;
    return nn::MiniLlama(cfg);
}

/** Artifact exercising one codec, saved to /tmp: "raw" hand-encodes
 *  raw_f32; fp16 / rtn / edkm go through the compression registry
 *  (dense_f16 / affine / palettized). Returns the path. */
std::string
savedCodecArtifact(const std::string &scheme, const std::string &tag)
{
    nn::MiniLlama model = tinyModel();
    api::ModelArtifact art;
    if (scheme == "raw") {
        art.scheme = "raw";
        art.config = model.config();
        for (auto &[name, p] : model.namedParameters()) {
            art.entries.push_back(api::encodeRawF32(name, p.data()));
        }
    } else {
        api::CompressionPlan plan;
        plan.scheme = scheme;
        plan.bits = 4;
        plan.groupSize = 16;
        plan.dkmMaxIters = 2;
        api::CalibData calib;
        std::vector<int64_t> toks;
        Rng rng(3);
        for (int i = 0; i < 2 * 16; ++i) {
            toks.push_back(rng.randint(0, 63));
        }
        calib.tokens = Tensor::fromIndices(toks, {2, 16});
        calib.trainConfig.steps = 0;
        api::Session session;
        art = session.run(model, plan, std::move(calib)).artifact;
    }
    std::string path =
        "/tmp/edkm_test_sched_" + scheme + "_" + tag + ".edkm";
    std::vector<uint8_t> bytes = art.serialize();
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return path;
}

/** A deterministic mixed bag of generation requests. */
std::vector<serve::InferenceEngine::Request>
requestMix(int count, uint64_t seed, int64_t min_new = 0)
{
    std::vector<serve::InferenceEngine::Request> out;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        serve::InferenceEngine::Request r;
        int64_t prompt_len = 1 + rng.randint(0, 5);
        for (int64_t t = 0; t < prompt_len; ++t) {
            r.prompt.push_back(rng.randint(0, 63));
        }
        r.maxNewTokens = min_new + rng.randint(0, 6 - min_new);
        out.push_back(std::move(r));
    }
    return out;
}

/** Serial reference: each request alone through generate(). */
std::vector<std::vector<int64_t>>
serialReference(std::shared_ptr<const serve::ArtifactReader> reader,
                const std::vector<serve::InferenceEngine::Request> &reqs)
{
    serve::InferenceEngine engine(reader);
    std::vector<std::vector<int64_t>> out;
    for (const auto &r : reqs) {
        out.push_back(engine.generate(r).tokens);
    }
    return out;
}

/**
 * Drive a scheduler with a RANDOMIZED admission interleaving: before
 * each step an Rng admits between zero and all currently-admittable
 * requests, so prefills and decodes of different requests mix in
 * arbitrary ways. Returns responses in request order.
 */
std::vector<std::vector<int64_t>>
runInterleaved(serve::BatchScheduler &sched,
               std::vector<serve::InferenceEngine::Request> reqs,
               uint64_t seed)
{
    std::vector<std::vector<int64_t>> out(reqs.size());
    std::vector<std::exception_ptr> errors(reqs.size());
    size_t next = 0, completed = 0;
    Rng rng(seed);
    while (completed < reqs.size()) {
        int64_t admits = rng.randint(0, 3);
        while (admits-- > 0 && next < reqs.size() &&
               sched.hasCapacity()) {
            size_t idx = next++;
            sched.admit(std::move(reqs[idx]),
                        [&out, &errors, &completed, idx](
                            serve::BatchScheduler::Response &&res,
                            std::exception_ptr err,
                            const serve::SchedulerRequestStats &) {
                            out[idx] = std::move(res.tokens);
                            errors[idx] = err;
                            ++completed;
                        });
        }
        sched.step();
    }
    for (const std::exception_ptr &err : errors) {
        if (err != nullptr) {
            std::rethrow_exception(err);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Batched decode == serial decode, per codec
// ---------------------------------------------------------------------

class SchedulerBitExact : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SchedulerBitExact, BatchedMatchesSerialAcrossBatchSizes)
{
    std::string path = savedCodecArtifact(GetParam(), "bitexact");
    auto reader = serve::ArtifactReader::open(path);

    std::vector<serve::InferenceEngine::Request> reqs =
        requestMix(24, 17);
    std::vector<std::vector<int64_t>> want =
        serialReference(reader, reqs);

    for (int max_batch : {2, 4, 8}) {
        serve::InferenceEngine engine(reader);
        serve::SchedulerConfig cfg;
        cfg.maxBatch = max_batch;
        serve::BatchScheduler sched(engine, cfg);
        std::vector<std::vector<int64_t>> got = runInterleaved(
            sched, reqs, 100 + static_cast<uint64_t>(max_batch));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << GetParam() << " maxBatch=" << max_batch
                << " request " << i;
        }
        EXPECT_EQ(sched.stats().completed,
                  static_cast<int64_t>(reqs.size()));
        EXPECT_EQ(sched.stats().failed, 0);
    }
    std::remove(path.c_str());
}

TEST_P(SchedulerBitExact, ChunkedPrefillAndPrefixCacheStayExact)
{
    std::string path = savedCodecArtifact(GetParam(), "chunked");
    auto reader = serve::ArtifactReader::open(path);

    // Long prompts sharing an 8-token head, divergent tails, so the
    // prefix cache and the chunked prefill both engage.
    std::vector<serve::InferenceEngine::Request> reqs;
    Rng rng(29);
    std::vector<int64_t> head;
    for (int t = 0; t < 8; ++t) {
        head.push_back(rng.randint(0, 63));
    }
    for (int i = 0; i < 12; ++i) {
        serve::InferenceEngine::Request r;
        r.prompt = head;
        int64_t tail = 1 + rng.randint(0, 4);
        for (int64_t t = 0; t < tail; ++t) {
            r.prompt.push_back(rng.randint(0, 63));
        }
        r.maxNewTokens = 1 + rng.randint(0, 5);
        reqs.push_back(std::move(r));
    }
    std::vector<std::vector<int64_t>> want =
        serialReference(reader, reqs);

    serve::InferenceEngine engine(reader);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.prefillChunkTokens = 3; // force multi-chunk prompts
    cfg.prefixCacheBytes = 1 << 20;
    serve::BatchScheduler sched(engine, cfg);
    std::vector<std::vector<int64_t>> got =
        runInterleaved(sched, reqs, 31);
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << GetParam() << " request " << i;
    }
    // The shared head must actually have been reused, not recomputed.
    EXPECT_GT(sched.prefixStats().hits, 0);
    EXPECT_GT(sched.prefixStats().reusedTokens, 0);
    EXPECT_GT(sched.stats().prefillChunks,
              static_cast<int64_t>(reqs.size()));
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, SchedulerBitExact,
                         ::testing::Values("raw", "fp16", "rtn",
                                           "edkm"));

// ---------------------------------------------------------------------
// Engine primitives: chunked prefill and batched decode
// ---------------------------------------------------------------------

TEST(PrefillChunk, AnyChunkingMatchesOneShotPrefillBitExact)
{
    std::string path = savedCodecArtifact("edkm", "prefillchunk");
    auto reader = serve::ArtifactReader::open(path);
    const nn::LlamaConfig &cfg = reader->config();
    serve::InferenceEngine engine(reader);
    NoGradGuard ng;

    std::vector<int64_t> prompt = {3, 17, 42, 5, 60, 11, 9, 33, 2, 58};
    int64_t n = static_cast<int64_t>(prompt.size());
    serve::KvCache full_kv(cfg.layers, cfg.heads, cfg.dim / cfg.heads,
                           16);
    Tensor full =
        engine.prefill(Tensor::fromIndices(prompt, {1, n}), full_kv);

    for (int64_t chunk : {1, 3, 4, 10}) {
        serve::KvCache kv(cfg.layers, cfg.heads, cfg.dim / cfg.heads,
                          16);
        std::vector<float> got;
        for (int64_t p0 = 0; p0 < n; p0 += chunk) {
            int64_t c = std::min(chunk, n - p0);
            std::vector<int64_t> piece(prompt.begin() + p0,
                                       prompt.begin() + p0 + c);
            Tensor logits = engine.prefillChunk(
                Tensor::fromIndices(piece, {1, c}), kv);
            std::vector<float> rows = logits.toVector();
            got.insert(got.end(), rows.begin(), rows.end());
        }
        EXPECT_EQ(kv.position(), n);
        EXPECT_EQ(got, full.toVector()) << "chunk size " << chunk;
    }
    std::remove(path.c_str());
}

TEST(DecodeStepBatch, RowsMatchSingleRequestDecodeStepsBitExact)
{
    std::string path = savedCodecArtifact("edkm", "stepbatch");
    auto reader = serve::ArtifactReader::open(path);
    const nn::LlamaConfig &cfg = reader->config();
    serve::InferenceEngine engine(reader);
    NoGradGuard ng;

    // Three requests at DIFFERENT positions; prefill each prompt twice
    // (prefill is deterministic) to get independent serial/batched
    // cache pairs.
    std::vector<std::vector<int64_t>> prompts = {
        {3, 17, 42}, {5}, {60, 11, 9, 33, 2}};
    const int64_t kCap = 16, kSteps = 3;
    std::vector<std::unique_ptr<serve::KvCache>> serial, batched;
    std::vector<int64_t> next;
    for (const auto &p : prompts) {
        int64_t n = static_cast<int64_t>(p.size());
        Tensor toks = Tensor::fromIndices(p, {1, n});
        auto a = std::make_unique<serve::KvCache>(
            cfg.layers, cfg.heads, cfg.dim / cfg.heads, kCap);
        auto b = std::make_unique<serve::KvCache>(
            cfg.layers, cfg.heads, cfg.dim / cfg.heads, kCap);
        Tensor logits = engine.prefill(toks, *a);
        engine.prefill(toks, *b);
        Tensor last = logits.slice(0, n - 1, n);
        next.push_back(argmaxLastDim(last).flatAtInt(0));
        serial.push_back(std::move(a));
        batched.push_back(std::move(b));
    }

    std::vector<int64_t> next_serial = next, next_batched = next;
    for (int64_t step = 0; step < kSteps; ++step) {
        std::vector<serve::KvCache *> kvs;
        for (auto &kv : batched) {
            kvs.push_back(kv.get());
        }
        Tensor blogits = engine.decodeStepBatch(next_batched, kvs);
        for (size_t i = 0; i < prompts.size(); ++i) {
            Tensor slogits =
                engine.decodeStep(next_serial[i], *serial[i]);
            Tensor brow = blogits.slice(0, static_cast<int64_t>(i),
                                        static_cast<int64_t>(i) + 1);
            EXPECT_EQ(brow.contiguous().toVector(), slogits.toVector())
                << "request " << i << " step " << step;
            next_serial[i] = argmaxLastDim(slogits).flatAtInt(0);
            next_batched[i] =
                argmaxLastDim(brow.contiguous()).flatAtInt(0);
            EXPECT_EQ(next_serial[i], next_batched[i]);
            EXPECT_EQ(serial[i]->position(), batched[i]->position());
        }
    }

    // Guard rails: duplicate caches and size mismatches are rejected.
    std::vector<int64_t> two_toks = {1, 2};
    std::vector<int64_t> one_tok = {1};
    std::vector<serve::KvCache *> dup = {batched[0].get(),
                                         batched[0].get()};
    std::vector<serve::KvCache *> pair = {batched[0].get(),
                                          batched[1].get()};
    EXPECT_THROW(engine.decodeStepBatch(two_toks, dup), FatalError);
    EXPECT_THROW(engine.decodeStepBatch(one_tok, pair), FatalError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Prefix cache churn
// ---------------------------------------------------------------------

/** Fill @p kv with deterministic rows derived from @p seed. */
void
fillCache(serve::KvCache &kv, int64_t positions, uint64_t seed)
{
    Rng rng(seed);
    for (int64_t p = 0; p < positions; ++p) {
        for (int64_t l = 0; l < kv.layers(); ++l) {
            Tensor k = Tensor::randn({kv.groups(), 1, kv.headDim()},
                                     rng);
            Tensor v = Tensor::randn({kv.groups(), 1, kv.headDim()},
                                     rng);
            kv.write(l, k, v);
        }
        kv.advance(1);
    }
}

TEST(PrefixCacheChurn, EvictionIsExactAtTightByteBudgets)
{
    const int64_t L = 2, G = 2, HD = 8;
    const int64_t perTok = 2 * L * G * HD *
                           static_cast<int64_t>(sizeof(float));
    // Budget fits exactly two 2-token heads and not a byte more.
    serve::PrefixCache cache(L, G, HD, 4 * perTok);

    serve::KvCache kv(L, G, HD, 8);
    fillCache(kv, 2, 1);
    cache.insert({10, 11}, 2, kv);
    kv.reset();
    fillCache(kv, 2, 2);
    cache.insert({20, 21}, 2, kv);
    EXPECT_EQ(cache.stats().bytes, 4 * perTok);
    EXPECT_EQ(cache.stats().entries, 2);
    EXPECT_EQ(cache.stats().evictions, 0);

    // Touch {10,11} so {20,21} is the LRU victim of the next insert.
    serve::KvCache probe(L, G, HD, 8);
    EXPECT_EQ(cache.lookup({10, 11, 99}, 2, probe), 2);

    kv.reset();
    fillCache(kv, 2, 3);
    cache.insert({30, 31}, 2, kv);
    EXPECT_EQ(cache.stats().bytes, 4 * perTok); // never over budget
    EXPECT_EQ(cache.stats().entries, 2);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_EQ(cache.stats().evictedBytes, 2 * perTok);

    // The LRU entry went, the touched and new entries stayed.
    probe.reset();
    EXPECT_EQ(cache.lookup({20, 21, 99}, 2, probe), 0);
    probe.reset();
    EXPECT_EQ(cache.lookup({10, 11, 99}, 2, probe), 2);
    probe.reset();
    EXPECT_EQ(cache.lookup({30, 31, 99}, 2, probe), 2);

    // A head larger than the whole budget is rejected, not thrashed.
    serve::KvCache big(L, G, HD, 8);
    fillCache(big, 6, 4);
    int64_t before = cache.stats().entries;
    cache.insert({1, 2, 3, 4, 5, 6}, 6, big);
    EXPECT_EQ(cache.stats().rejected, 1);
    EXPECT_EQ(cache.stats().entries, before);
    EXPECT_EQ(cache.stats().bytes, 4 * perTok);
}

TEST(PrefixCacheChurn, PartialPrefixRestoresSharedHeadRowsExactly)
{
    const int64_t L = 2, G = 2, HD = 8;
    serve::PrefixCache cache(L, G, HD, 1 << 20);
    serve::KvCache kv(L, G, HD, 8);
    fillCache(kv, 6, 5);
    cache.insert({1, 2, 3, 4, 5, 6}, 6, kv);

    // Prompt shares only the first three tokens: exactly those three
    // positions restore, bit-identical to the banked rows.
    serve::KvCache target(L, G, HD, 8);
    EXPECT_EQ(cache.lookup({1, 2, 3, 9, 9, 9}, 5, target), 3);
    EXPECT_EQ(target.position(), 3);
    for (int64_t l = 0; l < L; ++l) {
        EXPECT_EQ(target.k(l).slice(1, 0, 3).contiguous().toVector(),
                  kv.k(l).slice(1, 0, 3).contiguous().toVector());
        EXPECT_EQ(target.v(l).slice(1, 0, 3).contiguous().toVector(),
                  kv.v(l).slice(1, 0, 3).contiguous().toVector());
    }
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().reusedTokens, 3);

    // max_len caps the restore even when more matches.
    serve::KvCache capped(L, G, HD, 8);
    EXPECT_EQ(cache.lookup({1, 2, 3, 4, 5, 6}, 4, capped), 4);

    // No shared head at all: a miss leaves the cache untouched.
    serve::KvCache miss(L, G, HD, 8);
    EXPECT_EQ(cache.lookup({9, 9, 9}, 3, miss), 0);
    EXPECT_EQ(miss.position(), 0);
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PrefixCacheChurn, ReuseAfterEvictionRePrefillsBitIdentical)
{
    std::string path = savedCodecArtifact("edkm", "evictreuse");
    auto reader = serve::ArtifactReader::open(path);

    serve::InferenceEngine::Request a{{1, 2, 3, 4, 5, 6, 7, 8}, 4};
    serve::InferenceEngine::Request b{{60, 61, 62, 63, 50, 51, 52, 53},
                                      4};
    std::vector<std::vector<int64_t>> want =
        serialReference(reader, {a, b, a});

    serve::InferenceEngine engine(reader);
    const nn::LlamaConfig &m = reader->config();
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 1; // serialize so eviction order is deterministic
    // Budget fits exactly one banked 8-token head (prompt + 3 decoded
    // positions land in the cache; only the 8-token prompt is banked).
    cfg.prefixCacheBytes = 2 * m.layers * m.heads * 8 *
                           (m.dim / m.heads) *
                           static_cast<int64_t>(sizeof(float));
    serve::BatchScheduler sched(engine, cfg);

    // a banks its head; b's insert evicts it; the repeat of a misses
    // and re-prefills from scratch — tokens must not change at all.
    std::vector<serve::BatchScheduler::Response> got =
        sched.run({a, b, a});
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].tokens, want[0]);
    EXPECT_EQ(got[1].tokens, want[1]);
    EXPECT_EQ(got[2].tokens, want[2]);
    EXPECT_GE(sched.prefixStats().evictions, 1);
    EXPECT_EQ(sched.prefixStats().hits, 0); // heads share no prefix
    EXPECT_EQ(sched.prefixStats().misses, 3);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Failure isolation and metrics
// ---------------------------------------------------------------------

TEST(Scheduler, FailuresCompleteThroughCallbacksWithoutWedging)
{
    std::string path = savedCodecArtifact("rtn", "failures");
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.kvCapacity = 8;
    serve::BatchScheduler sched(engine, cfg);

    int failures = 0, successes = 0;
    auto count = [&](serve::BatchScheduler::Response &&,
                     std::exception_ptr err,
                     const serve::SchedulerRequestStats &) {
        (err != nullptr ? failures : successes)++;
    };

    // Empty prompt and over-capacity requests fail at admission, from
    // inside admit(), without occupying a slot.
    sched.admit({{}, 2}, count);
    sched.admit({{1, 2, 3}, 100}, count); // needs 102 > capacity 8
    EXPECT_EQ(failures, 2);
    EXPECT_EQ(sched.active(), 0);

    // maxNewTokens == 0 completes immediately with just the prompt.
    std::vector<int64_t> echoed;
    sched.admit({{4, 5, 6}, 0},
                [&](serve::BatchScheduler::Response &&res,
                    std::exception_ptr err,
                    const serve::SchedulerRequestStats &) {
                    ASSERT_EQ(err, nullptr);
                    echoed = std::move(res.tokens);
                });
    EXPECT_EQ(echoed, (std::vector<int64_t>{4, 5, 6}));

    // The loop still serves real work afterwards.
    sched.admit({{7, 8}, 3}, count);
    while (sched.busy()) {
        sched.step();
    }
    EXPECT_EQ(successes, 1);
    EXPECT_EQ(sched.stats().failed, 2);
    // completed counts successes only; the reconciliation identity is
    // admitted == completed + failed + deadlineEvicted + released.
    EXPECT_EQ(sched.stats().completed, 2);
    EXPECT_EQ(sched.stats().admitted,
              sched.stats().completed + sched.stats().failed +
                  sched.stats().deadlineEvicted + sched.stats().released);
    std::remove(path.c_str());
}

TEST(Scheduler, UnallocatableRequestFailsThroughItsCallback)
{
    std::string path = savedCodecArtifact("raw", "unallocatable");
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    serve::BatchScheduler sched(engine, serve::SchedulerConfig{});

    // The callback fires exactly once, from inside admit(), with the
    // error; the request takes no slot.
    int64_t failed = 0;
    auto admitError = [&](int64_t new_tokens) {
        int calls = 0;
        std::exception_ptr err;
        sched.admit({{1, 2, 3}, new_tokens},
                    [&](serve::BatchScheduler::Response &&,
                        std::exception_ptr e,
                        const serve::SchedulerRequestStats &) {
                        ++calls;
                        err = e;
                    });
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(sched.active(), 0);
        EXPECT_EQ(sched.stats().failed, ++failed);
        return err != nullptr ? err
                              : std::make_exception_ptr(
                                    std::logic_error("no error delivered"));
    };
    if (test::kAllocFailureThrows) {
        EXPECT_THROW(std::rethrow_exception(
                         admitError(test::kUnallocatableNewTokens)),
                     std::bad_alloc);
    }
    // A position count past int64 is refused before it overflows, by
    // an error naming the request's size.
    try {
        std::rethrow_exception(
            admitError(std::numeric_limits<int64_t>::max()));
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "3 prompt + 9223372036854775807 new tokens"),
                  std::string::npos)
            << e.what();
    }

    // The scheduler still serves real work exactly.
    serve::InferenceEngine::Request ok({1, 2, 3}, 4);
    EXPECT_EQ(sched.run({ok}).front().tokens,
              serve::InferenceEngine(reader).generate(ok).tokens);
    std::remove(path.c_str());
}

TEST(Scheduler, StatsJsonCarriesHistogramAndPrefixCounters)
{
    std::string path = savedCodecArtifact("fp16", "stats");
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.prefixCacheBytes = 1 << 20;
    serve::BatchScheduler sched(engine, cfg);
    sched.run(requestMix(12, 41, /*min_new=*/1));

    const serve::SchedulerStats &st = sched.stats();
    EXPECT_EQ(st.completed, 12);
    int64_t histo_steps = 0;
    for (size_t b = 1; b < st.batchHistogram.size(); ++b) {
        histo_steps += st.batchHistogram[b];
    }
    EXPECT_EQ(histo_steps, st.steps); // every step lands in one bucket
    EXPECT_GT(st.peakBatch, 1);

    std::string json = sched.statsJson();
    for (const char *key :
         {"\"admitted\"", "\"decode_steps\"", "\"batch_histogram\"",
          "\"prefill_chunks\"", "\"peak_batch\"", "\"prefix_cache\"",
          "\"hits\"", "\"evicted_bytes\"", "\"deadline_evicted\"",
          "\"released\"", "\"generation\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Deadlines, cancellation, hot engine swap
// ---------------------------------------------------------------------

TEST(Scheduler, DeadlineEvictionBetweenStepsKeepsSurvivorBitIdentical)
{
    std::string path = savedCodecArtifact("rtn", "deadline");
    auto reader = serve::ArtifactReader::open(path);

    serve::InferenceEngine::Request survivor{{1, 2, 3}, 40};
    std::vector<std::vector<int64_t>> want =
        serialReference(reader, {survivor});

    serve::InferenceEngine engine(reader);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 4;
    serve::BatchScheduler sched(engine, cfg);

    std::vector<int64_t> got;
    sched.admit(survivor,
                [&](serve::BatchScheduler::Response &&res,
                    std::exception_ptr err,
                    const serve::SchedulerRequestStats &) {
                    ASSERT_EQ(err, nullptr);
                    got = std::move(res.tokens);
                });

    serve::InferenceEngine::Request doomed{{4, 5}, 300};
    doomed.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    std::exception_ptr doomed_err;
    int64_t doomed_tokens = -1;
    sched.admit(doomed,
                [&](serve::BatchScheduler::Response &&,
                    std::exception_ptr err,
                    const serve::SchedulerRequestStats &st) {
                    doomed_err = err;
                    doomed_tokens = st.newTokens;
                });

    // A few shared steps, then let the deadline lapse; the next step
    // must evict the expired slot before any forward.
    for (int i = 0; i < 3 && sched.busy(); ++i) {
        sched.step();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    while (sched.busy()) {
        sched.step();
    }

    ASSERT_NE(doomed_err, nullptr);
    try {
        std::rethrow_exception(doomed_err);
    } catch (const serve::DeadlineExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
                  std::string::npos);
    }
    EXPECT_GT(doomed_tokens, 0);   // it made progress first
    EXPECT_LT(doomed_tokens, 300); // and was cut off
    // The survivor never noticed: bit-identical to serving it alone.
    EXPECT_EQ(got, want[0]);
    EXPECT_EQ(sched.stats().deadlineEvicted, 1);
    EXPECT_EQ(sched.stats().completed, 1);
    EXPECT_EQ(sched.stats().admitted,
              sched.stats().completed + sched.stats().failed +
                  sched.stats().deadlineEvicted + sched.stats().released);
    std::remove(path.c_str());
}

TEST(Scheduler, ExpiredAndPreCancelledRequestsNeverTakeASlot)
{
    std::string path = savedCodecArtifact("fp16", "preexpired");
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    serve::BatchScheduler sched(engine, serve::SchedulerConfig{});

    serve::InferenceEngine::Request late{{1, 2}, 5};
    late.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
    bool late_done = false;
    sched.admit(late, [&](serve::BatchScheduler::Response &&,
                          std::exception_ptr err,
                          const serve::SchedulerRequestStats &) {
        late_done = true;
        EXPECT_THROW(std::rethrow_exception(err),
                     serve::DeadlineExceeded);
    });
    EXPECT_TRUE(late_done);
    EXPECT_EQ(sched.active(), 0);
    EXPECT_EQ(sched.stats().deadlineEvicted, 1);

    serve::InferenceEngine::Request dead{{3, 4}, 5};
    dead.cancel = std::make_shared<CancelToken>();
    dead.cancel->requestCancel();
    bool dead_done = false;
    sched.admit(dead, [&](serve::BatchScheduler::Response &&,
                          std::exception_ptr err,
                          const serve::SchedulerRequestStats &) {
        dead_done = true;
        EXPECT_THROW(std::rethrow_exception(err), serve::Cancelled);
    });
    EXPECT_TRUE(dead_done);
    EXPECT_EQ(sched.active(), 0);
    EXPECT_EQ(sched.stats().released, 1);
    EXPECT_EQ(sched.stats().admitted, 2);
    std::remove(path.c_str());
}

TEST(Scheduler, CancelTokenFreesTheSlotWithinOneStep)
{
    std::string path = savedCodecArtifact("edkm", "cancel");
    auto reader = serve::ArtifactReader::open(path);

    serve::InferenceEngine::Request keeper{{7, 8, 9}, 30};
    serve::InferenceEngine::Request after{{2, 2}, 10};
    std::vector<std::vector<int64_t>> want =
        serialReference(reader, {keeper, after});

    serve::InferenceEngine engine(reader);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 2; // `after` needs the cancelled request's slot
    serve::BatchScheduler sched(engine, cfg);

    std::vector<int64_t> got_keeper, got_after;
    auto keep = [&](serve::BatchScheduler::Response &&res,
                    std::exception_ptr err,
                    const serve::SchedulerRequestStats &) {
        ASSERT_EQ(err, nullptr);
        got_keeper = std::move(res.tokens);
    };
    sched.admit(keeper, keep);

    serve::InferenceEngine::Request doomed{{5, 6}, 300};
    doomed.cancel = std::make_shared<CancelToken>();
    std::exception_ptr doomed_err;
    sched.admit(doomed, [&](serve::BatchScheduler::Response &&,
                            std::exception_ptr err,
                            const serve::SchedulerRequestStats &) {
        doomed_err = err;
    });
    ASSERT_FALSE(sched.hasCapacity());

    for (int i = 0; i < 4; ++i) {
        sched.step();
    }
    doomed.cancel->requestCancel();
    sched.step(); // eviction happens before this step's forward
    EXPECT_TRUE(sched.hasCapacity());
    ASSERT_NE(doomed_err, nullptr);
    try {
        std::rethrow_exception(doomed_err);
    } catch (const serve::Cancelled &e) {
        EXPECT_NE(std::string(e.what()).find("released after"),
                  std::string::npos);
    }

    // The freed slot admits new work, and neither the survivor nor the
    // newcomer deviates from solo serving by a bit.
    sched.admit(after, [&](serve::BatchScheduler::Response &&res,
                           std::exception_ptr err,
                           const serve::SchedulerRequestStats &) {
        ASSERT_EQ(err, nullptr);
        got_after = std::move(res.tokens);
    });
    while (sched.busy()) {
        sched.step();
    }
    EXPECT_EQ(got_keeper, want[0]);
    EXPECT_EQ(got_after, want[1]);
    EXPECT_EQ(sched.stats().released, 1);
    EXPECT_EQ(sched.stats().admitted,
              sched.stats().completed + sched.stats().failed +
                  sched.stats().deadlineEvicted + sched.stats().released);
    std::remove(path.c_str());
}

TEST(Scheduler, SwapEngineRetargetsThePrefixCacheAndCarriesCounters)
{
    std::string path_a = savedCodecArtifact("rtn", "swap_a");
    std::string path_b = savedCodecArtifact("edkm", "swap_b");
    auto reader_a = serve::ArtifactReader::open(path_a);
    auto reader_b = serve::ArtifactReader::open(path_b);

    std::vector<serve::InferenceEngine::Request> reqs;
    for (int i = 0; i < 6; ++i) {
        serve::InferenceEngine::Request r;
        r.prompt = {9, 9, 9, 9, static_cast<int64_t>(i)};
        r.maxNewTokens = 4;
        reqs.push_back(std::move(r));
    }
    std::vector<std::vector<int64_t>> want_a =
        serialReference(reader_a, reqs);
    std::vector<std::vector<int64_t>> want_b =
        serialReference(reader_b, reqs);

    serve::InferenceEngine engine_a(reader_a);
    serve::InferenceEngine engine_b(reader_b);
    serve::SchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.prefixCacheBytes = 1 << 20;
    serve::BatchScheduler sched(engine_a, cfg);

    std::vector<serve::BatchScheduler::Response> got =
        sched.run(reqs);
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want_a[i]) << "gen 0 request " << i;
    }
    EXPECT_GT(sched.prefixStats().hits, 0);
    EXPECT_EQ(sched.prefixStats().generation, 0);

    // Swapping while a request is in flight is refused.
    bool pending_done = false;
    sched.admit({{1, 2, 3}, 4},
                [&](serve::BatchScheduler::Response &&,
                    std::exception_ptr,
                    const serve::SchedulerRequestStats &) {
                    pending_done = true;
                });
    EXPECT_THROW(sched.swapEngine(engine_b), FatalError);
    while (sched.busy()) {
        sched.step();
    }
    EXPECT_TRUE(pending_done);

    // Drained: the swap flushes the prefix cache (artifact-A rows must
    // never seed artifact-B decodes) and the same prompts now match
    // artifact B's serial reference bit for bit.
    sched.swapEngine(engine_b);
    EXPECT_EQ(sched.prefixStats().generation, 1);
    EXPECT_EQ(sched.prefixStats().entries, 0);
    EXPECT_GT(sched.prefixStats().generationFlushes, 0);
    int64_t admitted_before = sched.stats().admitted;
    EXPECT_GT(admitted_before, 0); // counters carry across the swap

    got = sched.run(reqs);
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want_b[i]) << "gen 1 request " << i;
    }
    EXPECT_EQ(sched.stats().admitted,
              admitted_before + static_cast<int64_t>(reqs.size()));
    EXPECT_GT(sched.prefixStats().hits, 0); // cache rebanks under gen 1
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

} // namespace
} // namespace edkm
