/**
 * @file
 * Serving tests: a serve::Server runs one engine under a batching step
 * loop over a shared ArtifactReader, and every response must be
 * bit-identical to a serial InferenceEngine::generate of the same
 * request — concurrent submitters, batch composition, hot swaps and the
 * decode-cache budget may never leak into a response. Also covers the
 * ticket API (submit/wait/release, per-request stats, error
 * propagation), deadlines and cancellation, the metrics surface, and a
 * randomized property test of the scheduler's accounting invariants.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "alloc_failure.h"
#include "api/plan.h"
#include "api/session.h"
#include "serve/reader.h"
#include "serve/server.h"
#include "util/rng.h"

namespace edkm {
namespace {

/** Compress a tiny model, save its artifact and open it. The file is
 *  unlinked once open: the reader holds the artifact's bytes. */
std::shared_ptr<serve::ArtifactReader>
servedArtifact(const std::string &scheme, const std::string &tag)
{
    nn::LlamaConfig cfg;
    cfg.vocab = 64;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.seed = 7;
    nn::MiniLlama model(cfg);

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
    api::SessionResult res = session.run(model, plan, std::move(calib));

    std::string path = "/tmp/edkm_test_server_" + tag + ".edkm";
    res.artifact.save(path);
    auto reader = serve::ArtifactReader::open(path);
    std::remove(path.c_str());
    return reader;
}

/** A deterministic mixed bag of generation requests. */
std::vector<serve::Server::Request>
requestMix(int count, uint64_t seed, int64_t min_new = 0)
{
    std::vector<serve::Server::Request> out;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        serve::Server::Request r;
        int64_t prompt_len = 1 + rng.randint(0, 5);
        for (int64_t t = 0; t < prompt_len; ++t) {
            r.prompt.push_back(rng.randint(0, 63));
        }
        r.maxNewTokens = min_new + rng.randint(0, 6 - min_new);
        out.push_back(std::move(r));
    }
    return out;
}

/** Serial per-artifact reference outputs for @p requests. */
std::vector<std::vector<int64_t>>
serialWant(std::shared_ptr<const serve::ArtifactReader> reader,
           const std::vector<serve::Server::Request> &requests)
{
    serve::InferenceEngine engine(std::move(reader));
    std::vector<std::vector<int64_t>> out;
    for (const auto &r : requests) {
        out.push_back(engine.generate(r).tokens);
    }
    return out;
}

TEST(Server, EightThreadsBitIdenticalToSerialUnderInterleaving)
{
    auto reader = servedArtifact("edkm", "determinism");

    // Serial reference: one engine, requests in order.
    std::vector<serve::Server::Request> requests = requestMix(32, 11);
    std::vector<std::vector<int64_t>> want = serialWant(reader, requests);

    // 8 submitter threads each put all 32 requests in flight (each in
    // its own rotation, so submissions interleave), twice over — the
    // second pass hits a warm decode cache and prefix cache, still
    // bit-identical.
    constexpr int kSubmitters = 8;
    serve::ServerConfig cfg;
    cfg.scheduler.prefixCacheBytes = 1 << 20;
    serve::Server server(reader, cfg);
    const size_t n = requests.size();
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::thread> submitters;
        for (int t = 0; t < kSubmitters; ++t) {
            submitters.emplace_back([&, t] {
                std::vector<size_t> order;
                std::vector<serve::Server::RequestId> ids;
                for (size_t k = 0; k < n; ++k) {
                    order.push_back((k + 4 * static_cast<size_t>(t)) % n);
                    ids.push_back(server.submit(requests[order.back()]));
                }
                for (size_t k = 0; k < n; ++k) {
                    size_t i = order[k];
                    EXPECT_EQ(server.wait(ids[k]).tokens, want[i])
                        << "pass " << pass << " submitter " << t
                        << " request " << i;
                    // Per-request stats are recorded and consistent.
                    serve::Server::RequestStats st =
                        server.requestStats(ids[k]);
                    EXPECT_EQ(st.promptTokens,
                              static_cast<int64_t>(
                                  requests[i].prompt.size()));
                    EXPECT_EQ(st.newTokens, requests[i].maxNewTokens);
                }
                server.release(ids); // long-lived servers drop tickets
            });
        }
        for (std::thread &th : submitters) {
            th.join();
        }
    }
    EXPECT_EQ(server.completed(), 2 * kSubmitters * static_cast<int64_t>(n));
}

TEST(Server, DecodeCacheBudgetBindsOnTheOneEngine)
{
    // fp16 forces lazy dense decodes; a budget far below the working
    // set forces the engine to run its LRU eviction between the
    // batched forwards — without changing a single output token.
    auto reader = servedArtifact("fp16", "lru");
    std::vector<serve::Server::Request> requests =
        requestMix(32, 23, /*min_new=*/1);
    std::vector<std::vector<int64_t>> want = serialWant(reader, requests);

    serve::ServerConfig cfg;
    cfg.decodeCacheBytes = 16 << 10;
    serve::Server server(reader, cfg);
    std::vector<serve::Server::Response> got =
        server.wait(server.submit(requests));
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want[i]) << "request " << i;
    }

    const serve::EngineStats &st = server.engineStats();
    EXPECT_LE(st.cacheBytes, cfg.decodeCacheBytes);
    EXPECT_GT(st.decodes, 0);
    EXPECT_GT(st.evictions, 0);
}

TEST(Server, SubmitWaitTicketsAndErrorPropagation)
{
    auto reader = servedArtifact("rtn", "tickets");
    serve::Server server(reader);

    // wait() is callable more than once and in any order.
    serve::Server::RequestId a = server.submit({{1, 2, 3}, 2});
    serve::Server::RequestId b = server.submit({{4, 5}, 3});
    ASSERT_NE(a, b);
    serve::Server::Response rb = server.wait(b);
    serve::Server::Response ra = server.wait(a);
    EXPECT_EQ(ra.tokens.size(), 5u);
    EXPECT_EQ(rb.tokens.size(), 5u);
    EXPECT_EQ(server.wait(a).tokens, ra.tokens);

    // A failing request (empty prompt) surfaces its exception from
    // wait() without poisoning the server.
    serve::Server::RequestId bad = server.submit({{}, 2});
    EXPECT_THROW(server.wait(bad), FatalError);
    serve::Server::Response ok = server.wait(server.submit({{7}, 2}));
    EXPECT_EQ(ok.tokens.size(), 3u);

    EXPECT_THROW(server.wait(9999), FatalError);

    // release() frees a ticket (even a failed one); the ticket is then
    // unknown and the server keeps serving.
    server.release(std::vector<serve::Server::RequestId>{a, b, bad});
    EXPECT_THROW(server.wait(a), FatalError);
    EXPECT_EQ(server.wait(server.submit({{8, 9}, 1})).tokens.size(),
              3u);
}

TEST(Server, OversizedRequestFailsItsTicketAndServingContinues)
{
    auto reader = servedArtifact("rtn", "oversized");
    serve::Server server(reader);

    // A request whose KV position count overflows fails its own ticket
    // with the FatalError naming its size.
    serve::Server::RequestId overflow = server.submit(
        {{1, 2, 3}, std::numeric_limits<int64_t>::max()});
    try {
        server.wait(overflow);
        ADD_FAILURE() << "overflowing request served";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("3 prompt"),
                  std::string::npos)
            << e.what();
    }
    int64_t failed = 1;
    if (test::kAllocFailureThrows) {
        // One whose KV cache cannot be allocated fails with bad_alloc.
        EXPECT_THROW(server.wait(server.submit(
                         {{1, 2, 3}, test::kUnallocatableNewTokens})),
                     std::bad_alloc);
        ++failed;
    }

    // The step loop lives on and serves the next request exactly.
    serve::Server::Request next({4, 5, 6}, 4);
    EXPECT_EQ(server.wait(server.submit(next)).tokens,
              serve::InferenceEngine(reader).generate(next).tokens);
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"failed\": " + std::to_string(failed)),
              std::string::npos)
        << json;
}

TEST(Server, DestructorDrainsInFlightRequests)
{
    auto reader = servedArtifact("edkm", "drain");
    std::weak_ptr<const serve::ArtifactReader> map = reader;
    {
        serve::Server server(std::move(reader));
        std::vector<serve::Server::RequestId> ids =
            server.submit(requestMix(16, 31));
        // No wait: the destructor must drain the queue without
        // crashing or deadlocking.
    }
    // Drained and torn down: nothing pins the mapping any more.
    EXPECT_TRUE(map.expired());
}

TEST(Server, BatchedModeBitIdenticalToSerialWithSharedPrompts)
{
    auto reader = servedArtifact("edkm", "batched");

    // Mix of independent requests and a shared-prompt-head cluster so
    // the prefix cache engages mid-stream.
    std::vector<serve::Server::Request> requests = requestMix(16, 43);
    for (int i = 0; i < 8; ++i) {
        serve::Server::Request r;
        r.prompt = {9, 9, 9, 9, 9, 9, static_cast<int64_t>(i)};
        r.maxNewTokens = 3;
        requests.push_back(std::move(r));
    }
    std::vector<std::vector<int64_t>> want = serialWant(reader, requests);

    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 4;
    cfg.scheduler.prefillChunkTokens = 3;
    cfg.scheduler.prefixCacheBytes = 1 << 20;
    serve::Server server(reader, cfg);
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<serve::Server::RequestId> ids =
            server.submit(requests);
        std::vector<serve::Server::Response> got = server.wait(ids);
        ASSERT_EQ(got.size(), requests.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].tokens, want[i])
                << "pass " << pass << " request " << i;
        }
        for (size_t i = 0; i < ids.size(); ++i) {
            serve::Server::RequestStats st = server.requestStats(ids[i]);
            EXPECT_EQ(st.promptTokens,
                      static_cast<int64_t>(requests[i].prompt.size()));
            EXPECT_EQ(st.newTokens, requests[i].maxNewTokens);
            if (requests[i].maxNewTokens > 1) {
                EXPECT_GT(st.decodeSteps, 0) << "request " << i;
            }
        }
        server.release(ids);
    }
    EXPECT_EQ(server.completed(),
              2 * static_cast<int64_t>(requests.size()));
    // The metrics surface reports the scheduler block with its step
    // histogram.
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"scheduler\": {"), std::string::npos);
    EXPECT_NE(json.find("\"batch_histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_depth\": 0"), std::string::npos);
}

TEST(Server, BatchedReleaseCancelsQueuedTicketWithoutWedgingTheLoop)
{
    auto reader = servedArtifact("rtn", "cancel");
    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 1; // everything behind `first` queues
    serve::Server server(reader, cfg);

    // A long-running head keeps the single slot busy while the queued
    // tickets behind it are cancelled / served.
    serve::Server::RequestId first = server.submit({{1, 2, 3}, 400});
    serve::Server::RequestId doomed = server.submit({{4, 5}, 2});
    serve::Server::RequestId kept = server.submit({{6, 7}, 2});
    server.release(doomed); // still queued: cancelled, loop untouched

    EXPECT_THROW(server.wait(doomed), FatalError);
    EXPECT_EQ(server.wait(first).tokens.size(), 403u);
    EXPECT_EQ(server.wait(kept).tokens.size(), 4u);
    EXPECT_EQ(server.cancelled(), 1);
    EXPECT_EQ(server.completed(), 3);
}

// ---------------------------------------------------------------------
// Hot model swap
// ---------------------------------------------------------------------

// The name dates from the thread-pool serving mode; the per-generation
// and mapping-release guarantees it checks now hold for the step loop.
TEST(Server, ThreadedHotSwapIsPerGenerationBitExactAndReleasesOldMap)
{
    auto reader_a = servedArtifact("edkm", "swap_a");
    auto reader_b = servedArtifact("rtn", "swap_b");
    std::weak_ptr<const serve::ArtifactReader> old_map = reader_a;

    std::vector<serve::Server::Request> requests = requestMix(12, 61);
    std::vector<std::vector<int64_t>> want_a =
        serialWant(reader_a, requests);
    std::vector<std::vector<int64_t>> want_b =
        serialWant(reader_b, requests);

    serve::Server server(std::move(reader_a));
    EXPECT_EQ(server.generation(), 0);

    std::vector<serve::Server::RequestId> ids_a =
        server.submit(requests);
    server.swap(reader_b); // cuts over once generation 0 has drained
    EXPECT_EQ(server.generation(), 1);
    std::vector<serve::Server::RequestId> ids_b =
        server.submit(requests);

    // No ticket dropped, every ticket bit-identical to serial serving
    // of the artifact generation it was stamped with.
    std::vector<serve::Server::Response> got_a = server.wait(ids_a);
    std::vector<serve::Server::Response> got_b = server.wait(ids_b);
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(got_a[i].tokens, want_a[i]) << "gen 0 request " << i;
        EXPECT_EQ(got_b[i].tokens, want_b[i]) << "gen 1 request " << i;
        EXPECT_EQ(server.requestStats(ids_a[i]).generation, 0);
        EXPECT_EQ(server.requestStats(ids_b[i]).generation, 1);
    }
    server.release(ids_a);
    server.release(ids_b);

    // With the generation-0 tickets released and the engine retargeted,
    // nothing pins the old mapping any more.
    EXPECT_TRUE(old_map.expired());
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"generation\": 1"), std::string::npos);
}

// Swap-safety hammer: submissions race hot swaps; every ticket must
// complete (zero drops) and match the serial reference of the
// generation it reports — never a mix.
TEST(Server, SwapHammerSubmissionsRaceSwapsWithoutDropsOrMixing)
{
    auto reader_a = servedArtifact("edkm", "hammer_a");
    auto reader_b = servedArtifact("rtn", "hammer_b");

    std::vector<serve::Server::Request> requests = requestMix(8, 67);
    std::vector<std::vector<int64_t>> want[2] = {
        serialWant(reader_a, requests), serialWant(reader_b, requests)};

    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 3;
    cfg.scheduler.prefixCacheBytes = 1 << 20;
    serve::Server server(reader_a, cfg);
    std::vector<serve::Server::RequestId> ids;
    std::thread swapper([&] {
        // Generations 1..3 alternate B, A, B while submissions run.
        for (int g = 1; g <= 3; ++g) {
            server.swap(g % 2 == 1 ? reader_b : reader_a);
        }
    });
    for (int pass = 0; pass < 6; ++pass) {
        for (const auto &id : server.submit(requests)) {
            ids.push_back(id);
        }
    }
    swapper.join();
    ASSERT_EQ(server.generation(), 3);

    for (size_t i = 0; i < ids.size(); ++i) {
        serve::Server::Response got = server.wait(ids[i]); // no drop
        serve::Server::RequestStats st = server.requestStats(ids[i]);
        ASSERT_GE(st.generation, 0);
        ASSERT_LE(st.generation, 3);
        // Even generation -> artifact A, odd -> artifact B.
        EXPECT_EQ(got.tokens, want[st.generation % 2][i % requests.size()])
            << "ticket " << i << " generation " << st.generation;
    }
    EXPECT_EQ(server.completed(), static_cast<int64_t>(ids.size()));
}

TEST(Server, BatchedHotSwapDrainsInFlightAndFlushesThePrefixCache)
{
    auto reader_a = servedArtifact("edkm", "bswap_a");
    auto reader_b = servedArtifact("rtn", "bswap_b");

    // Shared prompt heads so the prefix cache banks entries that the
    // swap must flush (artifact-A KV rows never seed artifact-B).
    std::vector<serve::Server::Request> requests;
    for (int i = 0; i < 8; ++i) {
        serve::Server::Request r;
        r.prompt = {3, 3, 3, 3, 3, static_cast<int64_t>(i)};
        r.maxNewTokens = 4;
        requests.push_back(std::move(r));
    }
    std::vector<std::vector<int64_t>> want_a =
        serialWant(reader_a, requests);
    std::vector<std::vector<int64_t>> want_b =
        serialWant(reader_b, requests);

    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 4;
    cfg.scheduler.prefixCacheBytes = 1 << 20;
    serve::Server server(reader_a, cfg);

    std::vector<serve::Server::RequestId> ids_a =
        server.submit(requests);
    server.swap(reader_b);
    std::vector<serve::Server::RequestId> ids_b =
        server.submit(requests);

    std::vector<serve::Server::Response> got_a = server.wait(ids_a);
    std::vector<serve::Server::Response> got_b = server.wait(ids_b);
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(got_a[i].tokens, want_a[i]) << "gen 0 request " << i;
        EXPECT_EQ(got_b[i].tokens, want_b[i]) << "gen 1 request " << i;
    }
    // The scheduler snapshot records the generation flush.
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"generation\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"generation_flushes\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Deadlines, cancellation, latency metrics
// ---------------------------------------------------------------------

TEST(Server, TypedDeadlineAndCancelErrorsSurfaceFromWait)
{
    auto reader = servedArtifact("rtn", "typed");

    serve::Server server(reader);

    serve::Server::Request late({1, 2, 3}, 5);
    late.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    EXPECT_THROW(server.wait(server.submit(std::move(late))),
                 serve::DeadlineExceeded);

    serve::Server::Request dead({4, 5}, 5);
    dead.cancel = std::make_shared<CancelToken>();
    dead.cancel->requestCancel();
    EXPECT_THROW(server.wait(server.submit(std::move(dead))),
                 serve::Cancelled);

    // The server keeps serving afterwards.
    EXPECT_EQ(server.wait(server.submit({{6}, 2})).tokens.size(), 3u);
}

TEST(Server, ReleaseCancelsInFlightTicketsAndFreesTheirSlots)
{
    auto reader = servedArtifact("rtn", "inflight");

    // maxBatch 2: FIFO admission means `longrun` is in a slot once
    // `quick` has completed. release() of the in-flight ticket must
    // evict it between steps and hand its slot to `next`.
    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 2;
    serve::Server server(reader, cfg);
    serve::Server::Request want_next({11, 12}, 3);

    serve::Server::RequestId longrun =
        server.submit({{1, 2, 3}, 2000});
    serve::Server::RequestId quick = server.submit({{4, 5}, 2});
    EXPECT_EQ(server.wait(quick).tokens.size(), 4u);

    server.release(longrun); // in flight: cancelled, slot freed
    EXPECT_THROW(server.wait(longrun), FatalError); // record gone

    serve::Server::RequestId next = server.submit(want_next);
    EXPECT_EQ(server.wait(next).tokens.size(), 5u);
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"released\": 1"), std::string::npos);
}

TEST(Server, MetricsJsonCarriesLatencyHistogramsAndQueueWaitStats)
{
    auto reader = servedArtifact("fp16", "latency");

    serve::ServerConfig cfg;
    cfg.scheduler.maxBatch = 2;
    serve::Server server(reader, cfg);
    std::vector<serve::Server::RequestId> ids =
        server.submit(requestMix(8, 71, /*min_new=*/1));
    server.wait(ids);
    for (serve::Server::RequestId id : ids) {
        serve::Server::RequestStats st = server.requestStats(id);
        EXPECT_GE(st.queueMillis, 0.0);
        EXPECT_GE(st.millis, 0.0);
    }
    std::string json = server.metricsJson();
    for (const char *key :
         {"\"latency\"", "\"queue_wait\"", "\"e2e\"", "\"p50_ms\"",
          "\"p95_ms\"", "\"p99_ms\"", "\"count\": 8", "\"buckets\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
}

TEST(Server, BatchedDestructorDrainsQueuedAndInFlightTickets)
{
    auto reader = servedArtifact("edkm", "batcheddrain");
    std::weak_ptr<const serve::ArtifactReader> map = reader;
    {
        serve::ServerConfig cfg;
        cfg.scheduler.maxBatch = 2; // most of the 16 sit queued
        serve::Server server(std::move(reader), cfg);
        std::vector<serve::Server::RequestId> ids =
            server.submit(requestMix(16, 53));
        server.release(ids.back()); // cancel one queued ticket too
        // No wait: the destructor must admit and finish every queued
        // ticket (or honour its cancellation) without deadlocking.
    }
    // Drained and torn down: nothing pins the mapping any more.
    EXPECT_TRUE(map.expired());
}

// ---------------------------------------------------------------------
// Property test: randomized arrivals, cancels, deadlines and swaps
// ---------------------------------------------------------------------

/** Run @p call, aborting with @p what in the log if it blocks for over
 *  30 s: a wedged step loop fails fast and names its seed. */
template <class F>
auto
bounded(const std::string &what, F call)
{
    auto result = std::async(std::launch::async, std::move(call));
    if (result.wait_for(std::chrono::seconds(30)) ==
        std::future_status::timeout) {
        std::fprintf(stderr, "wedged: %s\n", what.c_str());
        std::abort();
    }
    return result.get();
}

/** Integer field @p key of metricsJson()'s scheduler block. */
int64_t
schedulerField(const std::string &json, const std::string &key)
{
    size_t at =
        json.find("\"" + key + "\": ", json.find("\"scheduler\""));
    EXPECT_NE(at, std::string::npos) << key << " in " << json;
    return std::stoll(json.substr(at + key.size() + 4));
}

TEST(Server, RandomizedArrivalsCancelsDeadlinesAndSwapsKeepTheInvariant)
{
    auto reader_a = servedArtifact("edkm", "prop_a");
    auto reader_b = servedArtifact("rtn", "prop_b");
    // Serial references; even generations serve A, odd ones B.
    serve::InferenceEngine serial[2] = {serve::InferenceEngine(reader_a),
                                        serve::InferenceEngine(reader_b)};
    // The one outcome an unreleased ticket may end in (kTokens: served
    // bit-identical to serial; kError: validation or allocation).
    enum Outcome
    {
        kTokens,
        kDeadline,
        kCancelled,
        kError,
        kTokensOrDeadline,
    };
    struct Ticket
    {
        serve::Server::RequestId id;
        serve::Server::Request request;
        Outcome expect;
    };

    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto label = [seed](const std::string &what) {
            return "seed " + std::to_string(seed) + ": " + what;
        };
        Rng rng(seed);
        serve::ServerConfig cfg;
        cfg.scheduler.maxBatch = 3;
        cfg.scheduler.prefillChunkTokens = 3;
        cfg.scheduler.prefixCacheBytes = 1 << 20;
        serve::Server server(reader_a, cfg);
        int64_t submitted = 0;
        auto submit = [&](serve::Server::Request r) {
            ++submitted;
            return server.submit(std::move(r));
        };

        // Three long blockers fill every slot: a ticket submitted behind
        // them is released while queued, and a blocker seen in flight is
        // released in flight.
        std::vector<serve::Server::RequestId> to_release;
        for (int64_t b = 0; b < 3; ++b) {
            to_release.push_back(submit({{b + 1, 2, 3}, 4000}));
        }
        bounded(label("blockers admitted"), [&] {
            while (schedulerField(server.metricsJson(), "active") < 3) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        server.release(submit({{9, 9}, 2}));
        EXPECT_EQ(server.cancelled(), 1);
        bounded(label("in-flight release"),
                [&] { server.release(to_release.front()); });
        to_release.erase(to_release.begin());

        std::thread swapper([&] {
            for (int g = 1; g <= 3; ++g) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500 * g));
                server.swap(g % 2 == 1 ? reader_b : reader_a);
            }
        });
        std::vector<Ticket> tickets;
        for (int i = 0; i < 36; ++i) {
            serve::Server::Request r;
            for (int64_t t = 0, len = 1 + rng.randint(0, 5); t < len; ++t) {
                // Every other prompt shares a head, so the prefix cache
                // banks, restores and flushes across the swaps.
                r.prompt.push_back(t < 3 && i % 2 == 0 ? 5
                                                       : rng.randint(0, 63));
            }
            r.maxNewTokens = rng.randint(0, 8);
            Outcome expect = kTokens;
            int64_t kind = rng.randint(0, 99);
            auto now = std::chrono::steady_clock::now();
            if (kind < 10) {
                r.deadline = now - std::chrono::milliseconds(1);
                expect = kDeadline;
            } else if (kind < 20) {
                r.deadline =
                    now + std::chrono::milliseconds(rng.randint(0, 3));
                expect = kTokensOrDeadline;
            } else if (kind < 28) {
                r.cancel = std::make_shared<CancelToken>();
                r.cancel->requestCancel();
                expect = kCancelled;
            } else if (kind < 36) {
                r.prompt.clear();
                expect = kError;
            } else if (kind < 44) {
                r.maxNewTokens = test::kAllocFailureThrows && i % 2 == 0
                                     ? test::kUnallocatableNewTokens
                                     : std::numeric_limits<int64_t>::max();
                expect = kError;
            }
            serve::Server::RequestId id = submit(r);
            if (kind >= 44 && kind < 56) {
                to_release.push_back(id);
            } else {
                tickets.push_back({id, std::move(r), expect});
            }
            // Release a pending ticket at random points: queued ones
            // leave the queue, admitted ones are evicted between steps.
            if (rng.randint(0, 3) == 0 && !to_release.empty()) {
                int64_t n = static_cast<int64_t>(to_release.size());
                auto victim = to_release.begin() + rng.randint(0, n - 1);
                bounded(label("release"), [&] { server.release(*victim); });
                to_release.erase(victim);
            }
        }
        bounded(label("release the rest"),
                [&] { server.release(to_release); });
        bounded(label("swapper"), [&] { swapper.join(); });
        EXPECT_EQ(server.generation(), 3);

        for (const Ticket &t : tickets) {
            std::string what = label("ticket " + std::to_string(t.id));
            Outcome got = kError;
            std::vector<int64_t> tokens;
            try {
                tokens = bounded(what,
                                 [&] { return server.wait(t.id).tokens; });
                got = kTokens;
            } catch (const serve::DeadlineExceeded &) {
                got = kDeadline;
            } catch (const serve::Cancelled &) {
                got = kCancelled;
            } catch (const FatalError &) {
            } catch (const std::bad_alloc &) {
            }
            EXPECT_TRUE(got == t.expect ||
                        (t.expect == kTokensOrDeadline &&
                         (got == kTokens || got == kDeadline)))
                << what << ": expected outcome " << t.expect << ", got "
                << got;
            if (got == kTokens) {
                // The reference runs undisturbed: no deadline, no token.
                serve::Server::Request ref(t.request.prompt,
                                           t.request.maxNewTokens);
                int64_t gen = server.requestStats(t.id).generation;
                EXPECT_EQ(tokens, serial[gen % 2].generate(ref).tokens)
                    << what << " generation " << gen;
            }
        }

        // Once idle, every submitted ticket is accounted for exactly
        // once: cancelled in the queue, or admitted and then completed,
        // failed, deadline-evicted or released.
        std::string json = bounded(label("idle"), [&] {
            for (;;) {
                std::string now = server.metricsJson();
                if (schedulerField(now, "active") == 0 &&
                    schedulerField(now, "admitted") + server.cancelled() ==
                        submitted) {
                    return now;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        int64_t admitted = schedulerField(json, "admitted");
        EXPECT_EQ(admitted, schedulerField(json, "completed") +
                                schedulerField(json, "failed") +
                                schedulerField(json, "deadline_evicted") +
                                schedulerField(json, "released"))
            << json;
        EXPECT_EQ(server.cancelled() + admitted, submitted);
        EXPECT_EQ(server.completed(), submitted);
        EXPECT_GE(schedulerField(json, "released"), 1); // in-flight blocker
    }
}

} // namespace
} // namespace edkm
