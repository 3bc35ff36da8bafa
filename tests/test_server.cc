/**
 * @file
 * Concurrent-serving tests: a serve::Server fans requests out to
 * per-thread engines over one shared ArtifactReader, and the outputs
 * must be bit-identical to serial execution — scheduling, interleaving
 * and per-engine cache state may never leak into a response. Also
 * covers the ticket API (submit/wait, per-request stats, error
 * propagation) and per-thread LRU decode-cache isolation under
 * concurrency.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "serve/reader.h"
#include "serve/server.h"
#include "util/rng.h"

namespace edkm {
namespace {

/** Compress a tiny model and save its artifact; returns the path. */
std::string
savedArtifact(const std::string &scheme, const std::string &tag)
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
    return path;
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

TEST(Server, EightThreadsBitIdenticalToSerialUnderInterleaving)
{
    std::string path = savedArtifact("edkm", "determinism");
    auto reader = serve::ArtifactReader::open(path);

    // Serial reference: one engine, requests in order.
    std::vector<serve::Server::Request> requests = requestMix(32, 11);
    serve::InferenceEngine serial(reader);
    std::vector<std::vector<int64_t>> want;
    for (const auto &r : requests) {
        want.push_back(serial.generate(r).tokens);
    }

    // 8 worker threads, all 32 requests in flight at once, twice over
    // (the second pass hits warm per-engine caches and a reused KV
    // cache — still bit-identical).
    serve::ServerConfig cfg;
    cfg.threads = 8;
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
        // Per-request stats are recorded and consistent.
        for (size_t i = 0; i < ids.size(); ++i) {
            serve::Server::RequestStats st = server.requestStats(ids[i]);
            EXPECT_EQ(st.promptTokens,
                      static_cast<int64_t>(requests[i].prompt.size()));
            EXPECT_EQ(st.newTokens, requests[i].maxNewTokens);
            EXPECT_GE(st.engine, 0);
            EXPECT_LT(st.engine, cfg.threads);
        }
        server.release(ids); // long-lived servers drop finished tickets
    }
    EXPECT_EQ(server.completed(), 64);
    std::remove(path.c_str());
}

TEST(Server, PerThreadDecodeCachesStayIsolatedUnderConcurrency)
{
    // fp16 forces lazy dense decodes; a tiny budget forces every
    // engine to run its own LRU eviction while its neighbours do the
    // same — budgets and counters must never bleed across threads.
    std::string path = savedArtifact("fp16", "lru");
    auto reader = serve::ArtifactReader::open(path);

    serve::ServerConfig cfg;
    cfg.threads = 8;
    cfg.engine.decodeCacheBytes = 16 << 10; // far below the working set
    serve::Server server(reader, cfg);

    std::vector<serve::Server::RequestId> ids =
        server.submit(requestMix(32, 23, /*min_new=*/1));
    server.wait(ids);

    std::set<int> used;
    for (serve::Server::RequestId id : ids) {
        used.insert(server.requestStats(id).engine);
    }
    int64_t total_decodes = 0;
    for (int i = 0; i < cfg.threads; ++i) {
        const serve::EngineStats &st = server.engineStats(i);
        // The budget binds per engine, not globally.
        EXPECT_LE(st.cacheBytes, cfg.engine.decodeCacheBytes)
            << "engine " << i;
        if (used.count(i) != 0) {
            // An engine that served anything decoded for itself (its
            // neighbours' caches are invisible to it) and, with the
            // budget this far under the working set, evicted too.
            EXPECT_GT(st.decodes, 0) << "engine " << i;
            EXPECT_GT(st.evictions, 0) << "engine " << i;
        } else {
            EXPECT_EQ(st.decodes, 0) << "engine " << i;
        }
        total_decodes += st.decodes;
    }
    // Isolation means work is repeated per engine, never shared: at
    // least one decode per serving engine.
    EXPECT_GE(total_decodes,
              static_cast<int64_t>(used.size()));
    std::remove(path.c_str());
}

TEST(Server, SubmitWaitTicketsAndErrorPropagation)
{
    std::string path = savedArtifact("rtn", "tickets");
    auto reader = serve::ArtifactReader::open(path);
    serve::ServerConfig cfg;
    cfg.threads = 2;
    serve::Server server(reader, cfg);

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
    // wait() without poisoning the server or leaking its engine.
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
    std::remove(path.c_str());
}

TEST(Server, DestructorDrainsInFlightRequests)
{
    std::string path = savedArtifact("edkm", "drain");
    auto reader = serve::ArtifactReader::open(path);
    std::vector<serve::Server::RequestId> ids;
    {
        serve::ServerConfig cfg;
        cfg.threads = 4;
        serve::Server server(reader, cfg);
        ids = server.submit(requestMix(16, 31));
        // No wait: the destructor must drain the queue without
        // crashing or deadlocking.
    }
    SUCCEED();
    std::remove(path.c_str());
}

TEST(Server, BatchedModeBitIdenticalToSerialWithSharedPrompts)
{
    std::string path = savedArtifact("edkm", "batched");
    auto reader = serve::ArtifactReader::open(path);

    // Mix of independent requests and a shared-prompt-head cluster so
    // the prefix cache engages mid-stream.
    std::vector<serve::Server::Request> requests = requestMix(16, 43);
    for (int i = 0; i < 8; ++i) {
        serve::Server::Request r;
        r.prompt = {9, 9, 9, 9, 9, 9, static_cast<int64_t>(i)};
        r.maxNewTokens = 3;
        requests.push_back(std::move(r));
    }
    serve::InferenceEngine serial(reader);
    std::vector<std::vector<int64_t>> want;
    for (const auto &r : requests) {
        want.push_back(serial.generate(r).tokens);
    }

    serve::ServerConfig cfg;
    cfg.batched = true;
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
    // The metrics surface reports the mode, the step histogram and a
    // warm prefix cache.
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"mode\": \"batched\""), std::string::npos);
    EXPECT_NE(json.find("\"batch_histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_depth\": 0"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Server, BatchedReleaseCancelsQueuedTicketWithoutWedgingTheLoop)
{
    std::string path = savedArtifact("rtn", "cancel");
    auto reader = serve::ArtifactReader::open(path);
    serve::ServerConfig cfg;
    cfg.batched = true;
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
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Hot model swap
// ---------------------------------------------------------------------

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

TEST(Server, ThreadedHotSwapIsPerGenerationBitExactAndReleasesOldMap)
{
    std::string path_a = savedArtifact("edkm", "swap_a");
    std::string path_b = savedArtifact("rtn", "swap_b");
    auto reader_a = serve::ArtifactReader::open(path_a);
    auto reader_b = serve::ArtifactReader::open(path_b);
    std::weak_ptr<const serve::ArtifactReader> old_map = reader_a;

    std::vector<serve::Server::Request> requests = requestMix(12, 61);
    std::vector<std::vector<int64_t>> want_a =
        serialWant(reader_a, requests);
    std::vector<std::vector<int64_t>> want_b =
        serialWant(reader_b, requests);

    serve::ServerConfig cfg;
    cfg.threads = 4;
    serve::Server server(std::move(reader_a), cfg);
    EXPECT_EQ(server.generation(), 0);

    std::vector<serve::Server::RequestId> ids_a =
        server.submit(requests);
    server.swap(reader_b); // drains generation 0 before returning
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

    // With the generation-0 tickets released and every engine rebuilt,
    // nothing pins the old mapping any more.
    EXPECT_TRUE(old_map.expired());
    std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"generation\": 1"), std::string::npos);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

// Swap-safety hammer: submissions race hot swaps in both modes; every
// ticket must complete (zero drops) and match the serial reference of
// the generation it reports — never a mix.
TEST(Server, SwapHammerSubmissionsRaceSwapsWithoutDropsOrMixing)
{
    std::string path_a = savedArtifact("edkm", "hammer_a");
    std::string path_b = savedArtifact("rtn", "hammer_b");
    auto reader_a = serve::ArtifactReader::open(path_a);
    auto reader_b = serve::ArtifactReader::open(path_b);

    std::vector<serve::Server::Request> requests = requestMix(8, 67);
    std::vector<std::vector<int64_t>> want[2] = {
        serialWant(reader_a, requests), serialWant(reader_b, requests)};

    serve::ServerConfig threaded;
    threaded.threads = 4;
    serve::ServerConfig batched;
    batched.batched = true;
    batched.scheduler.maxBatch = 3;
    batched.scheduler.prefixCacheBytes = 1 << 20;

    for (const serve::ServerConfig &cfg : {threaded, batched}) {
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
            serve::Server::RequestStats st =
                server.requestStats(ids[i]);
            ASSERT_GE(st.generation, 0);
            ASSERT_LE(st.generation, 3);
            // Even generation -> artifact A, odd -> artifact B.
            EXPECT_EQ(got.tokens,
                      want[st.generation % 2][i % requests.size()])
                << (cfg.batched ? "batched" : "threaded") << " ticket "
                << i << " generation " << st.generation;
        }
        EXPECT_EQ(server.completed(),
                  static_cast<int64_t>(ids.size()));
    }
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Server, BatchedHotSwapDrainsInFlightAndFlushesThePrefixCache)
{
    std::string path_a = savedArtifact("edkm", "bswap_a");
    std::string path_b = savedArtifact("rtn", "bswap_b");
    auto reader_a = serve::ArtifactReader::open(path_a);
    auto reader_b = serve::ArtifactReader::open(path_b);

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
    cfg.batched = true;
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
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------
// Deadlines, cancellation, latency metrics
// ---------------------------------------------------------------------

TEST(Server, TypedDeadlineAndCancelErrorsSurfaceFromWait)
{
    std::string path = savedArtifact("rtn", "typed");
    auto reader = serve::ArtifactReader::open(path);

    serve::ServerConfig threaded;
    threaded.threads = 2;
    serve::ServerConfig batched;
    batched.batched = true;
    for (const serve::ServerConfig &cfg : {threaded, batched}) {
        serve::Server server(reader, cfg);

        serve::Server::Request late({1, 2, 3}, 5);
        late.deadline = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1);
        EXPECT_THROW(server.wait(server.submit(std::move(late))),
                     serve::DeadlineExceeded);

        serve::Server::Request dead({4, 5}, 5);
        dead.cancel = std::make_shared<CancelToken>();
        dead.cancel->requestCancel();
        EXPECT_THROW(server.wait(server.submit(std::move(dead))),
                     serve::Cancelled);

        // The server keeps serving afterwards.
        EXPECT_EQ(server.wait(server.submit({{6}, 2})).tokens.size(),
                  3u);
    }
    std::remove(path.c_str());
}

TEST(Server, ReleaseCancelsInFlightTicketsAndFreesTheirSlots)
{
    std::string path = savedArtifact("rtn", "inflight");
    auto reader = serve::ArtifactReader::open(path);

    // Batched, maxBatch 2: FIFO admission means `longrun` is in a slot
    // once `quick` has completed. release() of the in-flight ticket
    // must evict it between steps and hand its slot to `next`.
    serve::ServerConfig cfg;
    cfg.batched = true;
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

    // Threaded: an in-flight release interrupts the engine mid-ticket.
    serve::ServerConfig tcfg;
    tcfg.threads = 1;
    serve::Server tserver(reader, tcfg);
    serve::Server::RequestId busy = tserver.submit({{1}, 2000});
    tserver.release(busy);
    EXPECT_THROW(tserver.wait(busy), FatalError);
    EXPECT_EQ(tserver.wait(tserver.submit({{2, 3}, 1})).tokens.size(),
              3u);
    std::remove(path.c_str());
}

TEST(Server, MetricsJsonCarriesLatencyHistogramsAndQueueWaitStats)
{
    std::string path = savedArtifact("fp16", "latency");
    auto reader = serve::ArtifactReader::open(path);

    serve::ServerConfig threaded;
    threaded.threads = 2;
    serve::ServerConfig batched;
    batched.batched = true;
    batched.scheduler.maxBatch = 2;
    for (const serve::ServerConfig &cfg : {threaded, batched}) {
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
              "\"p95_ms\"", "\"p99_ms\"", "\"count\": 8",
              "\"buckets\""}) {
            EXPECT_NE(json.find(key), std::string::npos)
                << (cfg.batched ? "batched" : "threaded") << " missing "
                << key;
        }
    }
    std::remove(path.c_str());
}

TEST(Server, BatchedDestructorDrainsQueuedAndInFlightTickets)
{
    std::string path = savedArtifact("edkm", "batcheddrain");
    auto reader = serve::ArtifactReader::open(path);
    {
        serve::ServerConfig cfg;
        cfg.batched = true;
        cfg.scheduler.maxBatch = 2; // most of the 16 sit queued
        serve::Server server(reader, cfg);
        std::vector<serve::Server::RequestId> ids =
            server.submit(requestMix(16, 53));
        server.release(ids.back()); // cancel one queued ticket too
        // No wait: the destructor must admit and finish every queued
        // ticket (or honour its cancellation) without deadlocking.
    }
    SUCCEED();
    std::remove(path.c_str());
}

} // namespace
} // namespace edkm
