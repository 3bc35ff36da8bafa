/**
 * @file
 * serve_stream / serve_chat / serve_rag: palettized serving through the
 * step-level BatchScheduler.
 *
 * The served model is a MiniLlama (dim 512, 8 heads, 4 layers, vocab
 * 2048) whose 2-D parameters are palettized with a fixed per-tensor LUT
 * (3 bits for Linears, 8 for the embedding) and nearest-LUT
 * assignments, saved as an artifact and served from its mapping.
 *
 * The benchmark owns the step loop, as serve::Server's batched mode
 * does: it admits sent requests while the scheduler has capacity, then
 * steps. With the default whole-prompt prefill every in-flight request
 * gets its first two tokens at the end of its first step and one token
 * per step after that, so token times are exact from outside: ttft is
 * first step end minus send time, itl the gap between later step ends.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "api/artifact.h"
#include "core/palettize.h"
#include "device/device_manager.h"
#include "harness.h"
#include "kernels/attention.h"
#include "nn/transformer.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "util/rng.h"

namespace e2e {

namespace {

using namespace edkm;
using serve::ArtifactReader;
using serve::BatchScheduler;
using serve::InferenceEngine;
using serve::KvCache;
using Request = InferenceEngine::Request;

constexpr int kSetups = 3;
constexpr int kColdStarts = 16;
constexpr int kChecked = 10; ///< completed requests re-generated serially
constexpr int kReplayReps = 5;
constexpr int kPrefillGrid = 5;
constexpr int64_t kWarmupTokens = 4;
/** New tokens of a sampled request the serial gate regenerates: greedy
 *  decode is prefix-closed, so they must equal the served prefix. */
constexpr int64_t kCheckedTokens = 8;

constexpr int64_t kLayers = 4;
constexpr int64_t kDim = 512;

nn::LlamaConfig
modelConfig(uint64_t seed)
{
    nn::LlamaConfig cfg;
    cfg.vocab = 2048;
    cfg.dim = kDim;
    cfg.heads = 8;
    cfg.layers = kLayers;
    cfg.seed = seed;
    return cfg;
}

/** K + V bytes one token position occupies across all layers. */
constexpr int64_t kKvBytesPerPosition =
    2 * kLayers * kDim * static_cast<int64_t>(sizeof(float));

/** Traffic shape of one serving workload: a closed loop of clients,
 *  each sending its next request as soon as the previous completes. */
struct Workload
{
    int clients = 1;
    int maxBatch = 8;
    int64_t promptMin = 0, promptMax = 0;
    int64_t newMin = 0, newMax = 0;
    bool sharedHeads = false; ///< the RAG prompt mix
    int64_t prefixPrompts = 0; ///< prefix-cache budget, in prompts
};

// RAG mix: 75% of prompts are one of 8 shared heads (Zipf 1.1) plus a
// unique tail, the rest are fresh prompts of the same length. More
// clients than batch slots, so a sent request can wait for a slot and
// queueing shows in ttft.
constexpr int kRagHeads = 8;
constexpr int64_t kRagHeadTokens = 32;
constexpr int64_t kRagTailTokens = 16;
constexpr int64_t kRagPromptTokens = kRagHeadTokens + kRagTailTokens;
constexpr int kRagClients = 6;
constexpr int kRagMaxBatch = 4;

// Shapes (prompt and output lengths, which prompts share a head and
// which head) come in one fixed order for every seed; --seed picks the
// model and what the requests say. Every seed thus asks the same work
// of the system, so run-to-run spread measures the system, not the draw.
constexpr uint64_t kShapeSeed = 4;

// Prefix-cache budget, in prompts of the workload's longest length.
// Every finished prefill banks its prompt. RAG holds 32, so after the
// first 32 requests each one evicts while most heads stay banked; the
// other workloads hold 4, so the cache is full (and its bytes steady)
// within a few requests.
constexpr int64_t kRagPrefixPrompts = 32;
constexpr int64_t kPrefixPrompts = 4;

// Closed loops start every client at once; the window opens after this
// many steps, once completions have spread the clients out.
constexpr int64_t kRampSteps = 16;

Workload
workloadFor(const std::string &name)
{
    Workload w;
    w.prefixPrompts = kPrefixPrompts;
    if (name == "serve_stream") {
        w.maxBatch = 1;
        w.promptMin = w.promptMax = 32;
        w.newMin = w.newMax = 64;
    } else if (name == "serve_chat") {
        w.clients = 8;
        w.promptMin = 16;
        w.promptMax = 64;
        w.newMin = 4;
        w.newMax = 28;
    } else {
        w.clients = kRagClients;
        w.maxBatch = kRagMaxBatch;
        w.promptMin = w.promptMax = kRagPromptTokens;
        w.newMin = 4;
        w.newMax = 12;
        w.sharedHeads = true;
        w.prefixPrompts = kRagPrefixPrompts;
    }
    return w;
}

/** Draws from a fixed multiset in shuffled order, reshuffling whenever
 *  it is spent. */
class Deck
{
  public:
    Deck(std::vector<int64_t> cards, Rng &rng)
        : cards_(std::move(cards)), next_(cards_.size()), rng_(&rng)
    {
    }

    int64_t
    draw()
    {
        if (next_ == cards_.size()) {
            rng_->shuffle(cards_);
            next_ = 0;
        }
        return cards_[next_++];
    }

  private:
    std::vector<int64_t> cards_;
    size_t next_;
    Rng *rng_;
};

std::vector<int64_t>
range(int64_t lo, int64_t hi)
{
    std::vector<int64_t> v;
    for (int64_t x = lo; x <= hi; ++x) {
        v.push_back(x);
    }
    return v;
}

/** Per 25 shared RAG prompts, how many use each head: Zipf(1.1). */
std::vector<int64_t>
zipfHeads()
{
    static const int kPer25[kRagHeads] = {10, 5, 3, 2, 2, 1, 1, 1};
    std::vector<int64_t> cards;
    for (int h = 0; h < kRagHeads; ++h) {
        cards.insert(cards.end(), kPer25[h], h);
    }
    return cards;
}

/**
 * The request stream of a workload: shapes in the fixed kShapeSeed
 * order, tokens from the seed. Every prompt that must not share a
 * prefix starts with a token no other prompt of the run starts with, so
 * the prefix cache can only hit where the workload shares.
 */
class RequestSource
{
  public:
    RequestSource(const Workload &w, uint64_t seed, int64_t vocab)
        : rng_(seed), shapes_(kShapeSeed), vocab_(vocab),
          firsts_(range(0, vocab - 1)),
          prompt_len_(range(w.promptMin, w.promptMax), shapes_),
          new_tokens_(range(w.newMin, w.newMax), shapes_),
          shared_({1, 1, 1, 0}, shapes_), head_(zipfHeads(), shapes_),
          shared_heads_(w.sharedHeads)
    {
        rng_.shuffle(firsts_);
        if (shared_heads_) {
            for (int h = 0; h < kRagHeads; ++h) {
                heads_.push_back(uniqueTokens(kRagHeadTokens));
            }
        }
    }

    Request
    next()
    {
        int64_t new_tokens = new_tokens_.draw();
        if (shared_heads_ && shared_.draw() == 1) {
            std::vector<int64_t> prompt =
                heads_[static_cast<size_t>(head_.draw())];
            for (int64_t i = 0; i < kRagTailTokens; ++i) {
                prompt.push_back(rng_.randint(0, vocab_ - 1));
            }
            return {std::move(prompt), new_tokens};
        }
        return {uniqueTokens(prompt_len_.draw()), new_tokens};
    }

    RequestSource(const RequestSource &) = delete; // decks point at shapes_
    RequestSource &operator=(const RequestSource &) = delete;

  private:
    std::vector<int64_t>
    uniqueTokens(int64_t n)
    {
        std::vector<int64_t> toks{firsts_[next_first_++ % firsts_.size()]};
        while (static_cast<int64_t>(toks.size()) < n) {
            toks.push_back(rng_.randint(0, vocab_ - 1));
        }
        return toks;
    }

    Rng rng_, shapes_;
    int64_t vocab_;
    std::vector<int64_t> firsts_;
    size_t next_first_ = 0;
    Deck prompt_len_, new_tokens_, shared_, head_;
    bool shared_heads_;
    std::vector<std::vector<int64_t>> heads_;
};

/**
 * A MiniLlama with every 2-D parameter palettized against a fixed LUT
 * (evenly spaced over the tensor's range) by nearest assignment — the
 * edkm compressor's layout without paying for k-means in set-up.
 */
api::ModelArtifact
buildArtifact(uint64_t seed)
{
    nn::LlamaConfig cfg = modelConfig(seed);
    nn::MiniLlama model(cfg);
    api::ModelArtifact art;
    art.scheme = "edkm";
    art.config = cfg;
    for (const auto &[name, param] : model.namedParameters()) {
        const Tensor &w = param.data();
        if (w.dim() != 2) {
            art.entries.push_back(api::encodeRawF32(name, w));
            continue;
        }
        int bits = name == "embed.weight" ? 8 : 3;
        std::vector<float> values = w.toVector();
        auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        std::vector<float> lut(size_t{1} << bits);
        for (size_t j = 0; j < lut.size(); ++j) {
            lut[j] = *lo + (*hi - *lo) * (static_cast<float>(j) + 0.5f) /
                               static_cast<float>(lut.size());
        }
        std::vector<int32_t> assign(values.size());
        kernels::assignNearest(lut, values.data(),
                               static_cast<int64_t>(values.size()),
                               assign.data());
        PalettizedTensor p =
            PalettizedTensor::fromAssignments(w.shape(), lut, assign, bits);
        api::ArtifactEntry e;
        e.name = name;
        e.codec = api::Codec::kPalettized;
        e.bits = bits;
        e.shape = w.shape();
        e.payload = p.serialize();
        art.entries.push_back(std::move(e));
    }
    return art;
}

/** One request's life, as the load generator saw it. */
struct Record
{
    Request request;
    int client = -1;
    bool sampled = false; ///< sent inside the window
    Clock::time_point sent, admitted, lastToken;
    bool started = false; ///< prefilled; first tokens landed
    bool done = false;
    bool failed = false;
    std::vector<int64_t> tokens;
    serve::SchedulerRequestStats stats;
};

struct StepSample
{
    Clock::time_point begin, end;
    bool inWindow = false;
    int64_t tokens = 0;
    int64_t decodeBatch = 0;
    int64_t kvBytes = 0; ///< in-flight KV plus banked prefix bytes
};

/** A run of the load generator: every request and step, and the
 *  latency samples of the requests sent inside the window. */
struct Window
{
    std::vector<Record> requests;
    std::vector<StepSample> steps;
    std::vector<double> ttftMs, itlMs, queueMs;
    int64_t cpuPeak = 0;
};

Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/**
 * The load generator and step loop. Every client sends its next request
 * at the end of the step that completed its previous one, so which
 * requests share a step follows from the shapes alone, not from timing.
 * The loop stops when the window closes, cutting what is still in
 * flight.
 */
Window
runWindow(const Workload &w, BatchScheduler &sched, RequestSource &source,
          double seconds, Tracer &tracer)
{
    Window win;
    std::vector<Record> &reqs = win.requests;
    std::deque<size_t> queue; // sent, not yet admitted; in send order
    std::vector<size_t> inflight;
    bool open_window = false;
    // The window has no end until the ramp is over.
    Clock::time_point end = Clock::time_point::max();

    auto send = [&](Clock::time_point at, int client) {
        Record r;
        r.request = source.next();
        r.client = client;
        r.sent = at;
        r.sampled = open_window;
        queue.push_back(reqs.size());
        reqs.push_back(std::move(r));
    };
    Clock::time_point begin = Clock::now();
    for (int c = 0; c < w.clients; ++c) {
        send(begin, c);
    }
    DeviceManager::instance().resetStats();

    for (int64_t ramp_steps = 0;;) {
        Clock::time_point now = Clock::now();
        while (!queue.empty() && sched.hasCapacity()) {
            size_t id = queue.front();
            queue.pop_front();
            Record &r = reqs[id];
            r.admitted = now;
            if (r.sampled) {
                win.queueMs.push_back(msBetween(r.sent, now));
            }
            tracer.span("queue", r.sent, now, static_cast<int64_t>(id));
            sched.admit(r.request,
                        [&reqs, id](InferenceEngine::Response &&res,
                                    std::exception_ptr err,
                                    const serve::SchedulerRequestStats &st) {
                            Record &rec = reqs[id];
                            rec.done = true;
                            rec.failed = err != nullptr;
                            rec.tokens = std::move(res.tokens);
                            rec.stats = st;
                        });
            if (!r.done) {
                inflight.push_back(id);
            }
        }
        if (!sched.busy()) {
            break; // only when there are no clients
        }
        StepSample s;
        for (size_t id : inflight) {
            const Request &q = reqs[id].request;
            s.kvBytes +=
                (static_cast<int64_t>(q.prompt.size()) + q.maxNewTokens - 1) *
                kKvBytesPerPosition;
        }
        serve::SchedulerStats before = sched.stats();
        s.begin = Clock::now();
        sched.step();
        s.end = Clock::now();
        const serve::SchedulerStats &st = sched.stats();
        s.inWindow = open_window && s.end <= end;
        s.decodeBatch = st.decodedTokens - before.decodedTokens;
        s.tokens = s.decodeBatch + (st.prefillChunks - before.prefillChunks);
        s.kvBytes += sched.prefixStats().bytes;
        tracer.span("scheduler.step", s.begin, s.end);
        for (size_t id : inflight) {
            Record &r = reqs[id];
            if (r.failed) {
                continue;
            }
            auto rid = static_cast<int64_t>(id);
            if (r.started) {
                tracer.span("decode", r.lastToken, s.end, rid);
                if (r.sampled) {
                    win.itlMs.push_back(msBetween(r.lastToken, s.end));
                }
            } else {
                tracer.span("prefill", r.admitted, s.end, rid);
                if (r.sampled) {
                    win.ttftMs.push_back(msBetween(r.sent, s.end));
                }
            }
            r.started = true;
            r.lastToken = s.end;
        }
        win.steps.push_back(s);
        if (!open_window && ++ramp_steps == kRampSteps) {
            open_window = true;
            end = after(s.end, seconds);
            DeviceManager::instance().resetStats();
        }
        if (s.end >= end) {
            break; // clients stop; requests still in flight are cut
        }
        for (size_t id : inflight) {
            if (reqs[id].done) {
                send(s.end, reqs[id].client);
            }
        }
        inflight.erase(std::remove_if(inflight.begin(), inflight.end(),
                                      [&](size_t id) {
                                          return reqs[id].done;
                                      }),
                       inflight.end());
    }
    win.cpuPeak = DeviceManager::instance().stats(Device::cpu()).peakBytes;
    return win;
}

std::vector<int64_t>
randomTokens(Rng &rng, int64_t n, int64_t vocab)
{
    std::vector<int64_t> toks;
    for (int64_t i = 0; i < n; ++i) {
        toks.push_back(rng.randint(0, vocab - 1));
    }
    return toks;
}

/** A set-up's products: the served artifact, opened and warmed up. */
struct Served
{
    std::string path;
    std::shared_ptr<ArtifactReader> reader;
    std::unique_ptr<InferenceEngine> engine;
};

Served
setUp(const Options &opt, const Workload &w)
{
    Served s;
    s.path = opt.workDir + "/" + opt.workload + "-" +
             std::to_string(opt.seed) + "-" + std::to_string(getpid()) +
             ".edkm";
    buildArtifact(opt.seed).save(s.path);
    s.reader = ArtifactReader::open(s.path);
    s.engine = std::make_unique<InferenceEngine>(s.reader);

    // Warm up on a throwaway scheduler: one prompt of the workload's
    // longest length, then a full batch of short requests, so lazy
    // section views and RoPE tables are in place before timing.
    Rng rng(opt.seed + 0x9e3779b9ULL);
    const int64_t vocab = s.engine->config().vocab;
    serve::SchedulerConfig cfg;
    cfg.maxBatch = w.maxBatch;
    BatchScheduler warm(*s.engine, cfg);
    warm.run({Request(randomTokens(rng, w.promptMax, vocab), kWarmupTokens)});
    std::vector<Request> batch;
    for (int i = 0; i < w.maxBatch; ++i) {
        batch.emplace_back(randomTokens(rng, 8, vocab), kWarmupTokens);
    }
    warm.run(std::move(batch));
    return s;
}

/** Writes @p path's dirty pages to disk now, so that their writeback
 *  does not compete with the timed phases for the cores. */
void
flushToDisk(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    bool ok = fd >= 0 && ::fdatasync(fd) == 0;
    if (fd >= 0) {
        ::close(fd);
    }
    if (!ok) {
        throw std::runtime_error("cannot flush " + path);
    }
}

/** Copy rows [0, n) of @p src into @p dst, which restarts empty. */
void
copyRows(const KvCache &src, int64_t n, KvCache &dst)
{
    dst.reset();
    if (n == 0) {
        return;
    }
    for (int64_t l = 0; l < src.layers(); ++l) {
        dst.write(l, src.k(l).slice(1, 0, n).contiguous(),
                  src.v(l).slice(1, 0, n).contiguous());
    }
    dst.advance(n);
}

/**
 * Replays the engine calls the window's steps were made of — one
 * batched decode per step at its batch size, one prefill chunk per
 * admitted request at its restored position and length — as direct
 * calls, plus the palettized matmuls and the pooled/serial decode.
 * Fills the replayed per-layer metrics; returns the replayed engine
 * milliseconds summed over every step.
 */
double
replay(const Window &win, Served &served, uint64_t seed, Metrics &l)
{
    InferenceEngine &engine = *served.engine;
    const nn::LlamaConfig &cfg = engine.config();
    const int64_t groups = cfg.heads, head_dim = cfg.dim / cfg.heads;
    Rng rng(seed + 17);

    // A real KV image to start every replayed request from.
    std::vector<double> positions;
    int64_t longest = 0;
    for (const Record &r : win.requests) {
        int64_t p = static_cast<int64_t>(r.request.prompt.size());
        positions.push_back(static_cast<double>(p) +
                            static_cast<double>(r.request.maxNewTokens) /
                                2.0);
        longest = std::max(longest, p + r.request.maxNewTokens);
    }
    auto pos = static_cast<int64_t>(median(positions));
    KvCache image(cfg.layers, groups, head_dim, longest);
    engine.prefill(Tensor::fromIndices(randomTokens(rng, longest, cfg.vocab),
                                       {1, longest}),
                   image);

    // Decode: every batch size the window ran, plus 1, 4 and 8.
    std::vector<int64_t> batches{1, 4, 8};
    for (const StepSample &s : win.steps) {
        if (s.decodeBatch > 0) {
            batches.push_back(s.decodeBatch);
        }
    }
    std::sort(batches.begin(), batches.end());
    batches.erase(std::unique(batches.begin(), batches.end()),
                  batches.end());
    std::vector<double> decode_ms(static_cast<size_t>(batches.back()) + 1);
    for (int64_t b : batches) {
        std::vector<std::unique_ptr<KvCache>> kvs;
        std::vector<KvCache *> ptrs;
        for (int64_t i = 0; i < b; ++i) {
            kvs.push_back(std::make_unique<KvCache>(
                cfg.layers, groups, head_dim, pos + kReplayReps));
            copyRows(image, pos, *kvs.back());
            ptrs.push_back(kvs.back().get());
        }
        std::vector<int64_t> toks = randomTokens(rng, b, cfg.vocab);
        decode_ms[static_cast<size_t>(b)] = replayMs(
            kReplayReps, [&] { engine.decodeStepBatch(toks, ptrs); });
    }
    l["engine.decode_step_ms.b1"].value = decode_ms[1];
    l["engine.decode_step_ms.b4"].value = decode_ms[4];
    l["engine.decode_step_ms.b8"].value = decode_ms[8];

    // Prefill: per restored position, a grid of at most kPrefillGrid
    // chunk lengths spanning the recorded ones, interpolated between.
    std::map<int64_t, std::vector<int64_t>> lengths; // restored -> lengths
    for (const Record &r : win.requests) {
        if (r.started) {
            int64_t p0 = r.stats.reusedPrefixTokens;
            lengths[p0].push_back(
                static_cast<int64_t>(r.request.prompt.size()) - p0);
        }
    }
    KvCache kv(cfg.layers, groups, head_dim, longest);
    double prefill_total = 0.0;
    int64_t prefill_tokens = 0;
    for (const auto &[p0, lens] : lengths) {
        auto [lo, hi] = std::minmax_element(lens.begin(), lens.end());
        std::vector<double> grid, grid_ms;
        for (int i = 0; i < kPrefillGrid; ++i) {
            double len =
                std::round(*lo + (*hi - *lo) * i / (kPrefillGrid - 1.0));
            if (!grid.empty() && len == grid.back()) {
                continue;
            }
            auto n = static_cast<int64_t>(len);
            Tensor toks =
                Tensor::fromIndices(randomTokens(rng, n, cfg.vocab), {1, n});
            std::vector<double> ms;
            for (int rep = 0; rep < 3; ++rep) {
                copyRows(image, p0, kv);
                Clock::time_point t0 = Clock::now();
                engine.prefillChunk(toks, kv);
                ms.push_back(msSince(t0));
            }
            grid.push_back(len);
            grid_ms.push_back(median(ms));
        }
        for (int64_t len : lens) {
            size_t i = static_cast<size_t>(
                std::lower_bound(grid.begin(), grid.end(),
                                 static_cast<double>(len)) -
                grid.begin());
            double ms = grid_ms[i];
            if (i > 0 && grid[i] != static_cast<double>(len)) {
                double f = (static_cast<double>(len) - grid[i - 1]) /
                           (grid[i] - grid[i - 1]);
                ms = grid_ms[i - 1] + f * (grid_ms[i] - grid_ms[i - 1]);
            }
            prefill_total += ms;
            prefill_tokens += len;
        }
    }
    l["engine.prefill_ms_per_tok"].value =
        prefill_total / static_cast<double>(std::max<int64_t>(
                            prefill_tokens, 1));

    double decode_total = 0.0;
    for (const StepSample &s : win.steps) {
        if (s.decodeBatch > 0) {
            decode_total += decode_ms[static_cast<size_t>(s.decodeBatch)];
        }
    }

    // Palettized matmuls over every palettized Linear, m = 1 and 8.
    std::vector<PaletteView> views;
    int64_t weight_bytes = 0;
    for (const api::TensorSection &s : served.reader->sections()) {
        if (s.codec == api::Codec::kPalettized && s.name != "embed.weight") {
            views.push_back(served.reader->paletteView(s.name));
            weight_bytes += s.bytes;
        }
    }
    for (int64_t m : {1, 8}) {
        std::vector<Tensor> xs;
        for (const PaletteView &v : views) {
            xs.push_back(Tensor::randn({m, v.shape[1]}, rng));
        }
        l[m == 1 ? "palettize.matmul_ms.m1" : "palettize.matmul_ms.m8"]
            .value = replayMs(kReplayReps, [&] {
            for (size_t i = 0; i < views.size(); ++i) {
                paletteMatmulT(xs[i], views[i]);
            }
        });
    }
    // Every decode step reads each Linear's packed weights once for the
    // whole batch, plus one 8-bit embedding row per token (computed from
    // tensor sizes, not measured).
    double batch_mean = l["scheduler.batch_mean"].value;
    l["palettize.bytes_per_token"].value =
        batch_mean > 0.0 ? static_cast<double>(weight_bytes) / batch_mean +
                               static_cast<double>(cfg.dim)
                         : 0.0;

    // Intra-op parallelism: batch-1 decode serial over pooled.
    KvCache one(cfg.layers, groups, head_dim, pos + 2 * kReplayReps);
    copyRows(image, pos, one);
    std::vector<KvCache *> ones{&one};
    std::vector<int64_t> tok{1};
    double serial_ms = 0.0;
    {
        runtime::SerialGuard guard;
        serial_ms = replayMs(kReplayReps,
                             [&] { engine.decodeStepBatch(tok, ones); });
    }
    double pooled_ms =
        replayMs(kReplayReps, [&] { engine.decodeStepBatch(tok, ones); });
    l["runtime.decode_speedup"].value = serial_ms / pooled_ms;
    return decode_total + prefill_total;
}

} // namespace

RunResult
runServing(const Options &opt, Tracer &tracer)
{
    runtime::Runtime::instance().setThreadCount(kLanes);
    const Workload w = workloadFor(opt.workload);
    RunResult res;

    // Set-up, repeated: build, palettize and save the model, open it,
    // warm up. The last set-up's artifact and engine are served.
    std::vector<double> setup_s;
    Served served;
    for (int s = 0; s < kSetups; ++s) {
        served = Served{}; // unmap before the file is rewritten
        Clock::time_point t0 = Clock::now();
        served = setUp(opt, w);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    flushToDisk(served.path);

    // Cold start: open + engine + first logits, from the saved file.
    // Half the repetitions run before the window and half after it, so
    // the median spans the run rather than one moment of it.
    Rng prompt_rng(opt.seed + 3);
    Tensor probe = Tensor::fromIndices(
        randomTokens(prompt_rng, 32, served.engine->config().vocab),
        {1, 32});
    std::vector<double> cold_ms, open_ms, logits_ms;
    std::vector<float> engine_logits;
    auto cold_starts = [&](int n) {
        for (int i = 0; i < n; ++i) {
            Clock::time_point t0 = Clock::now();
            auto reader = ArtifactReader::open(served.path);
            Clock::time_point t1 = Clock::now();
            InferenceEngine engine(reader);
            Clock::time_point t2 = Clock::now();
            engine_logits = engine.forward(probe).toVector();
            Clock::time_point t3 = Clock::now();
            cold_ms.push_back(msBetween(t0, t3));
            open_ms.push_back(msBetween(t0, t1));
            logits_ms.push_back(msBetween(t2, t3));
        }
    };
    cold_starts(kColdStarts / 2);

    // Timed window on a fresh scheduler over the warm engine.
    serve::SchedulerConfig cfg;
    cfg.maxBatch = w.maxBatch;
    cfg.prefixCacheBytes =
        w.prefixPrompts * w.promptMax * kKvBytesPerPosition;
    BatchScheduler sched(*served.engine, cfg);
    RequestSource source(w, opt.seed, served.engine->config().vocab);
    serve::EngineStats engine_before = served.engine->stats();
    Window win = runWindow(w, sched, source, opt.seconds, tracer);
    serve::EngineStats engine_after = served.engine->stats();
    cold_starts(kColdStarts - kColdStarts / 2);

    // Correctness 1: engine logits equal the eagerly reconstructed
    // model's forward on the same prompt.
    bool logits_equal = false;
    {
        NoGradGuard ng;
        nn::MiniLlama eager = api::ModelArtifact::load(served.path)
                                  .reconstruct();
        logits_equal = eager.forward(probe).data().toVector() ==
                       engine_logits;
    }
    // Correctness 2: a seeded sample of completed requests equals a
    // fresh serial generate (over its first kCheckedTokens tokens).
    std::vector<size_t> completed;
    for (size_t i = 0; i < win.requests.size(); ++i) {
        if (win.requests[i].done && !win.requests[i].failed) {
            completed.push_back(i);
        }
    }
    Rng pick(opt.seed + 11);
    pick.shuffle(completed);
    completed.resize(std::min<size_t>(completed.size(), kChecked));
    bool outputs_equal = !completed.empty();
    {
        InferenceEngine fresh(served.reader);
        for (size_t id : completed) {
            Request q = win.requests[id].request;
            q.maxNewTokens = std::min(q.maxNewTokens, kCheckedTokens);
            std::vector<int64_t> served_prefix(
                win.requests[id].tokens.begin(),
                win.requests[id].tokens.begin() +
                    static_cast<std::ptrdiff_t>(q.prompt.size()) +
                    q.maxNewTokens);
            outputs_equal =
                outputs_equal && fresh.generate(q).tokens == served_prefix;
        }
    }

    int64_t ok = 0, finished = 0;
    for (const Record &r : win.requests) {
        finished += r.done ? 1 : 0;
        ok += r.done && !r.failed ? 1 : 0;
    }
    res.attempted = finished;
    res.failed = finished - ok;
    res.correct = logits_equal && outputs_equal && res.failed == 0;
    if (!logits_equal || !outputs_equal) {
        std::fprintf(stderr,
                     "edkm_bench: %s output check failed (logits %s, "
                     "%zu sampled requests %s)\n",
                     opt.workload.c_str(), logits_equal ? "ok" : "DIFFER",
                     completed.size(), outputs_equal ? "ok" : "DIFFER");
    }

    std::vector<double> step_ms, all_step_ms;
    int64_t window_tokens = 0, kv_peak = 0;
    for (const StepSample &s : win.steps) {
        all_step_ms.push_back(msBetween(s.begin, s.end));
        if (s.inWindow) {
            step_ms.push_back(msBetween(s.begin, s.end));
            window_tokens += s.tokens;
            kv_peak = std::max(kv_peak, s.kvBytes);
        }
    }
    double tok_s = static_cast<double>(window_tokens) / opt.seconds;
    Metrics &e = res.endToEnd;
    e["setup_s"] = {median(setup_s), "s"};
    e["cold_start_ms"] = {median(cold_ms), "ms"};
    e["step_s"] = {mean(step_ms) / 1e3, "s"};
    e["tok_s"] = {tok_s, "tok/s"};
    e["ttft_p50_ms"] = {quantile(win.ttftMs, 0.5), "ms"};
    e["ttft_p90_ms"] = {quantile(win.ttftMs, 0.9), "ms"};
    e["itl_p50_ms"] = {quantile(win.itlMs, 0.5), "ms"};
    e["itl_p90_ms"] = {quantile(win.itlMs, 0.9), "ms"};
    e["saved_bytes"] = {static_cast<double>(kv_peak), "B"};
    e["device_peak_bytes"] = {
        static_cast<double>(served.reader->fileBytes() + win.cpuPeak), "B"};
    e["host_peak_bytes"] = {static_cast<double>(win.cpuPeak), "B"};
    e["ok_frac"] = {static_cast<double>(ok) /
                        static_cast<double>(std::max<int64_t>(finished, 1)),
                    "ratio"};

    if (opt.trace) {
        Metrics &l = res.perLayer;
        addLayerDefaults(l);
        const serve::SchedulerStats &st = sched.stats();
        serve::PrefixCacheStats px = sched.prefixStats();
        l["scheduler.step_ms_p50"].value = quantile(step_ms, 0.5);
        l["scheduler.step_ms_p99"].value = quantile(step_ms, 0.99);
        l["scheduler.batch_mean"].value =
            st.steps > 0 ? static_cast<double>(st.decodedTokens) /
                               static_cast<double>(st.steps)
                         : 0.0;
        l["scheduler.queue_ms_p90"].value = quantile(win.queueMs, 0.9);
        l["scheduler.steps"].value = static_cast<double>(st.steps);
        l["scheduler.prefill_tokens"].value =
            static_cast<double>(st.prefillTokens);
        l["scheduler.decoded_tokens"].value =
            static_cast<double>(st.decodedTokens);
        int64_t lookups = px.hits + px.misses;
        l["prefix.hit_rate"].value =
            lookups > 0 ? static_cast<double>(px.hits) /
                              static_cast<double>(lookups)
                        : 0.0;
        l["prefix.reused_tokens"].value = static_cast<double>(px.reusedTokens);
        l["prefix.insertions"].value = static_cast<double>(px.insertions);
        l["prefix.evictions"].value = static_cast<double>(px.evictions);
        l["engine.streamed_matmuls"].value = static_cast<double>(
            engine_after.streamedMatmuls - engine_before.streamedMatmuls);
        l["engine.fused_decodes"].value = static_cast<double>(
            engine_after.fusedDecodes - engine_before.fusedDecodes);
        l["reader.open_ms"].value = median(open_ms);
        l["reader.first_logits_ms"].value = median(logits_ms);
        l["loadgen.sent"].value = static_cast<double>(win.requests.size());
        l["loadgen.ok"].value = static_cast<double>(ok);
        l["loadgen.failed"].value = static_cast<double>(finished - ok);

        double step_total = 0.0;
        for (double ms : all_step_ms) {
            step_total += ms;
        }
        double engine_ms = replay(win, served, opt.seed, l);
        l["scheduler.self_ms_per_step"].value =
            (step_total - engine_ms) /
            static_cast<double>(std::max<size_t>(all_step_ms.size(), 1));
        l["trace.replay_share"].value = engine_ms / step_total;
        l["trace.step_s"].value = mean(step_ms) / 1e3;
        l["trace.tok_s"].value = tok_s;
    }
    std::remove(served.path.c_str());
    return res;
}

} // namespace e2e
