/**
 * @file
 * train_layer: eDKM fine-tuning steps on one attention layer (the
 * paper's Table 2 object, M+U+S, at a quarter of its side).
 *
 * A step clusters each of the four 1024x1024 projections with
 * EdkmLayer::forward under a fresh MarshalContext, takes the mean of
 * (x W~^T)^2 over a fixed 64-row activation batch as the loss, runs
 * backward, then one AdamW step (paper defaults, clip 1.0). AdamW moves
 * the weights, so no step can reuse the previous step's work.
 *
 * End-to-end metrics read a step the way a trainer waits on it: the
 * "tokens" of a step are the four weights' gradients, so ttft is the
 * time to the first gradient and itl the gap between the next ones,
 * and the cold start is a fresh job's time to its first gradient.
 */

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "autograd/node.h"
#include "core/edkm.h"
#include "core/uniquify.h"
#include "device/device_manager.h"
#include "dist/learner_group.h"
#include "harness.h"
#include "kernels/attention.h"
#include "marshal/marshal.h"
#include "nn/adamw.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace e2e {

namespace {

using namespace edkm;

constexpr int64_t kSide = 1024;
constexpr int kWeights = 4; // q, k, v, o
constexpr int64_t kBatchRows = 64;
constexpr int kBits = 3;
constexpr int kIters = 3;
constexpr int kLearners = 8;
constexpr int kSetups = 4;
constexpr int kSetupsBefore = 2; ///< the rest run after the window
constexpr int kMinSteps = 3;
constexpr int kReplayReps = 3;

/** Everything one training job holds between steps. */
struct Trainer
{
    std::vector<Variable> weights; ///< bf16-representable, on gpu(0)
    Variable x;                    ///< fixed [64, 1024] activation batch
    std::shared_ptr<LearnerGroup> group;
    std::vector<EdkmLayer> layers;
    std::unique_ptr<nn::AdamW> opt;
};

EdkmConfig
layerConfig()
{
    EdkmConfig cfg;
    cfg.dkm.bits = kBits;
    cfg.dkm.maxIters = kIters;
    cfg.dkm.convergenceEps = 0.0f;
    cfg.uniquify = true;
    cfg.shard = true;
    cfg.backwardMode = EdkmConfig::BackwardMode::kReconstruct;
    return cfg;
}

MarshalConfig
marshalConfig()
{
    MarshalConfig mc;
    mc.detection = MarshalConfig::Detection::kGraphWalk;
    mc.minOffloadBytes = 1;
    return mc;
}

std::unique_ptr<Trainer>
makeTrainer(uint64_t seed)
{
    auto t = std::make_unique<Trainer>();
    Rng rng(seed);
    for (int i = 0; i < kWeights; ++i) {
        Tensor w = Tensor::randn({kSide, kSide}, rng, Device::cpu(), 0.02f)
                       .to(DType::kBf16)
                       .to(DType::kF32)
                       .to(Device::gpu(0));
        t->weights.emplace_back(w, true);
    }
    t->x = Variable(
        Tensor::randn({kBatchRows, kSide}, rng).to(Device::gpu(0)));
    t->group = std::make_shared<LearnerGroup>(kLearners);
    for (int i = 0; i < kWeights; ++i) {
        t->layers.emplace_back(layerConfig(), t->group);
    }
    t->opt = std::make_unique<nn::AdamW>(t->weights);
    return t;
}

/** W~ and gradient bits of one step, for the SerialGuard gate. */
struct Capture
{
    std::vector<std::vector<float>> clustered, grads;
};

struct StepRecord
{
    double stepMs = 0.0;
    std::array<double, kWeights> gradReadyMs{}; ///< since step start
    double forwardMs = 0.0, syncMs = 0.0, backwardMs = 0.0, adamwMs = 0.0;
    int64_t savedBytes = 0;
    int64_t gpuPeak = 0, cpuPeak = 0;
    int64_t uniqueCount = 0;
    MarshalStats marshal;
    TransferLedger ledger;
    DistStats dist;
    double simSeconds = 0.0;
    bool finite = true;
};

Variable
lossOf(const Variable &x, const Variable &clustered)
{
    return af::meanAll(
        af::square(af::matmul(x, af::transpose(clustered, 0, 1))));
}

void
addMarshal(MarshalStats &acc, const MarshalStats &s)
{
    acc.packs += s.packs;
    acc.copies += s.copies;
    acc.duplicatesAvoided += s.duplicatesAvoided;
    acc.bytesCopied += s.bytesCopied;
}

StepRecord
trainStep(Trainer &t, Tracer &tracer, Capture *capture)
{
    DeviceManager &mgr = DeviceManager::instance();
    mgr.resetStats();
    t.group->resetStats();
    StepRecord rec;
    Clock::time_point t0 = Clock::now();
    t.opt->zeroGrad();
    for (int i = 0; i < kWeights; ++i) {
        MarshalContext ctx(marshalConfig());
        Variable clustered, loss;
        Clock::time_point f0 = Clock::now();
        {
            SavedTensorHooksGuard guard(&ctx);
            clustered = t.layers[i].forward(t.weights[i]);
            Clock::time_point f1 = Clock::now();
            loss = lossOf(t.x, clustered);
            Clock::time_point f2 = Clock::now();
            tracer.span("edkm.forward", f0, f1);
            tracer.span("loss", f1, f2);
            rec.forwardMs += msBetween(f0, f1);
        }
        rec.savedBytes += ctx.residentBytes();
        rec.uniqueCount =
            std::max(rec.uniqueCount, t.layers[i].report().uniqueCount);
        rec.finite = rec.finite && std::isfinite(loss.data().item());
        Clock::time_point s0 = Clock::now();
        ctx.sync();
        Clock::time_point b0 = Clock::now();
        backward(loss);
        Clock::time_point b1 = Clock::now();
        tracer.span("marshal.sync", s0, b0);
        tracer.span("autograd.backward", b0, b1);
        rec.syncMs += msBetween(s0, b0);
        rec.backwardMs += msBetween(b0, b1);
        rec.gradReadyMs[i] = msBetween(t0, b1);
        addMarshal(rec.marshal, ctx.stats());
        if (capture != nullptr) {
            capture->clustered.push_back(clustered.data().toVector());
            capture->grads.push_back(t.weights[i].grad().toVector());
        }
    }
    Clock::time_point a0 = Clock::now();
    nn::AdamW::clipGradNorm(t.weights, 1.0f);
    t.opt->step();
    Clock::time_point t1 = Clock::now();
    tracer.span("adamw.step", a0, t1);
    tracer.span("train.step", t0, t1);
    rec.adamwMs = msBetween(a0, t1);
    rec.stepMs = msBetween(t0, t1);
    rec.gpuPeak = mgr.stats(Device::gpu(0)).peakBytes;
    rec.cpuPeak = mgr.stats(Device::cpu()).peakBytes;
    rec.ledger = mgr.ledger();
    rec.simSeconds = mgr.simulatedSeconds();
    rec.dist = t.group->stats();
    return rec;
}

bool
sameBits(const std::vector<std::vector<float>> &a,
         const std::vector<std::vector<float>> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].size() * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

/**
 * Direct calls into the layers a step is made of, at the step's shapes:
 * fills the replayed kernel metrics and returns the replayed share of
 * the mean step.
 */
double
replay(Trainer &t, double step_ms, Metrics &layers)
{
    const Tensor w = t.weights[0].data();
    UniqueDecomposition dec;
    layers["uniquify.ms"].value = replayMs(
        kReplayReps, [&] { dec = uniquify(w, HalfKind::kBf16); });

    Tensor u = Tensor::fromVector(dec.values, {dec.uniqueCount()});
    Tensor c = t.layers[0].centroids().to(Device::cpu());
    float tau = t.layers[0].report().temperatureUsed;
    Tensor table;
    layers["kernels.attention_table_ms"].value = replayMs(
        kReplayReps, [&] { table = kernels::attentionTable(u, c, tau); });
    layers["kernels.gather_rows_ms"].value = replayMs(kReplayReps, [&] {
        kernels::gatherTableRows(table, dec.indexList);
    });

    // One weight's forward + loss + backward, then the optimizer.
    EdkmLayer layer(layerConfig(), t.group);
    double per_weight = replayMs(kReplayReps, [&] {
        MarshalContext ctx(marshalConfig());
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            loss = lossOf(t.x, layer.forward(t.weights[0]));
        }
        backward(loss);
    });
    double optimizer = replayMs(kReplayReps, [&] {
        nn::AdamW::clipGradNorm(t.weights, 1.0f);
        t.opt->step();
    });
    return (kWeights * per_weight + optimizer) / step_ms;
}

} // namespace

RunResult
runTrainLayer(const Options &opt, Tracer &tracer)
{
    runtime::Runtime::instance().setThreadCount(kLanes);
    RunResult res;

    // Set-up, repeated: build the job and take one warmup step, the
    // job's cold start. The set-ups before the window train in turn; the
    // last one trains in the window, and its warmup step is the pooled
    // side of the SerialGuard gate. The rest run after the window, so
    // the medians span the run rather than one moment of it.
    std::vector<double> setup_s, cold_ms;
    Tracer quiet(false);
    auto set_up = [&](Capture *capture) {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Trainer> t = makeTrainer(opt.seed);
        double built_ms = msSince(t0);
        StepRecord cold = trainStep(*t, quiet, capture);
        setup_s.push_back(msSince(t0) / 1e3);
        cold_ms.push_back(built_ms + cold.gradReadyMs[0]);
        return t;
    };
    std::unique_ptr<Trainer> trainer;
    Capture pooled;
    for (int s = 0; s < kSetupsBefore; ++s) {
        trainer.reset();
        trainer = set_up(s == kSetupsBefore - 1 ? &pooled : nullptr);
    }

    // Timed window.
    std::vector<StepRecord> steps;
    Clock::time_point w0 = Clock::now();
    while (static_cast<int>(steps.size()) < kMinSteps ||
           msSince(w0) < opt.seconds * 1e3) {
        steps.push_back(trainStep(*trainer, tracer, nullptr));
    }
    double window_s = msSince(w0) / 1e3;
    for (int s = kSetupsBefore; s < kSetups; ++s) {
        set_up(nullptr);
    }

    // Correctness: the first step of a fresh job, recomputed serially,
    // must reproduce the pooled W~ and gradients bit for bit.
    Capture serial;
    {
        runtime::SerialGuard guard;
        std::unique_ptr<Trainer> fresh = makeTrainer(opt.seed);
        trainStep(*fresh, quiet, &serial);
    }
    bool bits_equal = sameBits(pooled.clustered, serial.clustered) &&
                      sameBits(pooled.grads, serial.grads);
    int64_t finite_steps = 0;
    for (const StepRecord &r : steps) {
        finite_steps += r.finite ? 1 : 0;
    }
    res.attempted = static_cast<int64_t>(steps.size());
    res.failed = res.attempted - finite_steps;
    res.correct = bits_equal && res.failed == 0;

    std::vector<double> step_ms, ttft, itl;
    int64_t gpu_peak = 0, cpu_peak = 0;
    for (const StepRecord &r : steps) {
        step_ms.push_back(r.stepMs);
        ttft.push_back(r.gradReadyMs[0]);
        for (int i = 1; i < kWeights; ++i) {
            itl.push_back(r.gradReadyMs[i] - r.gradReadyMs[i - 1]);
        }
        gpu_peak = std::max(gpu_peak, r.gpuPeak);
        cpu_peak = std::max(cpu_peak, r.cpuPeak);
    }
    double mean_step_ms = mean(step_ms);
    double tok_s = static_cast<double>(kBatchRows) *
                   static_cast<double>(steps.size()) / window_s;

    Metrics &e = res.endToEnd;
    e["setup_s"] = {median(setup_s), "s"};
    e["cold_start_ms"] = {median(cold_ms), "ms"};
    e["step_s"] = {mean_step_ms / 1e3, "s"};
    e["tok_s"] = {tok_s, "tok/s"};
    e["ttft_p50_ms"] = {quantile(ttft, 0.5), "ms"};
    e["ttft_p90_ms"] = {quantile(ttft, 0.9), "ms"};
    e["itl_p50_ms"] = {quantile(itl, 0.5), "ms"};
    e["itl_p90_ms"] = {quantile(itl, 0.9), "ms"};
    e["saved_bytes"] = {static_cast<double>(steps.front().savedBytes), "B"};
    e["device_peak_bytes"] = {static_cast<double>(gpu_peak), "B"};
    e["host_peak_bytes"] = {static_cast<double>(cpu_peak), "B"};
    e["ok_frac"] = {static_cast<double>(finite_steps) /
                        static_cast<double>(res.attempted),
                    "ratio"};

    if (!opt.trace) {
        return res;
    }
    Metrics &l = res.perLayer;
    addLayerDefaults(l);
    std::vector<double> fwd, bwd, adam, sync;
    for (const StepRecord &r : steps) {
        fwd.push_back(r.forwardMs);
        bwd.push_back(r.backwardMs);
        adam.push_back(r.adamwMs);
        sync.push_back(r.syncMs);
    }
    // Counts come from the first timed step: same seed, same counts.
    const StepRecord &first = steps.front();
    l["edkm.forward_ms"].value = median(fwd);
    l["autograd.backward_ms"].value = median(bwd);
    l["adamw.step_ms"].value = median(adam);
    l["marshal.sync_ms"].value = median(sync);
    l["uniquify.unique_count"].value =
        static_cast<double>(first.uniqueCount);
    l["marshal.packs"].value = static_cast<double>(first.marshal.packs);
    l["marshal.copies"].value = static_cast<double>(first.marshal.copies);
    l["marshal.bytes_copied"].value =
        static_cast<double>(first.marshal.bytesCopied);
    l["marshal.dedup_ratio"].value =
        first.marshal.packs > 0
            ? static_cast<double>(first.marshal.duplicatesAvoided) /
                  static_cast<double>(first.marshal.packs)
            : 0.0;
    l["device.d2h_bytes"].value = static_cast<double>(first.ledger.d2hBytes);
    l["device.h2d_bytes"].value = static_cast<double>(first.ledger.h2dBytes);
    l["device.transactions"].value =
        static_cast<double>(first.ledger.totalTransactions());
    l["device.sim_s"].value = first.simSeconds;
    l["dist.allgathers"].value = static_cast<double>(first.dist.allGathers);
    l["dist.allgather_bytes"].value =
        static_cast<double>(first.dist.allGatherBytes);
    l["trace.replay_share"].value = replay(*trainer, mean_step_ms, l);
    l["trace.step_s"].value = mean_step_ms / 1e3;
    l["trace.tok_s"].value = tok_s;
    return res;
}

} // namespace e2e
