/**
 * @file
 * Cross-module integration tests: the full eDKM fine-tuning pipeline
 * (model + clustering + marshaling + optimizer), compression-scheme
 * end-to-end application, and the Table 2 memory-ordering claim at
 * integration scale.
 */

#include <gtest/gtest.h>

#include "api/session.h"
#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/dkm.h"
#include "core/edkm.h"
#include "data/synthetic.h"
#include "device/device_manager.h"
#include "eval/mc_harness.h"
#include "eval/train.h"
#include "marshal/marshal.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace edkm {
namespace {

nn::LlamaConfig
tinyConfig()
{
    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    return cfg;
}

/** Run @p plan over every Linear of @p model through an api::Session. */
api::SizeReport
compress(nn::MiniLlama &model, const api::CompressionPlan &plan,
         api::CalibData calib = api::CalibData{})
{
    return api::Session().run(model, plan, std::move(calib)).report.size;
}

TEST(Integration, EdkmFineTuningStepEndToEnd)
{
    // One full fine-tuning step with eDKM attached to every linear and
    // marshaling installed: loss computes, gradients reach the raw
    // weights, and the saved payload went through the hooks.
    DeviceManager::instance().resetAll();
    nn::MiniLlama model(tinyConfig());
    EdkmConfig ecfg;
    ecfg.dkm.bits = 3;
    ecfg.dkm.maxIters = 2;
    std::vector<std::shared_ptr<EdkmLayer>> layers;
    for (auto &[name, linear] : model.allLinears()) {
        (void)name;
        auto layer = std::make_shared<EdkmLayer>(ecfg);
        layers.push_back(layer);
        linear->setWeightTransform(
            [layer](const Variable &w) { return layer->forward(w); });
    }
    EXPECT_EQ(layers.size(), 8u);

    MarshalConfig mc;
    mc.minOffloadBytes = 1;
    MarshalContext ctx(mc);

    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto stream = corpus.buildStream(corpus.generate(50, 11), tok);
    Rng rng(3);
    data::LmBatch batch =
        data::SyntheticCorpus::sampleBatch(stream, 2, 24, rng);

    nn::AdamW opt(model.parameters());
    Variable loss;
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable logits = model.forward(batch.tokens);
        loss = af::crossEntropy(logits, batch.targets);
    }
    backward(loss);
    EXPECT_GT(ctx.stats().packs, 0);

    // Every linear weight received a gradient through the clustering.
    for (auto &[name, linear] : model.allLinears()) {
        EXPECT_TRUE(linear->weight().grad().defined()) << name;
    }
    nn::AdamW::clipGradNorm(model.parameters(), 1.0f);
    opt.step();
}

TEST(Integration, FineTuneWithEdkmThenFreeze)
{
    // Short eDKM fine-tune, freeze to palettized, and verify the loss
    // under frozen 3-bit weights stays close to the clustered-training
    // loss (the reason train-time clustering beats post-training).
    nn::LlamaConfig cfg = tinyConfig();
    nn::MiniLlama model(cfg);
    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto stream = corpus.buildStream(corpus.generate(300, 11), tok);

    // Pretrain uncompressed a bit.
    eval::TrainConfig pre;
    pre.steps = 30;
    pre.batch = 4;
    pre.seq = 32;
    pre.optimizer.lr = 3e-3f;
    eval::trainLm(model, stream, pre);
    float fp_loss = eval::evalLoss(model, stream, 2, 32, 4);

    // Attach eDKM, fine-tune, and freeze into the deployable format.
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 3;
    plan.embeddingBits = 8;
    api::CalibData calib;
    calib.trainStream = &stream;
    calib.trainConfig.steps = 25;
    calib.trainConfig.batch = 4;
    calib.trainConfig.seq = 32;
    calib.trainConfig.optimizer.lr = 1e-3f;
    api::SizeReport size = compress(model, plan, std::move(calib));
    float frozen_loss = eval::evalLoss(model, stream, 2, 32, 4);

    EXPECT_LT(size.bitsPerWeight, 16.0);
    // Frozen model is functional: loss within a reasonable band of the
    // FP model (not collapsed to uniform).
    EXPECT_LT(frozen_loss, fp_loss + 1.5f);
}

TEST(Integration, PostTrainingSchemesPreserveFunction)
{
    nn::LlamaConfig cfg = tinyConfig();
    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto stream = corpus.buildStream(corpus.generate(300, 11), tok);
    eval::TrainConfig pre;
    pre.steps = 40;
    pre.batch = 4;
    pre.seq = 32;
    pre.optimizer.lr = 3e-3f;

    nn::MiniLlama reference(cfg);
    eval::trainLm(reference, stream, pre);
    float ref_loss = eval::evalLoss(reference, stream, 2, 32, 4);

    Rng rng(9);
    data::LmBatch batch =
        data::SyntheticCorpus::sampleBatch(stream, 2, 24, rng);

    // Each scheme applied to an identically trained copy.
    auto check = [&](const char *scheme, int bits) {
        nn::MiniLlama m(cfg);
        eval::trainLm(m, stream, pre);
        api::CompressionPlan plan;
        plan.scheme = scheme;
        plan.bits = bits;
        plan.groupSize = 16;
        plan.awqGridPoints = 5;
        api::CalibData calib;
        calib.tokens = batch.tokens;
        api::SizeReport r = compress(m, plan, std::move(calib));
        float loss = eval::evalLoss(m, stream, 2, 32, 4);
        EXPECT_LT(loss, ref_loss + 2.0f) << scheme;
        EXPECT_LT(r.payloadBytes, m.parameterCount() * 2) // fp16 size
            << scheme;
    };
    check("rtn", 4);
    check("gptq", 4);
    check("awq", 4);
    check("smoothquant", 8);
}

TEST(Integration, Table2MemoryOrderingAtSmallScale)
{
    // One weight matrix, fwd+bwd of one DKM step under each Table 2
    // configuration; CPU-resident saved bytes must reproduce the
    // paper's ordering. Uniquification's advantage grows with |W| (the
    // unique count saturates while |W| does not), so this runs at the
    // largest size CI comfortably allows; the Table 2 bench runs the
    // full-scale version.
    DeviceManager::instance().resetAll();
    int64_t side = 192;
    int64_t n = side * side;
    Rng rng(21);
    Tensor w_cpu =
        Tensor::randn({side, side}, rng, Device::cpu(), 0.02f)
            .to(DType::kBf16)
            .to(DType::kF32);
    Tensor w_gpu = w_cpu.to(Device::gpu(0));

    DkmConfig dkm;
    dkm.bits = 3;
    dkm.maxIters = 3;
    dkm.convergenceEps = 0.0f;

    auto measure_composed = [&](MarshalConfig::Detection det) {
        DeviceManager::instance().resetStats();
        MarshalConfig mc;
        mc.detection = det;
        mc.minOffloadBytes = 1;
        MarshalContext ctx(mc);
        DkmLayer layer(dkm);
        Variable wv(w_gpu.clone(), true);
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            loss = af::sumAll(af::square(layer.forward(wv)));
        }
        int64_t resident = ctx.residentBytes();
        backward(loss);
        return resident;
    };

    auto measure_fused = [&](bool uniq, bool shard) {
        DeviceManager::instance().resetStats();
        MarshalConfig mc;
        mc.minOffloadBytes = 1;
        MarshalContext ctx(mc);
        auto group = std::make_shared<LearnerGroup>(8);
        EdkmConfig ecfg;
        ecfg.dkm = dkm;
        ecfg.uniquify = uniq;
        ecfg.shard = shard;
        EdkmLayer layer(ecfg, group);
        Variable wv(w_gpu.clone(), true);
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            loss = af::sumAll(af::square(layer.forward(wv)));
        }
        int64_t resident = ctx.residentBytes();
        backward(loss);
        return resident;
    };

    int64_t base = measure_composed(MarshalConfig::Detection::kNone);
    int64_t m = measure_composed(MarshalConfig::Detection::kGraphWalk);
    int64_t ms = measure_fused(false, true);
    int64_t mu = measure_fused(true, false);
    int64_t mus = measure_fused(true, true);

    EXPECT_GT(base, m);   // marshaling dedups the duplicate saves
    EXPECT_GT(m, ms);     // sharding the dense maps saves further
    EXPECT_GT(m, mu);     // uniquification saves further
    EXPECT_GT(ms, mus);   // U on top of S
    EXPECT_GT(mu, mus);   // S on top of U
    // Combined reduction is already large at this scale and grows with
    // |W| (at the paper's 67M-weight layer it reaches ~130x).
    EXPECT_GT(static_cast<double>(base) / mus, 10.0);
    (void)n;
}

TEST(Integration, AccuracyEvalRunsOnCompressedModel)
{
    nn::MiniLlama model(tinyConfig());
    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto suite = eval::buildSyntheticSuite(corpus, 3, 41);
    api::CompressionPlan plan;
    plan.scheme = "rtn";
    plan.bits = 4;
    plan.groupSize = 16;
    compress(model, plan);
    eval::SuiteResult r = eval::evaluateSuite(model, tok, suite);
    EXPECT_EQ(r.taskAccuracy.size(), 7u);
    for (auto &[name, acc] : r.taskAccuracy) {
        EXPECT_GE(acc, 0.0) << name;
        EXPECT_LE(acc, 1.0) << name;
    }
}

} // namespace
} // namespace edkm
