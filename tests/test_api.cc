/**
 * @file
 * Tests for the unified compression API (src/api/): registry lookup,
 * plan glob matching and text round trips, per-layer overrides and
 * skips, ModelArtifact save -> load -> reconstruct bit-exactness
 * against the in-memory compressed model, and cancellation rollback.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "api/artifact.h"
#include "api/compressor.h"
#include "api/plan.h"
#include "api/registry.h"
#include "api/session.h"
#include "data/synthetic.h"
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

Tensor
tinyCalibTokens(int64_t vocab = 64)
{
    std::vector<int64_t> toks;
    Rng rng(3);
    for (int i = 0; i < 2 * 16; ++i) {
        toks.push_back(rng.randint(0, vocab - 1));
    }
    return Tensor::fromIndices(toks, {2, 16});
}

std::vector<std::pair<std::string, std::vector<float>>>
paramSnapshot(nn::MiniLlama &model)
{
    std::vector<std::pair<std::string, std::vector<float>>> snap;
    for (auto &[name, p] : model.namedParameters()) {
        snap.emplace_back(name, p.data().toVector());
    }
    return snap;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, KnowsAllBuiltinSchemes)
{
    auto &reg = api::CompressorRegistry::instance();
    for (const char *name : {"fp16", "rtn", "gptq", "awq", "smoothquant",
                             "qat", "edkm", "dkm"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    EXPECT_FALSE(reg.contains("zipml"));
}

TEST(Registry, CreateByNameReportsSchemeName)
{
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    auto c = api::CompressorRegistry::instance().create(plan);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->name(), "edkm");
}

TEST(Registry, UnknownNameFailsActionably)
{
    api::CompressionPlan plan;
    try {
        api::CompressorRegistry::instance().create("no_such_scheme",
                                                   plan);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_scheme"), std::string::npos) << msg;
        // Actionable: the error lists the known schemes.
        EXPECT_NE(msg.find("edkm"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rtn"), std::string::npos) << msg;
    }
}

TEST(Registry, ReRegisterReplacesFactory)
{
    class Stub : public api::Compressor
    {
      public:
        std::string name() const override { return "stub"; }
        api::CompressionReport
        compress(nn::MiniLlama &, const api::CalibData &,
                 const api::LayerSelection &) override
        {
            return {};
        }
    };
    auto &reg = api::CompressorRegistry::instance();
    reg.registerFactory("stub", [](const api::CompressionPlan &) {
        return std::make_unique<Stub>();
    });
    EXPECT_TRUE(reg.contains("stub"));
    api::CompressionPlan plan;
    EXPECT_EQ(reg.create("stub", plan)->name(), "stub");
}

// ---------------------------------------------------------------------
// Glob + plan resolution
// ---------------------------------------------------------------------

TEST(Glob, Matching)
{
    EXPECT_TRUE(api::globMatch("*", "blocks.0.attn.wq"));
    EXPECT_TRUE(api::globMatch("*.attn.wq", "blocks.0.attn.wq"));
    EXPECT_TRUE(api::globMatch("blocks.*.mlp.*", "blocks.1.mlp.w3"));
    EXPECT_TRUE(api::globMatch("lm_head", "lm_head"));
    EXPECT_TRUE(api::globMatch("blocks.?.attn.w?", "blocks.0.attn.wk"));
    EXPECT_FALSE(api::globMatch("*.attn.wq", "blocks.0.mlp.w1"));
    EXPECT_FALSE(api::globMatch("lm_head", "blocks.0.attn.wq"));
    EXPECT_FALSE(api::globMatch("blocks.?.attn.wq", "blocks.10.attn.wq"));
    EXPECT_TRUE(api::globMatch("**", "anything.at.all"));
    EXPECT_FALSE(api::globMatch("", "x"));
    EXPECT_TRUE(api::globMatch("", ""));
}

TEST(Plan, ResolveAppliesDefaultsOverridesAndSkips)
{
    api::CompressionPlan plan;
    plan.scheme = "rtn";
    plan.bits = 3;
    plan.groupSize = 16;
    plan.rules.push_back({"*.attn.*", false, 4, 0});
    plan.rules.push_back({"*.attn.wq", false, 2, 8});
    plan.rules.push_back({"lm_head", true, 0, 0});

    api::LayerSelection sel = plan.resolve(
        {"blocks.0.attn.wq", "blocks.0.attn.wk", "blocks.0.mlp.w1",
         "lm_head"});
    ASSERT_EQ(sel.layers.size(), 4u);

    // Later rules win: wq matched both attn rules, the second sticks.
    EXPECT_EQ(sel.specFor("blocks.0.attn.wq").bits, 2);
    EXPECT_EQ(sel.specFor("blocks.0.attn.wq").groupSize, 8);
    EXPECT_FALSE(sel.specFor("blocks.0.attn.wq").skip);

    // wk matched only the first attn rule; group size inherited.
    EXPECT_EQ(sel.specFor("blocks.0.attn.wk").bits, 4);
    EXPECT_EQ(sel.specFor("blocks.0.attn.wk").groupSize, 16);

    // Unmatched layer keeps plan defaults.
    EXPECT_EQ(sel.specFor("blocks.0.mlp.w1").bits, 3);

    EXPECT_TRUE(sel.specFor("lm_head").skip);
    EXPECT_EQ(sel.compressedCount(), 3u);
    EXPECT_THROW(sel.specFor("no.such.layer"), FatalError);
}

TEST(Plan, ValidateRejectsBadConfigs)
{
    api::CompressionPlan plan;
    plan.bits = 0;
    EXPECT_THROW(plan.validate(), FatalError);
    plan.bits = 17;
    EXPECT_THROW(plan.validate(), FatalError);
    plan.bits = 4;
    plan.rules.push_back({"", false, 4, 0});
    EXPECT_THROW(plan.validate(), FatalError); // empty pattern
    plan.rules[0] = {"*.wq", false, 0, 0};
    EXPECT_THROW(plan.validate(), FatalError); // overrides nothing
    plan.rules[0] = {"*.wq", false, 4, 0};
    EXPECT_NO_THROW(plan.validate());
}

TEST(Plan, TextRoundTrip)
{
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.groupSize = 32;
    plan.embeddingBits = 8;
    plan.dkmMaxIters = 6;
    plan.rules.push_back({"*.attn.wq", false, 4, 0});
    plan.rules.push_back({"lm_head", true, 0, 0});

    api::CompressionPlan back =
        api::CompressionPlan::fromText(plan.toText());
    EXPECT_EQ(back.scheme, "edkm");
    EXPECT_EQ(back.bits, 3);
    EXPECT_EQ(back.groupSize, 32);
    EXPECT_EQ(back.dkmMaxIters, 6);
    ASSERT_EQ(back.rules.size(), 2u);
    EXPECT_EQ(back.rules[0].pattern, "*.attn.wq");
    EXPECT_EQ(back.rules[0].bits, 4);
    EXPECT_TRUE(back.rules[1].skip);
}

TEST(Plan, FileRoundTrip)
{
    api::CompressionPlan plan;
    plan.scheme = "rtn";
    plan.rules.push_back({"lm_head", true, 0, 0});
    std::string path = "/tmp/edkm_test_plan.txt";
    plan.save(path);
    api::CompressionPlan back = api::CompressionPlan::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(back.scheme, "rtn");
    ASSERT_EQ(back.rules.size(), 1u);
    EXPECT_TRUE(back.rules[0].skip);
}

TEST(Plan, ParseErrorsAreActionable)
{
    // Unknown key names the line and the accepted keys.
    try {
        api::CompressionPlan::fromText("scheme rtn\nbitz 4\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bitz"), std::string::npos) << msg;
        EXPECT_NE(msg.find("accepted"), std::string::npos) << msg;
    }
    // Non-numeric value.
    EXPECT_THROW(api::CompressionPlan::fromText("scheme rtn\nbits x\n"),
                 FatalError);
    // Missing scheme.
    EXPECT_THROW(api::CompressionPlan::fromText("bits 4\n"), FatalError);
    // Rule without directives.
    EXPECT_THROW(
        api::CompressionPlan::fromText("scheme rtn\nrule lm_head\n"),
        FatalError);
    // Comments and blank lines are fine.
    EXPECT_NO_THROW(api::CompressionPlan::fromText(
        "# comment\n\nscheme rtn\nrule lm_head skip\n"));
}

// ---------------------------------------------------------------------
// Artifact round trips
// ---------------------------------------------------------------------

/** Artifact reconstruct must be bit-identical for every scheme. */
class SchemeRoundTrip : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SchemeRoundTrip, ArtifactMatchesInMemoryModel)
{
    nn::MiniLlama model = tinyModel();
    api::CompressionPlan plan;
    plan.scheme = GetParam();
    plan.bits = std::string(GetParam()) == "smoothquant" ? 8 : 4;
    plan.groupSize = 16;
    plan.dkmMaxIters = 2;

    api::CalibData calib;
    calib.tokens = tinyCalibTokens();
    calib.trainConfig.steps = 0; // freeze-only for train-time schemes

    api::Session session;
    api::SessionResult res = session.run(model, plan, std::move(calib));
    ASSERT_FALSE(res.cancelled);
    EXPECT_GT(res.report.size.payloadBytes, 0);

    nn::MiniLlama back = res.artifact.reconstruct();
    auto want = paramSnapshot(model);
    auto got = paramSnapshot(back);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].first, got[i].first);
        EXPECT_EQ(want[i].second, got[i].second)
            << GetParam() << ": " << want[i].first
            << " not bit-identical after save/load/reconstruct";
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeRoundTrip,
                         ::testing::Values("fp16", "rtn", "gptq", "awq",
                                           "smoothquant", "qat", "edkm",
                                           "dkm"));

TEST(Artifact, SerializedFileRoundTrip)
{
    nn::MiniLlama model = tinyModel();
    api::CompressionPlan plan;
    plan.scheme = "rtn";
    api::Session session;
    api::SessionResult res =
        session.run(model, plan, api::CalibData{});

    std::string path = "/tmp/edkm_test_artifact.edkm";
    res.artifact.save(path);
    api::ModelArtifact loaded = api::ModelArtifact::load(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.scheme, "rtn");
    EXPECT_EQ(loaded.size.scheme, "RTN");
    EXPECT_EQ(loaded.entries.size(), res.artifact.entries.size());
    nn::MiniLlama back = loaded.reconstruct();
    EXPECT_EQ(paramSnapshot(back), paramSnapshot(model));
}

TEST(Artifact, DeserializeRejectsGarbage)
{
    EXPECT_THROW(api::ModelArtifact::deserialize(
                     std::vector<uint8_t>{}),
                 FatalError);
    EXPECT_THROW(api::ModelArtifact::deserialize(
                     std::vector<uint8_t>{1, 2, 3, 4}),
                 FatalError);
    std::vector<uint8_t> bad(64, 0xab);
    EXPECT_THROW(api::ModelArtifact::deserialize(bad), FatalError);
}

TEST(Artifact, TruncationDetected)
{
    nn::MiniLlama model = tinyModel();
    api::CompressionPlan plan;
    plan.scheme = "rtn";
    api::Session session;
    api::SessionResult res =
        session.run(model, plan, api::CalibData{});
    std::vector<uint8_t> bytes = res.artifact.serialize();
    // Any strict prefix must be rejected, never read out of bounds.
    for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
        std::vector<uint8_t> trunc(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<int64_t>(cut));
        EXPECT_THROW(api::ModelArtifact::deserialize(trunc), FatalError);
    }
    // Trailing garbage is rejected too.
    bytes.push_back(0);
    EXPECT_THROW(api::ModelArtifact::deserialize(bytes), FatalError);
}

// ---------------------------------------------------------------------
// End-to-end: scheme by name, overrides + skip, disk round trip
// ---------------------------------------------------------------------

TEST(EndToEnd, PlanWithOverridesCompressTrainSaveReloadBitExact)
{
    // Byte-tokenized stream: the model needs the full 256-token vocab.
    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.seed = 21;
    nn::MiniLlama model(cfg);

    data::SyntheticCorpus corpus(3);
    data::ByteTokenizer tok;
    std::vector<int64_t> stream =
        corpus.buildStream(corpus.generate(60, 5), tok);

    // Scheme by name with one per-layer override and one skipped layer.
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 2;
    plan.embeddingBits = 8;
    plan.rules.push_back({"*.mlp.w1", false, 4, 0}); // override: 4 bits
    plan.rules.push_back({"lm_head", true, 0, 0});   // skip

    api::CalibData calib;
    calib.trainStream = &stream;
    calib.trainConfig.steps = 4;
    calib.trainConfig.batch = 2;
    calib.trainConfig.seq = 16;

    api::Session session;
    api::SessionResult res = session.run(model, plan, std::move(calib));
    ASSERT_FALSE(res.cancelled);

    // The skipped layer is reported as skipped (it still trained, but
    // no clustering transform or palettization was applied to it), and
    // no weight transforms survive the run.
    ASSERT_EQ(res.report.skippedLayers.size(), 1u);
    EXPECT_EQ(res.report.skippedLayers[0], "lm_head");
    for (auto &[path, linear] : model.allLinears()) {
        (void)path;
        EXPECT_FALSE(linear->hasWeightTransform());
    }

    // The override shows up in the artifact manifest.
    const api::ArtifactEntry &w1 =
        res.artifact.entry("blocks.0.mlp.w1.weight");
    EXPECT_EQ(w1.bits, 4);
    EXPECT_EQ(w1.codec, api::Codec::kPalettized);
    const api::ArtifactEntry &wq =
        res.artifact.entry("blocks.0.attn.wq.weight");
    EXPECT_EQ(wq.bits, 3);
    const api::ArtifactEntry &head = res.artifact.entry("lm_head.weight");
    EXPECT_EQ(head.codec, api::Codec::kRawF32);

    // Save, reload, reconstruct: bit-identical to the in-memory model.
    std::string path = "/tmp/edkm_test_e2e.edkm";
    res.artifact.save(path);
    api::ModelArtifact loaded = api::ModelArtifact::load(path);
    std::remove(path.c_str());
    nn::MiniLlama back = loaded.reconstruct();
    auto want = paramSnapshot(model);
    auto got = paramSnapshot(back);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].second, got[i].second)
            << want[i].first << " differs after disk round trip";
    }
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(Cancellation, MidPlanRollsBackAndClearsTransforms)
{
    nn::MiniLlama model = tinyModel(33);
    auto before = paramSnapshot(model);

    // eDKM freeze-only: transforms get attached, then freezing is
    // cancelled after the second layer's tick.
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 2;

    CancelToken token;
    size_t freeze_ticks = 0;
    api::SessionConfig scfg;
    scfg.cancel = &token;
    scfg.onProgress = [&](const api::Progress &p) {
        if (p.stage == "freeze" && ++freeze_ticks == 2) {
            token.requestCancel();
        }
    };

    api::Session session(scfg);
    api::CalibData calib;
    calib.trainConfig.steps = 0;
    api::SessionResult res = session.run(model, plan, std::move(calib));

    EXPECT_TRUE(res.cancelled);
    EXPECT_TRUE(res.artifact.entries.empty());

    // Untransformed: no weight transforms remain...
    for (auto &[path, linear] : model.allLinears()) {
        (void)path;
        EXPECT_FALSE(linear->hasWeightTransform()) << path;
    }
    // ...and every parameter is bit-identical to the pre-run state
    // (the partially frozen layer was rolled back).
    auto after = paramSnapshot(model);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].second, after[i].second)
            << before[i].first << " not rolled back";
    }
}

TEST(Cancellation, CalibrationCaptureFlagsAreCleared)
{
    // GPTQ enables input capture on every Linear before quantizing;
    // cancelling mid-walk must not leave layers stashing every future
    // forward's activations.
    nn::MiniLlama model = tinyModel(55);
    auto before = paramSnapshot(model);

    api::CompressionPlan plan;
    plan.scheme = "gptq";
    plan.bits = 4;
    plan.groupSize = 16;

    CancelToken token;
    size_t quantize_ticks = 0;
    api::SessionConfig scfg;
    scfg.cancel = &token;
    scfg.onProgress = [&](const api::Progress &p) {
        if (p.stage == "quantize" && ++quantize_ticks == 2) {
            token.requestCancel();
        }
    };
    api::Session session(scfg);
    api::CalibData calib;
    calib.tokens = tinyCalibTokens();
    api::SessionResult res = session.run(model, plan, std::move(calib));
    EXPECT_TRUE(res.cancelled);
    for (auto &[path, linear] : model.allLinears()) {
        EXPECT_FALSE(linear->capturesInputs()) << path;
    }
    auto after = paramSnapshot(model);
    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].second, after[i].second)
            << before[i].first << " not rolled back";
    }
}

TEST(Cancellation, PtqSchemeRollsBackQuantizedLayers)
{
    nn::MiniLlama model = tinyModel(44);
    auto before = paramSnapshot(model);

    api::CompressionPlan plan;
    plan.scheme = "rtn";
    plan.bits = 3;

    CancelToken token;
    size_t ticks = 0;
    api::SessionConfig scfg;
    scfg.cancel = &token;
    scfg.onProgress = [&](const api::Progress &p) {
        (void)p;
        if (++ticks == 3) {
            token.requestCancel();
        }
    };
    api::Session session(scfg);
    api::SessionResult res = session.run(model, plan, api::CalibData{});
    EXPECT_TRUE(res.cancelled);
    auto after = paramSnapshot(model);
    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].second, after[i].second)
            << before[i].first << " not rolled back";
    }
}

} // namespace
} // namespace edkm
