/**
 * @file
 * Data and evaluation harness tests: corpus determinism, batching, the
 * MC suite construction, likelihood scoring, and model-size accounting
 * (including the paper's projected-7B GB column).
 */

#include <gtest/gtest.h>

#include "api/session.h"
#include "data/synthetic.h"
#include "data/tokenizer.h"
#include "eval/mc_harness.h"
#include "eval/train.h"
#include "util/rng.h"

namespace edkm {
namespace {

using data::ByteTokenizer;
using data::Example;
using data::SyntheticCorpus;
using data::TaskFamily;

TEST(Tokenizer, RoundTrip)
{
    ByteTokenizer tok;
    std::string s = "Instruction: add 3 and 4\nResponse: 7\n";
    EXPECT_EQ(tok.decode(tok.encode(s)), s);
    EXPECT_EQ(tok.encode(s).size(), s.size());
}

TEST(Corpus, DeterministicUnderSeed)
{
    SyntheticCorpus c1(7), c2(7);
    EXPECT_EQ(c1.words(), c2.words());
    auto e1 = c1.generate(20, 3);
    auto e2 = c2.generate(20, 3);
    ASSERT_EQ(e1.size(), e2.size());
    for (size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].prompt, e2[i].prompt);
        EXPECT_EQ(e1[i].response, e2[i].response);
    }
}

TEST(Corpus, ExamplesAreWellFormed)
{
    SyntheticCorpus corpus(7);
    Rng rng(1);
    for (int f = 0; f < 6; ++f) {
        Example ex = corpus.makeExample(static_cast<TaskFamily>(f), rng);
        EXPECT_NE(ex.prompt.find("Instruction:"), std::string::npos);
        EXPECT_NE(ex.prompt.find("Response: "), std::string::npos);
        EXPECT_FALSE(ex.response.empty());
        EXPECT_EQ(ex.response.back(), '\n');
    }
    // Arithmetic answers are actually correct.
    Example add = corpus.makeExample(TaskFamily::kArithEasy, rng);
    size_t p1 = add.prompt.find("add ") + 4;
    size_t p2 = add.prompt.find(" and ");
    int a = std::stoi(add.prompt.substr(p1, p2 - p1));
    int b = std::stoi(add.prompt.substr(p2 + 5));
    EXPECT_EQ(std::stoi(add.response), a + b);
}

TEST(Corpus, StreamAndBatch)
{
    SyntheticCorpus corpus(7);
    ByteTokenizer tok;
    auto stream = corpus.buildStream(corpus.generate(50, 5), tok);
    EXPECT_GT(stream.size(), 500u);
    Rng rng(2);
    data::LmBatch batch =
        SyntheticCorpus::sampleBatch(stream, 4, 16, rng);
    EXPECT_EQ(batch.tokens.shape(), (Shape{4, 16}));
    EXPECT_EQ(batch.targets.shape(), (Shape{64}));
    // Targets are the next tokens.
    EXPECT_EQ(batch.targets.flatAtInt(0), batch.tokens.flatAtInt(1));
}

TEST(McSuite, BuildsSevenTasks)
{
    SyntheticCorpus corpus(7);
    auto tasks = eval::buildSyntheticSuite(corpus, 10, 99);
    ASSERT_EQ(tasks.size(), 7u);
    EXPECT_EQ(tasks[0].name, "synth_piqa");
    EXPECT_EQ(tasks[5].name, "synth_triviaqa");
    EXPECT_EQ(tasks[5].fewshot, 1);
    EXPECT_EQ(tasks[6].fewshot, 5);
    for (const auto &task : tasks) {
        EXPECT_EQ(task.items.size(), 10u);
        for (const auto &item : task.items) {
            EXPECT_GE(item.options.size(), 2u);
            EXPECT_GE(item.answer, 0);
            EXPECT_LT(item.answer,
                      static_cast<int>(item.options.size()));
            // Options are distinct.
            for (size_t i = 0; i < item.options.size(); ++i) {
                for (size_t j = i + 1; j < item.options.size(); ++j) {
                    EXPECT_NE(item.options[i], item.options[j]);
                }
            }
        }
    }
}

TEST(McSuite, FewShotPrefixPresent)
{
    SyntheticCorpus corpus(7);
    auto tasks = eval::buildSyntheticSuite(corpus, 3, 100);
    const eval::McTask &trivia = tasks[5];
    // One-shot: the context contains two "Instruction:" occurrences.
    const std::string &ctx = trivia.items[0].context;
    size_t first = ctx.find("Instruction:");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(ctx.find("Instruction:", first + 1), std::string::npos);
}

TEST(McScoring, PrefersLikelyOption)
{
    // An untrained model is near-uniform; after a few steps on a
    // single repeated string it must assign it higher likelihood.
    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    nn::MiniLlama model(cfg);
    ByteTokenizer tok;

    std::string ctx = "Instruction: repeat the word bola\nResponse: ";
    std::string memorised = ctx + "bola\n";
    std::vector<int64_t> stream;
    for (int i = 0; i < 40; ++i) {
        auto t = tok.encode(memorised);
        stream.insert(stream.end(), t.begin(), t.end());
    }
    eval::TrainConfig tc;
    tc.steps = 60;
    tc.batch = 4;
    tc.seq = 32;
    tc.optimizer.lr = 3e-3f;
    eval::trainLm(model, stream, tc);

    double good = eval::scoreOption(model, tok, ctx, "bola\n");
    double bad = eval::scoreOption(model, tok, ctx, "zzzz\n");
    EXPECT_GT(good, bad);
}

TEST(Train, LossDecreases)
{
    SyntheticCorpus corpus(7);
    ByteTokenizer tok;
    auto stream = corpus.buildStream(corpus.generate(200, 5), tok);
    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    nn::MiniLlama model(cfg);
    eval::TrainConfig tc;
    tc.steps = 40;
    tc.batch = 4;
    tc.seq = 32;
    tc.optimizer.lr = 3e-3f;
    eval::TrainReport report = eval::trainLm(model, stream, tc);
    EXPECT_LT(report.lastLoss, report.firstLoss);
    float ppl = eval::perplexity(model, stream, 2, 32, 3);
    EXPECT_GT(ppl, 1.0f);
    EXPECT_LT(ppl, 256.0f); // better than uniform over bytes
}

TEST(SizeAccounting, ProjectedGbMatchesPaperAnchors)
{
    // FP16 at 6.74B params ~ 12.55 GiB (paper: 12.6 GB).
    EXPECT_NEAR(api::projectedGb(16.0), 12.55, 0.1);
    // 3-bit palettized + small LUT overhead ~ 2.5 GB (paper: eDKM row).
    EXPECT_NEAR(api::projectedGb(3.0), 2.35, 0.1);
    // 4-bit g128 (4.25 effective bits) ~ 3.3-3.7 GB band.
    double g128 = api::projectedGb(4.0 + 32.0 / 128.0);
    EXPECT_GT(g128, 3.0);
    EXPECT_LT(g128, 3.8);
}

TEST(SizeAccounting, SchemesOrderCorrectly)
{
    nn::LlamaConfig cfg;
    cfg.vocab = 64;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    auto size = [&](const char *scheme, int bits) {
        nn::MiniLlama m(cfg);
        api::CompressionPlan plan;
        plan.scheme = scheme;
        plan.bits = bits;
        plan.groupSize = 32;
        return api::Session().run(m, plan, api::CalibData{}).report.size;
    };
    api::SizeReport fp16 = size("fp16", 16);
    EXPECT_NEAR(fp16.bitsPerWeight, 16.0, 1e-6);

    api::SizeReport rtn4 = size("rtn", 4);
    api::SizeReport rtn3 = size("rtn", 3);
    EXPECT_LT(rtn4.payloadBytes, fp16.payloadBytes);
    EXPECT_LT(rtn3.payloadBytes, rtn4.payloadBytes);
    EXPECT_GT(rtn3.projectedGb7B, 0.0);
}

} // namespace
} // namespace edkm
