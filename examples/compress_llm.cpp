/**
 * @file
 * The headline experiment at laptop scale: fine-tune and compress a
 * LLaMA-style model to 3 bits/weight with eDKM (paper section 3),
 * driven entirely through the unified compression API.
 *
 * Pipeline:
 *   1. "pretrain" a MiniLlama on the synthetic corpus,
 *   2. describe the compression declaratively: a CompressionPlan
 *      (scheme "edkm", 3 bits, embeddings at 8 bits, lm_head kept at 4
 *      bits via a per-layer override rule),
 *   3. run it with an api::Session — the eDKM clustering layers are
 *      attached, fine-tuned on the instruction data (the Alpaca
 *      stand-in), and frozen into the palettized format, with progress
 *      reported per stage,
 *   4. save the whole-model artifact, reload it, and evaluate both on
 *      the 7-task benchmark suite.
 *
 * Build & run:  ./build/example_compress_llm
 * EDKM_EXAMPLE_FAST=1 shrinks steps for CI smoke runs.
 */

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "api/plan.h"
#include "api/session.h"
#include "data/synthetic.h"
#include "eval/mc_harness.h"
#include "eval/train.h"

using namespace edkm;

int
main()
{
    bool fast = std::getenv("EDKM_EXAMPLE_FAST") != nullptr;

    // Model: LLaMA architecture at laptop scale.
    nn::LlamaConfig mcfg;
    mcfg.vocab = 256;
    mcfg.dim = 48;
    mcfg.heads = 4;
    mcfg.layers = 2;
    nn::MiniLlama model(mcfg);
    std::cout << "MiniLlama: " << model.parameterCount()
              << " parameters, " << mcfg.layers << " layers, dim "
              << mcfg.dim << "\n";

    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto pretrain_stream =
        corpus.buildStream(corpus.generate(fast ? 400 : 1500, 11), tok);
    auto alpaca_stream =
        corpus.buildStream(corpus.generate(fast ? 200 : 800, 23), tok);

    // 1. Pretrain.
    eval::TrainConfig pre;
    pre.steps = fast ? 60 : 250;
    pre.batch = 8;
    pre.seq = 48;
    pre.optimizer.lr = 3e-3f;
    std::cout << "\n[1/4] pretraining...\n";
    eval::TrainReport pr = eval::trainLm(model, pretrain_stream, pre);
    std::cout << "  loss " << pr.firstLoss << " -> " << pr.lastLoss
              << "\n";

    auto suite =
        eval::buildSyntheticSuite(corpus, fast ? 8 : 25, 99);
    eval::SuiteResult fp_acc = eval::evaluateSuite(model, tok, suite);
    int64_t fp16_bytes = model.parameterCount() * 2;

    // 2+3. Compress a model in 10 lines: declare the plan, run the
    // session. The paper's setup: eDKM at 3 bits with AdamW
    // fine-tuning, embeddings at 8 bits; scaled-up lr for the tiny
    // model, gradient clipping 1.0.
    std::cout << "[2/4] eDKM fine-tuning (3 bit/weight) via "
              << "CompressionPlan + Session...\n";
    api::CompressionPlan plan;
    plan.scheme = "edkm";             // resolved by CompressorRegistry
    plan.bits = 3;
    plan.dkmMaxIters = 4;
    plan.embeddingBits = 8;
    plan.rules.push_back({"lm_head", false, 4, 0}); // head kept at 4 bit

    api::CalibData calib;
    calib.trainStream = &alpaca_stream;
    calib.trainConfig.steps = fast ? 30 : 120;
    calib.trainConfig.batch = 8;
    calib.trainConfig.seq = 48;
    calib.trainConfig.optimizer.lr = 5e-4f;

    api::SessionConfig scfg;
    scfg.onProgress = [](const api::Progress &p) {
        if (p.index == 0) {
            std::cout << "  [" << p.stage << "] " << std::flush;
        }
        if (p.index + 1 == p.total) {
            std::cout << p.total << " step" << (p.total > 1 ? "s" : "")
                      << "\n";
        }
    };
    api::Session session(scfg);
    api::SessionResult res = session.run(model, plan, std::move(calib));
    std::cout << "  scheme " << session.lastCompressor()->name()
              << " done, " << res.report.entries.size()
              << " payload entries\n";

    // 4. Save the whole-model artifact, reload, evaluate both.
    std::cout << "[3/4] saving + reloading the model artifact...\n";
    std::string path = "/tmp/edkm_compress_llm.edkm";
    res.artifact.save(path);
    api::ModelArtifact loaded = api::ModelArtifact::load(path);
    nn::MiniLlama reloaded = loaded.reconstruct();
    std::remove(path.c_str());

    std::cout << "[4/4] evaluating...\n\n";
    eval::SuiteResult edkm_acc = eval::evaluateSuite(model, tok, suite);
    eval::SuiteResult reload_acc =
        eval::evaluateSuite(reloaded, tok, suite);

    std::cout << std::fixed << std::setprecision(1);
    std::cout << "task                 fp16    eDKM-3bit  reloaded\n";
    for (size_t i = 0; i < suite.size(); ++i) {
        std::cout << "  " << std::left << std::setw(18)
                  << suite[i].name << std::right << std::setw(6)
                  << 100.0 * fp_acc.taskAccuracy[i].second
                  << std::setw(10)
                  << 100.0 * edkm_acc.taskAccuracy[i].second
                  << std::setw(10)
                  << 100.0 * reload_acc.taskAccuracy[i].second << "\n";
    }
    std::cout << "  " << std::left << std::setw(18) << "average"
              << std::right << std::setw(6) << 100.0 * fp_acc.average
              << std::setw(10) << 100.0 * edkm_acc.average
              << std::setw(10) << 100.0 * reload_acc.average << "\n\n";

    bool lossless = reload_acc.average == edkm_acc.average;
    api::SizeReport edkm_size = res.report.size;
    std::cout << std::setprecision(2);
    std::cout << "model size: " << fp16_bytes / 1024.0
              << " KiB (fp16) -> " << edkm_size.payloadBytes / 1024.0
              << " KiB (eDKM), " << edkm_size.bitsPerWeight
              << " bits/weight\n"
              << "at LLaMA-7B scale this rate gives "
              << edkm_size.projectedGb7B << " GB (paper: 12.6 GB -> 2.5 "
              << "GB)\n"
              << "artifact reload "
              << (lossless ? "reproduces the compressed model exactly\n"
                           : "MISMATCH\n");
    return lossless ? 0 : 1;
}
