/**
 * @file
 * Serving round trip on the v2 artifact: train + compress a model with
 * eDKM, save the sectioned v2 container, then serve it the zero-copy
 * way — mmap-open with ArtifactReader, lazy/streamed consumption
 * through InferenceEngine, batched greedy generation — and verify the
 * served tokens are identical to generating on the eagerly
 * reconstructed model (they are bit-identical by contract, not just
 * close).
 *
 * Build & run:  ./build/example_serve_artifact
 * EDKM_EXAMPLE_FAST=1 shrinks steps for CI smoke runs.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "data/synthetic.h"
#include "eval/train.h"
#include "serve/engine.h"
#include "serve/reader.h"
#include "tensor/ops.h"

using namespace edkm;

namespace {

/** Eager reference: greedy decode on a reconstructed model. */
std::vector<int64_t>
eagerGenerate(nn::MiniLlama &model, const std::vector<int64_t> &prompt,
              int64_t steps)
{
    NoGradGuard ng;
    std::vector<int64_t> ctx = prompt;
    for (int64_t s = 0; s < steps; ++s) {
        Tensor tokens = Tensor::fromIndices(
            ctx, {1, static_cast<int64_t>(ctx.size())});
        Tensor logits = model.forward(tokens).data();
        Tensor last =
            logits.slice(0, logits.size(0) - 1, logits.size(0));
        ctx.push_back(argmaxLastDim(last).flatAtInt(0));
    }
    return ctx;
}

} // namespace

int
main()
{
    bool fast = std::getenv("EDKM_EXAMPLE_FAST") != nullptr;

    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.layers = 2;

    data::SyntheticCorpus corpus(7);
    data::ByteTokenizer tok;
    auto stream =
        corpus.buildStream(corpus.generate(fast ? 300 : 800, 11), tok);

    nn::MiniLlama model(cfg);
    eval::TrainConfig tc;
    tc.steps = fast ? 40 : 150;
    tc.batch = 8;
    tc.seq = 48;
    tc.optimizer.lr = 3e-3f;
    std::cout << "training...\n";
    eval::trainLm(model, stream, tc);

    // Compress with eDKM and save the v2 (sectioned, mmap-friendly)
    // container.
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 2;
    plan.embeddingBits = 8;
    api::CalibData calib;
    calib.trainStream = &stream;
    calib.trainConfig = tc;
    calib.trainConfig.steps = fast ? 10 : 40;
    calib.trainConfig.optimizer.lr = 5e-4f;
    api::Session session;
    api::SessionResult res = session.run(model, plan, std::move(calib));
    std::cout << "compressed to " << res.report.size.bitsPerWeight
              << " bits/weight\n";

    std::string path = "/tmp/edkm_serve_artifact.edkm";
    res.artifact.save(path);

    // Serve: map the file read-only and consume payloads in place.
    auto reader = serve::ArtifactReader::open(path);
    std::cout << "opened " << path << " ("
              << (reader->mapped() ? "mmap" : "read fallback") << ", "
              << reader->fileBytes() / 1024 << " KiB, "
              << reader->sections().size() << " sections)\n";
    serve::InferenceEngine engine(reader);

    // A batch of requests, served through the engine's request API.
    std::vector<std::string> prompts = {
        "Instruction: add 2 and 3\nResponse: ",
        "Instruction: repeat the word cat\nResponse: "};
    int64_t steps = 8;
    std::vector<serve::InferenceEngine::Request> batch;
    for (const std::string &p : prompts) {
        batch.push_back({tok.encode(p), steps});
    }
    auto responses = engine.generate(batch);

    const serve::EngineStats &st = engine.stats();
    std::cout << "served batch of " << batch.size() << ": "
              << st.streamedMatmuls << " streamed LUT+index matmuls, "
              << st.decodes << " lazy dense decodes, "
              << engine.residentWeightBytes()
              << " resident decoded weight bytes\n";

    // Reference: the eager reconstruct path must produce the exact
    // same tokens.
    nn::MiniLlama eager = res.artifact.reconstruct();
    bool ok = true;
    for (size_t i = 0; i < batch.size(); ++i) {
        std::vector<int64_t> want =
            eagerGenerate(eager, batch[i].prompt, steps);
        bool match = responses[i].tokens == want;
        ok = ok && match;
        std::string text = tok.decode(std::vector<int64_t>(
            responses[i].tokens.begin() +
                static_cast<int64_t>(batch[i].prompt.size()),
            responses[i].tokens.end()));
        std::cout << "request " << i << ": \"" << text << "\" "
                  << (match ? "(matches eager)" : "(MISMATCH)") << "\n";
    }
    std::remove(path.c_str());
    std::cout << (ok ? "MATCH: zero-copy serving is bit-exact\n"
                     : "MISMATCH\n");
    return ok ? 0 : 1;
}
