/**
 * @file
 * Plan-file-driven scheme sweep: every compression scheme in the
 * CompressorRegistry runs over the same model through api::Session
 * (the registry makes the sweep a loop over names), reporting deployed
 * size and reconstruction MSE per scheme side by side — the quick
 * "which scheme at which budget" table the unified API was built for.
 *
 * Emits machine-readable JSON to BENCH_sweep.json (cwd).
 */

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/registry.h"
#include "api/session.h"
#include "tensor/ops.h"
#include "util/rng.h"

using namespace edkm;

namespace {

nn::LlamaConfig
sweepConfig()
{
    nn::LlamaConfig cfg;
    cfg.vocab = 256;
    cfg.dim = 48;
    cfg.heads = 4;
    cfg.layers = 2;
    return cfg;
}

Tensor
calibTokens(int64_t vocab)
{
    std::vector<int64_t> toks;
    Rng rng(3);
    for (int i = 0; i < 2 * 24; ++i) {
        toks.push_back(rng.randint(0, vocab - 1));
    }
    return Tensor::fromIndices(toks, {2, 24});
}

/** Mean squared error between the original weights and the compressed
 *  model's (over every parameter). */
double
weightMse(const std::vector<std::pair<std::string, std::vector<float>>>
              &original,
          nn::MiniLlama &model)
{
    double acc = 0.0;
    int64_t count = 0;
    auto params = model.namedParameters();
    for (size_t i = 0; i < params.size(); ++i) {
        const std::vector<float> &want = original[i].second;
        std::vector<float> got = params[i].second.data().toVector();
        for (size_t j = 0; j < want.size(); ++j) {
            double d = static_cast<double>(got[j]) -
                       static_cast<double>(want[j]);
            acc += d * d;
        }
        count += static_cast<int64_t>(want.size());
    }
    return acc / static_cast<double>(count);
}

struct SweepRow
{
    std::string scheme;
    api::SizeReport size;
    int64_t artifactBytes = 0;
    double mse = 0.0;
};

} // namespace

int
main()
{
    std::cout << "==========================================\n"
              << " bench_sweep (registry-driven scheme sweep)\n"
              << "==========================================\n\n";
    std::cout << std::left << std::setw(13) << "scheme" << std::right
              << std::setw(10) << "b/w" << std::setw(12) << "size KiB"
              << std::setw(14) << "artifact KiB" << std::setw(14)
              << "weight MSE" << "\n";

    nn::LlamaConfig cfg = sweepConfig();
    std::vector<SweepRow> rows;
    for (const std::string &scheme :
         api::CompressorRegistry::instance().names()) {
        // Same declarative plan for every scheme; the registry turns
        // the sweep into a loop over names.
        api::CompressionPlan plan;
        plan.scheme = scheme;
        plan.bits = scheme == "smoothquant" ? 8 : 4;
        plan.groupSize = 16;
        plan.dkmMaxIters = 2;

        nn::MiniLlama model(cfg); // same seed -> same initial weights
        std::vector<std::pair<std::string, std::vector<float>>> original;
        for (auto &[name, p] : model.namedParameters()) {
            original.emplace_back(name, p.data().toVector());
        }

        api::CalibData calib;
        calib.tokens = calibTokens(cfg.vocab);
        calib.trainConfig.steps = 0; // freeze-only sweep

        api::Session session;
        api::SessionResult res =
            session.run(model, plan, std::move(calib));

        SweepRow row;
        row.scheme = scheme;
        row.size = res.report.size;
        row.artifactBytes =
            static_cast<int64_t>(res.artifact.serialize().size());
        row.mse = weightMse(original, model);
        rows.push_back(row);
        std::cout << std::left << std::setw(13) << scheme << std::right
                  << std::fixed << std::setprecision(2) << std::setw(10)
                  << row.size.bitsPerWeight << std::setw(12)
                  << std::setprecision(1)
                  << row.size.payloadBytes / 1024.0 << std::setw(14)
                  << row.artifactBytes / 1024.0 << std::setw(14)
                  << std::scientific << std::setprecision(3) << row.mse
                  << std::fixed << "\n";
    }

    std::ofstream json("BENCH_sweep.json");
    json << "{\n  \"bench\": \"sweep\",\n  \"schemes\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        json << "    {\"scheme\": \"" << r.scheme << "\", \"size\": "
             << r.size.toJson() << ", \"artifact_bytes\": "
             << r.artifactBytes << ", \"weight_mse\": "
             << std::scientific << std::setprecision(6) << r.mse << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "\nwrote BENCH_sweep.json\n";
    return 0;
}
