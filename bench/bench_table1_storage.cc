/**
 * @file
 * Reproduces Table 1 of the paper: per-line GPU/CPU memory of the
 * cross-device copy example, followed by the same saves through the
 * marshaling layer (with graph-walk and no detection) to quantify the
 * redundancy detection removes.
 *
 * Paper reference values (MB): line0 GPU 4 / CPU 0, line1 4/0,
 * line2 4/4, line3 4/8 — the final 8 MB CPU is the redundancy.
 *
 * Also accounts the *on-disk* side of the story: whole-model
 * ModelArtifacts produced through the unified compression API
 * (CompressorRegistry + CompressionPlan + Session) for the fp16 / RTN
 * / eDKM schemes, with SizeReport accounting vs actual artifact bytes.
 *
 * Emits machine-readable JSON to BENCH_table1_storage.json (cwd).
 */

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "autograd/engine.h"
#include "autograd/functional.h"
#include "device/device_manager.h"
#include "marshal/marshal.h"
#include "tensor/ops.h"
#include "util/rng.h"

using namespace edkm;

namespace {

double
mb(int64_t b)
{
    return static_cast<double>(b) / (1024.0 * 1024.0);
}

void
table1Rows()
{
    DeviceManager &mgr = DeviceManager::instance();
    mgr.resetAll();
    Rng rng(1);

    std::cout << "--- Table 1: memory per line (MB) ---\n";
    std::cout << std::left << std::setw(6) << "line" << std::setw(36)
              << "code" << std::right << std::setw(6) << "GPU"
              << std::setw(6) << "CPU" << "\n";
    auto row = [&](int line, const std::string &code) {
        std::cout << std::left << std::setw(6) << line << std::setw(36)
                  << code << std::right << std::setw(6) << std::fixed
                  << std::setprecision(0)
                  << mb(mgr.stats(Device::gpu(0)).currentBytes)
                  << std::setw(6)
                  << mb(mgr.stats(Device::cpu()).currentBytes) << "\n";
    };

    Tensor x0 = Tensor::rand({1024, 1024}, rng, Device::gpu(0));
    row(0, "x0 = torch.rand([1024,1024])");
    Tensor x1 = x0.view({-1, 1});
    row(1, "x1 = x0.view(-1,1)");
    Tensor y0 = x0.to(Device::cpu());
    row(2, "y0 = x0.to('cpu')");
    Tensor y1 = x1.to(Device::cpu());
    row(3, "y1 = x1.to('cpu')");
    std::cout << "(paper: 4/0, 4/0, 4/4, 4/8)\n\n";
}

struct MarshalRow
{
    std::string label;
    double residentMb = 0.0;
    int64_t copies = 0;
    int64_t dedup = 0;
    double d2hMb = 0.0;
};

MarshalRow
marshaledSaves(const std::string &label, MarshalConfig::Detection det)
{
    DeviceManager &mgr = DeviceManager::instance();
    mgr.resetAll();
    Rng rng(1);
    MarshalConfig mc;
    mc.detection = det;
    mc.minOffloadBytes = 1;
    MarshalContext ctx(mc);
    Variable x0(Tensor::rand({1024, 1024}, rng, Device::gpu(0)), true);
    Variable loss; // keeps the graph (and saved handles) alive
    {
        SavedTensorHooksGuard guard(&ctx);
        Variable x1 = af::view(x0, {-1, 1});
        Variable a = af::square(x1); // autograd saves x1
        Variable b = af::square(x0); // autograd saves x0 (same data!)
        loss = af::add(af::sumAll(a), af::sumAll(b));
    }
    MarshalRow row;
    row.label = label;
    row.residentMb = mb(ctx.residentBytes());
    row.copies = ctx.stats().copies;
    row.dedup = ctx.stats().duplicatesAvoided;
    row.d2hMb = mb(mgr.ledger().d2hBytes);
    std::cout << std::left << std::setw(26) << label << std::right
              << std::fixed << std::setprecision(0) << std::setw(8)
              << row.residentMb << std::setw(10) << row.copies
              << std::setw(8) << row.dedup << std::setw(12)
              << std::setprecision(1) << row.d2hMb << "\n";
    return row;
}

struct ArtifactRow
{
    api::SizeReport size;
    int64_t artifactBytes = 0; ///< actual serialized container size
};

/**
 * Compress a small model through the unified API and measure both the
 * accounted (deployed-format) size and the lossless container size.
 */
ArtifactRow
artifactStorage(nn::MiniLlama &model, const api::CompressionPlan &plan)
{
    api::Session session;
    api::CalibData calib;
    calib.trainConfig.steps = 0; // freeze-only: storage accounting
    api::SessionResult res = session.run(model, plan, std::move(calib));
    ArtifactRow row;
    row.size = res.report.size;
    row.artifactBytes =
        static_cast<int64_t>(res.artifact.serialize().size());
    return row;
}

} // namespace

int
main()
{
    std::cout << "==========================================\n"
              << " bench_table1_storage (paper Table 1)\n"
              << "==========================================\n\n";
    table1Rows();

    std::cout << "--- Saving x0 and its view for backward through the "
                 "hook ---\n";
    std::cout << std::left << std::setw(26) << "detection" << std::right
              << std::setw(8) << "CPU MB" << std::setw(10) << "copies"
              << std::setw(8) << "dedup" << std::setw(12) << "d2h MB"
              << "\n";
    std::vector<MarshalRow> marshal_rows;
    marshal_rows.push_back(marshaledSaves(
        "none (naive offload)", MarshalConfig::Detection::kNone));
    marshal_rows.push_back(marshaledSaves(
        "graph walk (paper)", MarshalConfig::Detection::kGraphWalk));
    std::cout << "\nExpected shape: naive resident 8 MB; with detection "
                 "4 MB and half the traffic.\n\n";

    // --- On-disk artifact sizes through the unified API ---
    std::cout << "--- Whole-model artifacts (registry + plan + session) "
                 "---\n";
    std::cout << std::left << std::setw(10) << "scheme" << std::right
              << std::setw(12) << "size KiB" << std::setw(10) << "b/w"
              << std::setw(10) << "GB@7B" << std::setw(14)
              << "artifact KiB" << "\n";
    nn::LlamaConfig mcfg;
    mcfg.vocab = 256;
    mcfg.dim = 48;
    mcfg.heads = 4;
    mcfg.layers = 2;
    std::vector<std::pair<std::string, ArtifactRow>> artifact_rows;
    for (const auto &[scheme, bits] :
         std::vector<std::pair<std::string, int>>{
             {"fp16", 16}, {"rtn", 4}, {"rtn", 3}, {"edkm", 3}}) {
        api::CompressionPlan plan;
        plan.scheme = scheme;
        plan.bits = bits == 16 ? 4 : bits; // fp16 ignores bits
        plan.groupSize = 16;
        nn::MiniLlama model(mcfg); // fresh weights per scheme
        ArtifactRow row = artifactStorage(model, plan);
        std::string label =
            scheme == "fp16" ? scheme : scheme + std::to_string(bits);
        artifact_rows.emplace_back(label, row);
        std::cout << std::left << std::setw(10) << label << std::right
                  << std::fixed << std::setprecision(1) << std::setw(12)
                  << row.size.payloadBytes / 1024.0 << std::setw(10)
                  << std::setprecision(2) << row.size.bitsPerWeight
                  << std::setw(10) << row.size.projectedGb7B
                  << std::setw(14) << std::setprecision(1)
                  << row.artifactBytes / 1024.0 << "\n";
    }

    std::ofstream json("BENCH_table1_storage.json");
    json << "{\n  \"bench\": \"table1_storage\",\n"
         << "  \"marshal\": [\n";
    for (size_t i = 0; i < marshal_rows.size(); ++i) {
        const MarshalRow &r = marshal_rows[i];
        json << "    {\"detection\": \"" << r.label
             << "\", \"resident_mb\": " << r.residentMb
             << ", \"copies\": " << r.copies << ", \"dedup\": "
             << r.dedup << ", \"d2h_mb\": " << r.d2hMb << "}"
             << (i + 1 < marshal_rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"artifacts\": [\n";
    for (size_t i = 0; i < artifact_rows.size(); ++i) {
        const auto &[label, r] = artifact_rows[i];
        json << "    {\"label\": \"" << label << "\", \"size\": "
             << r.size.toJson() << ", \"artifact_bytes\": "
             << r.artifactBytes << "}"
             << (i + 1 < artifact_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "\nwrote BENCH_table1_storage.json\n";
    return 0;
}
