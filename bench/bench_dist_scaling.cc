/**
 * @file
 * Distributed-clustering scaling bench: the sharded eDKM loop at 1/2/4
 * learners, as real processes on both transports and as the functional
 * single-process simulation.
 *
 * Emits BENCH_dist.json (cwd) with, per learner count:
 *  - wall-clock milliseconds of the real multi-process run on each
 *    transport (shm rings, localhost sockets);
 *  - the simulated-clock ring-model seconds of the functional run (the
 *    cost model the comm ledger drives);
 *  - collective and transport byte counters.
 *
 * Every multi-process row is gated on bit-identity against the
 * functional simulation at the same learner count — the bench exits
 * nonzero on any mismatch, so CI perf tracking doubles as a
 * correctness check. No speedup is asserted anywhere: CI containers
 * may expose a single CPU, where extra learner processes show
 * correctness, not throughput.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "device/device_manager.h"
#include "dist/sharded_cluster.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace edkm;

namespace {

struct Row
{
    int world = 0;
    std::string transport; // "shm", "socket", or "simulated"
    double wallMs = 0.0;
    double simSeconds = 0.0;
    int64_t allGatherBytes = 0;
    int64_t allReduceBytes = 0;
    int64_t transportBytesReceived = 0;
};

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    int64_t n = 1 << 14;
    try {
        if (argc > 1) {
            n = std::stoll(argv[1]);
        }
    } catch (const std::exception &) {
        std::cerr << "usage: bench_dist_scaling [n]  (positive weight "
                     "count)\n";
        return 2;
    }
    if (n < 1) {
        std::cerr << "usage: bench_dist_scaling [n]  (positive weight "
                     "count)\n";
        return 2;
    }

    Rng rng(29);
    Tensor w = Tensor::rand({n}, rng);

    dist::ShardedClusterOptions opts;
    opts.edkm.dkm.bits = 4;
    opts.edkm.dkm.maxIters = 8;
    // Fixed iteration count: every row runs identical work, so the
    // rows are comparable (and bit-identity is checked on real math).
    opts.edkm.dkm.convergenceEps = 0.0f;

    DeviceManager &mgr = DeviceManager::instance();
    std::vector<Row> rows;
    std::cout << "sharded eDKM clustering, n=" << n
              << " k=" << (1 << opts.edkm.dkm.bits)
              << " iters=" << opts.edkm.dkm.maxIters << "\n";

    for (int world : {1, 2, 4}) {
        // Functional simulation: the reference result and the
        // ring-model simulated clock.
        double sim0 = mgr.simulatedSeconds();
        auto t0 = std::chrono::steady_clock::now();
        dist::ShardedClusterResult ref =
            dist::shardedClusterSimulate(w, opts, world);
        Row sim_row;
        sim_row.world = world;
        sim_row.transport = "simulated";
        sim_row.wallMs = wallMsSince(t0);
        sim_row.simSeconds = mgr.simulatedSeconds() - sim0;
        sim_row.allGatherBytes = ref.comm.allGatherBytes;
        sim_row.allReduceBytes = ref.comm.allReduceBytes;
        rows.push_back(sim_row);
        std::cout << "  world=" << world << " simulated: "
                  << sim_row.wallMs << " ms wall, " << sim_row.simSeconds
                  << " s simulated-clock\n";

        for (dist::TransportKind kind :
             {dist::TransportKind::kShm, dist::TransportKind::kSocket}) {
            dist::ProcessGroupOptions pg;
            pg.world = world;
            pg.kind = kind;
            t0 = std::chrono::steady_clock::now();
            dist::ShardedClusterResult got =
                dist::shardedClusterProcesses(w, opts, pg);
            Row row;
            row.world = world;
            row.transport = dist::transportKindName(kind);
            row.wallMs = wallMsSince(t0);
            row.allGatherBytes = got.comm.allGatherBytes;
            row.allReduceBytes = got.comm.allReduceBytes;
            row.transportBytesReceived = got.transportBytesReceived;
            rows.push_back(row);
            std::cout << "  world=" << world << " " << row.transport
                      << ": " << row.wallMs << " ms wall, "
                      << row.transportBytesReceived
                      << " transport bytes received\n";

            // The gate: real processes must reproduce the functional
            // simulation bit for bit.
            if (!sameBits(got.weights, ref.weights) ||
                !sameBits(got.centroids, ref.centroids) ||
                got.iterations != ref.iterations) {
                std::cerr << "FAIL: world=" << world << " "
                          << row.transport
                          << " diverged from the functional "
                             "simulation\n";
                return 1;
            }
        }
    }

    std::ofstream json("BENCH_dist.json");
    json << "{\n"
         << "  \"bench\": \"dist_scaling\",\n"
         << "  \"n\": " << n << ",\n"
         << "  \"k\": " << (1 << opts.edkm.dkm.bits) << ",\n"
         << "  \"iterations\": " << opts.edkm.dkm.maxIters << ",\n"
         << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        json << "    {\"world\": " << r.world << ", \"transport\": \""
             << r.transport << "\", \"wall_ms\": " << r.wallMs
             << ", \"sim_seconds\": " << r.simSeconds
             << ", \"all_gather_bytes\": " << r.allGatherBytes
             << ", \"all_reduce_bytes\": " << r.allReduceBytes
             << ", \"transport_bytes_received\": "
             << r.transportBytesReceived << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n"
         << "}\n";
    std::cout << "wrote BENCH_dist.json\n";
    return 0;
}
