/**
 * @file
 * Fig 2 companion bench: cost and effectiveness of the marshaling
 * layer's duplicate detection. Measures pack() throughput for each
 * detection strategy, and sweeps the graph-walk hop bound on a
 * view-chain workload to show where detection saturates (the paper
 * found 4 hops sufficient for the original DKM graph).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "device/device_manager.h"
#include "marshal/marshal.h"
#include "tensor/ops.h"
#include "util/rng.h"

using namespace edkm;

namespace {

/** DKM-like save pattern: A saved, then A^T, then A again. */
void
BM_PackDkmPattern(benchmark::State &state)
{
    auto detection =
        static_cast<MarshalConfig::Detection>(state.range(0));
    int64_t side = state.range(1);
    Rng rng(3);
    for (auto _ : state) {
        state.PauseTiming();
        DeviceManager::instance().resetStats();
        MarshalConfig mc;
        mc.detection = detection;
        mc.minOffloadBytes = 1;
        MarshalContext ctx(mc);
        Variable x(Tensor::rand({side, side}, rng, Device::gpu(0)),
                   true);
        Variable w(Tensor::rand({side, 1}, rng, Device::gpu(0)), true);
        state.ResumeTiming();

        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            Variable a = af::softmaxLastDim(x); // save #1: A
            Variable y = af::matmul(af::transpose(a, 0, 1), w); // A^T, w
            Variable z = af::matmul(a, w);      // save: A again
            loss = af::add(af::sumAll(y), af::sumAll(z));
        }
        benchmark::DoNotOptimize(loss.data().item());

        state.counters["copies"] =
            static_cast<double>(ctx.stats().copies);
        state.counters["dedup"] =
            static_cast<double>(ctx.stats().duplicatesAvoided);
        state.counters["d2h_MB"] =
            static_cast<double>(
                DeviceManager::instance().ledger().d2hBytes) /
            (1024.0 * 1024.0);
        state.counters["walk_steps"] =
            static_cast<double>(ctx.stats().walkSteps);
    }
}

/** Long view chains: how hop depth affects detection. */
void
BM_HopSweep(benchmark::State &state)
{
    int hops = static_cast<int>(state.range(0));
    Rng rng(5);
    for (auto _ : state) {
        state.PauseTiming();
        MarshalConfig mc;
        mc.maxHops = hops;
        mc.minOffloadBytes = 1;
        MarshalContext ctx(mc);
        Variable x(Tensor::rand({64, 64}, rng, Device::gpu(0)), true);
        state.ResumeTiming();

        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            Variable s0 = af::square(x); // registers x
            // Chain of 4 storage-invariant ops, saving at each depth.
            Variable v1 = af::view(x, {4096});
            Variable v2 = af::view(v1, {64, 64});
            Variable v3 = af::transpose(v2, 0, 1);
            Variable v4 = af::unsqueeze(v3, 0);
            Variable acc = af::sumAll(s0);
            for (const Variable *v : {&v1, &v2, &v3, &v4}) {
                acc = af::add(acc, af::sumAll(af::square(*v)));
            }
            loss = acc;
        }
        benchmark::DoNotOptimize(loss.data().item());
        state.counters["dedup"] =
            static_cast<double>(ctx.stats().duplicatesAvoided);
        state.counters["copies"] =
            static_cast<double>(ctx.stats().copies);
        state.counters["walk_steps"] =
            static_cast<double>(ctx.stats().walkSteps);
    }
}

} // namespace

BENCHMARK(BM_PackDkmPattern)
    ->ArgsProduct(
        {{static_cast<long>(MarshalConfig::Detection::kGraphWalk),
          static_cast<long>(MarshalConfig::Detection::kNone)},
         {128, 512}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_HopSweep)
    ->DenseRange(0, 6, 1)
    ->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::cout << "\nExpected shape: graph-walk avoids ~half "
                 "the copies of 'none'; hop-sweep dedup saturates once "
                 "the bound covers the deepest view chain (paper: 4 "
                 "hops sufficed).\n";
    return 0;
}
