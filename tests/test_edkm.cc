/**
 * @file
 * eDKM correctness tests: the memory-efficient implementation must
 * compute the same forward result and the same gradients as the dense
 * DKM reference, for every combination of uniquification, sharding, and
 * backward mode — the central exactness claim of the paper (the
 * techniques are lossless re-encodings of what is saved for backward).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/dkm.h"
#include "core/edkm.h"
#include "core/uniquify.h"
#include "device/device_manager.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "marshal/marshal.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace {

/** bf16-bucketed clusterable weights: the LLM fine-tuning setting. */
Tensor
bf16Weights(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    Tensor w = Tensor::empty({n});
    for (int64_t i = 0; i < n; ++i) {
        float center =
            static_cast<float>(rng.randint(0, 7)) * 0.02f - 0.07f;
        w.setFlatAt(i, center + rng.normal(0.0f, 0.002f));
    }
    return w.to(DType::kBf16).to(DType::kF32);
}

/** bf16 weights of both signs spread log-uniformly over 12 binades:
 *  most members get a 16-bit pattern of their own. */
Tensor
logUniformWeights(int64_t n, Rng &rng)
{
    Tensor w = Tensor::empty({n});
    for (int64_t i = 0; i < n; ++i) {
        float mag = std::exp2(rng.uniform() * 12.0f - 12.0f);
        w.setFlatAt(i, i % 2 == 0 ? mag : -mag);
    }
    return w.to(DType::kBf16).to(DType::kF32);
}

DkmConfig
sharedCfg()
{
    DkmConfig cfg;
    cfg.bits = 3;
    cfg.maxIters = 4;
    cfg.convergenceEps = 0.0f; // fixed iterations for exact comparison
    cfg.temperature = 2e-4f;
    cfg.seed = 555;
    return cfg;
}

struct RunResult
{
    Tensor output;
    Tensor grad;
};

/** Forward + backward of sum(upstream * W~) for any layer. */
template <typename Layer>
RunResult
run(Layer &layer, const Tensor &w, const Tensor &upstream)
{
    Variable wv(w.clone(), true);
    Variable out = layer.forward(wv);
    Variable loss = af::sumAll(af::mul(out, af::constant(upstream)));
    backward(loss);
    return {out.data(), wv.grad()};
}

/**
 * Reference for the kReconstruct backward: the materializing algorithm
 * it replaced. Re-runs EdkmLayer's forward with the same kernels, then
 * gathers every iteration's dense [n,k] attention map from its table
 * and runs the dense backward loops over a full [n,k] gA tensor, with
 * the same chunking. W~ and dW must match EdkmLayer bit for bit.
 */
RunResult
materializedReference(const EdkmConfig &cfg, const Tensor &w,
                      const Tensor &upstream)
{
    using runtime::grainFor;
    int64_t n = w.numel(), k = int64_t{1} << cfg.dkm.bits;
    UniqueDecomposition dec = uniquify(w, cfg.halfKind);
    std::vector<float> u_vals =
        cfg.uniquify ? dec.values : w.toVector();
    std::vector<float> u_cnts =
        cfg.uniquify ? dec.counts
                     : std::vector<float>(static_cast<size_t>(n), 1.0f);
    auto U = static_cast<int64_t>(u_vals.size());
    std::vector<float> cw(static_cast<size_t>(U));
    for (size_t r = 0; r < cw.size(); ++r) {
        cw[r] = u_cnts[r] * u_vals[r];
    }
    float tau = DkmLayer::resolveTemperature(cfg.dkm, dec.values,
                                             dec.counts);
    Tensor u_col = Tensor::fromVector(u_vals, {U, 1});
    Tensor cnt_row = Tensor::fromVector(u_cnts, {1, U});
    Tensor cw_row = Tensor::fromVector(cw, {1, U});

    struct Iter
    {
        Tensor table;
        std::vector<float> c_in, m, nv;
    };
    std::vector<Iter> iters;
    Tensor c = Tensor::fromVector(
        DkmLayer::initCentroids(dec.values, dec.counts, cfg.dkm), {k});
    for (int it = 0; it < cfg.dkm.maxIters; ++it) {
        Tensor table = kernels::attentionTable(u_col, c.view({1, k}), tau);
        Tensor m = matmul(cnt_row, table).view({k});
        Tensor nv = matmul(cw_row, table).view({k});
        Tensor c_new = div(nv, addScalar(m, 1e-12f));
        iters.push_back({table, c.toVector(), m.toVector(), nv.toVector()});
        float delta = maxAbsDiff(c_new, c);
        c = c_new;
        if (delta < cfg.dkm.convergenceEps) {
            break;
        }
    }
    auto dense_map = [&](const Tensor &table) {
        return cfg.uniquify ? kernels::gatherTableRows(table, dec.indexList)
                            : table;
    };
    auto densify = [&](const Tensor &per_row) {
        if (!cfg.uniquify) {
            return per_row;
        }
        Tensor out = Tensor::empty({n});
        kernels::gatherU16(per_row.rawData<const float>(),
                           dec.indexList.rawData<const uint16_t>(), n,
                           out.rawData<float>());
        return out;
    };

    RunResult res;
    res.output =
        densify(matmul(iters.back().table, c.view({k, 1})).view({U}));
    Tensor w_dense = densify(u_col.view({U}));
    const float *pw = w_dense.rawData<const float>();
    const float *pg = upstream.rawData<const float>();
    std::vector<float> c_final = c.toVector();

    auto combine = [](std::vector<double> a, std::vector<double> b) {
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] += b[i];
        }
        return a;
    };
    Tensor gw = Tensor::zeros({n});
    float *pgw = gw.rawData<float>();
    Tensor a_last = dense_map(iters.back().table);
    const float *pa_last = a_last.rawData<const float>();
    int64_t row_grain = grainFor(n, 8 * k);
    std::vector<double> gc = runtime::parallelReduce<std::vector<double>>(
        0, n, row_grain, std::vector<double>(static_cast<size_t>(k), 0.0),
        [&](int64_t cb, int64_t ce) {
            std::vector<double> part(static_cast<size_t>(k), 0.0);
            for (int64_t i = cb; i < ce; ++i) {
                for (int64_t j = 0; j < k; ++j) {
                    part[static_cast<size_t>(j)] +=
                        static_cast<double>(pg[i]) * pa_last[i * k + j];
                }
            }
            return part;
        },
        combine);

    Tensor gA = Tensor::empty({n, k});
    float *pgA = gA.rawData<float>();
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < k; ++j) {
            pgA[i * k + j] = pg[i] * c_final[static_cast<size_t>(j)];
        }
    }
    float inv_tau = 1.0f / tau;
    int num_iters = static_cast<int>(iters.size());
    for (int it = num_iters - 1; it >= 0; --it) {
        const Iter &iter = iters[static_cast<size_t>(it)];
        std::vector<float> gn(static_cast<size_t>(k));
        std::vector<float> gm(static_cast<size_t>(k));
        for (size_t j = 0; j < gn.size(); ++j) {
            float mj = std::max(iter.m[j], 1e-12f);
            gn[j] = static_cast<float>(gc[j]) / mj;
            gm[j] = -static_cast<float>(gc[j]) * iter.nv[j] / (mj * mj);
        }
        Tensor a_t = it == num_iters - 1 ? a_last : dense_map(iter.table);
        const float *pa = a_t.rawData<const float>();
        gc = runtime::parallelReduce<std::vector<double>>(
            0, n, row_grain,
            std::vector<double>(static_cast<size_t>(k), 0.0),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(k), 0.0);
                for (int64_t i = cb; i < ce; ++i) {
                    float wi = pw[i];
                    float *grow = pgA + i * k;
                    const float *arow = pa + i * k;
                    double dot = 0.0;
                    double gw_acc = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        size_t js = static_cast<size_t>(j);
                        grow[j] += gn[js] * wi + gm[js];
                        gw_acc += static_cast<double>(arow[j]) * gn[js];
                        dot += static_cast<double>(grow[j]) * arow[j];
                    }
                    for (int64_t j = 0; j < k; ++j) {
                        size_t js = static_cast<size_t>(j);
                        float gs =
                            arow[j] * (grow[j] - static_cast<float>(dot));
                        float gdsq = -gs * inv_tau;
                        float d = wi - iter.c_in[js];
                        gw_acc += static_cast<double>(gdsq) * 2.0 * d;
                        part[js] += static_cast<double>(gdsq) * (-2.0) * d;
                    }
                    pgw[i] += static_cast<float>(gw_acc);
                }
                return part;
            },
            combine);
        if (it > 0) {
            gA.fill(0.0f);
        }
    }
    res.grad = gw;
    return res;
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    std::vector<float> va = a.toVector(), vb = b.toVector();
    return va.size() == vb.size() &&
           std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)) ==
               0;
}

class EdkmEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
        w = bf16Weights(600, 91);
        Rng r(17);
        upstream = Tensor::randn({600}, r);
    }

    Tensor w, upstream;
};

TEST_F(EdkmEquivalence, DenseFusedMatchesComposedDkm)
{
    DkmLayer dense(sharedCfg());
    RunResult a = run(dense, w, upstream);

    EdkmConfig ecfg;
    ecfg.dkm = sharedCfg();
    ecfg.uniquify = false;
    EdkmLayer fused(ecfg);
    RunResult b = run(fused, w, upstream);

    EXPECT_LT(maxAbsDiff(a.output, b.output), 1e-4f);
    EXPECT_LT(maxAbsDiff(a.grad, b.grad), 2e-3f);
}

TEST_F(EdkmEquivalence, UniquifiedMatchesDense)
{
    EdkmConfig dense_cfg;
    dense_cfg.dkm = sharedCfg();
    dense_cfg.uniquify = false;
    EdkmLayer dense(dense_cfg);
    RunResult a = run(dense, w, upstream);

    EdkmConfig ucfg;
    ucfg.dkm = sharedCfg();
    ucfg.uniquify = true;
    EdkmLayer uniq(ucfg);
    RunResult b = run(uniq, w, upstream);

    // Same math grouped by unique value: equal up to fp association.
    EXPECT_LT(maxAbsDiff(a.output, b.output), 1e-4f);
    EXPECT_LT(maxAbsDiff(a.grad, b.grad), 2e-3f);
    EXPECT_GT(uniq.report().uniqueCount, 0);
    EXPECT_LT(uniq.report().uniqueCount, 600);
}

TEST_F(EdkmEquivalence, FusedBackwardMatchesReconstruct)
{
    EdkmConfig rcfg;
    rcfg.dkm = sharedCfg();
    rcfg.uniquify = true;
    rcfg.backwardMode = EdkmConfig::BackwardMode::kReconstruct;
    EdkmLayer rec(rcfg);
    RunResult a = run(rec, w, upstream);

    EdkmConfig fcfg = rcfg;
    fcfg.backwardMode = EdkmConfig::BackwardMode::kFused;
    EdkmLayer fused(fcfg);
    RunResult b = run(fused, w, upstream);

    EXPECT_EQ(maxAbsDiff(a.output, b.output), 0.0f); // same forward
    EXPECT_LT(maxAbsDiff(a.grad, b.grad), 1e-4f);    // same algebra
}

TEST_F(EdkmEquivalence, ShardingPreservesGradients)
{
    auto group = std::make_shared<LearnerGroup>(4);

    EdkmConfig base_cfg;
    base_cfg.dkm = sharedCfg();
    base_cfg.uniquify = true;
    EdkmLayer base(base_cfg);
    RunResult a = run(base, w, upstream);

    EdkmConfig scfg = base_cfg;
    scfg.shard = true;
    EdkmLayer sharded(scfg, group);
    RunResult b = run(sharded, w, upstream);

    EXPECT_EQ(maxAbsDiff(a.output, b.output), 0.0f);
    EXPECT_LT(maxAbsDiff(a.grad, b.grad), 1e-4f);
    // The backward must have simulated an all-gather of the index list.
    EXPECT_GE(group->stats().allGathers, 1);
}

TEST_F(EdkmEquivalence, DenseShardingPreservesGradients)
{
    auto group = std::make_shared<LearnerGroup>(4);
    EdkmConfig dense_cfg;
    dense_cfg.dkm = sharedCfg();
    dense_cfg.uniquify = false;
    EdkmLayer dense(dense_cfg);
    RunResult a = run(dense, w, upstream);

    EdkmConfig scfg = dense_cfg;
    scfg.shard = true;
    EdkmLayer sharded(scfg, group);
    RunResult b = run(sharded, w, upstream);

    EXPECT_EQ(maxAbsDiff(a.output, b.output), 0.0f);
    EXPECT_LT(maxAbsDiff(a.grad, b.grad), 1e-4f);
    EXPECT_GE(group->stats().allGathers, 1);
}

TEST_F(EdkmEquivalence, SavedBytesOrdering)
{
    // Table 2's memory ordering at the saved-payload level:
    // dense > uniquified > uniquified+sharded.
    EdkmConfig dense_cfg;
    dense_cfg.dkm = sharedCfg();
    dense_cfg.uniquify = false;
    EdkmLayer dense(dense_cfg);
    run(dense, w, upstream);

    EdkmConfig ucfg = dense_cfg;
    ucfg.uniquify = true;
    EdkmLayer uniq(ucfg);
    run(uniq, w, upstream);

    auto group = std::make_shared<LearnerGroup>(8);
    EdkmConfig uscfg = ucfg;
    uscfg.shard = true;
    EdkmLayer uniq_shard(uscfg, group);
    run(uniq_shard, w, upstream);

    EXPECT_GT(dense.report().savedBytes, uniq.report().savedBytes);
    EXPECT_GT(uniq.report().savedBytes,
              uniq_shard.report().savedBytes);
}

TEST_F(EdkmEquivalence, MarshalOffloadKeepsGradientsIntact)
{
    // Marshaling only moves saved tensors: the same gpu(0) weight run
    // with no hooks, with graph-walk offload and with no-detection
    // offload gives byte-identical W~ and dW in every mode.
    Rng rng(31);
    Tensor w_gpu = Tensor::randn({256, 256}, rng, Device::cpu(), 0.02f)
                       .to(DType::kBf16)
                       .to(DType::kF32)
                       .to(Device::gpu(0));
    Tensor up_gpu = Tensor::randn({256, 256}, rng).to(Device::gpu(0));
    auto group = std::make_shared<LearnerGroup>(8);
    using Mode = EdkmConfig::BackwardMode;
    using Detection = MarshalConfig::Detection;
    for (Mode mode : {Mode::kReconstruct, Mode::kFused}) {
        for (bool uniq : {true, false}) {
            for (bool shard : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "fused=" << (mode == Mode::kFused)
                             << " U=" << uniq << " S=" << shard);
                EdkmConfig cfg;
                cfg.dkm.bits = 3;
                cfg.dkm.maxIters = 3;
                cfg.dkm.convergenceEps = 0.0f;
                cfg.uniquify = uniq;
                cfg.shard = shard;
                cfg.backwardMode = mode;
                EdkmLayer plain_layer(cfg, group);
                RunResult plain = run(plain_layer, w_gpu, up_gpu);
                for (Detection det : {Detection::kGraphWalk,
                                      Detection::kNone}) {
                    MarshalConfig mc;
                    mc.detection = det;
                    mc.minOffloadBytes = 1;
                    MarshalContext ctx(mc);
                    EdkmLayer layer(cfg, group);
                    Variable wv(w_gpu.clone(), true);
                    Variable out;
                    Variable loss;
                    {
                        SavedTensorHooksGuard guard(&ctx);
                        out = layer.forward(wv);
                        loss = af::sumAll(
                            af::mul(out, af::constant(up_gpu)));
                    }
                    backward(loss);
                    EXPECT_GE(ctx.stats().copies, 1); // payload went to CPU
                    EXPECT_TRUE(sameBytes(out.data(), plain.output))
                        << "graph walk=" << (det == Detection::kGraphWalk);
                    EXPECT_TRUE(sameBytes(wv.grad(), plain.grad))
                        << "graph walk=" << (det == Detection::kGraphWalk);
                }
            }
        }
    }
}

TEST_F(EdkmEquivalence, GraphWalkDedupsSavedClusteredWeight)
{
    // Fig. 2's A / A^T pattern on the clustered weight: the loss reads
    // W~ through a transpose into a matmul and directly (W~^T W~), so
    // W~ is saved twice as two views of one storage. The graph walk
    // stores one CPU copy and replays the transpose on unpack, and
    // no-detection stores two; both feed dW, which must not change.
    Rng rng(41);
    Tensor w_gpu = Tensor::randn({64, 64}, rng, Device::cpu(), 0.02f)
                       .to(DType::kBf16)
                       .to(DType::kF32)
                       .to(Device::gpu(0));
    Tensor up_gpu = Tensor::randn({64, 64}, rng).to(Device::gpu(0));
    EdkmConfig cfg;
    cfg.dkm.bits = 3;
    cfg.dkm.maxIters = 3;
    cfg.dkm.convergenceEps = 0.0f;

    struct Outcome
    {
        RunResult run;
        MarshalStats stats;
    };
    auto train = [&](MarshalConfig::Detection det) {
        MarshalConfig mc;
        mc.detection = det;
        mc.minOffloadBytes = 1;
        MarshalContext ctx(mc);
        EdkmLayer layer(cfg);
        Variable wv(w_gpu.clone(), true);
        Variable out;
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            out = layer.forward(wv);
            Variable wt = af::transpose(out, 0, 1);
            Variable gram = af::matmul(wt, out); // saves W~^T, then W~
            loss = af::sumAll(af::mul(gram, af::constant(up_gpu)));
        }
        backward(loss);
        return Outcome{{out.data(), wv.grad()}, ctx.stats()};
    };

    Outcome walk = train(MarshalConfig::Detection::kGraphWalk);
    Outcome none = train(MarshalConfig::Detection::kNone);
    EXPECT_GE(walk.stats.duplicatesAvoided, 1);
    EXPECT_EQ(none.stats.duplicatesAvoided, 0);
    EXPECT_LT(walk.stats.bytesCopied, none.stats.bytesCopied);
    EXPECT_TRUE(sameBytes(walk.run.output, none.run.output));
    EXPECT_TRUE(sameBytes(walk.run.grad, none.run.grad));
}

TEST_F(EdkmEquivalence, ReportDiagnostics)
{
    EdkmConfig cfg;
    cfg.dkm = sharedCfg();
    cfg.uniquify = true;
    EdkmLayer layer(cfg);
    run(layer, w, upstream);
    const EdkmReport &r = layer.report();
    EXPECT_EQ(r.iterations, 4);
    EXPECT_GT(r.temperatureUsed, 0.0f);
    EXPECT_GT(r.denseMapBytes, 0);
    EXPECT_GT(r.savedBytes, 0);
    // The whole point: saved bytes far below one dense map per iter.
    EXPECT_LT(r.savedBytes, r.denseMapBytes * r.iterations);
}

TEST_F(EdkmEquivalence, ShardRequiresGroup)
{
    EdkmConfig cfg;
    cfg.dkm = sharedCfg();
    cfg.shard = true;
    EXPECT_THROW(EdkmLayer(cfg, nullptr), FatalError);
}

TEST_F(EdkmEquivalence, PalettizeAfterTraining)
{
    EdkmConfig cfg;
    cfg.dkm = sharedCfg();
    EdkmLayer layer(cfg);
    run(layer, w, upstream);
    PalettizedTensor p = layer.palettize(w);
    EXPECT_EQ(p.bits(), 3);
    // Hard assignment error is bounded on clusterable data.
    EXPECT_LT(maxAbsDiff(p.decompress(), w.view({600})), 0.05f);
}

TEST(EdkmReconstruct, StreamedBackwardMatchesMaterializedReference)
{
    DeviceManager::instance().resetAll();
    Rng rng(123);
    std::vector<std::pair<const char *, Tensor>> weights = {
        {"one unique value", Tensor::full({2048}, 0.03125f)},
        {"clustered", bf16Weights(600, 91)},
        {"randn", Tensor::randn({8192}, rng, Device::cpu(), 0.02f)
                      .to(DType::kBf16)
                      .to(DType::kF32)},
        {"log-uniform", logUniformWeights(2048, rng)},
    };
    auto group = std::make_shared<LearnerGroup>(4);
    for (const auto &[name, w] : weights) {
        Rng up(9);
        Tensor upstream = Tensor::randn({w.numel()}, up);
        for (bool uniq : {true, false}) {
            for (bool shard : {false, true}) {
                for (int bits : {2, 3, 4}) {
                    for (int iters : {1, 3}) {
                        SCOPED_TRACE(::testing::Message()
                                     << name << " U=" << uniq
                                     << " S=" << shard << " bits=" << bits
                                     << " iters=" << iters);
                        EdkmConfig cfg;
                        cfg.dkm.bits = bits;
                        cfg.dkm.maxIters = iters;
                        cfg.dkm.convergenceEps = 0.0f;
                        cfg.uniquify = uniq;
                        cfg.shard = shard;
                        EdkmLayer layer(cfg, group);
                        RunResult got = run(layer, w, upstream);
                        RunResult ref =
                            materializedReference(cfg, w, upstream);
                        EXPECT_TRUE(sameBytes(got.output, ref.output));
                        EXPECT_TRUE(sameBytes(got.grad, ref.grad));
                    }
                }
            }
        }
    }
    // The last two weights read thousands of table rows.
    EXPECT_GT(uniquify(weights[2].second, HalfKind::kBf16).uniqueCount(),
              1000);
    EXPECT_GT(uniquify(weights[3].second, HalfKind::kBf16).uniqueCount(),
              1000);
}

TEST(EdkmReconstruct, UniquifiedBackwardAllocatesNoDenseMap)
{
    DeviceManager::instance().resetAll();
    const int64_t n = int64_t{1} << 18;
    Rng rng(77);
    Tensor w = Tensor::randn({n}, rng, Device::cpu(), 0.02f)
                   .to(DType::kBf16)
                   .to(DType::kF32)
                   .to(Device::gpu(0));
    Tensor upstream = Tensor::randn({n}, rng).to(Device::gpu(0));
    EdkmConfig cfg;
    cfg.dkm.bits = 3; // k = 8
    cfg.dkm.maxIters = 3;
    cfg.dkm.convergenceEps = 0.0f;
    cfg.uniquify = true;
    cfg.backwardMode = EdkmConfig::BackwardMode::kReconstruct;
    EdkmLayer layer(cfg);
    Variable wv(w, true);
    Variable loss =
        af::sumAll(af::mul(layer.forward(wv), af::constant(upstream)));
    StatsScope scope(Device::gpu(0));
    backward(loss);
    const int64_t dense_map_bytes = n * 8 * 4;
    EXPECT_LT(scope.peakDelta(), dense_map_bytes);
    EXPECT_TRUE(wv.grad().defined());
}

/** Parameterized sweep: equivalence holds across bit widths. */
class EdkmBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(EdkmBitsSweep, UniquifiedMatchesDenseAtAllBits)
{
    Tensor w = bf16Weights(300, 7u + static_cast<uint64_t>(GetParam()));
    Rng r(3);
    Tensor upstream = Tensor::randn({300}, r);

    DkmConfig dkm;
    dkm.bits = GetParam();
    dkm.maxIters = 3;
    dkm.convergenceEps = 0.0f;
    dkm.temperature = 2e-4f;

    EdkmConfig a_cfg;
    a_cfg.dkm = dkm;
    a_cfg.uniquify = false;
    EdkmLayer a(a_cfg);
    RunResult ra = run(a, w, upstream);

    EdkmConfig b_cfg = a_cfg;
    b_cfg.uniquify = true;
    b_cfg.backwardMode = EdkmConfig::BackwardMode::kFused;
    EdkmLayer b(b_cfg);
    RunResult rb = run(b, w, upstream);

    EXPECT_LT(maxAbsDiff(ra.output, rb.output), 1e-4f);
    EXPECT_LT(maxAbsDiff(ra.grad, rb.grad), 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(Bits, EdkmBitsSweep,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace edkm
