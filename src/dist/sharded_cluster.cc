#include "dist/sharded_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/dkm.h"
#include "core/uniquify.h"
#include "dist/transport.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "util/logging.h"
#include "util/serial.h"

namespace edkm {
namespace dist {

namespace {

void
appendF32Vec(std::vector<uint8_t> &buf, const std::vector<float> &v)
{
    serial::appendPod(buf, static_cast<uint64_t>(v.size()));
    const uint8_t *p = reinterpret_cast<const uint8_t *>(v.data());
    buf.insert(buf.end(), p, p + v.size() * sizeof(float));
}

std::vector<float>
readF32Vec(const std::vector<uint8_t> &buf, size_t &at)
{
    uint64_t count = serial::readPod<uint64_t>(buf, at);
    size_t bytes = static_cast<size_t>(count) * sizeof(float);
    EDKM_CHECK(bytes <= buf.size() - at,
               "sharded cluster result: truncated float vector");
    std::vector<float> v(static_cast<size_t>(count));
    std::memcpy(v.data(), buf.data() + at, bytes);
    at += bytes;
    return v;
}

std::vector<uint8_t>
serializeResult(const ShardedClusterResult &r)
{
    std::vector<uint8_t> buf;
    appendF32Vec(buf, r.weights);
    appendF32Vec(buf, r.centroids);
    serial::appendPod(buf, static_cast<int32_t>(r.iterations));
    serial::appendPod(buf, r.uniqueCount);
    serial::appendPod(buf, r.comm.allGathers);
    serial::appendPod(buf, r.comm.allGatherBytes);
    serial::appendPod(buf, r.comm.allReduces);
    serial::appendPod(buf, r.comm.allReduceBytes);
    serial::appendPod(buf, r.transportBytesSent);
    serial::appendPod(buf, r.transportBytesReceived);
    return buf;
}

ShardedClusterResult
deserializeResult(const std::vector<uint8_t> &buf)
{
    ShardedClusterResult r;
    size_t at = 0;
    r.weights = readF32Vec(buf, at);
    r.centroids = readF32Vec(buf, at);
    r.iterations = serial::readPod<int32_t>(buf, at);
    r.uniqueCount = serial::readPod<int64_t>(buf, at);
    r.comm.allGathers = serial::readPod<int64_t>(buf, at);
    r.comm.allGatherBytes = serial::readPod<int64_t>(buf, at);
    r.comm.allReduces = serial::readPod<int64_t>(buf, at);
    r.comm.allReduceBytes = serial::readPod<int64_t>(buf, at);
    r.transportBytesSent = serial::readPod<int64_t>(buf, at);
    r.transportBytesReceived = serial::readPod<int64_t>(buf, at);
    return r;
}

/** Byte-exact comparison of two float vectors (bit-identity gate). */
bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

} // namespace

ShardedClusterResult
shardedClusterRank(const Tensor &w, const ShardedClusterOptions &opts,
                   LearnerGroup &group)
{
    EDKM_CHECK(w.defined() && w.numel() > 0,
               "sharded cluster: empty weight");
    int64_t n = w.numel();
    int64_t k = 1 << opts.edkm.dkm.bits;
    Device dev = w.device();

    // Unique decomposition, warm start and temperature are computed
    // from the full weights on every rank (identical inputs, identical
    // outputs) — exactly the synchronous-training premise of the paper.
    UniqueDecomposition dec = uniquify(w, opts.edkm.halfKind);
    std::vector<float> u_vals;
    std::vector<float> u_cnts;
    int64_t U;
    if (opts.edkm.uniquify) {
        u_vals = dec.values;
        u_cnts = dec.counts;
        U = dec.uniqueCount();
    } else {
        u_vals = w.toVector();
        u_cnts.assign(static_cast<size_t>(n), 1.0f);
        U = n;
    }
    std::vector<float> c =
        DkmLayer::initCentroids(dec.values, dec.counts, opts.edkm.dkm);
    float tau = DkmLayer::resolveTemperature(opts.edkm.dkm, dec.values,
                                             dec.counts);
    Tensor u_col = Tensor::fromVector(u_vals, {U, 1}, dev);

    auto shard_table = [&](int r, const Tensor &c_row) {
        auto [b, e] = group.shardRange(U, r);
        return kernels::attentionTable(u_col.slice(0, b, e), c_row, tau);
    };

    Tensor table_own;            // own shard's table, last iteration
    std::vector<float> c_last_in; // centroids that table was built from
    int iters = 0;

    for (int it = 0; it < opts.edkm.dkm.maxIters; ++it) {
        c_last_in = c;
        Tensor c_row = Tensor::fromVector(c, {1, k}, dev);

        // Per-rank partial of the pooled update: fold the shard's rows
        // into one [2k] vector (attention mass m, then value sum nv),
        // double-accumulated in row order within the rank.
        auto partial = [&](int r) -> Tensor {
            Tensor p = Tensor::zeros({2 * k}, DType::kF32, Device::cpu());
            auto [b, e] = group.shardRange(U, r);
            if (e == b) {
                return p;
            }
            Tensor tbl = shard_table(r, c_row);
            if (r == group.rank()) {
                table_own = tbl;
            }
            const float *pt = tbl.rawData<const float>();
            float *pp = p.rawData<float>();
            std::vector<double> acc(static_cast<size_t>(2 * k), 0.0);
            for (int64_t row = b; row < e; ++row) {
                const float *trow = pt + (row - b) * k;
                double cv = u_cnts[static_cast<size_t>(row)];
                double wv = cv * u_vals[static_cast<size_t>(row)];
                for (int64_t j = 0; j < k; ++j) {
                    acc[static_cast<size_t>(j)] += cv * trow[j];
                    acc[static_cast<size_t>(k + j)] += wv * trow[j];
                }
            }
            for (int64_t i = 0; i < 2 * k; ++i) {
                pp[i] = static_cast<float>(acc[static_cast<size_t>(i)]);
            }
            return p;
        };

        Tensor mn = group.allReduceSumDet(2 * k, partial);
        const float *pmn = mn.rawData<const float>();
        float delta = 0.0f;
        for (int64_t j = 0; j < k; ++j) {
            float cn = pmn[k + j] / (pmn[j] + 1e-12f);
            delta = std::max(delta,
                             std::fabs(cn - c[static_cast<size_t>(j)]));
            c[static_cast<size_t>(j)] = cn;
        }
        iters = it + 1;
        if (delta < opts.edkm.dkm.convergenceEps) {
            break;
        }
    }

    // Final soft weights: each rank turns its table rows into per-row
    // dot products with the final centroids, then one sharded
    // all-gather assembles the [U] vector everywhere.
    Tensor c_last_row = Tensor::fromVector(c_last_in, {1, k}, dev);
    auto shard_fn = [&](int r) -> Tensor {
        auto [b, e] = group.shardRange(U, r);
        Tensor tbl = (r == group.rank() && table_own.defined())
                         ? table_own
                         : shard_table(r, c_last_row);
        Tensor out =
            Tensor::empty({e - b, 1}, DType::kF32, Device::cpu());
        const float *pt = tbl.rawData<const float>();
        float *po = out.rawData<float>();
        for (int64_t row = 0; row < e - b; ++row) {
            double dot = 0.0;
            for (int64_t j = 0; j < k; ++j) {
                dot += static_cast<double>(pt[row * k + j]) *
                       c[static_cast<size_t>(j)];
            }
            po[row] = static_cast<float>(dot);
        }
        return out;
    };
    Tensor w_unique = group.allGatherShards(U, 1, shard_fn);

    ShardedClusterResult res;
    if (opts.edkm.uniquify) {
        res.weights.resize(static_cast<size_t>(n));
        const float *pu = w_unique.rawData<const float>();
        const uint16_t *pi = dec.indexList.rawData<const uint16_t>();
        float *po = res.weights.data();
        runtime::parallelFor(0, n, runtime::grainFor(n, 2),
                             [&](int64_t cb, int64_t ce) {
                                 kernels::gatherU16(pu, pi + cb, ce - cb,
                                                    po + cb);
                             });
    } else {
        res.weights = w_unique.toVector();
    }
    res.centroids = std::move(c);
    res.iterations = iters;
    res.uniqueCount = opts.edkm.uniquify ? dec.uniqueCount() : 0;
    res.comm = group.stats();
    if (group.crossProcess()) {
        res.transportBytesSent = group.transport()->bytesSent();
        res.transportBytesReceived = group.transport()->bytesReceived();
    }
    return res;
}

ShardedClusterResult
shardedClusterSimulate(const Tensor &w, const ShardedClusterOptions &opts,
                       int world)
{
    LearnerGroup group(world, 0);
    return shardedClusterRank(w, opts, group);
}

ShardedClusterResult
shardedClusterProcesses(const Tensor &w, const ShardedClusterOptions &opts,
                        const ProcessGroupOptions &pg)
{
    std::vector<std::vector<uint8_t>> blobs =
        ProcessGroup::run(pg, [&w, &opts](Transport &transport) {
            LearnerGroup group(transport);
            ShardedClusterResult r = shardedClusterRank(w, opts, group);
            return serializeResult(r);
        });

    std::vector<ShardedClusterResult> all;
    all.reserve(blobs.size());
    for (const std::vector<uint8_t> &blob : blobs) {
        all.push_back(deserializeResult(blob));
    }
    for (size_t r = 1; r < all.size(); ++r) {
        if (!bitIdentical(all[0].weights, all[r].weights) ||
            !bitIdentical(all[0].centroids, all[r].centroids)) {
            throw DistError(
                "dist: bit-identity violated between learner rank 0 "
                "and rank " +
                std::to_string(r) + " (sharded cluster)");
        }
    }
    return all[0];
}

} // namespace dist
} // namespace edkm
