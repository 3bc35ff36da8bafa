#include "core/edkm.h"

#include <algorithm>
#include <cmath>

#include "autograd/node.h"
#include "core/kmeans.h"
#include "device/device_manager.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {

namespace {

using runtime::grainFor;
using runtime::parallelFor;
using runtime::parallelReduce;

/** Combine chunk-local double accumulators elementwise (chunk order). */
std::vector<double>
combineVec(std::vector<double> a, std::vector<double> b)
{
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] += b[i];
    }
    return a;
}

/**
 * Everything the eDKM backward needs, captured during forward. Large
 * payloads are SavedTensors (flow through the marshaling hooks); [k]-
 * sized vectors are kept plain.
 */
struct EdkmTape
{
    EdkmConfig config;
    std::shared_ptr<LearnerGroup> group;

    int64_t n = 0;       ///< number of weights
    int64_t k = 0;       ///< number of centroids
    int64_t uCount = 0;  ///< unique values (== n when uniquify off)
    float tau = 1.0f;
    Shape origShape;

    /** Retained reference to the input weights (a model parameter that
     *  stays resident anyway; used for deterministic regeneration of
     *  sharded payloads, standing in for the all-gather receive). */
    Tensor wRetained;

    // Uniquification payload (empty when uniquify off).
    SavedTensor idxSaved;     ///< u16 [n] or this rank's shard
    SavedTensor uValuesSaved; ///< f32 [U]
    SavedTensor countsSaved;  ///< f32 [U]
    bool idxSharded = false;

    struct Iter
    {
        SavedTensor table; ///< [U,k] table, or dense [n,k] (maybe shard)
        Tensor cIn;        ///< [k]
        Tensor m;          ///< [k] attention mass
        Tensor nv;         ///< [k] attention-weighted value sum
        bool tableSharded = false;
    };
    std::vector<Iter> iters;

    Tensor cFinal; ///< [k]

    int64_t savedBytes = 0; ///< logical bytes stashed via SavedTensor
};

/** scores/table for unique values @p u against centroids @p c:
 *  softmax_rows(-(u-c)^2 / tau), computed by the fused kernel in one
 *  pass (no diff/scores intermediates). */
Tensor
computeTable(const Tensor &u_col, const Tensor &c_row, float tau)
{
    return kernels::attentionTable(u_col, c_row, tau);
}

/**
 * Scatter-add 1-D @p g ([n]) into [U] buckets by u16 @p idx. Chunked:
 * each chunk scatters into a private [U] buffer; buffers merge in chunk
 * order, so the result is thread-count independent. The coarse grain
 * bounds the number of private buffers.
 */
Tensor
scatterAddByIdx(const Tensor &g, const Tensor &idx, int64_t u_count)
{
    Tensor out = Tensor::zeros({u_count}, DType::kF32, g.device());
    Tensor gc = g.isContiguous() ? g : g.contiguous();
    const float *pg = gc.rawData<float>();
    const uint16_t *pi = idx.rawData<const uint16_t>();
    float *po = out.rawData<float>();
    int64_t n = g.numel();
    std::vector<double> acc = parallelReduce<std::vector<double>>(
        0, n, runtime::coarseGrain(n, 16, 1024),
        std::vector<double>(static_cast<size_t>(u_count), 0.0),
        [&](int64_t cb, int64_t ce) {
            std::vector<double> part(static_cast<size_t>(u_count), 0.0);
            for (int64_t i = cb; i < ce; ++i) {
                part[pi[i]] += pg[i];
            }
            return part;
        },
        combineVec);
    for (int64_t r = 0; r < u_count; ++r) {
        po[r] = static_cast<float>(acc[static_cast<size_t>(r)]);
    }
    chargeFlops(static_cast<double>(n), g.device());
    return out;
}

/**
 * The whole unrolled DKM loop as one autograd node. Forward runs in
 * table space (or dense when uniquification is off); backward either
 * runs the dense formulas per member over the saved attention rows
 * (paper mode) or stays in table space (fused mode). Gradients equal the
 * composed dense DkmLayer's up to float associativity.
 */
class EdkmClusterNode : public Node
{
  public:
    explicit EdkmClusterNode(std::shared_ptr<EdkmTape> tape)
        : Node("edkm_cluster"), tape_(std::move(tape))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &grad_out) override
    {
        const EdkmTape &t = *tape_;
        Tensor g = grad_out.isContiguous()
                       ? grad_out.view({t.n})
                       : grad_out.contiguous().view({t.n});

        Tensor gw;
        if (t.config.uniquify &&
            t.config.backwardMode == EdkmConfig::BackwardMode::kFused) {
            gw = fusedBackward(g);
        } else {
            gw = denseBackward(g);
        }
        return {gw.view(t.origShape)};
    }

  private:
    /** Recover the full index list (simulated all-gather when sharded). */
    Tensor fullIndexList() const;

    /** Iteration @p iter's saved attention rows: the [U,k] table in U
     *  mode, else the full dense map [n,k] (regenerated when sharded
     *  from the dense weights @p w_dense). */
    Tensor attentionRows(const EdkmTape::Iter &iter,
                         const Tensor &w_dense) const;

    /** Table-space backward (extension; uniquify mode only). */
    Tensor fusedBackward(const Tensor &g);

    /** Dense backward formulas streamed over the saved rows
     *  (paper-faithful). */
    Tensor denseBackward(const Tensor &g);

    std::shared_ptr<EdkmTape> tape_;
};

Tensor
EdkmClusterNode::fullIndexList() const
{
    const EdkmTape &t = *tape_;
    EDKM_ASSERT(t.config.uniquify, "index list only exists in U mode");
    if (!t.idxSharded) {
        return t.idxSaved.unpack();
    }
    // Simulated all-gather: regenerate deterministically (identical on
    // every learner under synchronous training) and account the traffic.
    UniqueDecomposition dec = uniquify(t.wRetained, t.config.halfKind);
    if (t.group) {
        t.group->recordAllGather(t.n * 2); // u16 index list
    }
    return dec.indexList;
}

Tensor
EdkmClusterNode::attentionRows(const EdkmTape::Iter &iter,
                               const Tensor &w_dense) const
{
    const EdkmTape &t = *tape_;
    Tensor saved = iter.table.unpack(); // [U,k] table or dense rows
    if (!iter.tableSharded) {
        return saved;
    }
    // Regenerate the full map (simulated all-gather of the other
    // learners' row blocks) and overwrite our shard with the saved rows.
    Tensor full = computeTable(w_dense.view({t.n, 1}),
                               iter.cIn.view({1, t.k}), t.tau);
    auto [b, e] = t.group->shardRange(t.n, t.config.rank);
    copyIntoView(full.slice(0, b, e), saved);
    t.group->recordAllGather(t.n * t.k * 4);
    return full;
}

Tensor
EdkmClusterNode::denseBackward(const Tensor &g)
{
    const EdkmTape &t = *tape_;
    int64_t n = t.n, k = t.k;
    int num_iters = static_cast<int>(t.iters.size());
    float inv_tau = 1.0f / t.tau;

    // Member i reads its value and dense attention row from row r(i) of
    // the saved rows: r(i) = idx[i] of the [U,k] table in U mode, i of
    // the [n,k] map otherwise. No [n,k] tensor is built in U mode.
    Tensor idx;
    Tensor values; // [U] unique values, or the dense weights [n]
    if (t.config.uniquify) {
        idx = fullIndexList();
        values = t.uValuesSaved.unpack();
    } else {
        values = t.wRetained.isContiguous()
                     ? t.wRetained.view({n})
                     : t.wRetained.contiguous().view({n});
        if (values.dtype() != DType::kF32) {
            values = values.to(DType::kF32);
        }
    }
    const uint16_t *pidx =
        idx.defined() ? idx.rawData<const uint16_t>() : nullptr;
    const float *pv = values.rawData<const float>();
    auto rowOf = [pidx](int64_t i) {
        return pidx != nullptr ? static_cast<int64_t>(pidx[i]) : i;
    };
    int64_t rows = values.numel();

    Tensor gw = Tensor::zeros({n}, DType::kF32, g.device());
    float *pgw = gw.rawData<float>();
    const float *pg = g.rawData<const float>();

    // Final step: W~ = A_last * c_final.
    std::vector<float> c_final = t.cFinal.toVector();
    Tensor a_last = attentionRows(t.iters.back(), values);
    const float *pa_last = a_last.rawData<const float>();

    // gc[k]: gradient w.r.t. the centroid vector flowing backwards.
    int64_t row_grain = grainFor(n, 8 * k);
    std::vector<double> gc = parallelReduce<std::vector<double>>(
        0, n, row_grain, std::vector<double>(static_cast<size_t>(k), 0.0),
        [&](int64_t cb, int64_t ce) {
            std::vector<double> part(static_cast<size_t>(k), 0.0);
            for (int64_t i = cb; i < ce; ++i) {
                const float *arow = pa_last + rowOf(i) * k;
                for (int64_t j = 0; j < k; ++j) {
                    part[static_cast<size_t>(j)] +=
                        static_cast<double>(pg[i]) * arow[j];
                }
            }
            return part;
        },
        combineVec);

    // One member's backward through an iteration. @p ga holds the
    // member's incoming gA row (g_i c_final in the last iteration, zero
    // before) and is updated in place; writes the k centroid terms to
    // @p cterm and returns the member's gw term.
    auto memberBackward = [&](float wi, const float *arow, float *ga,
                              const std::vector<float> &gn,
                              const std::vector<float> &gm,
                              const std::vector<float> &c_in,
                              double *cterm) {
        // gA += gn w_i + gm ; direct gw from nv.
        double dot = 0.0;
        double gw_acc = 0.0;
        for (int64_t j = 0; j < k; ++j) {
            ga[j] += gn[static_cast<size_t>(j)] * wi +
                     gm[static_cast<size_t>(j)];
            gw_acc += static_cast<double>(arow[j]) *
                      gn[static_cast<size_t>(j)];
            dot += static_cast<double>(ga[j]) * arow[j];
        }
        // softmax backward + distance path.
        for (int64_t j = 0; j < k; ++j) {
            float gs = arow[j] * (ga[j] - static_cast<float>(dot));
            float gdsq = -gs * inv_tau;
            float d = wi - c_in[static_cast<size_t>(j)];
            gw_acc += static_cast<double>(gdsq) * 2.0 * d;
            cterm[j] = static_cast<double>(gdsq) * (-2.0) * d;
        }
        return static_cast<float>(gw_acc);
    };

    // In U mode the earlier iterations' terms are evaluated once per
    // unique row and replayed; U <= 2^16 bounds the table at U*k doubles.
    bool replay = pidx != nullptr;
    std::vector<float> gw_term;
    std::vector<double> c_terms;

    for (int it = num_iters - 1; it >= 0; --it) {
        const EdkmTape::Iter &iter = t.iters[static_cast<size_t>(it)];
        bool last = it == num_iters - 1;
        std::vector<float> c_in = iter.cIn.toVector();
        std::vector<float> m = iter.m.toVector();
        std::vector<float> nv = iter.nv.toVector();

        // Gradients of the pooled update c' = nv / m.
        std::vector<float> gn(static_cast<size_t>(k));
        std::vector<float> gm(static_cast<size_t>(k));
        for (int64_t j = 0; j < k; ++j) {
            float mj = std::max(m[static_cast<size_t>(j)], 1e-12f);
            gn[static_cast<size_t>(j)] =
                static_cast<float>(gc[static_cast<size_t>(j)]) / mj;
            gm[static_cast<size_t>(j)] =
                -static_cast<float>(gc[static_cast<size_t>(j)]) *
                nv[static_cast<size_t>(j)] / (mj * mj);
        }

        Tensor a_t = last ? a_last : attentionRows(iter, values);
        const float *pa = a_t.rawData<const float>();

        if (!last && replay) {
            // Earlier iterations carry no member-specific gA term, so a
            // member's terms depend on its row alone.
            gw_term.resize(static_cast<size_t>(rows));
            c_terms.resize(static_cast<size_t>(rows * k));
            parallelFor(0, rows, grainFor(rows, 8 * k),
                        [&](int64_t cb, int64_t ce) {
                std::vector<float> ga(static_cast<size_t>(k));
                for (int64_t r = cb; r < ce; ++r) {
                    std::fill(ga.begin(), ga.end(), 0.0f);
                    gw_term[static_cast<size_t>(r)] = memberBackward(
                        pv[r], pa + r * k, ga.data(), gn, gm, c_in,
                        c_terms.data() + r * k);
                }
            });
        }

        // gc for the next (earlier) iteration accumulates per chunk in
        // row order (rows i are disjoint).
        gc = parallelReduce<std::vector<double>>(
            0, n, row_grain,
            std::vector<double>(static_cast<size_t>(k), 0.0),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(k), 0.0);
                std::vector<float> ga(static_cast<size_t>(k));
                std::vector<double> cterm(static_cast<size_t>(k));
                for (int64_t i = cb; i < ce; ++i) {
                    int64_t r = rowOf(i);
                    const double *ct = cterm.data();
                    if (!last && replay) {
                        pgw[i] += gw_term[static_cast<size_t>(r)];
                        ct = c_terms.data() + r * k;
                    } else {
                        for (int64_t j = 0; j < k; ++j) {
                            ga[static_cast<size_t>(j)] =
                                last ? pg[i] *
                                           c_final[static_cast<size_t>(j)]
                                     : 0.0f;
                        }
                        pgw[i] += memberBackward(pv[r], pa + r * k,
                                                 ga.data(), gn, gm, c_in,
                                                 cterm.data());
                    }
                    for (int64_t j = 0; j < k; ++j) {
                        part[static_cast<size_t>(j)] += ct[j];
                    }
                }
                return part;
            },
            combineVec);
    }
    // Dense backward touches ~8 values per (weight, centroid) pair and
    // iteration.
    chargeFlops(8.0 * static_cast<double>(n) * k * num_iters,
               g.device());
    // gc[0] flows into the constant initialisation: dropped.
    return gw;
}

Tensor
EdkmClusterNode::fusedBackward(const Tensor &g)
{
    const EdkmTape &t = *tape_;
    int64_t n = t.n, k = t.k, U = t.uCount;
    int num_iters = static_cast<int>(t.iters.size());
    float inv_tau = 1.0f / t.tau;

    Tensor idx = fullIndexList();
    Tensor u_t = t.uValuesSaved.unpack();
    Tensor cnt_t = t.countsSaved.unpack();
    const float *pu = u_t.rawData<const float>();
    const float *pcnt = cnt_t.rawData<const float>();
    const uint16_t *pidx = idx.rawData<const uint16_t>();
    const float *pg = g.rawData<const float>();

    // Per-bucket sum of incoming grads: s_r = sum_{i in r} g_i.
    Tensor s_t = scatterAddByIdx(g, idx, U);
    const float *ps = s_t.rawData<const float>();

    std::vector<float> c_final = t.cFinal.toVector();

    // gwBucket: per-member gradient shared by a bucket (gathered at the
    // end); gwScale: per-bucket factor multiplied by each member's own
    // g_i (the member-specific final-step path).
    std::vector<double> gw_bucket(static_cast<size_t>(U), 0.0);
    std::vector<double> gw_scale(static_cast<size_t>(U), 0.0);
    std::vector<double> gc(static_cast<size_t>(k), 0.0);
    // Final-step distance-path contribution to grad(c_{T-1}), folded
    // into the last iteration's gc_prev below.
    std::vector<double> gc_dist_last(static_cast<size_t>(k), 0.0);

    // ---- Final step: W~ = gather(T_last, idx) @ c_final ----
    Tensor table_last = t.iters.back().table.unpack();
    const float *ptl = table_last.rawData<const float>();
    std::vector<float> c_last_in =
        t.iters.back().cIn.toVector(); // centroids T_last was built from

    // Parallel over unique rows: gw_scale[r] is disjoint; the two [k]
    // accumulators travel per chunk (packed as one 2k vector) and merge
    // in chunk order.
    int64_t bucket_grain = grainFor(U, 8 * k);
    {
        std::vector<double> packed = parallelReduce<std::vector<double>>(
            0, U, bucket_grain,
            std::vector<double>(static_cast<size_t>(2 * k), 0.0),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(2 * k),
                                         0.0);
                for (int64_t r = cb; r < ce; ++r) {
                    const float *trow = ptl + r * k;
                    double rowdot = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        rowdot += static_cast<double>(trow[j]) *
                                  c_final[static_cast<size_t>(j)];
                    }
                    double q = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        // gc from the matmul: gc_j += s_r T_rj.
                        part[static_cast<size_t>(j)] +=
                            static_cast<double>(ps[r]) * trow[j];
                        // h = T (c - rowdot); member softmax+distance
                        // path.
                        double h = trow[j] *
                                   (c_final[static_cast<size_t>(j)] -
                                    rowdot);
                        double gdsq_unit = -h * inv_tau; // per unit g_i
                        double d =
                            pu[r] - c_last_in[static_cast<size_t>(j)];
                        q += gdsq_unit * 2.0 * d;
                        // gc_{T-1} distance path: sums over members ->
                        // s_r factor.
                        part[static_cast<size_t>(k + j)] +=
                            static_cast<double>(ps[r]) * gdsq_unit *
                            (-2.0) * d;
                    }
                    gw_scale[static_cast<size_t>(r)] += q;
                }
                return part;
            },
            combineVec);
        for (int64_t j = 0; j < k; ++j) {
            gc[static_cast<size_t>(j)] += packed[static_cast<size_t>(j)];
            gc_dist_last[static_cast<size_t>(j)] +=
                packed[static_cast<size_t>(k + j)];
        }
    }

    // ---- Per-iteration loop in table space ----
    for (int it = num_iters - 1; it >= 0; --it) {
        const EdkmTape::Iter &iter = t.iters[static_cast<size_t>(it)];
        std::vector<float> c_in = iter.cIn.toVector();
        std::vector<float> m = iter.m.toVector();
        std::vector<float> nv = iter.nv.toVector();
        Tensor table = (it == num_iters - 1)
                           ? table_last
                           : iter.table.unpack();
        const float *pt = table.rawData<const float>();

        std::vector<float> gn(static_cast<size_t>(k));
        std::vector<float> gm(static_cast<size_t>(k));
        for (int64_t j = 0; j < k; ++j) {
            float mj = std::max(m[static_cast<size_t>(j)], 1e-12f);
            gn[static_cast<size_t>(j)] =
                static_cast<float>(gc[static_cast<size_t>(j)]) / mj;
            gm[static_cast<size_t>(j)] =
                -static_cast<float>(gc[static_cast<size_t>(j)]) *
                nv[static_cast<size_t>(j)] / (mj * mj);
        }

        std::vector<double> gc_init(static_cast<size_t>(k), 0.0);
        if (it == num_iters - 1) {
            // Fold in the final step's distance-path contribution.
            gc_init = gc_dist_last;
        }

        gc = parallelReduce<std::vector<double>>(
            0, U, bucket_grain, std::move(gc_init),
            [&](int64_t cb, int64_t ce) {
                std::vector<double> part(static_cast<size_t>(k), 0.0);
                std::vector<double> ga_row(static_cast<size_t>(k));
                for (int64_t r = cb; r < ce; ++r) {
                    const float *trow = pt + r * k;
                    float ur = pu[r];
                    double rowdot = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        double ga =
                            static_cast<double>(
                                gn[static_cast<size_t>(j)]) *
                                ur +
                            gm[static_cast<size_t>(j)];
                        ga_row[static_cast<size_t>(j)] = ga;
                        rowdot += ga * trow[j];
                    }
                    double gw_acc = 0.0;
                    for (int64_t j = 0; j < k; ++j) {
                        gw_acc += static_cast<double>(trow[j]) *
                                  gn[static_cast<size_t>(j)];
                        double gs =
                            trow[j] *
                            (ga_row[static_cast<size_t>(j)] - rowdot);
                        double gdsq = -gs * inv_tau;
                        double d = ur - c_in[static_cast<size_t>(j)];
                        gw_acc += gdsq * 2.0 * d;
                        part[static_cast<size_t>(j)] +=
                            static_cast<double>(pcnt[r]) * gdsq *
                            (-2.0) * d;
                    }
                    gw_bucket[static_cast<size_t>(r)] += gw_acc;
                }
                return part;
            },
            combineVec);
    }

    // Assemble per-member gradient.
    Tensor gw = Tensor::empty({n}, DType::kF32, g.device());
    float *pgw = gw.rawData<float>();
    parallelFor(0, n, grainFor(n, 2), [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
            uint16_t r = pidx[i];
            pgw[i] =
                static_cast<float>(gw_bucket[r] + pg[i] * gw_scale[r]);
        }
    });
    // Table-space backward: ~8 ops per (unique, centroid, iteration)
    // plus the O(n) scatter/gather passes.
    chargeFlops(8.0 * static_cast<double>(U) * k * num_iters + 3.0 * n,
               g.device());
    return gw;
}

} // namespace

EdkmLayer::EdkmLayer(EdkmConfig config, std::shared_ptr<LearnerGroup> group)
    : config_(config), group_(std::move(group))
{
    EDKM_CHECK(config_.dkm.bits >= 1 && config_.dkm.bits <= 8,
               "eDKM: bits must be in [1,8]");
    if (config_.shard) {
        EDKM_CHECK(group_ != nullptr,
                   "eDKM: sharding requires a LearnerGroup");
        EDKM_CHECK(config_.rank >= 0 &&
                       config_.rank < group_->worldSize(),
                   "eDKM: bad rank");
    }
}

Variable
EdkmLayer::forward(const Variable &w)
{
    const Tensor &wd = w.data();
    EDKM_CHECK(wd.defined() && wd.numel() > 0, "eDKM: empty weight");
    int64_t n = wd.numel();
    int64_t k = 1 << config_.dkm.bits;

    bool tracking = gradModeEnabled() && w.requiresGrad();
    auto tape = std::make_shared<EdkmTape>();
    tape->config = config_;
    tape->group = group_;
    tape->n = n;
    tape->k = k;
    tape->origShape = wd.shape();
    tape->wRetained = wd;

    report_ = EdkmReport{};
    report_.denseMapBytes = n * k * 4;

    // ---- Unique decomposition (or dense values) ----
    UniqueDecomposition dec = uniquify(wd, config_.halfKind);
    std::vector<float> u_vals;
    std::vector<float> u_cnts;
    int64_t U;
    if (config_.uniquify) {
        u_vals = dec.values;
        u_cnts = dec.counts;
        U = dec.uniqueCount();
    } else {
        u_vals = wd.toVector();
        u_cnts.assign(static_cast<size_t>(n), 1.0f);
        U = n;
    }
    tape->uCount = U;
    report_.uniqueCount = config_.uniquify ? U : 0;

    // Warm start + temperature on (unique values, counts): identical to
    // DkmLayer's choice for 16-bit-bucketed inputs.
    std::vector<float> c0 =
        DkmLayer::initCentroids(dec.values, dec.counts, config_.dkm);
    tape->tau =
        DkmLayer::resolveTemperature(config_.dkm, dec.values, dec.counts);
    report_.temperatureUsed = tape->tau;

    Device dev = wd.device();
    Tensor u_col = Tensor::fromVector(u_vals, {U, 1}, dev);
    Tensor cnt_row = Tensor::fromVector(u_cnts, {1, U}, dev);
    Tensor cw_row = Tensor::empty({1, U}, DType::kF32, dev);
    {
        float *p = cw_row.rawData<float>();
        for (int64_t r = 0; r < U; ++r) {
            p[r] = u_cnts[static_cast<size_t>(r)] *
                   u_vals[static_cast<size_t>(r)];
        }
    }

    // ---- Save the shared payload ----
    auto account = [&](const Tensor &t_saved) {
        tape->savedBytes += t_saved.numel() * dtypeSize(t_saved.dtype());
    };
    if (tracking && config_.uniquify) {
        Tensor idx = dec.indexList;
        if (config_.shard) {
            auto [b, e] = group_->shardRange(n, config_.rank);
            // clone() so the saved shard owns a compact buffer instead
            // of pinning the full index list.
            idx = idx.slice(0, b, e).clone();
            tape->idxSharded = true;
        }
        tape->idxSaved = SavedTensor(idx, nullptr);
        account(idx);
        tape->uValuesSaved = SavedTensor(u_col.view({U}), nullptr);
        tape->countsSaved =
            SavedTensor(cnt_row.view({U}), nullptr);
        tape->savedBytes += 2 * U * 4;
    }

    // ---- Differentiable iterations (table space) ----
    Tensor c = Tensor::fromVector(c0, {static_cast<int64_t>(k)}, dev);
    Tensor table;
    int iters_done = 0;
    for (int it = 0; it < config_.dkm.maxIters; ++it) {
        table = computeTable(u_col, c.view({1, k}), tape->tau); // [U,k]
        Tensor m = matmul(cnt_row, table).view({k});            // [k]
        Tensor nv = matmul(cw_row, table).view({k});            // [k]
        Tensor c_new = div(nv, addScalar(m, 1e-12f));

        if (tracking) {
            EdkmTape::Iter iter;
            iter.cIn = c.clone();
            iter.m = m;
            iter.nv = nv;
            Tensor to_save = table;
            if (!config_.uniquify && config_.shard) {
                auto [b, e] = group_->shardRange(n, config_.rank);
                to_save = table.slice(0, b, e).clone();
                iter.tableSharded = true;
            }
            iter.table = SavedTensor(to_save, nullptr);
            account(to_save);
            tape->savedBytes += 3 * k * 4;
            tape->iters.push_back(std::move(iter));
        }

        float delta = maxAbsDiff(c_new, c);
        c = c_new;
        iters_done = it + 1;
        if (delta < config_.dkm.convergenceEps) {
            break;
        }
    }
    report_.iterations = iters_done;
    report_.savedBytes = tape->savedBytes;
    tape->cFinal = c.clone();
    centroids_ = c.clone();

    // ---- W~ = gather(T_last, idx-or-identity) @ c_final ----
    Tensor w_unique = matmul(table, c.view({k, 1})).view({U}); // [U]
    Tensor out;
    if (config_.uniquify) {
        out = Tensor::empty({n}, DType::kF32, dev);
        const float *pwu = w_unique.rawData<const float>();
        const uint16_t *pi = dec.indexList.rawData<const uint16_t>();
        float *po = out.rawData<float>();
        parallelFor(0, n, grainFor(n, 2), [&](int64_t cb, int64_t ce) {
            kernels::gatherU16(pwu, pi + cb, ce - cb, po + cb);
        });
    } else {
        out = w_unique;
    }
    out = out.view(tape->origShape);

    if (!tracking) {
        return Variable(std::move(out), false);
    }
    return makeResult(std::move(out), {w}, [&] {
        return std::make_shared<EdkmClusterNode>(tape);
    });
}

PalettizedTensor
EdkmLayer::palettize(const Tensor &w) const
{
    EDKM_CHECK(centroids_.defined(), "palettize: call forward() first");
    std::vector<float> lut = centroids_.toVector();
    std::sort(lut.begin(), lut.end());
    std::vector<float> values = w.toVector();
    std::vector<int32_t> assign(values.size());
    kernels::assignNearest(lut, values.data(),
                           static_cast<int64_t>(values.size()),
                           assign.data());
    return PalettizedTensor::fromAssignments(w.shape(), lut, assign,
                                             config_.dkm.bits);
}

} // namespace edkm
