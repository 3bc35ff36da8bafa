/**
 * @file
 * Built-in Compressor adapters: one per Table 3 scheme.
 *
 * Each adapter walks the model's Linears under the resolved
 * LayerSelection (honouring per-layer bits/group-size overrides and
 * skips), installs the compressed weight in place, and emits the
 * artifact payload that decodes to *exactly* the installed tensor.
 * Schemes whose native storage is not losslessly dense-decodable
 * (AWQ's folded scales, SmoothQuant, baked QAT) round the installed
 * weight through FP16 and ship a dense FP16 payload, while the
 * SizeReport still accounts the scheme's true storage format.
 *
 * Accounting: non-Linear parameters at FP16, skipped Linears at FP16,
 * compressed Linears at their serialized payload size.
 */

#include <memory>
#include <utility>
#include <vector>

#include "api/compressor.h"
#include "api/registry.h"
#include "autograd/variable.h"
#include "core/edkm.h"
#include "core/palettize.h"
#include "eval/train.h"
#include "quant/affine.h"
#include "quant/awq.h"
#include "quant/gptq.h"
#include "quant/qat.h"
#include "quant/smoothquant.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace api {

namespace {

/** Non-Linear (norm/embedding) parameter bytes at FP16. */
int64_t
fp16SideBytes(nn::MiniLlama &model, bool include_embedding)
{
    int64_t bytes = 0;
    for (const auto &[name, p] : model.namedParameters()) {
        bool is_linear_weight =
            name.find("wq") != std::string::npos ||
            name.find("wk") != std::string::npos ||
            name.find("wv") != std::string::npos ||
            name.find("wo") != std::string::npos ||
            name.find("w1") != std::string::npos ||
            name.find("w2") != std::string::npos ||
            name.find("w3") != std::string::npos ||
            name.find("lm_head") != std::string::npos;
        bool is_embedding = name.find("embed") != std::string::npos;
        if (!is_linear_weight && (include_embedding || !is_embedding)) {
            bytes += p.data().numel() * 2; // FP16
        }
    }
    return bytes;
}

/** Effective bits/weight of the Linear parameters under @p payload. */
double
linearBits(nn::MiniLlama &model, int64_t linear_payload_bytes)
{
    int64_t linear_params = 0;
    for (auto &[name, linear] : model.allLinears()) {
        (void)name;
        linear_params += linear->weight().data().numel();
    }
    return 8.0 * static_cast<double>(linear_payload_bytes) /
           static_cast<double>(linear_params);
}

/**
 * @param linear_bits  effective bits/weight over Linear parameters
 * @param embed_bits   effective bits/weight over embedding parameters
 */
SizeReport
makeSizeReport(const std::string &scheme, int64_t payload_bytes,
               int64_t total_params, double linear_bits, double embed_bits)
{
    SizeReport r;
    r.scheme = scheme;
    r.payloadBytes = payload_bytes;
    r.bitsPerWeight = 8.0 * static_cast<double>(payload_bytes) /
                      static_cast<double>(total_params);
    r.projectedGb7B = projectedGbComposed(linear_bits, embed_bits);
    return r;
}

/** Round every element of @p t through FP16 (its deployed precision). */
Tensor
roundTensorFp16(const Tensor &t)
{
    std::vector<float> vals = t.toVector();
    for (float &v : vals) {
        v = roundToFp16(v);
    }
    return Tensor::fromVector(vals, t.shape());
}

/** Weight parameter path of the Linear at module path @p path. */
std::string
weightName(const std::string &path)
{
    return path + ".weight";
}

/**
 * Shared walk for the per-layer post-training schemes: for each
 * Linear, ticks progress, honours skips (FP16 accounting + lossless
 * raw payload), checks cancellation, and calls @p quantizeOne with the
 * layer and its spec. quantizeOne returns the layer's accounting bytes
 * and appends its artifact entry.
 */
template <typename Fn>
std::pair<int64_t, CompressionReport>
forEachLinear(nn::MiniLlama &model, const CalibData &calib,
              const LayerSelection &selection, const std::string &stage,
              Fn quantizeOne)
{
    CompressionReport report;
    int64_t linear_payload = 0;
    auto linears = model.allLinears();
    for (size_t i = 0; i < linears.size(); ++i) {
        auto &[path, linear] = linears[i];
        calib.checkCancelled("layer " + path);
        calib.tick(stage, path, i, linears.size());
        const LayerSpec &spec = selection.specFor(path);
        if (spec.skip) {
            report.skippedLayers.push_back(path);
            report.entries.push_back(encodeRawF32(
                weightName(path), linear->weight().data()));
            linear_payload += linear->weight().data().numel() * 2;
            continue;
        }
        linear_payload += quantizeOne(path, linear, spec, report);
    }
    return {linear_payload, report};
}

// ---------------------------------------------------------------------
// fp16 baseline
// ---------------------------------------------------------------------

/**
 * The uncompressed reference: weights ship (and evaluate) at FP16.
 * Non-skipped Linear weights are rounded through FP16 in place so the
 * artifact round trip is bit-exact; everything else stays raw.
 */
class Fp16Compressor : public Compressor
{
  public:
    std::string name() const override { return "fp16"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "round",
            [](const std::string &path, nn::Linear *linear,
               const LayerSpec &, CompressionReport &r) -> int64_t {
                Tensor w = roundTensorFp16(linear->weight().data());
                linear->weight().mutableData() = w;
                r.entries.push_back(
                    encodeDenseF16(weightName(path), w, 16));
                return w.numel() * 2;
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("fp16", payload, model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }
};

// ---------------------------------------------------------------------
// RTN
// ---------------------------------------------------------------------

class RtnCompressor : public Compressor
{
  public:
    std::string name() const override { return "rtn"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "quantize",
            [](const std::string &path, nn::Linear *linear,
               const LayerSpec &spec, CompressionReport &r) -> int64_t {
                quant::QuantizedMatrix q = quant::quantizeAffine(
                    linear->weight().data(), spec.bits, spec.groupSize);
                linear->weight().mutableData() = q.dequantize();
                ArtifactEntry e;
                e.name = weightName(path);
                e.codec = Codec::kAffine;
                e.bits = spec.bits;
                e.shape = q.shape;
                e.payload = q.serialize();
                r.entries.push_back(std::move(e));
                return q.payloadBytes();
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("RTN", payload, model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }
};

// ---------------------------------------------------------------------
// Calibration-capture helpers (GPTQ / AWQ / SmoothQuant)
// ---------------------------------------------------------------------

/** Run one forward pass so capture-enabled Linears stash inputs. */
void
runCalibration(nn::MiniLlama &model, const CalibData &calib,
               const LayerSelection &selection, const std::string &scheme)
{
    EDKM_CHECK(calib.tokens.defined(), scheme,
               ": CalibData.tokens (calibration batch) is required");
    for (auto &[path, linear] : model.allLinears()) {
        if (!selection.specFor(path).skip) {
            linear->setCaptureInputs(true);
        }
    }
    calib.tick("calibrate", "", 0, 1);
    NoGradGuard ng;
    model.forward(calib.tokens);
}

/** Fetch (and disable) a layer's captured calibration input. */
Tensor
takeCaptured(nn::Linear *linear, const std::string &path,
             const std::string &scheme)
{
    linear->setCaptureInputs(false);
    EDKM_CHECK(linear->capturedInput().defined(), scheme,
               ": calibration did not reach layer ", path);
    return linear->capturedInput();
}

class GptqCompressor : public Compressor
{
  public:
    explicit GptqCompressor(float percdamp) : percdamp_(percdamp) {}

    std::string name() const override { return "gptq"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        runCalibration(model, calib, selection, "gptq");
        float percdamp = percdamp_;
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "quantize",
            [percdamp](const std::string &path, nn::Linear *linear,
                       const LayerSpec &spec,
                       CompressionReport &r) -> int64_t {
                Tensor x = takeCaptured(linear, path, "gptq");
                quant::GptqConfig qc;
                qc.bits = spec.bits;
                qc.groupSize = spec.groupSize;
                qc.percdamp = percdamp;
                quant::QuantizedMatrix q;
                quant::gptqQuantize(linear->weight().data(), x, qc, &q);
                // Install the decoded storage format (bit-identical to
                // the returned dequantised weight) so memory == artifact.
                linear->weight().mutableData() = q.dequantize();
                ArtifactEntry e;
                e.name = weightName(path);
                e.codec = Codec::kAffine;
                e.bits = spec.bits;
                e.shape = q.shape;
                e.payload = q.serialize();
                r.entries.push_back(std::move(e));
                return q.payloadBytes();
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("GPTQ", payload, model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }

  private:
    float percdamp_;
};

class AwqCompressor : public Compressor
{
  public:
    explicit AwqCompressor(int grid_points) : grid_points_(grid_points) {}

    std::string name() const override { return "awq"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        runCalibration(model, calib, selection, "awq");
        int grid = grid_points_;
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "quantize",
            [grid](const std::string &path, nn::Linear *linear,
                   const LayerSpec &spec, CompressionReport &r) -> int64_t {
                Tensor x = takeCaptured(linear, path, "awq");
                quant::AwqConfig ac;
                ac.bits = spec.bits;
                ac.groupSize = spec.groupSize;
                ac.gridPoints = grid;
                Tensor dq = roundTensorFp16(quant::awqQuantize(
                    linear->weight().data(), x, ac));
                linear->weight().mutableData() = dq;
                r.entries.push_back(
                    encodeDenseF16(weightName(path), dq, spec.bits));
                // Accounting: RTN payload at these bits plus FP16
                // per-channel AWQ scales.
                quant::QuantizedMatrix q = quant::quantizeAffine(
                    dq, spec.bits, spec.groupSize);
                return q.payloadBytes() + linear->inFeatures() * 2;
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("AWQ", payload, model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }

  private:
    int grid_points_;
};

class SmoothQuantCompressor : public Compressor
{
  public:
    explicit SmoothQuantCompressor(float alpha) : alpha_(alpha) {}

    std::string name() const override { return "smoothquant"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        runCalibration(model, calib, selection, "smoothquant");
        float alpha = alpha_;
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "quantize",
            [alpha](const std::string &path, nn::Linear *linear,
                    const LayerSpec &spec,
                    CompressionReport &r) -> int64_t {
                Tensor x = takeCaptured(linear, path, "smoothquant");
                quant::SmoothQuantConfig sc;
                sc.alpha = alpha;
                sc.weightBits = spec.bits;
                quant::SmoothedLayer s = quant::smoothQuantize(
                    linear->weight().data(), x, sc);
                Tensor w = roundTensorFp16(s.weight);
                linear->weight().mutableData() = w;
                r.entries.push_back(
                    encodeDenseF16(weightName(path), w, spec.bits));
                return w.numel() * spec.bits / 8 +
                       linear->inFeatures() * 2;
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("SmoothQuant", payload,
                                 model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }

  private:
    float alpha_;
};

// ---------------------------------------------------------------------
// Train-time schemes: LLM-QAT and DKM/eDKM
// ---------------------------------------------------------------------

/** Fine-tune with the CalibData stream (train-time schemes). */
void
runFineTune(nn::MiniLlama &model, const CalibData &calib,
            const std::string &scheme)
{
    if (calib.trainConfig.steps <= 0) {
        return; // freeze-only run (e.g. size accounting benches)
    }
    EDKM_CHECK(calib.trainStream != nullptr, scheme,
               ": CalibData.trainStream is required for train-time "
               "schemes (or set trainConfig.steps = 0 to freeze "
               "without fine-tuning)");
    calib.checkCancelled("fine-tuning");
    calib.tick("train", "", 0, 1);
    eval::trainLm(model, *calib.trainStream, calib.trainConfig);
    calib.checkCancelled("fine-tuning");
}

class QatCompressor : public Compressor
{
  public:
    std::string name() const override { return "qat"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        // Attach fake-quant weight transforms to the selected layers.
        for (auto &[path, linear] : model.allLinears()) {
            const LayerSpec &spec = selection.specFor(path);
            if (spec.skip) {
                continue;
            }
            int bits = spec.bits;
            int64_t g = spec.groupSize;
            linear->setWeightTransform([bits, g](const Variable &w) {
                return quant::fakeQuantize(w, bits, g);
            });
        }
        runFineTune(model, calib, "qat");

        // Bake the quantisation in and clear the transforms.
        auto [linear_payload, report] = forEachLinear(
            model, calib, selection, "freeze",
            [](const std::string &path, nn::Linear *linear,
               const LayerSpec &spec, CompressionReport &r) -> int64_t {
                linear->setWeightTransform(nullptr);
                Tensor w = roundTensorFp16(quant::fakeQuantizeData(
                    linear->weight().data(), spec.bits, spec.groupSize));
                linear->weight().mutableData() = w;
                r.entries.push_back(
                    encodeDenseF16(weightName(path), w, spec.bits));
                // Symmetric per-channel storage: n*bits payload + FP16
                // scale per row.
                return w.numel() * spec.bits / 8 +
                       linear->outFeatures() * 2;
            });
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/true) +
            linear_payload;
        report.size = makeSizeReport("LLM-QAT", payload,
                                 model.parameterCount(),
                                 linearBits(model, linear_payload), 16.0);
        return report;
    }
};

/**
 * DKM/eDKM train-time clustering. Owns its EdkmLayers for the whole
 * run, so the installed weight transforms never dangle.
 */
class EdkmCompressor : public Compressor
{
  public:
    EdkmCompressor(bool uniquify, int max_iters, int embedding_bits)
        : uniquify_(uniquify), max_iters_(max_iters),
          embedding_bits_(embedding_bits)
    {
    }

    std::string name() const override { return uniquify_ ? "edkm" : "dkm"; }

    CompressionReport
    compress(nn::MiniLlama &model, const CalibData &calib,
             const LayerSelection &selection) override
    {
        // Attach one clustering layer per selected Linear.
        auto linears = model.allLinears();
        layers_.assign(linears.size(), nullptr);
        for (size_t i = 0; i < linears.size(); ++i) {
            auto &[path, linear] = linears[i];
            const LayerSpec &spec = selection.specFor(path);
            if (spec.skip) {
                continue;
            }
            EdkmConfig cfg;
            cfg.dkm.bits = spec.bits;
            cfg.dkm.maxIters = max_iters_;
            cfg.uniquify = uniquify_;
            auto layer = std::make_shared<EdkmLayer>(cfg);
            layers_[i] = layer;
            linear->setWeightTransform(
                [layer](const Variable &w) { return layer->forward(w); });
            calib.tick("attach", path, i, linears.size());
        }

        runFineTune(model, calib, name());

        // Freeze: palettize every clustered weight with its layer's
        // final centroids and install the dequantised result.
        CompressionReport report;
        int64_t linear_payload = 0;
        for (size_t i = 0; i < linears.size(); ++i) {
            auto &[path, linear] = linears[i];
            calib.checkCancelled("freeze of " + path);
            calib.tick("freeze", path, i, linears.size());
            if (layers_[i] == nullptr) {
                report.skippedLayers.push_back(path);
                report.entries.push_back(encodeRawF32(
                    weightName(path), linear->weight().data()));
                linear_payload += linear->weight().data().numel() * 2;
                continue;
            }
            if (!layers_[i]->centroids().defined()) {
                // Freeze-only run: no fine-tune forward has clustered
                // this weight yet, so run one now.
                NoGradGuard ng;
                layers_[i]->forward(Variable(linear->weight().data()));
            }
            PalettizedTensor p =
                layers_[i]->palettize(linear->weight().data());
            linear->weight().mutableData() = p.decompress();
            linear->setWeightTransform(nullptr);
            ArtifactEntry e;
            e.name = weightName(path);
            e.codec = Codec::kPalettized;
            e.bits = p.bits();
            e.shape = p.shape();
            e.payload = p.serialize();
            report.entries.push_back(std::move(e));
            linear_payload += p.payloadBytes();
        }

        // Embedding palettized at embedding_bits (paper: "we also
        // compressed the embedding layers with 8 bits").
        int64_t payload =
            fp16SideBytes(model, /*include_embedding=*/false) +
            linear_payload;
        Rng rng(99);
        PalettizedTensor emb = PalettizedTensor::fromDense(
            model.embedding().weight().data(), embedding_bits_, rng, 10);
        model.embedding().weight().mutableData() = emb.decompress();
        ArtifactEntry ee;
        ee.name = "embed.weight";
        ee.codec = Codec::kPalettized;
        ee.bits = emb.bits();
        ee.shape = emb.shape();
        ee.payload = emb.serialize();
        report.entries.push_back(std::move(ee));
        payload += emb.payloadBytes();
        double embed_bits =
            8.0 * static_cast<double>(emb.payloadBytes()) /
            static_cast<double>(
                model.embedding().weight().data().numel());
        report.size = makeSizeReport(
            uniquify_ ? "eDKM" : "DKM", payload, model.parameterCount(),
            linearBits(model, linear_payload), embed_bits);
        return report;
    }

    /** Clustering layers attached by the last compress() call. */
    const std::vector<std::shared_ptr<EdkmLayer>> &
    layers() const
    {
        return layers_;
    }

  private:
    bool uniquify_;
    int max_iters_;
    int embedding_bits_;
    std::vector<std::shared_ptr<EdkmLayer>> layers_;
};

} // namespace

namespace detail {

void
registerBuiltins(CompressorRegistry &registry)
{
    registry.registerFactory("fp16", [](const CompressionPlan &) {
        return std::make_unique<Fp16Compressor>();
    });
    registry.registerFactory("rtn", [](const CompressionPlan &) {
        return std::make_unique<RtnCompressor>();
    });
    registry.registerFactory("gptq", [](const CompressionPlan &plan) {
        return std::make_unique<GptqCompressor>(plan.gptqPercdamp);
    });
    registry.registerFactory("awq", [](const CompressionPlan &plan) {
        return std::make_unique<AwqCompressor>(plan.awqGridPoints);
    });
    registry.registerFactory("smoothquant",
                             [](const CompressionPlan &plan) {
        return std::make_unique<SmoothQuantCompressor>(plan.smoothAlpha);
    });
    registry.registerFactory("qat", [](const CompressionPlan &) {
        return std::make_unique<QatCompressor>();
    });
    registry.registerFactory("edkm", [](const CompressionPlan &plan) {
        return std::make_unique<EdkmCompressor>(
            /*uniquify=*/true, plan.dkmMaxIters, plan.embeddingBits);
    });
    registry.registerFactory("dkm", [](const CompressionPlan &plan) {
        return std::make_unique<EdkmCompressor>(
            /*uniquify=*/false, plan.dkmMaxIters, plan.embeddingBits);
    });
}

} // namespace detail

} // namespace api
} // namespace edkm
