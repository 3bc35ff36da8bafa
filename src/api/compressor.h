/**
 * @file
 * The unified compression interface.
 *
 * Every scheme (fp16 baseline, RTN, GPTQ, AWQ, SmoothQuant, LLM-QAT,
 * DKM/eDKM) implements Compressor: compress a MiniLlama in place under
 * a resolved per-layer LayerSelection, report accounting, and emit the
 * per-tensor payloads a ModelArtifact is assembled from. Adapters are
 * constructed by name through the CompressorRegistry, usually from a
 * CompressionPlan via Session::run.
 *
 * Contract: after compress() returns, each non-skipped Linear weight in
 * the model is *bit-identical* to what its artifact entry decodes to —
 * saving the entries and reconstructing must reproduce the in-memory
 * model exactly.
 */

#ifndef EDKM_API_COMPRESSOR_H_
#define EDKM_API_COMPRESSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/artifact.h"
#include "api/plan.h"
#include "eval/train.h"
#include "nn/transformer.h"
#include "tensor/tensor.h"
#include "util/cancel.h"

namespace edkm {
namespace api {

/** Thrown when a run observes its CancelToken (see Session::run). */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One progress tick (per layer / stage boundary). */
struct Progress
{
    std::string stage;  ///< "calibrate", "quantize", "train", "freeze"
    std::string layer;  ///< module path, empty for model-level stages
    size_t index = 0;   ///< 0-based position within the stage
    size_t total = 0;   ///< ticks the stage will emit
};

using ProgressFn = std::function<void(const Progress &)>;

/**
 * Everything a compression run consumes besides the model: calibration
 * tokens for the post-training schemes, a token stream + train config
 * for the train-time schemes, and the run's progress/cancellation
 * plumbing (filled in by Session).
 */
struct CalibData
{
    /** Calibration batch [B, S] for GPTQ/AWQ/SmoothQuant capture. */
    Tensor tokens;

    /** Fine-tuning stream for QAT and DKM/eDKM (null = not provided). */
    const std::vector<int64_t> *trainStream = nullptr;

    /** Fine-tuning settings for the train-time schemes. */
    eval::TrainConfig trainConfig;

    /** Optional per-layer/stage progress callback. */
    ProgressFn progress;

    /** Optional cooperative cancellation. */
    const CancelToken *cancel = nullptr;

    /** Emit a progress tick (no-op without a callback). */
    void
    tick(const std::string &stage, const std::string &layer, size_t index,
         size_t total) const
    {
        if (progress) {
            progress(Progress{stage, layer, index, total});
        }
    }

    /** Throw CancelledError when cancellation was requested. */
    void
    checkCancelled(const std::string &where) const
    {
        if (cancel != nullptr && cancel->cancelled()) {
            throw CancelledError("compression cancelled during " + where);
        }
    }
};

/** What one compression run produced. */
struct CompressionReport
{
    SizeReport size; ///< accounting (scheme, bytes, bits, GB@7B)

    /**
     * Payload per touched parameter (Linear weights, plus the
     * embedding for eDKM). Session adds raw entries for the rest when
     * assembling the ModelArtifact.
     */
    std::vector<ArtifactEntry> entries;

    /** Module paths the selection skipped. */
    std::vector<std::string> skippedLayers;
};

/** A compression scheme driving a whole model. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Registry name ("rtn", "edkm", ...). */
    virtual std::string name() const = 0;

    /**
     * Compress @p model in place under @p selection.
     *
     * May throw CancelledError (cooperative cancellation) or
     * FatalError (missing calibration data, bad configuration); the
     * model may be partially transformed afterwards — Session::run
     * restores it on cancellation.
     */
    virtual CompressionReport compress(nn::MiniLlama &model,
                                       const CalibData &calib,
                                       const LayerSelection &selection) = 0;
};

} // namespace api
} // namespace edkm

#endif // EDKM_API_COMPRESSOR_H_
