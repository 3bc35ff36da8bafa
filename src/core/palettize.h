/**
 * @file
 * Palettized (weight-clustered) tensor format.
 *
 * The deployable artifact of weight clustering: a lookup table of
 * centroids plus a bitstream of n-bit indices, the format consumed by
 * mobile inference accelerators (the paper cites Core ML's training-time
 * palettization). Includes (de)serialisation so compressed models can be
 * written to disk and reloaded for inference.
 */

#ifndef EDKM_CORE_PALETTIZE_H_
#define EDKM_CORE_PALETTIZE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace edkm {

/** Pack @p values (each < 2^bits) into a dense little-endian bitstream. */
std::vector<uint8_t> packBits(const std::vector<int32_t> &values, int bits);

/** Inverse of packBits for @p n values. */
std::vector<int32_t> unpackBits(const std::vector<uint8_t> &stream,
                                int bits, int64_t n);

/**
 * Random-access read of the @p i-th @p bits-wide value of a packBits
 * stream. Touches only the bytes holding the value, so it is safe up to
 * the last element of a minimally-sized stream. (The implementation
 * lives in kernels/kernels.h so the fused palette-decode kernels can
 * use it without a core/ dependency; this re-export keeps the historic
 * edkm:: spelling.)
 */
using kernels::unpackBitsAt;

/**
 * A weight tensor compressed to `bits` per weight via clustering:
 * lookup table (stored in FP16, as deployed) + packed index bitstream.
 */
class PalettizedTensor
{
  public:
    PalettizedTensor() = default;

    /**
     * Hard-cluster @p w to 2^bits centroids with k-means and palettize.
     */
    static PalettizedTensor fromDense(const Tensor &w, int bits, Rng &rng,
                                      int kmeans_iters = 25);

    /**
     * Palettize with externally computed clustering (e.g. DKM/eDKM
     * centroids and assignments).
     */
    static PalettizedTensor fromAssignments(
        Shape shape, const std::vector<float> &lut,
        const std::vector<int32_t> &assignments, int bits);

    /** Reconstruct the dense tensor on @p dev. */
    Tensor decompress(Device dev = Device::cpu()) const;

    int bits() const { return bits_; }
    const Shape &shape() const { return shape_; }
    int64_t numel() const;
    const std::vector<float> &lut() const { return lut_; }

    /** Packed n-bit index bitstream (row-major element order). */
    const std::vector<uint8_t> &packed() const { return packed_; }

    /** Serialized size: packed indices + FP16 LUT + header. */
    int64_t payloadBytes() const;

    /** Effective bits per weight including LUT overhead. */
    double bitsPerWeight() const;

    /** Binary serialisation (stable little-endian format). */
    std::vector<uint8_t> serialize() const;
    static PalettizedTensor deserialize(const std::vector<uint8_t> &bytes);

    /** File convenience wrappers around (de)serialize. */
    void save(const std::string &path) const;
    static PalettizedTensor load(const std::string &path);

  private:
    Shape shape_;
    int bits_ = 0;
    std::vector<float> lut_;       ///< 2^bits centroids (f32 mirror)
    std::vector<uint8_t> packed_;  ///< n-bit index bitstream
};

/**
 * Non-owning view of a palettized weight: the decoded f32 LUT (2^bits
 * floats, tiny) plus a borrowed pointer to the packed index bitstream —
 * typically a payload section of an mmap-ed model artifact. @p owner
 * pins the backing memory; serving consumes the view directly through
 * paletteMatmulT / paletteGatherRows without ever decoding the dense
 * tensor.
 */
struct PaletteView
{
    Shape shape;
    int bits = 0;
    std::vector<float> lut;            ///< f32 mirror of the FP16 LUT
    const uint8_t *packed = nullptr;   ///< packBits stream, borrowed
    int64_t packedBytes = 0;
    std::shared_ptr<const void> owner; ///< keep-alive for @p packed
};

/**
 * Parse a PalettizedTensor::serialize payload into a view: header and
 * LUT are decoded (validated like deserialize), the index bitstream is
 * borrowed from @p bytes in place. @p owner is stored in the view.
 */
PaletteView parsePaletteView(const uint8_t *bytes, size_t size,
                             std::shared_ptr<const void> owner);

/** View over an owned PalettizedTensor (@p p must outlive the view). */
PaletteView viewOf(const PalettizedTensor &p);

/**
 * y = x · W^T with W in LUT+index form: bit-identical to
 * matmul(x, transpose(decompress())) while the dense weight is never
 * materialised.
 *
 * Two internal paths, bit-identical to each other by construction:
 *   - m == 1 (the serving decode hot path, more than one output
 *     column): the *fused* kernel — packed indices -> LUT gathers ->
 *     multiply-accumulate straight into the output, no staging buffer
 *     (kernels::KernelTable::paletteDotFused, parallel over disjoint
 *     output-column ranges).
 *   - everything else (prefill, batched decode, single-output): the
 *     staged path — index tiles decoded through gatherU16 and streamed
 *     through matmulStreamed.
 */
Tensor paletteMatmulT(const Tensor &x, const PaletteView &w);

/** The always-staged reference path (decode tiles, then accumulate);
 *  what paletteMatmulT uses outside the fused m==1 case. Exposed so
 *  tests can check the two paths against each other in one process. */
Tensor paletteMatmulTStaged(const Tensor &x, const PaletteView &w);

/** Process-wide count of decodes served by the fused kernel (stats
 *  observability; serve::EngineStats::fusedDecodes is derived from
 *  deltas of this). */
int64_t paletteFusedCalls();

/**
 * Embedding lookup from a palettized [vocab, dim] table: out[i, :] is
 * row tokens[i], decoded LUT-value-for-value — bit-identical to
 * gatherRows(decompress(), tokens) without the dense table.
 */
Tensor paletteGatherRows(const PaletteView &table, const Tensor &tokens);

} // namespace edkm

#endif // EDKM_CORE_PALETTIZE_H_
