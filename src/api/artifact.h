/**
 * @file
 * Model-level compression artifact.
 *
 * A ModelArtifact is the whole-model counterpart of PalettizedTensor:
 * a manifest (scheme, model geometry, accounting) plus one payload per
 * parameter, each encoded with the codec its scheme produced
 * (palettized LUT+indices, affine-quantised groups, dense FP16, or raw
 * FP32 for parameters a plan left untouched). save/load round-trips
 * the file bit-exactly, and reconstruct() rebuilds a MiniLlama whose
 * weights are bit-identical to the in-memory model the compression run
 * left behind: every codec decodes to exactly the tensor the adapter
 * installed.
 *
 * On-disk container (v2.1, the only format; see docs/artifact_v2.md):
 * a 64-byte header, a manifest describing every tensor, a section
 * table, one 64-byte-aligned payload section per tensor, then a
 * checksum table. The layout is mmap-friendly — serve/ArtifactReader
 * maps the file read-only and consumes payload sections in place,
 * without the up-front dense decode this class's reconstruct()
 * performs. Legacy input (a v1 stream, or a v2.0 container without
 * the checksum table) is rejected with a FatalError naming the cause.
 *
 * The manifest's SizeReport is *accounting* (deployed bytes at the
 * scheme's storage format); the container itself trades a few bytes
 * for losslessness, e.g. skipped layers ship as raw FP32.
 */

#ifndef EDKM_API_ARTIFACT_H_
#define EDKM_API_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/transformer.h"
#include "tensor/tensor.h"
#include "util/serial.h"

namespace edkm {
namespace api {

/** Size accounting for one compressed model. */
struct SizeReport
{
    std::string scheme;
    int64_t payloadBytes = 0;  ///< all parameters, serialized format
    double bitsPerWeight = 0.0;
    double projectedGb7B = 0.0; ///< GiB at LLaMA-7B's composition

    /**
     * One JSON object (`{"scheme": ..., "payload_bytes": ...,
     * "bits_per_weight": ..., "projected_gb_7b": ...}`) for the
     * BENCH_*.json machine-readable bench outputs.
     */
    std::string toJson() const;
};

/** Parameters LLaMA-7B has (for the projected size column). */
constexpr double kLlama7bParams = 6.74e9;

/** Of which input embedding + output head (the "embedding layers"). */
constexpr double kLlama7bEmbedParams = 2.62e8;

/** GiB a model of @p params at @p bits_per_weight occupies. */
double projectedGb(double bits_per_weight, double params = kLlama7bParams);

/**
 * Composition-corrected 7B projection: mini models are embedding-heavy
 * (30%+ of parameters vs ~4% at 7B), so projecting the blended rate
 * overstates the embedding contribution. This projects the *linear*
 * rate and the *embedding* rate onto LLaMA-7B's composition.
 */
double projectedGbComposed(double linear_bits_per_weight,
                           double embed_bits_per_weight);

/** Payload encodings a ModelArtifact entry can use. */
enum class Codec : uint32_t {
    kRawF32 = 0,     ///< little-endian f32 stream (lossless)
    kDenseF16 = 1,   ///< fp16 halfword stream (weights live on fp16 grid)
    kPalettized = 2, ///< PalettizedTensor::serialize bytes
    kAffine = 3,     ///< quant::QuantizedMatrix::serialize bytes
};

/** Human-readable codec tag ("raw_f32", "palettized", ...). */
std::string codecName(Codec codec);

/** Container format version written and read (v2.1 = v2 + checksums). */
constexpr uint32_t kArtifactVersionV2 = 2;

/** Alignment of the v2 section table and every payload section. */
constexpr int64_t kArtifactAlign = 64;

/**
 * Header flags bit: the container carries its v2.1 checksum table (one
 * 64-bit digest of header+manifest+section table, then one 64-bit
 * checksum per payload section) at the file offset stored in the
 * header word that v2.0 wrote as reserved-zero. Every file this build
 * writes sets it; a v2 header without it is a v2.0 file and rejected.
 */
constexpr uint32_t kArtifactFlagChecksums = 1u;

/** One parameter's payload. */
struct ArtifactEntry
{
    std::string name; ///< dotted parameter path ("blocks.0.attn.wq.weight")
    Codec codec = Codec::kRawF32;
    int bits = 0;  ///< nominal bits/weight (0 = uncompressed)
    Shape shape;
    std::vector<uint8_t> payload;

    /** Decode the payload back to a dense f32 tensor. */
    Tensor decode() const;

    int64_t
    payloadBytes() const
    {
        return static_cast<int64_t>(payload.size());
    }
};

/** Encode helpers used by compressor adapters and the session. */
ArtifactEntry encodeRawF32(const std::string &name, const Tensor &t);
ArtifactEntry encodeDenseF16(const std::string &name, const Tensor &t,
                             int bits);

/**
 * Manifest-level description of one v2 payload section: entry metadata
 * plus where its bytes live in the container. Offsets are absolute file
 * offsets, kArtifactAlign-aligned.
 */
struct TensorSection
{
    std::string name;
    Codec codec = Codec::kRawF32;
    int bits = 0;
    Shape shape;
    int64_t offset = 0; ///< absolute, kArtifactAlign-aligned
    int64_t bytes = 0;
    /** checksum64 of the payload bytes [offset, offset+bytes). */
    uint64_t checksum = 0;
};

/**
 * Everything a v2 container declares ahead of its payload bytes. The
 * parse validates header/manifest/section-table consistency (bounds,
 * alignment, overlap) without touching payload sections, which is what
 * lets serve/ArtifactReader map a file and consume it lazily. Lookup
 * by name lives in ArtifactReader (indexed).
 */
struct ArtifactLayout
{
    std::string scheme;
    nn::LlamaConfig config;
    SizeReport size;
    std::vector<TensorSection> sections;
    /** Digest of bytes [0, section table end) — header, manifest and
     *  section table together; parse verified it. */
    uint64_t headerDigest = 0;
    /** Absolute offset of the checksum table ([digest][per-section...]). */
    int64_t checksumTableOffset = 0;
};

/**
 * Parse and validate a v2.1 container's header, manifest, section
 * table and header digest from @p data (the whole file, typically an
 * mmap). Throws FatalError with the offending section's name on any
 * inconsistency, and one naming the format for legacy input (a v1
 * stream, or a v2.0 header without the checksum flag); payload bytes
 * themselves are not read.
 */
ArtifactLayout parseArtifactLayout(const uint8_t *data, size_t size);

/**
 * Verify one payload section against the file bytes at @p data (the
 * whole container, the same base parseArtifactLayout saw). Throws
 * FatalError naming the section on a checksum mismatch.
 */
void verifyArtifactSection(const TensorSection &s, const uint8_t *data);

/** A compressed model: manifest + per-parameter payloads. */
class ModelArtifact
{
  public:
    ModelArtifact() = default;

    std::string scheme;        ///< registry name that produced this
    nn::LlamaConfig config;    ///< geometry needed to reconstruct
    SizeReport size;           ///< accounting (deployed format)
    std::vector<ArtifactEntry> entries;

    /** Entry for parameter @p name; throws FatalError when absent. */
    const ArtifactEntry &entry(const std::string &name) const;

    /** Total serialized payload bytes (excluding manifest strings). */
    int64_t payloadBytes() const;

    /**
     * Rebuild a MiniLlama: construct at the manifest geometry, then
     * install every parameter from its decoded payload. Throws when a
     * parameter has no entry or shapes disagree.
     */
    nn::MiniLlama reconstruct() const;

    /** Install the payloads into an existing compatible model. */
    void restoreInto(nn::MiniLlama &model) const;

    /**
     * Binary serialisation. serialize() emits the sectioned, aligned
     * v2.1 container: payload sections plus a checksum table flagged
     * in the header. deserialize() verifies every section's checksum
     * before any payload is copied and rejects legacy input (see
     * parseArtifactLayout). The span overload parses in place (e.g.
     * straight from a file mapping), copying only payloads.
     */
    std::vector<uint8_t> serialize() const;
    static ModelArtifact deserialize(serial::ByteSpan bytes);
    static ModelArtifact deserialize(const std::vector<uint8_t> &bytes)
    {
        return deserialize(serial::ByteSpan(bytes));
    }

    /** File convenience wrappers around (de)serialize. */
    void save(const std::string &path) const;
    static ModelArtifact load(const std::string &path);
};

} // namespace api
} // namespace edkm

#endif // EDKM_API_ARTIFACT_H_
