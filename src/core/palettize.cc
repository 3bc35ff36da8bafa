#include "core/palettize.h"

#include <atomic>
#include <cstring>
#include <fstream>

#include "core/kmeans.h"
#include "device/device_manager.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "util/half.h"
#include "util/logging.h"
#include "util/serial.h"

namespace edkm {

std::vector<uint8_t>
packBits(const std::vector<int32_t> &values, int bits)
{
    EDKM_CHECK(bits >= 1 && bits <= 16, "packBits: bits out of range");
    std::vector<uint8_t> out((values.size() * bits + 7) / 8, 0);
    size_t bitpos = 0;
    for (int32_t v : values) {
        EDKM_CHECK(v >= 0 && v < (1 << bits), "packBits: value ", v,
                   " does not fit in ", bits, " bits");
        uint32_t u = static_cast<uint32_t>(v);
        for (int b = 0; b < bits; ++b) {
            if (u & (1u << b)) {
                out[bitpos >> 3] |=
                    static_cast<uint8_t>(1u << (bitpos & 7));
            }
            ++bitpos;
        }
    }
    return out;
}

std::vector<int32_t>
unpackBits(const std::vector<uint8_t> &stream, int bits, int64_t n)
{
    EDKM_CHECK(bits >= 1 && bits <= 16, "unpackBits: bits out of range");
    EDKM_CHECK(static_cast<int64_t>(stream.size()) * 8 >= n * bits,
               "unpackBits: stream too short");
    std::vector<int32_t> out(static_cast<size_t>(n), 0);
    size_t bitpos = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint32_t v = 0;
        for (int b = 0; b < bits; ++b) {
            if (stream[bitpos >> 3] & (1u << (bitpos & 7))) {
                v |= 1u << b;
            }
            ++bitpos;
        }
        out[static_cast<size_t>(i)] = static_cast<int32_t>(v);
    }
    return out;
}

PalettizedTensor
PalettizedTensor::fromDense(const Tensor &w, int bits, Rng &rng,
                            int kmeans_iters)
{
    std::vector<float> values = w.toVector();
    KMeansResult km = kmeans1d(values, {}, 1 << bits, rng, kmeans_iters);
    return fromAssignments(w.shape(), km.centroids, km.assignments, bits);
}

PalettizedTensor
PalettizedTensor::fromAssignments(Shape shape,
                                  const std::vector<float> &lut,
                                  const std::vector<int32_t> &assignments,
                                  int bits)
{
    EDKM_CHECK(static_cast<int>(lut.size()) == (1 << bits),
               "palettize: LUT must have 2^bits entries, got ", lut.size());
    PalettizedTensor p;
    p.shape_ = std::move(shape);
    p.bits_ = bits;
    // Round the LUT through FP16 — that is the precision it ships in.
    p.lut_.reserve(lut.size());
    for (float c : lut) {
        p.lut_.push_back(roundToFp16(c));
    }
    p.packed_ = packBits(assignments, bits);
    EDKM_CHECK(static_cast<int64_t>(assignments.size()) == p.numel(),
               "palettize: one assignment per element");
    return p;
}

int64_t
PalettizedTensor::numel() const
{
    int64_t n = 1;
    for (int64_t d : shape_) {
        n *= d;
    }
    return shape_.empty() ? 0 : n;
}

Tensor
PalettizedTensor::decompress(Device dev) const
{
    std::vector<int32_t> idx = unpackBits(packed_, bits_, numel());
    Tensor out = Tensor::empty(shape_, DType::kF32, dev);
    float *po = out.rawData<float>();
    for (size_t i = 0; i < idx.size(); ++i) {
        po[i] = lut_[static_cast<size_t>(idx[i])];
    }
    return out;
}

int64_t
PalettizedTensor::payloadBytes() const
{
    // Packed indices + FP16 LUT + 16-byte header (bits, rank, dims).
    return static_cast<int64_t>(packed_.size()) +
           static_cast<int64_t>(lut_.size()) * 2 + 16 +
           static_cast<int64_t>(shape_.size()) * 8;
}

double
PalettizedTensor::bitsPerWeight() const
{
    return 8.0 * static_cast<double>(payloadBytes()) /
           static_cast<double>(numel());
}

namespace {

constexpr uint32_t kMagic = 0x454b4d50u; // "PMKE"

/** Largest tensor rank the format accepts (defensive bound). */
constexpr uint32_t kMaxRank = 8;

} // namespace

std::vector<uint8_t>
PalettizedTensor::serialize() const
{
    std::vector<uint8_t> buf;
    serial::appendPod(buf, kMagic);
    serial::appendPod(buf, static_cast<uint32_t>(bits_));
    serial::appendPod(buf, static_cast<uint32_t>(shape_.size()));
    for (int64_t d : shape_) {
        serial::appendPod(buf, d);
    }
    serial::appendPod(buf, static_cast<uint32_t>(lut_.size()));
    for (float c : lut_) {
        serial::appendPod(buf, floatToFp16(c));
    }
    serial::appendBytes(buf, packed_);
    return buf;
}

PalettizedTensor
PalettizedTensor::deserialize(const std::vector<uint8_t> &bytes)
{
    size_t at = 0;
    EDKM_CHECK(serial::readPod<uint32_t>(bytes, at) == kMagic,
               "PalettizedTensor::deserialize: bad magic");
    PalettizedTensor p;
    p.bits_ = static_cast<int>(serial::readPod<uint32_t>(bytes, at));
    EDKM_CHECK(p.bits_ >= 1 && p.bits_ <= 16,
               "PalettizedTensor::deserialize: bits out of range: ",
               p.bits_);
    uint32_t rank = serial::readPod<uint32_t>(bytes, at);
    EDKM_CHECK(rank >= 1 && rank <= kMaxRank,
               "PalettizedTensor::deserialize: bad rank ", rank,
               " (accepted: 1..", kMaxRank, ")");
    p.shape_.resize(rank);
    int64_t n = 1;
    for (uint32_t i = 0; i < rank; ++i) {
        int64_t d = serial::readPod<int64_t>(bytes, at);
        EDKM_CHECK(d > 0, "PalettizedTensor::deserialize: dimension ", i,
                   " is ", d, ", must be positive");
        EDKM_CHECK(n <= (int64_t{1} << 48) / d,
                   "PalettizedTensor::deserialize: element count "
                   "overflows");
        p.shape_[i] = d;
        n *= d;
    }
    uint32_t lut_n = serial::readPod<uint32_t>(bytes, at);
    EDKM_CHECK(lut_n == (1u << p.bits_),
               "PalettizedTensor::deserialize: LUT has ", lut_n,
               " entries, expected 2^", p.bits_, " = ", (1u << p.bits_));
    p.lut_.resize(lut_n);
    for (uint32_t i = 0; i < lut_n; ++i) {
        p.lut_[i] = fp16ToFloat(serial::readPod<uint16_t>(bytes, at));
    }
    p.packed_ = serial::readBytes(bytes, at);
    EDKM_CHECK(static_cast<int64_t>(p.packed_.size()) ==
                   (n * p.bits_ + 7) / 8,
               "PalettizedTensor::deserialize: packed stream is ",
               p.packed_.size(), " bytes, expected ",
               (n * p.bits_ + 7) / 8, " for ", n, " x ", p.bits_,
               "-bit indices");
    EDKM_CHECK(at == bytes.size(), "PalettizedTensor::deserialize: ",
               bytes.size() - at, " trailing bytes");
    return p;
}

void
PalettizedTensor::save(const std::string &path) const
{
    std::vector<uint8_t> buf = serialize();
    std::ofstream f(path, std::ios::binary);
    EDKM_CHECK(f.good(), "cannot open ", path, " for writing");
    f.write(reinterpret_cast<const char *>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

PalettizedTensor
PalettizedTensor::load(const std::string &path)
{
    return deserialize(serial::readFile(path));
}

// ----------------------------------------------------------------------
// Zero-copy palette views and the streamed consumption paths
// ----------------------------------------------------------------------

PaletteView
parsePaletteView(const uint8_t *bytes, size_t size,
                 std::shared_ptr<const void> owner)
{
    serial::ByteSpan span(bytes, size);
    size_t at = 0;
    EDKM_CHECK(serial::readPod<uint32_t>(span, at) == kMagic,
               "parsePaletteView: bad magic (not a palettized payload)");
    PaletteView v;
    v.bits = static_cast<int>(serial::readPod<uint32_t>(span, at));
    EDKM_CHECK(v.bits >= 1 && v.bits <= 16,
               "parsePaletteView: bits out of range: ", v.bits);
    uint32_t rank = serial::readPod<uint32_t>(span, at);
    EDKM_CHECK(rank >= 1 && rank <= kMaxRank,
               "parsePaletteView: bad rank ", rank, " (accepted: 1..",
               kMaxRank, ")");
    v.shape.resize(rank);
    int64_t n = 1;
    for (uint32_t i = 0; i < rank; ++i) {
        int64_t d = serial::readPod<int64_t>(span, at);
        EDKM_CHECK(d > 0, "parsePaletteView: dimension ", i, " is ", d,
                   ", must be positive");
        EDKM_CHECK(n <= (int64_t{1} << 48) / d,
                   "parsePaletteView: element count overflows");
        v.shape[i] = d;
        n *= d;
    }
    uint32_t lut_n = serial::readPod<uint32_t>(span, at);
    EDKM_CHECK(lut_n == (1u << v.bits), "parsePaletteView: LUT has ",
               lut_n, " entries, expected 2^", v.bits, " = ",
               (1u << v.bits));
    v.lut.resize(lut_n);
    for (uint32_t i = 0; i < lut_n; ++i) {
        v.lut[i] = fp16ToFloat(serial::readPod<uint16_t>(span, at));
    }
    serial::ByteSpan packed = serial::viewBytes(span, at);
    EDKM_CHECK(static_cast<int64_t>(packed.size) == (n * v.bits + 7) / 8,
               "parsePaletteView: packed stream is ", packed.size,
               " bytes, expected ", (n * v.bits + 7) / 8, " for ", n,
               " x ", v.bits, "-bit indices");
    EDKM_CHECK(at == span.size, "parsePaletteView: ", span.size - at,
               " trailing bytes");
    v.packed = packed.data;
    v.packedBytes = static_cast<int64_t>(packed.size);
    v.owner = std::move(owner);
    return v;
}

PaletteView
viewOf(const PalettizedTensor &p)
{
    PaletteView v;
    v.shape = p.shape();
    v.bits = p.bits();
    v.lut = p.lut();
    v.packed = p.packed().data();
    v.packedBytes = static_cast<int64_t>(p.packed().size());
    return v;
}

namespace {

std::atomic<int64_t> g_fused_calls{0};

} // namespace

int64_t
paletteFusedCalls()
{
    return g_fused_calls.load(std::memory_order_relaxed);
}

Tensor
paletteMatmulTStaged(const Tensor &x, const PaletteView &w)
{
    EDKM_CHECK(w.shape.size() == 2,
               "paletteMatmulT: weight must be 2-d, got rank ",
               w.shape.size());
    EDKM_CHECK(w.packed != nullptr, "paletteMatmulT: empty view");
    int64_t out = w.shape[0], in = w.shape[1];
    const float *lut = w.lut.data();
    const uint8_t *packed = w.packed;
    int bits = w.bits;
    // Rows [p0, p1) of W^T are columns of W: per row p, gather the
    // column's indices (stride `in` through the bitstream) and expand
    // through the LUT with the kernels-layer gather.
    return matmulStreamed(
        x, in, out, [&](int64_t p0, int64_t p1, float *dst) {
            std::vector<uint16_t> idx(static_cast<size_t>(out));
            for (int64_t p = p0; p < p1; ++p) {
                for (int64_t j = 0; j < out; ++j) {
                    idx[static_cast<size_t>(j)] = static_cast<uint16_t>(
                        unpackBitsAt(packed, bits, j * in + p));
                }
                kernels::gatherU16(lut, idx.data(), out,
                                   dst + (p - p0) * out);
            }
        });
}

Tensor
paletteMatmulT(const Tensor &x, const PaletteView &w)
{
    EDKM_CHECK(w.shape.size() == 2,
               "paletteMatmulT: weight must be 2-d, got rank ",
               w.shape.size());
    EDKM_CHECK(w.packed != nullptr, "paletteMatmulT: empty view");
    int64_t out = w.shape[0], in = w.shape[1];
    Tensor xc = toF32Contig(x);
    EDKM_CHECK(xc.dim() == 2, "paletteMatmulT: x must be 2-d");
    EDKM_CHECK(xc.size(1) == in, "paletteMatmulT: inner dims ",
               xc.size(1), " vs ", in);
    // The fused kernel covers the m==1 decode with >1 output column
    // (out == 1 takes matmulStreamed's fixed-lane matvec path, whose
    // accumulation order the fused column chain does not replay).
    if (xc.size(0) != 1 || out == 1) {
        return paletteMatmulTStaged(xc, w);
    }
    g_fused_calls.fetch_add(1, std::memory_order_relaxed);
    kernels::PaletteDotFn fn = kernels::active().paletteDotFused;
    Tensor outT = Tensor::empty({1, out}, DType::kF32, xc.device());
    const float *px = xc.rawData<float>();
    const float *lut = w.lut.data();
    const uint8_t *packed = w.packed;
    const int bits = w.bits;
    float *po = outT.rawData<float>();
    // Chunks own disjoint output-column ranges and each column's value
    // is a self-contained sequential chain, so the split is
    // thread-count-invariant.
    runtime::parallelFor(0, out, runtime::grainFor(out, 2 * in),
                         [&](int64_t cb, int64_t ce) {
                             fn(px, in, packed, bits, lut, cb, ce - cb,
                                po + cb);
                         });
    chargeFlops(2.0 * static_cast<double>(in) *
                    static_cast<double>(out),
                xc.device());
    return outT;
}

Tensor
paletteGatherRows(const PaletteView &table, const Tensor &tokens)
{
    EDKM_CHECK(table.shape.size() == 2,
               "paletteGatherRows: table must be 2-d");
    EDKM_CHECK(tokens.dim() == 1, "paletteGatherRows: tokens must be 1-D");
    int64_t vocab = table.shape[0], dim = table.shape[1];
    int64_t n = tokens.numel();
    Tensor outT = Tensor::empty({n, dim}, DType::kF32, tokens.device());
    float *po = outT.rawData<float>();
    std::vector<uint16_t> idx(static_cast<size_t>(dim));
    for (int64_t i = 0; i < n; ++i) {
        int64_t t = tokens.flatAtInt(i);
        EDKM_CHECK(t >= 0 && t < vocab, "paletteGatherRows: token ", t,
                   " out of range [0,", vocab, ")");
        for (int64_t p = 0; p < dim; ++p) {
            idx[static_cast<size_t>(p)] = static_cast<uint16_t>(
                unpackBitsAt(table.packed, table.bits, t * dim + p));
        }
        kernels::gatherU16(table.lut.data(), idx.data(), dim,
                           po + i * dim);
    }
    return outT;
}

} // namespace edkm
