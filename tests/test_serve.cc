/**
 * @file
 * Tests for the serving surface: borrowed-mode Storage lifetime and
 * accounting, the streamed matmul's bit-identity with the dense kernel,
 * palette views, the v2.1 artifact container (round trip, alignment,
 * legacy-format rejection, fuzz-ish corruption rejection), ArtifactReader
 * zero-copy views, and InferenceEngine bit-exactness against the
 * eagerly reconstructed model for every codec.
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>

#include "api/plan.h"
#include "api/session.h"
#include "core/palettize.h"
#include "device/device_manager.h"
#include "nn/clustered_linear.h"
#include "serve/engine.h"
#include "serve/reader.h"
#include "tensor/ops.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace {

nn::MiniLlama
tinyModel(uint64_t seed = 7)
{
    nn::LlamaConfig cfg;
    cfg.vocab = 64;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.seed = seed;
    return nn::MiniLlama(cfg);
}

/** Compress a tiny model with @p scheme (freeze-only) and return the
 *  artifact plus the in-memory model it matches. */
api::SessionResult
compressTiny(nn::MiniLlama &model, const std::string &scheme)
{
    api::CompressionPlan plan;
    plan.scheme = scheme;
    plan.bits = 4;
    plan.groupSize = 16;
    plan.dkmMaxIters = 2;
    api::CalibData calib;
    std::vector<int64_t> toks;
    Rng rng(3);
    for (int i = 0; i < 2 * 16; ++i) {
        toks.push_back(rng.randint(0, 63));
    }
    calib.tokens = Tensor::fromIndices(toks, {2, 16});
    calib.trainConfig.steps = 0;
    api::Session session;
    return session.run(model, plan, std::move(calib));
}

std::string
writeTemp(const std::vector<uint8_t> &bytes, const std::string &name)
{
    std::string path = "/tmp/" + name;
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return path;
}

Tensor
tokenBatch(int64_t b, int64_t s, int64_t vocab, uint64_t seed)
{
    std::vector<int64_t> toks;
    Rng rng(seed);
    for (int64_t i = 0; i < b * s; ++i) {
        toks.push_back(rng.randint(0, vocab - 1));
    }
    return Tensor::fromIndices(toks, {b, s});
}

// ---------------------------------------------------------------------
// Borrowed-mode storage
// ---------------------------------------------------------------------

TEST(BorrowedStorage, RecordsNoAllocationAndFlagsItself)
{
    DeviceManager &mgr = DeviceManager::instance();
    int64_t before = mgr.stats(Device::cpu()).currentBytes;
    auto bytes = std::make_shared<std::vector<float>>(16, 1.5f);
    auto st = Storage::borrow(
        reinterpret_cast<const std::byte *>(bytes->data()),
        static_cast<int64_t>(bytes->size() * 4), Device::cpu(), bytes);
    EXPECT_TRUE(st->borrowed());
    EXPECT_EQ(mgr.stats(Device::cpu()).currentBytes, before);

    auto owned = Storage::allocate(64, Device::cpu());
    EXPECT_FALSE(owned->borrowed());
    EXPECT_EQ(mgr.stats(Device::cpu()).currentBytes, before + 64);
}

TEST(BorrowedStorage, OwnerOutlivesEveryView)
{
    auto bytes = std::make_shared<std::vector<float>>(8);
    for (size_t i = 0; i < bytes->size(); ++i) {
        (*bytes)[i] = static_cast<float>(i) * 0.5f;
    }
    std::weak_ptr<std::vector<float>> watch = bytes;

    Tensor view;
    {
        auto st = Storage::borrow(
            reinterpret_cast<const std::byte *>(bytes->data()),
            static_cast<int64_t>(bytes->size() * 4), Device::cpu(),
            bytes);
        view = Tensor::wrapStorage(st, {2, 4}, {4, 1}, 0, DType::kF32);
        bytes.reset(); // the view must keep the buffer alive
    }
    ASSERT_FALSE(watch.expired());
    EXPECT_FLOAT_EQ(view.at({1, 3}), 3.5f);

    view = Tensor(); // last reference gone -> buffer released
    EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------
// Streamed matmul bit-identity
// ---------------------------------------------------------------------

/** fill that serves rows of a dense B, for equivalence testing. */
MatmulRowFill
denseFill(const Tensor &bT)
{
    const float *p = bT.rawData<float>();
    int64_t n = bT.size(1);
    return [p, n](int64_t p0, int64_t p1, float *dst) {
        std::memcpy(dst, p + p0 * n,
                    static_cast<size_t>((p1 - p0) * n) * 4);
    };
}

TEST(MatmulStreamed, BitIdenticalToDenseMatmul)
{
    Rng rng(11);
    // (m, k, n) covering the general, m==1 (single-row) and n==1 (matvec)
    // kernel paths, plus a k large enough to span several tiles.
    for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
             {5, 33, 17}, {1, 64, 48}, {7, 40, 1}, {3, 500, 300}}) {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        Tensor want = matmul(a, b);
        Tensor got = matmulStreamed(a, k, n, denseFill(b));
        EXPECT_EQ(want.toVector(), got.toVector())
            << "m=" << m << " k=" << k << " n=" << n;
    }
}

// ---------------------------------------------------------------------
// Palette views
// ---------------------------------------------------------------------

TEST(PaletteView, RandomAccessUnpackMatchesSequential)
{
    Rng rng(5);
    for (int bits : {1, 2, 3, 4, 5, 7, 8, 11, 16}) {
        std::vector<int32_t> values;
        for (int i = 0; i < 61; ++i) {
            values.push_back(static_cast<int32_t>(
                rng.randint(0, (1 << bits) - 1)));
        }
        std::vector<uint8_t> packed = packBits(values, bits);
        std::vector<int32_t> seq =
            unpackBits(packed, bits, static_cast<int64_t>(values.size()));
        for (size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(unpackBitsAt(packed.data(), bits,
                                   static_cast<int64_t>(i)),
                      seq[i])
                << "bits=" << bits << " i=" << i;
        }
    }
}

TEST(PaletteView, StreamedMatmulMatchesDecompressedDense)
{
    Rng rng(17);
    Tensor w = Tensor::randn({24, 40}, rng);
    PalettizedTensor p = PalettizedTensor::fromDense(w, 3, rng);
    Tensor dense = p.decompress();

    Tensor x = Tensor::randn({6, 40}, rng);
    Tensor want = matmul(x, dense.transpose(0, 1));
    Tensor got = paletteMatmulT(x, viewOf(p));
    EXPECT_EQ(want.toVector(), got.toVector());

    // Single-row input exercises the m==1 column-loop path.
    Tensor x1 = Tensor::randn({1, 40}, rng);
    EXPECT_EQ(matmul(x1, dense.transpose(0, 1)).toVector(),
              paletteMatmulT(x1, viewOf(p)).toVector());
}

TEST(PaletteView, ParseFromPayloadAndGatherRows)
{
    Rng rng(23);
    Tensor table = Tensor::randn({32, 12}, rng);
    PalettizedTensor p = PalettizedTensor::fromDense(table, 4, rng);
    std::vector<uint8_t> payload = p.serialize();

    auto owner = std::make_shared<std::vector<uint8_t>>(payload);
    PaletteView v =
        parsePaletteView(owner->data(), owner->size(), owner);
    EXPECT_EQ(v.bits, 4);
    EXPECT_EQ(v.shape, (Shape{32, 12}));
    EXPECT_EQ(v.lut, p.lut());

    Tensor toks = Tensor::fromIndices({0, 31, 7, 7, 16}, {5});
    Tensor want = gatherRows(p.decompress(), toks);
    Tensor got = paletteGatherRows(v, toks);
    EXPECT_EQ(want.toVector(), got.toVector());

    // Corrupt payloads are rejected, not mis-read.
    std::vector<uint8_t> bad = payload;
    bad[0] ^= 0xff; // magic
    EXPECT_THROW(parsePaletteView(bad.data(), bad.size(), nullptr),
                 FatalError);
    EXPECT_THROW(
        parsePaletteView(payload.data(), payload.size() - 3, nullptr),
        FatalError);
}

// ---------------------------------------------------------------------
// Artifact v2 container
// ---------------------------------------------------------------------

TEST(ArtifactV2, EmitsAlignedSectionsAndRoundTripsBitExact)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::vector<uint8_t> bytes = res.artifact.serialize();

    api::ArtifactLayout layout =
        api::parseArtifactLayout(bytes.data(), bytes.size());
    EXPECT_EQ(layout.scheme, "rtn");
    ASSERT_EQ(layout.sections.size(), res.artifact.entries.size());
    for (size_t i = 0; i < layout.sections.size(); ++i) {
        const api::TensorSection &s = layout.sections[i];
        EXPECT_EQ(s.offset % api::kArtifactAlign, 0) << s.name;
        EXPECT_EQ(s.name, res.artifact.entries[i].name);
        EXPECT_EQ(s.bytes, res.artifact.entries[i].payloadBytes());
    }

    api::ModelArtifact back = api::ModelArtifact::deserialize(bytes);
    ASSERT_EQ(back.entries.size(), res.artifact.entries.size());
    for (size_t i = 0; i < back.entries.size(); ++i) {
        EXPECT_EQ(back.entries[i].payload,
                  res.artifact.entries[i].payload)
            << back.entries[i].name;
    }
    // Serialisation is deterministic: same artifact, same bytes.
    EXPECT_EQ(bytes, back.serialize());
}

TEST(ArtifactV2, CorruptionIsRejectedWithTheSectionNamed)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::vector<uint8_t> bytes = res.artifact.serialize();

    // Version bump -> actionable error.
    {
        std::vector<uint8_t> bad = bytes;
        uint32_t v = 9;
        std::memcpy(bad.data() + 8, &v, 4);
        try {
            api::parseArtifactLayout(bad.data(), bad.size());
            FAIL() << "version 9 accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
        }
    }
    // Misaligned first section -> error names it.
    {
        std::vector<uint8_t> bad = bytes;
        uint64_t table_off;
        std::memcpy(&table_off, bad.data() + 32, 8);
        uint64_t off;
        std::memcpy(&off, bad.data() + table_off, 8);
        off += 4;
        std::memcpy(bad.data() + table_off, &off, 8);
        try {
            api::parseArtifactLayout(bad.data(), bad.size());
            FAIL() << "misaligned section accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("aligned"), std::string::npos) << msg;
            EXPECT_NE(msg.find(res.artifact.entries[0].name),
                      std::string::npos)
                << msg;
        }
    }
    // Section running past the file end.
    {
        std::vector<uint8_t> bad = bytes;
        uint64_t table_off;
        std::memcpy(&table_off, bad.data() + 32, 8);
        uint64_t huge = bad.size();
        std::memcpy(bad.data() + table_off + 8, &huge, 8);
        EXPECT_THROW(api::parseArtifactLayout(bad.data(), bad.size()),
                     FatalError);
    }
    // Appended garbage is caught by the declared file size.
    std::vector<uint8_t> padded = bytes;
    padded.resize(padded.size() + 13, 0xcd);
    EXPECT_THROW(api::ModelArtifact::deserialize(padded), FatalError);
}

// Structured fuzz sweep over the v2 section table: every section's
// offset/size field is mutated in each way the layout contract can be
// violated (alignment, overlap, bounds, fixed-stride size), and the
// parser must reject the file with an error naming the section where
// the inconsistency is detected — before any payload is touched. The
// truncation sweep rides along as one more mutation family.
TEST(ArtifactV2, SectionTableFuzzSweepNamesTheBadSection)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::vector<uint8_t> bytes = res.artifact.serialize();
    api::ArtifactLayout good =
        api::parseArtifactLayout(bytes.data(), bytes.size());
    uint64_t table_off;
    std::memcpy(&table_off, bytes.data() + 32, 8);
    size_t n = good.sections.size();
    ASSERT_GE(n, 2u);

    struct Mutation
    {
        std::string label;
        std::function<void(std::vector<uint8_t> &)> apply;
        std::string expect_substr; ///< must appear in the error
        std::string expect_name;   ///< section named (empty = any)
    };
    auto poke = [table_off](size_t section, size_t field,
                            uint64_t value) {
        return [table_off, section, field,
                value](std::vector<uint8_t> &b) {
            std::memcpy(b.data() + table_off + 16 * section + field * 8,
                        &value, 8);
        };
    };

    std::vector<Mutation> table;
    for (size_t i = 0; i < n; ++i) {
        const api::TensorSection &s = good.sections[i];
        uint64_t off = static_cast<uint64_t>(s.offset);
        uint64_t sz = static_cast<uint64_t>(s.bytes);
        std::string at = " (section " + std::to_string(i) + ")";
        table.push_back({"misaligned offset" + at, poke(i, 0, off + 4),
                         "aligned", s.name});
        table.push_back({"offset into the table" + at, poke(i, 0, 0),
                         "overlaps", s.name});
        if (i > 0) {
            uint64_t prev =
                static_cast<uint64_t>(good.sections[i - 1].offset);
            table.push_back({"offset onto the previous section" + at,
                             poke(i, 0, prev), "overlaps", s.name});
        }
        table.push_back({"size past the file end" + at,
                         poke(i, 1, bytes.size() + 1), "past the end",
                         s.name});
        bool fixed_stride = s.codec == api::Codec::kRawF32 ||
                            s.codec == api::Codec::kDenseF16;
        if (fixed_stride) {
            table.push_back({"fixed-stride size mismatch" + at,
                             poke(i, 1, sz - 4), "for its shape needs",
                             s.name});
        }
        // Growing a section: the bounds check fires when the grown
        // section no longer fits the file; otherwise fixed-stride
        // codecs fail their exact-size check right at the section and
        // variable-size codecs collide with the neighbour — always
        // caught, always named.
        bool over_end = off + sz + 64 > bytes.size();
        table.push_back(
            {"grown size" + at, poke(i, 1, sz + 64),
             over_end ? "past the end"
                      : (fixed_stride ? "for its shape needs"
                                      : "overlaps"),
             over_end || fixed_stride ? s.name
                                      : good.sections[i + 1].name});
    }
    for (size_t cut = 0; cut < bytes.size(); cut += 97) {
        table.push_back(
            {"truncated to " + std::to_string(cut) + " bytes",
             [cut](std::vector<uint8_t> &b) {
                 b.resize(cut);
             },
             cut < 64 ? "header" : "truncated", ""});
    }

    for (const Mutation &m : table) {
        std::vector<uint8_t> bad = bytes;
        m.apply(bad);
        try {
            api::parseArtifactLayout(bad.data(), bad.size());
            FAIL() << m.label << " accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(m.expect_substr), std::string::npos)
                << m.label << ": " << msg;
            if (!m.expect_name.empty()) {
                EXPECT_NE(msg.find("'" + m.expect_name + "'"),
                          std::string::npos)
                    << m.label << ": " << msg;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Artifact v2.1 payload checksums
// ---------------------------------------------------------------------

TEST(Checksum64, DeterministicLengthSeedAndBitFlipSensitive)
{
    // Cover every finalisation path: empty, byte tail, 4-byte lane,
    // 8-byte lane, exactly one stripe, stripes plus tail.
    std::vector<size_t> lens = {0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 100};
    std::vector<uint8_t> buf(100);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(i * 37 + 11);
    }
    std::vector<uint64_t> seen;
    for (size_t len : lens) {
        uint64_t h = checksum64(buf.data(), len);
        EXPECT_EQ(h, checksum64(buf.data(), len)) << len;
        EXPECT_NE(h, checksum64(buf.data(), len, /*seed=*/1)) << len;
        for (uint64_t prev : seen) {
            EXPECT_NE(h, prev) << len;
        }
        seen.push_back(h);
    }
    // Any single-bit flip anywhere in the message changes the digest.
    std::vector<uint8_t> msg(64);
    for (size_t i = 0; i < msg.size(); ++i) {
        msg[i] = static_cast<uint8_t>(i);
    }
    uint64_t base = checksum64(msg.data(), msg.size());
    for (size_t byte = 0; byte < msg.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            msg[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_NE(checksum64(msg.data(), msg.size()), base)
                << "byte " << byte << " bit " << bit;
            msg[byte] ^= static_cast<uint8_t>(1u << bit);
        }
    }
}

TEST(ArtifactV21, WriterStampsChecksumsThatMatchThePayloads)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::vector<uint8_t> bytes = res.artifact.serialize();
    api::ArtifactLayout layout =
        api::parseArtifactLayout(bytes.data(), bytes.size());
    for (const api::TensorSection &s : layout.sections) {
        EXPECT_EQ(s.checksum,
                  checksum64(bytes.data() + s.offset,
                             static_cast<size_t>(s.bytes)))
            << s.name;
    }

    // A clean checksummed file passes eager verification at open, and
    // the lazy default verifies each section on its first view.
    std::string path = writeTemp(bytes, "edkm_test_v21_clean.edkm");
    auto eager =
        serve::ArtifactReader::open(path, serve::VerifyMode::kEager);
    EXPECT_EQ(eager->sectionsVerified(),
              static_cast<int64_t>(layout.sections.size()));

    auto lazy =
        serve::ArtifactReader::open(path, serve::VerifyMode::kLazy);
    EXPECT_EQ(lazy->sectionsVerified(), 0);
    lazy->decode(layout.sections.front().name);
    EXPECT_GE(lazy->sectionsVerified(), 1);
    lazy->decode(layout.sections.front().name); // sticky: verified once
    lazy->verifyAll();
    EXPECT_EQ(lazy->sectionsVerified(),
              static_cast<int64_t>(layout.sections.size()));

    auto off =
        serve::ArtifactReader::open(path, serve::VerifyMode::kOff);
    off->decode(layout.sections.front().name);
    EXPECT_EQ(off->sectionsVerified(), 0);
    std::remove(path.c_str());
}

// The payload counterpart of the section-table sweep: flip one byte at
// the first / middle / last position of EVERY section's payload, and
// the reader must reject the section with its name in the error —
// eagerly at open, or lazily at the first view of that section while
// the rest of the artifact stays fully servable.
TEST(ArtifactV21, PayloadBitFlipFuzzNamesTheCorruptSection)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::vector<uint8_t> bytes = res.artifact.serialize();
    api::ArtifactLayout good =
        api::parseArtifactLayout(bytes.data(), bytes.size());

    int case_id = 0;
    for (size_t i = 0; i < good.sections.size(); ++i) {
        const api::TensorSection &s = good.sections[i];
        std::vector<int64_t> positions = {0, s.bytes / 2, s.bytes - 1};
        for (int64_t pos : positions) {
            std::vector<uint8_t> bad = bytes;
            bad[static_cast<size_t>(s.offset + pos)] ^= 0x10;
            std::string path = writeTemp(
                bad, "edkm_test_v21_flip_" + std::to_string(case_id++) +
                         ".edkm");

            // Eager: rejected at open, section named.
            try {
                serve::ArtifactReader::open(path,
                                            serve::VerifyMode::kEager);
                FAIL() << s.name << " byte " << pos << " accepted";
            } catch (const FatalError &e) {
                std::string msg = e.what();
                EXPECT_NE(msg.find("checksum mismatch"),
                          std::string::npos)
                    << msg;
                EXPECT_NE(msg.find("'" + s.name + "'"),
                          std::string::npos)
                    << msg;
            }

            // Lazy: open succeeds (header / manifest / table are
            // intact), the first view of the bad section throws with
            // its name, and every other section still serves.
            auto lazy = serve::ArtifactReader::open(
                path, serve::VerifyMode::kLazy);
            try {
                lazy->decode(s.name);
                FAIL() << s.name << " byte " << pos
                       << " served lazily";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find("'" + s.name + "'"),
                          std::string::npos)
                    << e.what();
            }
            size_t other = (i + 1) % good.sections.size();
            if (other != i) {
                EXPECT_NO_THROW(
                    lazy->decode(good.sections[other].name));
            }

            // Off: trusts payload bytes (structural digest still
            // checked), so the open itself must succeed.
            auto off = serve::ArtifactReader::open(
                path, serve::VerifyMode::kOff);
            EXPECT_EQ(off->sectionsVerified(), 0);
            std::remove(path.c_str());
        }
    }

    // Flipping a byte of the checksum TABLE itself corrupts the
    // container metadata: the always-on header digest rejects it in
    // every mode.
    {
        std::vector<uint8_t> bad = bytes;
        EDKM_CHECK(good.checksumTableOffset > 0, "missing table");
        bad[static_cast<size_t>(good.checksumTableOffset) + 3] ^= 0x01;
        std::string path =
            writeTemp(bad, "edkm_test_v21_table_flip.edkm");
        EXPECT_THROW(serve::ArtifactReader::open(
                         path, serve::VerifyMode::kOff),
                     FatalError);
        std::remove(path.c_str());
    }
}

// Only v2.1 is read. A v1 stream and a v2 header without the checksum
// flag (a v2.0 file) are both refused, with the format named, by the
// eager parse and by the serving reader in every verify mode.
void
expectLegacyRejected(const std::vector<uint8_t> &bytes, const char *file,
                     const char *cause)
{
    auto expectNamed = [&](const std::function<void()> &load) {
        try {
            load();
            FAIL() << cause << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
                << e.what();
        }
    };
    expectNamed([&] { api::ModelArtifact::deserialize(bytes); });
    std::string path = writeTemp(bytes, file);
    for (serve::VerifyMode m :
         {serve::VerifyMode::kEager, serve::VerifyMode::kLazy,
          serve::VerifyMode::kOff}) {
        expectNamed([&] { serve::ArtifactReader::open(path, m); });
    }
    std::remove(path.c_str());
}

// The next two tests keep the names they had while v1 and v2.0 still
// loaded; the version gate they cover now refuses both formats.
TEST(ArtifactV2, V1FilesStillLoadThroughTheVersionGate)
{
    std::vector<uint8_t> v1(256, 0);
    std::memcpy(v1.data(), "EDKMMDL1", 8);
    expectLegacyRejected(v1, "edkm_test_legacy_v1.edkm", "legacy v1 stream");
}

TEST(ArtifactV21, UnchecksummedV2StaysReadableEverywhere)
{
    nn::MiniLlama model = tinyModel();
    std::vector<uint8_t> v20 = compressTiny(model, "rtn").artifact.serialize();
    constexpr size_t kFlagsOffset = 44; // magic, version, sizes, offsets
    ASSERT_EQ(v20[kFlagsOffset] & api::kArtifactFlagChecksums, 1u);
    v20[kFlagsOffset] &= static_cast<uint8_t>(~api::kArtifactFlagChecksums);
    expectLegacyRejected(v20, "edkm_test_legacy_v20.edkm",
                         "v2.0 container without a checksum table");
}

TEST(ArtifactV21, VerifyModeEnvKnobSelectsAndRejects)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::string path = writeTemp(res.artifact.serialize(),
                                 "edkm_test_v21_env.edkm");
    int64_t n =
        static_cast<int64_t>(res.artifact.entries.size());

    setenv("EDKM_VERIFY", "eager", 1);
    auto r = serve::ArtifactReader::open(path);
    EXPECT_EQ(r->verifyMode(), serve::VerifyMode::kEager);
    EXPECT_EQ(r->sectionsVerified(), n);

    // Verification never changes what is served: first logits are
    // identical under every mode.
    {
        NoGradGuard ng;
        Tensor toks = tokenBatch(1, 6, 64, 41);
        std::vector<float> want = serve::InferenceEngine(r)
                                      .forward(toks)
                                      .toVector();
        for (serve::VerifyMode m :
             {serve::VerifyMode::kLazy, serve::VerifyMode::kOff}) {
            serve::InferenceEngine e(serve::ArtifactReader::open(path, m));
            EXPECT_EQ(e.forward(toks).toVector(), want)
                << "verify mode " << static_cast<int>(m);
        }
    }

    setenv("EDKM_VERIFY", "off", 1);
    EXPECT_EQ(serve::ArtifactReader::open(path)->verifyMode(),
              serve::VerifyMode::kOff);

    setenv("EDKM_VERIFY", "lazy", 1);
    EXPECT_EQ(serve::ArtifactReader::open(path)->verifyMode(),
              serve::VerifyMode::kLazy);

    unsetenv("EDKM_VERIFY");
    EXPECT_EQ(serve::ArtifactReader::open(path)->verifyMode(),
              serve::VerifyMode::kLazy);

    setenv("EDKM_VERIFY", "paranoid", 1);
    EXPECT_THROW(serve::ArtifactReader::open(path), FatalError);
    unsetenv("EDKM_VERIFY");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ArtifactReader
// ---------------------------------------------------------------------

TEST(Reader, ZeroCopyViewsMatchEagerDecode)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "edkm");
    std::string path =
        writeTemp(res.artifact.serialize(), "edkm_test_reader.edkm");

    auto reader = serve::ArtifactReader::open(path);
    for (const api::TensorSection &s : reader->sections()) {
        Tensor decoded = reader->decode(s.name);
        EXPECT_EQ(decoded.toVector(),
                  res.artifact.entry(s.name).decode().toVector())
            << s.name;
        if (s.codec == api::Codec::kRawF32) {
            Tensor view = reader->denseView(s.name);
            EXPECT_TRUE(view.storagePtr()->borrowed());
            EXPECT_EQ(view.toVector(), decoded.toVector()) << s.name;
        } else if (s.codec == api::Codec::kPalettized) {
            PaletteView v = reader->paletteView(s.name);
            EXPECT_EQ(paletteGatherRows(
                          v, Tensor::arange(0, v.shape[0]))
                          .toVector(),
                      decoded.toVector())
                << s.name;
        }
    }
    std::remove(path.c_str());
}

TEST(Reader, ViewsKeepTheMappingAliveAfterTheReaderDies)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::string path =
        writeTemp(res.artifact.serialize(), "edkm_test_lifetime.edkm");

    Tensor view;
    std::vector<float> want;
    {
        auto reader = serve::ArtifactReader::open(path);
        view = reader->denseView("final_norm.weight");
        want = reader->decode("final_norm.weight").toVector();
    } // reader gone; the borrowed storage pins the mapping
    EXPECT_EQ(view.toVector(), want);
    std::remove(path.c_str());
}

TEST(Reader, ReadFallbackServesIdenticalBytes)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "rtn");
    std::string path =
        writeTemp(res.artifact.serialize(), "edkm_test_fallback.edkm");

    auto mapped = serve::ArtifactReader::open(path);
    ::setenv("EDKM_NO_MMAP", "1", 1);
    auto fallback = serve::ArtifactReader::open(path);
    ::unsetenv("EDKM_NO_MMAP");
    EXPECT_FALSE(fallback->mapped());
    for (const api::TensorSection &s : mapped->sections()) {
        EXPECT_EQ(mapped->decode(s.name).toVector(),
                  fallback->decode(s.name).toVector())
            << s.name;
    }
    std::remove(path.c_str());
}

TEST(Reader, MissingFileAndBadMagicFailActionably)
{
    EXPECT_THROW(
        serve::ArtifactReader::open("/tmp/edkm_no_such_file.edkm"),
        FatalError);
    std::string path = writeTemp(
        std::vector<uint8_t>(128, 0x5a), "edkm_test_badmagic.edkm");
    EXPECT_THROW(serve::ArtifactReader::open(path), FatalError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------

/** Engine logits must be bit-identical to the eager model's for every
 *  codec an artifact can carry. */
class EngineBitExact : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineBitExact, ForwardMatchesEagerReconstruct)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, GetParam());
    std::string path = writeTemp(res.artifact.serialize(),
                                 std::string("edkm_test_engine_") +
                                     GetParam() + ".edkm");

    nn::MiniLlama eager = res.artifact.reconstruct();
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);

    NoGradGuard ng;
    for (auto [b, s] : std::vector<std::pair<int64_t, int64_t>>{
             {2, 8}, {1, 1}, {3, 5}}) {
        Tensor toks = tokenBatch(b, s, 64, 7 + static_cast<uint64_t>(s));
        EXPECT_EQ(engine.forward(toks).toVector(),
                  eager.forward(toks).data().toVector())
            << GetParam() << " b=" << b << " s=" << s;
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, EngineBitExact,
                         ::testing::Values("fp16", "rtn", "edkm"));

TEST(Engine, TinyCacheBudgetEvictsButStaysExact)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "fp16"); // all f16
    std::string path = writeTemp(res.artifact.serialize(),
                                 "edkm_test_engine_lru.edkm");

    nn::MiniLlama eager = res.artifact.reconstruct();
    auto reader = serve::ArtifactReader::open(path);
    serve::EngineConfig cfg;
    cfg.decodeCacheBytes = 16 << 10; // far below the working set
    serve::InferenceEngine engine(reader, cfg);

    NoGradGuard ng;
    Tensor toks = tokenBatch(2, 6, 64, 13);
    EXPECT_EQ(engine.forward(toks).toVector(),
              eager.forward(toks).data().toVector());
    EXPECT_GT(engine.stats().evictions, 0);
    EXPECT_LE(engine.residentWeightBytes(), 16 << 10);

    // A second forward still answers exactly after evictions.
    EXPECT_EQ(engine.forward(toks).toVector(),
              eager.forward(toks).data().toVector());
    std::remove(path.c_str());
}

TEST(Engine, PalettizedLayersStreamWithoutDenseDecode)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "edkm");
    std::string path = writeTemp(res.artifact.serialize(),
                                 "edkm_test_engine_stream.edkm");

    NoGradGuard ng;
    Tensor toks = tokenBatch(1, 4, 64, 3);
    // Live host bytes after first logits: the eager model holds every
    // weight decoded to dense f32; the engine must hold under half.
    int64_t eager_bytes = 0;
    {
        StatsScope scope(Device::cpu());
        nn::MiniLlama eager = res.artifact.reconstruct();
        eager.forward(toks);
        eager_bytes = scope.currentDelta();
    }
    StatsScope scope(Device::cpu());
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    engine.forward(toks);
    EXPECT_LT(2 * scope.currentDelta(), eager_bytes);
    // eDKM palettizes every Linear and the embedding: no dense decode
    // happens at all, every matmul streams LUT+index tiles.
    EXPECT_EQ(engine.stats().decodes, 0);
    EXPECT_EQ(engine.residentWeightBytes(), 0);
    EXPECT_GT(engine.stats().streamedMatmuls, 0);
    EXPECT_GT(engine.stats().borrowedViews, 0);
    std::remove(path.c_str());
}

TEST(Engine, BatchedGenerateMatchesEagerGreedyDecode)
{
    nn::MiniLlama model = tinyModel();
    api::SessionResult res = compressTiny(model, "edkm");
    std::string path = writeTemp(res.artifact.serialize(),
                                 "edkm_test_engine_gen.edkm");

    nn::MiniLlama eager = res.artifact.reconstruct();
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);

    std::vector<serve::InferenceEngine::Request> batch = {
        {{1, 2, 3}, 4}, {{60, 5}, 3}};
    auto responses = engine.generate(batch);
    ASSERT_EQ(responses.size(), batch.size());

    NoGradGuard ng;
    for (size_t r = 0; r < batch.size(); ++r) {
        std::vector<int64_t> ctx = batch[r].prompt;
        for (int64_t step = 0; step < batch[r].maxNewTokens; ++step) {
            Tensor toks = Tensor::fromIndices(
                ctx, {1, static_cast<int64_t>(ctx.size())});
            Tensor logits = eager.forward(toks).data();
            Tensor last = logits.slice(0, logits.size(0) - 1,
                                       logits.size(0));
            ctx.push_back(argmaxLastDim(last).flatAtInt(0));
        }
        EXPECT_EQ(responses[r].tokens, ctx) << "request " << r;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// KV-cache incremental decode
// ---------------------------------------------------------------------

/** Artifact exercising one codec: "raw" hand-encodes every parameter
 *  as raw_f32; the other schemes go through the registry (fp16 ->
 *  dense_f16, rtn -> affine, edkm -> palettized). */
api::ModelArtifact
codecArtifact(nn::MiniLlama &model, const std::string &scheme)
{
    if (scheme == "raw") {
        api::ModelArtifact a;
        a.scheme = "raw";
        a.config = model.config();
        for (auto &[name, p] : model.namedParameters()) {
            a.entries.push_back(api::encodeRawF32(name, p.data()));
        }
        return a;
    }
    return compressTiny(model, scheme).artifact;
}

api::Codec
codecOf(const std::string &scheme)
{
    if (scheme == "fp16") {
        return api::Codec::kDenseF16;
    }
    if (scheme == "rtn") {
        return api::Codec::kAffine;
    }
    if (scheme == "edkm") {
        return api::Codec::kPalettized;
    }
    return api::Codec::kRawF32;
}

/** Cached decode must produce logits bit-identical to the eager
 *  model's full-prefix forward for every codec an artifact can carry.
 *  The reference is the reconstructed nn::MiniLlama, which shares no
 *  code with the engine's forward. */
class KvDecodeBitExact : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KvDecodeBitExact, DecodeStepLogitsMatchFullPrefixForward)
{
    nn::MiniLlama model = tinyModel();
    api::ModelArtifact art = codecArtifact(model, GetParam());
    bool has_codec = false;
    for (const api::ArtifactEntry &e : art.entries) {
        has_codec = has_codec || e.codec == codecOf(GetParam());
    }
    EXPECT_TRUE(has_codec) << "artifact exercises no " << GetParam()
                           << " section";
    std::string path = writeTemp(art.serialize(),
                                 std::string("edkm_test_kv_") +
                                     GetParam() + ".edkm");

    nn::MiniLlama eager = art.reconstruct();
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);
    const nn::LlamaConfig &cfg = reader->config();

    NoGradGuard ng;
    auto eager_last = [&](const std::vector<int64_t> &prefix) {
        Tensor full = eager
                          .forward(Tensor::fromIndices(
                              prefix,
                              {1, static_cast<int64_t>(prefix.size())}))
                          .data();
        return full.slice(0, full.size(0) - 1, full.size(0)).contiguous();
    };
    std::vector<int64_t> ctx = {3, 17, 42, 5, 60};
    const int64_t steps = 4;
    serve::KvCache kv(cfg.layers, cfg.heads, cfg.dim / cfg.heads,
                      static_cast<int64_t>(ctx.size()) + steps);

    Tensor prompt = Tensor::fromIndices(
        ctx, {1, static_cast<int64_t>(ctx.size())});
    Tensor plogits = engine.prefill(prompt, kv);
    EXPECT_EQ(plogits.toVector(), eager.forward(prompt).data().toVector())
        << "prefill logits diverge from the eager forward";
    EXPECT_EQ(kv.position(), static_cast<int64_t>(ctx.size()));

    Tensor last = plogits.slice(0, plogits.size(0) - 1,
                                plogits.size(0));
    int64_t next = argmaxLastDim(last).flatAtInt(0);
    for (int64_t step = 0; step < steps; ++step) {
        ctx.push_back(next);
        Tensor cached = engine.decodeStep(next, kv); // [1, vocab]
        EXPECT_EQ(cached.toVector(), eager_last(ctx).toVector())
            << GetParam() << " step " << step;
        next = argmaxLastDim(cached).flatAtInt(0);
    }

    // End to end: cached generate() == eager greedy decode recomputing
    // the full prefix at every step.
    serve::InferenceEngine::Request req{{9, 2, 33}, 5};
    std::vector<int64_t> want = req.prompt;
    for (int64_t step = 0; step < req.maxNewTokens; ++step) {
        want.push_back(argmaxLastDim(eager_last(want)).flatAtInt(0));
    }
    int64_t fused0 = engine.stats().fusedDecodes;
    EXPECT_EQ(engine.generate(req).tokens, want);
    EXPECT_GT(engine.stats().decodeSteps, 0);
    // Palettized decode steps take the fused m==1 kernel.
    if (codecOf(GetParam()) == api::Codec::kPalettized) {
        EXPECT_GT(engine.stats().fusedDecodes, fused0);
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, KvDecodeBitExact,
                         ::testing::Values("raw", "fp16", "rtn",
                                           "edkm"));

TEST(KvCacheTest, OverflowThrowsNamingTheCapacity)
{
    serve::KvCache kv(2, 4, 8, 3);
    EXPECT_EQ(kv.capacity(), 3);
    kv.advance(3);
    try {
        kv.advance(1);
        FAIL() << "overflowing advance accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("capacity 3"),
                  std::string::npos)
            << e.what();
    }
    kv.reset();
    EXPECT_EQ(kv.position(), 0);
    kv.advance(2);
    Tensor rows = Tensor::zeros({4, 2, 8});
    try {
        kv.write(0, rows, rows); // 2 rows at position 2 > capacity 3
        FAIL() << "overflowing write accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("capacity 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(KvCacheTest, EngineRejectsRequestsOverTheConfiguredCapacity)
{
    nn::MiniLlama model = tinyModel();
    api::ModelArtifact art = codecArtifact(model, "raw");
    std::string path =
        writeTemp(art.serialize(), "edkm_test_kv_capacity.edkm");
    serve::EngineConfig cfg;
    cfg.kvCapacity = 4;
    serve::InferenceEngine engine(serve::ArtifactReader::open(path),
                                  cfg);
    // prompt 3 + 4 new tokens needs 6 cached positions > 4.
    try {
        engine.generate({{1, 2, 3}, 4});
        FAIL() << "over-capacity request accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("capacity"),
                  std::string::npos)
            << e.what();
    }
    // Within capacity it still serves: 3 + 2 - 1 = 4 positions.
    EXPECT_EQ(engine.generate({{1, 2, 3}, 2}).tokens.size(), 5u);
    std::remove(path.c_str());
}

TEST(KvCacheTest, ResetReuseRoundTripStaysExact)
{
    nn::MiniLlama model = tinyModel();
    api::ModelArtifact art = codecArtifact(model, "edkm");
    std::string path =
        writeTemp(art.serialize(), "edkm_test_kv_reuse.edkm");
    auto reader = serve::ArtifactReader::open(path);
    serve::InferenceEngine engine(reader);

    serve::InferenceEngine::Request a{{1, 2, 3, 4}, 4};
    serve::InferenceEngine::Request b{{60, 5}, 6};
    auto a1 = engine.generate(a);
    auto b1 = engine.generate(b); // reuses (or regrows) the cache
    auto a2 = engine.generate(a); // round trip back to the first
    EXPECT_EQ(a1.tokens, a2.tokens);

    // A fresh engine agrees: reuse leaked no state across requests.
    serve::InferenceEngine fresh(reader);
    EXPECT_EQ(fresh.generate(b).tokens, b1.tokens);
    EXPECT_EQ(engine.stats().prefills, 3);
    ASSERT_NE(engine.kvCache(), nullptr);
    EXPECT_EQ(engine.stats().kvCacheBytes, engine.kvCache()->bytes());

    // Direct prefill -> reset -> prefill round trip is bit-stable too.
    NoGradGuard ng;
    const nn::LlamaConfig &cfg = reader->config();
    serve::KvCache kv(cfg.layers, cfg.heads, cfg.dim / cfg.heads, 8);
    Tensor toks = tokenBatch(1, 6, 64, 21);
    std::vector<float> first = engine.prefill(toks, kv).toVector();
    kv.reset();
    EXPECT_EQ(engine.prefill(toks, kv).toVector(), first);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ClusteredLinear LUT+index serving path
// ---------------------------------------------------------------------

TEST(ClusteredLinearServing, FrozenForwardMatchesDecompressedDense)
{
    Rng rng(41);
    auto inner = std::make_shared<nn::Linear>(24, 16, rng);
    EdkmConfig cfg;
    cfg.dkm.bits = 3;
    cfg.dkm.maxIters = 2;
    nn::ClusteredLinear layer(inner, cfg);

    layer.freezeForServing();
    ASSERT_TRUE(layer.frozenForServing());
    Tensor dense = layer.servingPalette().decompress();

    NoGradGuard ng;
    Tensor x = Tensor::randn({5, 24}, rng);
    Variable got = layer.forward(Variable(x));
    Tensor want = matmul(x, dense.transpose(0, 1));
    EXPECT_EQ(got.data().toVector(), want.toVector());

    layer.unfreeze();
    EXPECT_FALSE(layer.frozenForServing());
}

TEST(ClusteredLinearServing, FrozenForwardRejectsGradInputs)
{
    Rng rng(43);
    auto inner = std::make_shared<nn::Linear>(8, 4, rng);
    EdkmConfig cfg;
    cfg.dkm.bits = 2;
    cfg.dkm.maxIters = 1;
    nn::ClusteredLinear layer(inner, cfg);
    layer.freezeForServing();

    Variable x(Tensor::randn({2, 8}, rng), /*requires_grad=*/true);
    EXPECT_THROW(layer.forward(x), FatalError);
}

} // namespace
} // namespace edkm
