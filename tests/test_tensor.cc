/**
 * @file
 * Tensor library tests: storage sharing across views (the PyTorch
 * semantics the paper's Table 1 builds on), layout transforms, dtype
 * conversion, and device transfer accounting.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "device/device_manager.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {
namespace {

class TensorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        DeviceManager::instance().resetAll();
    }
    Rng rng{42};
};

TEST_F(TensorTest, FactoriesAndShape)
{
    Tensor z = Tensor::zeros({2, 3});
    EXPECT_EQ(z.numel(), 6);
    EXPECT_EQ(z.dim(), 2);
    EXPECT_EQ(z.size(0), 2);
    EXPECT_EQ(z.size(-1), 3);
    EXPECT_EQ(z.flatAt(5), 0.0f);

    Tensor o = Tensor::ones({4});
    EXPECT_EQ(o.flatAt(2), 1.0f);

    Tensor f = Tensor::full({2, 2}, 3.5f);
    EXPECT_EQ(f.at({1, 1}), 3.5f);

    Tensor a = Tensor::arange(2, 6);
    EXPECT_EQ(a.numel(), 4);
    EXPECT_EQ(a.flatAtInt(0), 2);
    EXPECT_EQ(a.flatAtInt(3), 5);
}

TEST_F(TensorTest, ViewSharesStorage)
{
    Tensor x0 = Tensor::rand({1024, 1024}, rng);
    Tensor x1 = x0.view({-1, 1});
    EXPECT_EQ(x1.shape(), (Shape{1024 * 1024, 1}));
    EXPECT_EQ(x0.storageId(), x1.storageId());
    // Writes through one view are visible in the other.
    x1.setFlatAt(0, 77.0f);
    EXPECT_EQ(x0.flatAt(0), 77.0f);
}

TEST_F(TensorTest, Table1Semantics)
{
    // The exact scenario of the paper's Table 1 (f32 1024x1024 = 4 MB).
    DeviceManager &mgr = DeviceManager::instance();
    const int64_t mb4 = 4 * 1024 * 1024;

    // line 0: x0 on "GPU": 4 MB GPU, 0 CPU.
    Tensor x0 = Tensor::rand({1024, 1024}, rng, Device::gpu(0));
    EXPECT_EQ(mgr.stats(Device::gpu(0)).currentBytes, mb4);
    EXPECT_EQ(mgr.stats(Device::cpu()).currentBytes, 0);

    // line 1: view costs no GPU memory.
    Tensor x1 = x0.view({-1, 1});
    EXPECT_EQ(mgr.stats(Device::gpu(0)).currentBytes, mb4);

    // line 2: y0 = x0.to(cpu): 4 MB CPU.
    Tensor y0 = x0.to(Device::cpu());
    EXPECT_EQ(mgr.stats(Device::cpu()).currentBytes, mb4);

    // line 3: y1 = x1.to(cpu): CPU doubles to 8 MB -- the redundancy
    // the marshaling layer removes.
    Tensor y1 = x1.to(Device::cpu());
    EXPECT_EQ(mgr.stats(Device::cpu()).currentBytes, 2 * mb4);
    EXPECT_NE(y0.storageId(), y1.storageId());

    // Both transfers appear in the ledger.
    EXPECT_EQ(mgr.ledger().d2hTransactions, 2);
    EXPECT_EQ(mgr.ledger().d2hBytes, 2 * mb4);
}

TEST_F(TensorTest, ToSameDeviceIsNoCopy)
{
    Tensor t = Tensor::rand({8, 8}, rng);
    Tensor same = t.to(Device::cpu());
    EXPECT_EQ(t.storageId(), same.storageId());
    EXPECT_EQ(DeviceManager::instance().ledger().totalTransactions(), 0);
}

TEST_F(TensorTest, TransposeStridesAndContiguous)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {2, 3});
    Tensor tt = t.transpose(0, 1);
    EXPECT_EQ(tt.shape(), (Shape{3, 2}));
    EXPECT_EQ(tt.storageId(), t.storageId());
    EXPECT_FALSE(tt.isContiguous());
    EXPECT_EQ(tt.at({0, 1}), 4.0f);
    EXPECT_EQ(tt.at({2, 0}), 3.0f);

    Tensor c = tt.contiguous();
    EXPECT_TRUE(c.isContiguous());
    EXPECT_NE(c.storageId(), t.storageId());
    EXPECT_EQ(c.flatAt(1), 4.0f);
}

TEST_F(TensorTest, SliceSelectShareStorage)
{
    Tensor t = Tensor::fromVector({0, 1, 2, 3, 4, 5, 6, 7}, {4, 2});
    Tensor s = t.slice(0, 1, 3);
    EXPECT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s.storageId(), t.storageId());
    EXPECT_EQ(s.at({0, 0}), 2.0f);

    Tensor sel = t.select(1, 1);
    EXPECT_EQ(sel.shape(), (Shape{4}));
    EXPECT_EQ(sel.flatAt(2), 5.0f);
    EXPECT_EQ(sel.storageId(), t.storageId());
}

TEST_F(TensorTest, PermuteSqueezeUnsqueeze)
{
    Tensor t = Tensor::rand({2, 3, 4}, rng);
    Tensor p = t.permute({2, 0, 1});
    EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
    EXPECT_EQ(p.at({1, 0, 2}), t.at({0, 2, 1}));

    Tensor u = t.unsqueeze(1);
    EXPECT_EQ(u.shape(), (Shape{2, 1, 3, 4}));
    Tensor q = u.squeeze(1);
    EXPECT_EQ(q.shape(), (Shape{2, 3, 4}));
    EXPECT_EQ(q.storageId(), t.storageId());
}

TEST_F(TensorTest, ViewInference)
{
    Tensor t = Tensor::rand({6, 4}, rng);
    Tensor v = t.view({-1, 8});
    EXPECT_EQ(v.shape(), (Shape{3, 8}));
    EXPECT_THROW(t.view({5, -1}), FatalError);
}

TEST_F(TensorTest, CloneIsDeep)
{
    Tensor t = Tensor::rand({3, 3}, rng);
    Tensor c = t.clone();
    EXPECT_NE(c.storageId(), t.storageId());
    c.setFlatAt(0, -1.0f);
    EXPECT_NE(t.flatAt(0), -1.0f);
}

TEST_F(TensorTest, DtypeConversionRoundTrip)
{
    Tensor t = Tensor::fromVector({0.5f, -1.25f, 3.0f}, {3});
    Tensor b = t.to(DType::kBf16);
    EXPECT_EQ(b.dtype(), DType::kBf16);
    // These values are bf16-exact.
    EXPECT_EQ(b.flatAt(0), 0.5f);
    EXPECT_EQ(b.flatAt(1), -1.25f);
    Tensor back = b.to(DType::kF32);
    EXPECT_TRUE(allclose(back, t));
    // bf16 storage is half the size.
    EXPECT_EQ(b.storageBytes(), t.storageBytes() / 2);
}

TEST_F(TensorTest, NonContiguousToDevice)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4}, {2, 2}, Device::gpu(0));
    Tensor tt = t.transpose(0, 1);
    Tensor cpu = tt.to(Device::cpu());
    EXPECT_TRUE(cpu.isContiguous());
    EXPECT_EQ(cpu.at({0, 1}), 3.0f); // logical content preserved
}

/** @p v's logical contents, element by element through flatAt. */
Tensor
flatAtCopy(const Tensor &v)
{
    Tensor ref = Tensor::empty(v.shape(), v.dtype());
    for (int64_t i = 0; i < v.numel(); ++i) {
        ref.setFlatAt(i, v.flatAt(i));
    }
    return ref;
}

/** First byte of @p t's data (offset applied). */
const std::byte *
firstByte(const Tensor &t)
{
    return t.storagePtr()->data() + t.offset() * dtypeSize(t.dtype());
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.isContiguous() && b.isContiguous() && a.shape() == b.shape() &&
           a.dtype() == b.dtype() &&
           std::memcmp(firstByte(a), firstByte(b),
                       static_cast<size_t>(a.numel()) *
                           dtypeSize(a.dtype())) == 0;
}

TEST_F(TensorTest, StridedCopiesMatchElementwiseReference)
{
    for (DType dt : {DType::kF32, DType::kBf16, DType::kU16}) {
        auto make = [&](Shape shape) {
            Tensor t = Tensor::empty(shape, dt);
            for (int64_t i = 0; i < t.numel(); ++i) {
                t.setFlatAt(i, dt == DType::kU16
                                   ? static_cast<float>(rng.randint(0, 65535))
                                   : rng.normal(0.0f, 1.0f));
            }
            return t;
        };
        Tensor a = make({33, 65}), wide = make({1, 70}), tall = make({70, 1});
        Tensor cube = make({4, 5, 6});
        std::vector<std::pair<const char *, Tensor>> views = {
            {"33x65 transpose", a.transpose(0, 1)},
            {"1xN transpose", wide.transpose(0, 1)},
            {"Nx1 transpose", tall.transpose(0, 1)},
            {"column slice", a.slice(1, 3, 64)},
            {"row slice", a.slice(0, 5, 30)},
            {"sliced transpose", a.slice(0, 2, 31).transpose(0, 1)},
            {"column select", a.select(1, 7)},
            {"3-d permute", cube.permute({2, 0, 1})},
            {"sliced 3-d permute", cube.slice(1, 1, 4).permute({1, 2, 0})},
        };
        for (const auto &[name, v] : views) {
            SCOPED_TRACE(::testing::Message()
                         << name << " " << dtypeName(dt));
            Tensor ref = flatAtCopy(v);
            EXPECT_TRUE(sameBytes(v.contiguous(), ref));
            EXPECT_TRUE(sameBytes(v.clone(), ref));
            Tensor moved = v.to(Device::gpu(0));
            EXPECT_EQ(moved.device(), Device::gpu(0));
            EXPECT_TRUE(sameBytes(moved.to(Device::cpu()), ref));
        }
    }
}

TEST_F(TensorTest, WrapStorageReconstructsViews)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {2, 3});
    Tensor wrapped = Tensor::wrapStorage(t.storagePtr(), {3, 2}, {1, 3},
                                         0, DType::kF32);
    // Same bytes interpreted with transpose strides.
    EXPECT_EQ(wrapped.at({0, 1}), 4.0f);
}

TEST_F(TensorTest, IntTensors)
{
    Tensor idx = Tensor::fromIndices({5, 3, 1}, {3});
    EXPECT_EQ(idx.dtype(), DType::kI64);
    EXPECT_EQ(idx.flatAtInt(1), 3);
    idx.setFlatAtInt(1, 9);
    EXPECT_EQ(idx.flatAtInt(1), 9);
    std::vector<int64_t> v = idx.toIntVector();
    EXPECT_EQ(v, (std::vector<int64_t>{5, 9, 1}));
}

TEST_F(TensorTest, U16Storage)
{
    Tensor u = Tensor::empty({4}, DType::kU16);
    u.setFlatAtInt(0, 65535);
    u.setFlatAtInt(1, 1234);
    EXPECT_EQ(u.flatAtInt(0), 65535);
    EXPECT_EQ(u.flatAtInt(1), 1234);
    EXPECT_EQ(u.storageBytes(), 8);
}

} // namespace
} // namespace edkm
