/**
 * @file
 * Autograd tests: finite-difference gradient checks for every op, graph
 * mechanics (fan-out, accumulation, detach, no-grad), and the saved-
 * tensor hook extension point.
 */

#include <cmath>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>

#include "autograd/engine.h"
#include "autograd/functional.h"
#include "autograd/node.h"
#include "device/device_manager.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace edkm {
namespace {

/**
 * Central-difference gradient check: compares autograd's dL/dx against
 * (L(x+h) - L(x-h)) / 2h elementwise for a scalar loss fn.
 */
void
gradCheck(const std::function<Variable(const Variable &)> &fn,
          Tensor x0, float h = 1e-3f, float tol = 2e-2f)
{
    Variable x(x0.clone(), /*requires_grad=*/true);
    Variable loss = fn(x);
    ASSERT_EQ(loss.data().numel(), 1) << "gradCheck needs a scalar loss";
    backward(loss);
    ASSERT_TRUE(x.grad().defined());

    int64_t n = x0.numel();
    for (int64_t i = 0; i < n; ++i) {
        float orig = x0.flatAt(i);
        Tensor xp = x0.clone();
        xp.setFlatAt(i, orig + h);
        Tensor xm = x0.clone();
        xm.setFlatAt(i, orig - h);
        NoGradGuard ng;
        float lp = fn(Variable(xp, false)).data().item();
        float lm = fn(Variable(xm, false)).data().item();
        float fd = (lp - lm) / (2.0f * h);
        float ag = x.grad().flatAt(i);
        ASSERT_NEAR(ag, fd, tol * std::max(1.0f, std::fabs(fd)))
            << "element " << i;
    }
}

Rng &
rng()
{
    static Rng r(321);
    return r;
}

TEST(Autograd, AddSubMulDiv)
{
    Tensor b0 = Tensor::randn({3, 2}, rng());
    Variable b(b0, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::mul(af::add(x, b), af::sub(x, b)));
    }, Tensor::randn({3, 2}, rng()));
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::div(b, af::addScalar(af::square(x), 1.0f)));
    }, Tensor::randn({3, 2}, rng()));
}

TEST(Autograd, BroadcastGradsReduceCorrectly)
{
    // [2,3] + [1,3]: grad of the row must be summed over rows.
    Tensor row0 = Tensor::randn({1, 3}, rng());
    Tensor m0 = Tensor::randn({2, 3}, rng());
    Variable m(m0, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::add(m, x)));
    }, row0);
}

TEST(Autograd, UnaryOps)
{
    gradCheck([](const Variable &x) {
        return af::sumAll(af::exp(x));
    }, Tensor::randn({4}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::log(af::addScalar(af::square(x), 1.5f)));
    }, Tensor::randn({4}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::sqrt(af::addScalar(af::square(x), 2.0f)));
    }, Tensor::randn({4}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::silu(x));
    }, Tensor::randn({5}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::sigmoid(x));
    }, Tensor::randn({5}, rng()));
}

TEST(Autograd, MatmulBothSides)
{
    Tensor a0 = Tensor::randn({3, 4}, rng());
    Tensor b0 = Tensor::randn({4, 2}, rng());
    Variable bc(b0, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::matmul(x, bc)));
    }, a0);
    Variable ac(a0, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::matmul(ac, x)));
    }, b0);
}

TEST(Autograd, BatchedMatmulBroadcastRhsGrad)
{
    Tensor a0 = Tensor::randn({2, 3, 4}, rng());
    Tensor b0 = Tensor::randn({4, 2}, rng());
    Variable ac(a0, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::matmul(ac, x)));
    }, b0);
}

TEST(Autograd, SoftmaxAndLogSoftmax)
{
    Tensor w0 = Tensor::randn({2, 5}, rng());
    Tensor target = Tensor::randn({2, 5}, rng());
    Variable t(target, false);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::sub(af::softmaxLastDim(x), t)));
    }, w0);
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::mul(af::logSoftmaxLastDim(x), t));
    }, w0, 1e-3f, 3e-2f);
}

TEST(Autograd, Reductions)
{
    gradCheck([](const Variable &x) {
        return af::meanAll(af::square(x));
    }, Tensor::randn({3, 3}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::square(af::sumDim(x, 0)));
    }, Tensor::randn({3, 4}, rng()));
    gradCheck([](const Variable &x) {
        return af::sumAll(af::square(af::meanDim(x, 1, true)));
    }, Tensor::randn({3, 4}, rng()));
}

TEST(Autograd, ViewOpsRouteGradients)
{
    Tensor x0 = Tensor::randn({2, 6}, rng());
    gradCheck([](const Variable &x) {
        Variable v = af::view(x, {3, 4});
        return af::sumAll(af::square(af::transpose(v, 0, 1)));
    }, x0);
    gradCheck([](const Variable &x) {
        return af::sumAll(af::square(af::slice(x, 1, 1, 4)));
    }, x0);
    gradCheck([](const Variable &x) {
        return af::sumAll(af::square(af::select(x, 0, 1)));
    }, x0);
    gradCheck([](const Variable &x) {
        Variable p = af::permute(af::view(x, {2, 3, 2}), {2, 0, 1});
        return af::sumAll(af::square(af::contiguous(p)));
    }, x0);
}

TEST(Autograd, ViewSharesStorageWithInput)
{
    Variable x(Tensor::randn({4, 4}, rng()), true);
    Variable v = af::view(x, {16});
    Variable t = af::transpose(x, 0, 1);
    EXPECT_EQ(v.data().storageId(), x.data().storageId());
    EXPECT_EQ(t.data().storageId(), x.data().storageId());
    // Graph metadata marks them storage-invariant.
    EXPECT_TRUE(v.gradFn()->storageInvariant());
    EXPECT_TRUE(t.gradFn()->storageInvariant());
    EXPECT_FALSE(af::square(x).gradFn()->storageInvariant());
}

TEST(Autograd, GatherRowsGrad)
{
    Tensor table0 = Tensor::randn({5, 3}, rng());
    Tensor idx = Tensor::fromIndices({4, 0, 4, 2}, {4});
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::gatherRows(x, idx)));
    }, table0);
}

TEST(Autograd, CrossEntropyGrad)
{
    Tensor logits0 = Tensor::randn({4, 6}, rng());
    Tensor targets = Tensor::fromIndices({1, 5, 0, 3}, {4});
    gradCheck([&](const Variable &x) {
        return af::crossEntropy(x, targets);
    }, logits0);
}

TEST(Autograd, CrossEntropyValueMatchesManual)
{
    Tensor logits = Tensor::fromVector({2, 0, 0, 0, 3, 0}, {2, 3});
    Tensor targets = Tensor::fromIndices({0, 1}, {2});
    Variable loss = af::crossEntropy(Variable(logits, true), targets);
    Tensor lp = logSoftmaxLastDim(logits);
    float expect = -(lp.at({0, 0}) + lp.at({1, 1})) / 2.0f;
    EXPECT_NEAR(loss.data().item(), expect, 1e-6);
}

TEST(Autograd, RopeGradAndInverse)
{
    int64_t s = 3, d = 4;
    Rng r(9);
    Tensor cos = Tensor::rand({s, d}, r);
    Tensor sin = Tensor::rand({s, d}, r);
    Tensor x0 = Tensor::randn({2, s, d}, rng());
    gradCheck([&](const Variable &x) {
        return af::sumAll(af::square(af::rope(x, cos, sin)));
    }, x0);
}

TEST(Autograd, FanOutAccumulates)
{
    // y = x*x + x*x reuses x twice through two paths.
    Variable x(Tensor::fromVector({2.0f}, {1}), true);
    Variable y = af::add(af::mul(x, x), af::mul(x, x));
    backward(y);
    EXPECT_NEAR(x.grad().item(), 8.0f, 1e-5); // d/dx 2x^2 = 4x
}

TEST(Autograd, GradAccumulatesAcrossBackwards)
{
    Variable x(Tensor::fromVector({3.0f}, {1}), true);
    backward(af::square(x));
    backward(af::square(x));
    EXPECT_NEAR(x.grad().item(), 12.0f, 1e-5); // 6 + 6
    x.zeroGrad();
    EXPECT_FALSE(x.grad().defined());
}

TEST(Autograd, NoGradSkipsGraph)
{
    Variable x(Tensor::fromVector({1.0f}, {1}), true);
    NoGradGuard ng;
    Variable y = af::square(x);
    EXPECT_EQ(y.gradFn(), nullptr);
    EXPECT_FALSE(y.requiresGrad());
}

TEST(Autograd, DetachStopsGradient)
{
    Variable x(Tensor::fromVector({2.0f}, {1}), true);
    Variable y = af::square(x).detach();
    Variable z = af::mul(y, y);
    EXPECT_FALSE(z.requiresGrad());
}

TEST(Autograd, BackwardOnNonScalarWithSeed)
{
    Variable x(Tensor::fromVector({1, 2, 3}, {3}), true);
    Variable y = af::square(x);
    backward(y, Tensor::fromVector({1, 10, 100}, {3}));
    EXPECT_NEAR(x.grad().flatAt(0), 2.0f, 1e-5);
    EXPECT_NEAR(x.grad().flatAt(1), 40.0f, 1e-5);
    EXPECT_NEAR(x.grad().flatAt(2), 600.0f, 1e-5);
}

/** Minimal hooks that count pack/unpack and store tensors as-is. */
class CountingHooks : public SavedTensorHooks
{
  public:
    std::shared_ptr<void>
    pack(const SavedSource &src) override
    {
        ++packs;
        return std::make_shared<Tensor>(src.tensor);
    }

    Tensor
    unpack(const std::shared_ptr<void> &h) override
    {
        ++unpacks;
        return *std::static_pointer_cast<Tensor>(h);
    }

    int packs = 0;
    int unpacks = 0;
};

TEST(Autograd, ConstantInputGetsNoGradient)
{
    // loss = sum(x W^T): with x constant the backward computes only
    // dW = g^T x, one [m,k]x[k,n]-sized product instead of two.
    const int64_t m = 8, k = 32, n = 16;
    Tensor x0 = Tensor::randn({m, k}, rng());
    Tensor w0 = Tensor::randn({n, k}, rng());
    DeviceManager &mgr = DeviceManager::instance();
    auto run = [&](bool x_grad) {
        Variable x(x0.clone(), x_grad);
        Variable w(w0.clone(), true);
        Variable loss = af::sumAll(af::matmul(x, af::transpose(w, 0, 1)));
        mgr.resetStats();
        backward(loss);
        EXPECT_EQ(x.grad().defined(), x_grad);
        return std::make_pair(mgr.simulatedSeconds(), w.grad());
    };
    auto [both_s, both_grad] = run(true);
    auto [const_s, const_grad] = run(false);
    double product_s = mgr.costModel().computeSeconds(
        2.0 * static_cast<double>(m * k * n), Device::cpu());
    EXPECT_DOUBLE_EQ(both_s, 2.0 * product_s);
    EXPECT_DOUBLE_EQ(const_s, product_s);
    std::vector<float> a = both_grad.toVector(), b = const_grad.toVector();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(Autograd, SavedTensorHooksInterceptSaves)
{
    CountingHooks hooks;
    Variable x(Tensor::randn({3, 3}, rng()), true);
    Variable loss;
    {
        SavedTensorHooksGuard guard(&hooks);
        // mul saves both operands; softmax saves its output.
        loss = af::sumAll(af::mul(af::softmaxLastDim(x), x));
    }
    EXPECT_GE(hooks.packs, 3);
    int packs_before_backward = hooks.packs;
    backward(loss);
    EXPECT_EQ(hooks.packs, packs_before_backward);
    EXPECT_GE(hooks.unpacks, 3);
    EXPECT_TRUE(x.grad().defined());
}

TEST(Autograd, HooksStackInnermostWins)
{
    CountingHooks outer, inner;
    Variable x(Tensor::randn({2, 2}, rng()), true);
    {
        SavedTensorHooksGuard g1(&outer);
        {
            SavedTensorHooksGuard g2(&inner);
            af::square(x);
        }
        af::square(x);
    }
    EXPECT_EQ(inner.packs, 1);
    EXPECT_EQ(outer.packs, 1);
}

} // namespace
} // namespace edkm
