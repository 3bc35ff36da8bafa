#include "autograd/functional.h"

#include <cmath>

#include "autograd/node.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace edkm {
namespace af {

namespace {

/** Reduce a broadcast gradient back to @p target_shape. */
Tensor
reduceGradToShape(const Tensor &grad, const Shape &target_shape)
{
    if (grad.shape() == target_shape) {
        return grad;
    }
    Tensor g = grad;
    // Sum away leading extra dims.
    while (g.dim() > static_cast<int64_t>(target_shape.size())) {
        g = edkm::sumDim(g, 0, /*keepdim=*/false);
    }
    // Sum dims where the target is 1 but grad is larger.
    for (int64_t d = 0; d < g.dim(); ++d) {
        if (target_shape[static_cast<size_t>(d)] == 1 && g.size(d) != 1) {
            g = edkm::sumDim(g, d, /*keepdim=*/true);
        }
    }
    EDKM_ASSERT(g.shape() == target_shape,
                "reduceGradToShape: cannot reduce");
    return g;
}

// ------------------------------------------------------------------
// Node definitions
// ------------------------------------------------------------------

class AddNode : public Node
{
  public:
    AddNode(const Variable &a, const Variable &b)
        : Node("add"), sa_(a.data().shape()), sb_(b.data().shape())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {reduceGradToShape(g, sa_), reduceGradToShape(g, sb_)};
    }

  private:
    Shape sa_, sb_;
};

class SubNode : public Node
{
  public:
    SubNode(const Variable &a, const Variable &b)
        : Node("sub"), sa_(a.data().shape()), sb_(b.data().shape())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor ga, gb;
        if (needsInputGrad(0)) {
            ga = reduceGradToShape(g, sa_);
        }
        if (needsInputGrad(1)) {
            gb = reduceGradToShape(edkm::neg(g), sb_);
        }
        return {ga, gb};
    }

  private:
    Shape sa_, sb_;
};

class MulNode : public Node
{
  public:
    MulNode(const Variable &a, const Variable &b)
        : Node("mul"), sa_(a.data().shape()), sb_(b.data().shape()),
          a_(save(a)), b_(save(b))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor ga, gb;
        if (needsInputGrad(0)) {
            ga = reduceGradToShape(edkm::mul(g, b_.unpack()), sa_);
        }
        if (needsInputGrad(1)) {
            gb = reduceGradToShape(edkm::mul(g, a_.unpack()), sb_);
        }
        return {ga, gb};
    }

  private:
    Shape sa_, sb_;
    SavedTensor a_, b_;
};

class DivNode : public Node
{
  public:
    DivNode(const Variable &a, const Variable &b)
        : Node("div"), sa_(a.data().shape()), sb_(b.data().shape()),
          a_(save(a)), b_(save(b))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor b = b_.unpack();
        Tensor ga, gb;
        if (needsInputGrad(0)) {
            ga = reduceGradToShape(edkm::div(g, b), sa_);
        }
        if (needsInputGrad(1)) {
            Tensor a = a_.unpack();
            gb = reduceGradToShape(
                edkm::neg(edkm::div(edkm::mul(g, a), edkm::mul(b, b))),
                sb_);
        }
        return {ga, gb};
    }

  private:
    Shape sa_, sb_;
    SavedTensor a_, b_;
};

class AddScalarNode : public Node
{
  public:
    AddScalarNode() : Node("add_scalar") {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {g};
    }
};

class MulScalarNode : public Node
{
  public:
    explicit MulScalarNode(float s) : Node("mul_scalar"), s_(s) {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {edkm::mulScalar(g, s_)};
    }

  private:
    float s_;
};

class NegNode : public Node
{
  public:
    NegNode() : Node("neg") {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {edkm::neg(g)};
    }
};

class ExpNode : public Node
{
  public:
    ExpNode() : Node("exp") {}

    void
    postBuild(const Variable &out) override
    {
        out_ = save(out);
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {edkm::mul(g, out_.unpack())};
    }

  private:
    SavedTensor out_;
};

class LogNode : public Node
{
  public:
    explicit LogNode(const Variable &a) : Node("log"), a_(save(a)) {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {edkm::div(g, a_.unpack())};
    }

  private:
    SavedTensor a_;
};

class SqrtNode : public Node
{
  public:
    SqrtNode() : Node("sqrt") {}

    void
    postBuild(const Variable &out) override
    {
        out_ = save(out);
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor out = out_.unpack();
        return {edkm::div(edkm::mulScalar(g, 0.5f), out)};
    }

  private:
    SavedTensor out_;
};

class SquareNode : public Node
{
  public:
    explicit SquareNode(const Variable &a) : Node("square"), a_(save(a)) {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {edkm::mul(g, edkm::mulScalar(a_.unpack(), 2.0f))};
    }

  private:
    SavedTensor a_;
};

class SiluNode : public Node
{
  public:
    explicit SiluNode(const Variable &a) : Node("silu"), a_(save(a)) {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor x = a_.unpack();
        Tensor s = edkm::sigmoid(x);
        // d/dx silu = s * (1 + x * (1 - s))
        Tensor one_minus_s = edkm::addScalar(edkm::neg(s), 1.0f);
        Tensor d = edkm::mul(s, edkm::addScalar(edkm::mul(x, one_minus_s),
                                                1.0f));
        return {edkm::mul(g, d)};
    }

  private:
    SavedTensor a_;
};

class SigmoidNode : public Node
{
  public:
    SigmoidNode() : Node("sigmoid") {}

    void
    postBuild(const Variable &out) override
    {
        out_ = save(out);
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor y = out_.unpack();
        Tensor d = edkm::mul(y, edkm::addScalar(edkm::neg(y), 1.0f));
        return {edkm::mul(g, d)};
    }

  private:
    SavedTensor out_;
};

class ReluNode : public Node
{
  public:
    explicit ReluNode(const Variable &a) : Node("relu"), a_(save(a)) {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor x = a_.unpack();
        Tensor gate = Tensor::empty(x.shape(), DType::kF32, x.device());
        int64_t n = x.numel();
        for (int64_t i = 0; i < n; ++i) {
            gate.setFlatAt(i, x.flatAt(i) > 0.0f ? 1.0f : 0.0f);
        }
        return {edkm::mul(g, gate)};
    }

  private:
    SavedTensor a_;
};

class MatmulNode : public Node
{
  public:
    MatmulNode(const Variable &a, const Variable &b)
        : Node("matmul"), a_(save(a)), b_(save(b)),
          sa_(a.data().shape()), sb_(b.data().shape())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor ga, gb;
        // grad_a = g @ b^T ; grad_b = a^T @ g (collapse batch if b is 2-d)
        if (needsInputGrad(0)) {
            ga = edkm::matmul(g, b_.unpack().transpose(-2, -1));
        }
        if (!needsInputGrad(1)) {
            return {ga, gb};
        }
        Tensor a = a_.unpack();
        if (a.dim() == 3 && sb_.size() == 2) {
            int64_t k = a.size(2), n = g.size(-1);
            Tensor a2 = a.reshape({-1, k});
            Tensor g2 = g.isContiguous() ? g.view({-1, n})
                                         : g.contiguous().view({-1, n});
            gb = edkm::matmul(a2.transpose(0, 1), g2);
        } else {
            gb = edkm::matmul(a.transpose(-2, -1), g);
        }
        return {ga, gb};
    }

  private:
    SavedTensor a_, b_;
    Shape sa_, sb_;
};

class SoftmaxNode : public Node
{
  public:
    SoftmaxNode() : Node("softmax") {}

    void
    postBuild(const Variable &out) override
    {
        out_ = save(out);
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor y = out_.unpack();
        Tensor gy = edkm::mul(g, y);
        Tensor s = edkm::sumDim(gy, -1, /*keepdim=*/true);
        return {edkm::sub(gy, edkm::mul(y, s))};
    }

  private:
    SavedTensor out_;
};

class LogSoftmaxNode : public Node
{
  public:
    LogSoftmaxNode() : Node("log_softmax") {}

    void
    postBuild(const Variable &out) override
    {
        out_ = save(out);
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor y = out_.unpack();
        Tensor s = edkm::sumDim(g, -1, /*keepdim=*/true);
        return {edkm::sub(g, edkm::mul(edkm::expT(y), s))};
    }

  private:
    SavedTensor out_;
};

class SumAllNode : public Node
{
  public:
    explicit SumAllNode(const Variable &a)
        : Node("sum_all"), shape_(a.data().shape()),
          dev_(a.data().device())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {Tensor::full(shape_, g.item(), DType::kF32, dev_)};
    }

  private:
    Shape shape_;
    Device dev_;
};

class MeanAllNode : public Node
{
  public:
    explicit MeanAllNode(const Variable &a)
        : Node("mean_all"), shape_(a.data().shape()),
          dev_(a.data().device()), n_(a.data().numel())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {Tensor::full(shape_, g.item() / static_cast<float>(n_),
                             DType::kF32, dev_)};
    }

  private:
    Shape shape_;
    Device dev_;
    int64_t n_;
};

class SumDimNode : public Node
{
  public:
    SumDimNode(const Variable &a, int64_t d, bool keepdim, float scale)
        : Node("sum_dim"), shape_(a.data().shape()), d_(d),
          keepdim_(keepdim), scale_(scale)
    {
        if (d_ < 0) {
            d_ += static_cast<int64_t>(shape_.size());
        }
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor gk = keepdim_ ? g : g.unsqueeze(d_);
        Tensor out = edkm::broadcastTo(gk, shape_);
        if (scale_ != 1.0f) {
            out = edkm::mulScalar(out, scale_);
        }
        return {out};
    }

  private:
    Shape shape_;
    int64_t d_;
    bool keepdim_;
    float scale_; ///< 1/dim for mean, 1 for sum
};

/** Shared implementation for all storage-invariant view ops. */
class ViewOpNode : public Node
{
  public:
    ViewOpNode(const Variable &a, ViewSpec spec)
        : Node(spec.toString(), spec), in_shape_(a.data().shape())
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        const ViewSpec &spec = *viewSpec();
        switch (spec.kind) {
          case ViewSpec::Kind::kView:
            return {g.reshape(in_shape_)};
          case ViewSpec::Kind::kTranspose:
            return {g.transpose(spec.d0, spec.d1).contiguous()};
          case ViewSpec::Kind::kPermute:
            return {g.permute(spec.inverse().shapeArg).contiguous()};
          case ViewSpec::Kind::kSlice: {
            Tensor full = Tensor::zeros(in_shape_, DType::kF32,
                                        g.device());
            copyIntoView(full.slice(spec.d0, spec.start, spec.end), g);
            return {full};
          }
          case ViewSpec::Kind::kSelect: {
            Tensor full = Tensor::zeros(in_shape_, DType::kF32,
                                        g.device());
            copyIntoView(full.select(spec.d0, spec.start), g);
            return {full};
          }
          case ViewSpec::Kind::kSqueeze:
            return {g.unsqueeze(spec.d0)};
          case ViewSpec::Kind::kUnsqueeze:
            return {g.squeeze(spec.d0)};
        }
        panic("ViewOpNode: bad kind");
    }

  private:
    Shape in_shape_;
};

class ContiguousNode : public Node
{
  public:
    ContiguousNode() : Node("contiguous") {}

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {g};
    }
};

class GatherRowsNode : public Node
{
  public:
    GatherRowsNode(const Variable &table, const Tensor &indices)
        : Node("gather_rows"), indices_(indices),
          rows_(table.data().size(0))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        return {scatterAddRows(g, indices_, rows_)};
    }

  private:
    Tensor indices_;
    int64_t rows_;
};

class CrossEntropyNode : public Node
{
  public:
    CrossEntropyNode(const Variable &logits, const Tensor &targets,
                     Tensor log_probs)
        : Node("cross_entropy"), targets_(targets),
          logp_(save(log_probs, nullptr)),
          n_(logits.data().size(0))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        Tensor logp = logp_.unpack();
        Tensor probs = edkm::expT(logp);
        int64_t n = probs.size(0);
        float scale = g.item() / static_cast<float>(n_);
        // grad = (softmax - onehot) * scale
        Tensor out = edkm::mulScalar(probs, scale);
        for (int64_t i = 0; i < n; ++i) {
            int64_t t = targets_.flatAtInt(i);
            out.setAt({i, t}, out.at({i, t}) - scale);
        }
        return {out};
    }

  private:
    Tensor targets_;
    SavedTensor logp_;
    int64_t n_;
};

/** rotateHalf([x1, x2]) = [-x2, x1] along the last dim. */
Tensor
rotateHalf(const Tensor &x, bool transpose_op)
{
    Tensor xc = x.isContiguous() ? x : x.contiguous();
    int64_t d = xc.size(-1);
    EDKM_CHECK(d % 2 == 0, "rotateHalf: last dim must be even");
    int64_t h = d / 2;
    int64_t rows = xc.numel() / d;
    Tensor out = Tensor::empty(xc.shape(), DType::kF32, x.device());
    const float *pi = xc.rawData<float>();
    float *po = out.rawData<float>();
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = pi + r * d;
        float *orow = po + r * d;
        if (!transpose_op) {
            for (int64_t i = 0; i < h; ++i) {
                orow[i] = -row[h + i];
                orow[h + i] = row[i];
            }
        } else {
            // R^T([g1,g2]) = [g2, -g1]
            for (int64_t i = 0; i < h; ++i) {
                orow[i] = row[h + i];
                orow[h + i] = -row[i];
            }
        }
    }
    return out;
}

class RopeNode : public Node
{
  public:
    RopeNode(Tensor cos, Tensor sin)
        : Node("rope"), cos_(std::move(cos)), sin_(std::move(sin))
    {
    }

    std::vector<Tensor>
    backward(const Tensor &g) override
    {
        // out = x*cos + R(x)*sin  =>  grad_x = g*cos + R^T(g*sin)
        Tensor gx = edkm::add(edkm::mul(g, cos_),
                              rotateHalf(edkm::mul(g, sin_), true));
        return {gx};
    }

  private:
    Tensor cos_, sin_;
};

} // namespace

// ------------------------------------------------------------------
// Public functional API
// ------------------------------------------------------------------

Variable
add(const Variable &a, const Variable &b)
{
    return makeResult(edkm::add(a.data(), b.data()), {a, b},
                      [&] { return std::make_shared<AddNode>(a, b); });
}

Variable
sub(const Variable &a, const Variable &b)
{
    return makeResult(edkm::sub(a.data(), b.data()), {a, b},
                      [&] { return std::make_shared<SubNode>(a, b); });
}

Variable
mul(const Variable &a, const Variable &b)
{
    return makeResult(edkm::mul(a.data(), b.data()), {a, b},
                      [&] { return std::make_shared<MulNode>(a, b); });
}

Variable
div(const Variable &a, const Variable &b)
{
    return makeResult(edkm::div(a.data(), b.data()), {a, b},
                      [&] { return std::make_shared<DivNode>(a, b); });
}

Variable
addScalar(const Variable &a, float s)
{
    return makeResult(edkm::addScalar(a.data(), s), {a},
                      [&] { return std::make_shared<AddScalarNode>(); });
}

Variable
mulScalar(const Variable &a, float s)
{
    return makeResult(edkm::mulScalar(a.data(), s), {a},
                      [&] { return std::make_shared<MulScalarNode>(s); });
}

Variable
neg(const Variable &a)
{
    return makeResult(edkm::neg(a.data()), {a},
                      [&] { return std::make_shared<NegNode>(); });
}

Variable
exp(const Variable &a)
{
    return makeResult(edkm::expT(a.data()), {a},
                      [&] { return std::make_shared<ExpNode>(); });
}

Variable
log(const Variable &a)
{
    return makeResult(edkm::logT(a.data()), {a},
                      [&] { return std::make_shared<LogNode>(a); });
}

Variable
sqrt(const Variable &a)
{
    return makeResult(edkm::sqrtT(a.data()), {a},
                      [&] { return std::make_shared<SqrtNode>(); });
}

Variable
square(const Variable &a)
{
    return makeResult(edkm::square(a.data()), {a},
                      [&] { return std::make_shared<SquareNode>(a); });
}

Variable
silu(const Variable &a)
{
    return makeResult(edkm::silu(a.data()), {a},
                      [&] { return std::make_shared<SiluNode>(a); });
}

Variable
sigmoid(const Variable &a)
{
    return makeResult(edkm::sigmoid(a.data()), {a},
                      [&] { return std::make_shared<SigmoidNode>(); });
}

Variable
relu(const Variable &a)
{
    return makeResult(edkm::relu(a.data()), {a},
                      [&] { return std::make_shared<ReluNode>(a); });
}

Variable
matmul(const Variable &a, const Variable &b)
{
    return makeResult(edkm::matmul(a.data(), b.data()), {a, b},
                      [&] { return std::make_shared<MatmulNode>(a, b); });
}

Variable
softmaxLastDim(const Variable &a)
{
    return makeResult(edkm::softmaxLastDim(a.data()), {a},
                      [&] { return std::make_shared<SoftmaxNode>(); });
}

Variable
logSoftmaxLastDim(const Variable &a)
{
    return makeResult(edkm::logSoftmaxLastDim(a.data()), {a},
                      [&] { return std::make_shared<LogSoftmaxNode>(); });
}

Variable
sumAll(const Variable &a)
{
    return makeResult(edkm::sumAll(a.data()), {a},
                      [&] { return std::make_shared<SumAllNode>(a); });
}

Variable
meanAll(const Variable &a)
{
    return makeResult(edkm::meanAll(a.data()), {a},
                      [&] { return std::make_shared<MeanAllNode>(a); });
}

Variable
sumDim(const Variable &a, int64_t d, bool keepdim)
{
    return makeResult(edkm::sumDim(a.data(), d, keepdim), {a}, [&] {
        return std::make_shared<SumDimNode>(a, d, keepdim, 1.0f);
    });
}

Variable
meanDim(const Variable &a, int64_t d, bool keepdim)
{
    int64_t dd = d < 0 ? d + a.data().dim() : d;
    float scale = 1.0f / static_cast<float>(a.data().size(dd));
    return makeResult(edkm::meanDim(a.data(), d, keepdim), {a}, [&] {
        return std::make_shared<SumDimNode>(a, d, keepdim, scale);
    });
}

namespace {

Variable
viewOp(const Variable &a, Tensor result, ViewSpec spec)
{
    spec.inputShape = a.data().shape();
    return makeResult(std::move(result), {a}, [&] {
        return std::make_shared<ViewOpNode>(a, spec);
    });
}

} // namespace

Variable
view(const Variable &a, Shape shape)
{
    Tensor out = a.data().view(shape);
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kView;
    spec.shapeArg = out.shape(); // resolved shape (no -1)
    return viewOp(a, std::move(out), std::move(spec));
}

Variable
reshape(const Variable &a, Shape shape)
{
    if (a.data().isContiguous()) {
        return view(a, std::move(shape));
    }
    return view(contiguous(a), std::move(shape));
}

Variable
transpose(const Variable &a, int64_t d0, int64_t d1)
{
    if (d0 < 0) d0 += a.data().dim();
    if (d1 < 0) d1 += a.data().dim();
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kTranspose;
    spec.d0 = d0;
    spec.d1 = d1;
    return viewOp(a, a.data().transpose(d0, d1), std::move(spec));
}

Variable
permute(const Variable &a, const Shape &dims)
{
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kPermute;
    spec.shapeArg = dims;
    return viewOp(a, a.data().permute(dims), std::move(spec));
}

Variable
slice(const Variable &a, int64_t d, int64_t start, int64_t end)
{
    if (d < 0) d += a.data().dim();
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kSlice;
    spec.d0 = d;
    spec.start = start;
    spec.end = end;
    return viewOp(a, a.data().slice(d, start, end), std::move(spec));
}

Variable
select(const Variable &a, int64_t d, int64_t idx)
{
    if (d < 0) d += a.data().dim();
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kSelect;
    spec.d0 = d;
    spec.start = idx;
    return viewOp(a, a.data().select(d, idx), std::move(spec));
}

Variable
squeeze(const Variable &a, int64_t d)
{
    if (d < 0) d += a.data().dim();
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kSqueeze;
    spec.d0 = d;
    return viewOp(a, a.data().squeeze(d), std::move(spec));
}

Variable
unsqueeze(const Variable &a, int64_t d)
{
    if (d < 0) d += a.data().dim() + 1;
    ViewSpec spec;
    spec.kind = ViewSpec::Kind::kUnsqueeze;
    spec.d0 = d;
    return viewOp(a, a.data().unsqueeze(d), std::move(spec));
}

Variable
contiguous(const Variable &a)
{
    if (a.data().isContiguous()) {
        return a;
    }
    return makeResult(a.data().contiguous(), {a},
                      [&] { return std::make_shared<ContiguousNode>(); });
}

Variable
gatherRows(const Variable &table, const Tensor &indices)
{
    return makeResult(edkm::gatherRows(table.data(), indices), {table},
                      [&] {
                          return std::make_shared<GatherRowsNode>(table,
                                                                  indices);
                      });
}

Variable
crossEntropy(const Variable &logits, const Tensor &targets)
{
    EDKM_CHECK(logits.data().dim() == 2, "crossEntropy: logits must be 2-d");
    EDKM_CHECK(targets.numel() == logits.data().size(0),
               "crossEntropy: one target per row");
    Tensor logp = edkm::logSoftmaxLastDim(logits.data());
    int64_t n = logp.size(0);
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t t = targets.flatAtInt(i);
        acc -= logp.at({i, t});
    }
    Tensor loss = Tensor::full({1}, static_cast<float>(acc / n));
    return makeResult(std::move(loss), {logits}, [&] {
        return std::make_shared<CrossEntropyNode>(logits, targets, logp);
    });
}

Variable
rope(const Variable &x, const Tensor &cos, const Tensor &sin)
{
    Tensor rotated = rotateHalf(x.data(), false);
    Tensor out = edkm::add(edkm::mul(x.data(), cos),
                           edkm::mul(rotated, sin));
    return makeResult(std::move(out), {x}, [&] {
        return std::make_shared<RopeNode>(cos, sin);
    });
}

Variable
constant(const Tensor &t)
{
    return Variable(t, false);
}

} // namespace af
} // namespace edkm
