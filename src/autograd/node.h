/**
 * @file
 * Autograd graph nodes, view-op metadata, and the saved-tensor hook
 * mechanism.
 *
 * Nodes own the backward computation. Tensors a node needs for backward
 * are wrapped in SavedTensor, which consults the active SavedTensorHooks
 * (if any) at save time — the exact extension point PyTorch exposes as
 * torch.autograd.graph.saved_tensors_hooks and the one the paper's
 * marshaling layer is built on.
 *
 * Nodes also carry *forward-graph* metadata (storage-invariance flag,
 * ViewSpec, input/output links) so the marshaling layer can navigate the
 * computation graph looking for already-offloaded tensors (paper 2.1).
 */

#ifndef EDKM_AUTOGRAD_NODE_H_
#define EDKM_AUTOGRAD_NODE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace edkm {

class Node;

/**
 * Description of a data-storage-invariant operation (view, transpose,
 * permute, slice, select, squeeze, unsqueeze). Can be replayed on a CPU
 * copy of the *input* to reconstruct the output's logical contents, and
 * inverted (when lossless) to go the other way.
 */
struct ViewSpec
{
    enum class Kind {
        kView,
        kTranspose,
        kPermute,
        kSlice,
        kSelect,
        kSqueeze,
        kUnsqueeze,
    };

    Kind kind = Kind::kView;
    Shape shapeArg;  ///< view target shape / permute order
    int64_t d0 = 0;  ///< dim argument (transpose/slice/select/squeeze/...)
    int64_t d1 = 0;  ///< second dim (transpose)
    int64_t start = 0; ///< slice start / select index
    int64_t end = 0;   ///< slice end
    Shape inputShape;  ///< shape of the op's input (for inversion)

    /** Apply this op to @p t (logical contents; works on any layout). */
    Tensor apply(const Tensor &t) const;

    /** True when the op can be inverted without data loss. */
    bool invertible() const;

    /** The inverse op (valid only when invertible()). */
    ViewSpec inverse() const;

    /** Human-readable form, e.g. "transpose(0,1)". */
    std::string toString() const;
};

class SavedTensorHooks;

/**
 * A tensor stashed for the backward pass. If hooks are active at save
 * time the tensor is packed immediately (e.g. offloaded to CPU) and only
 * the opaque handle is retained; otherwise a plain reference keeps the
 * data alive on its device.
 */
class SavedTensor
{
  public:
    SavedTensor() = default;

    /**
     * Save @p t. @p source is the variable whose data is being saved
     * (used by graph-walking hooks); may be null for ad-hoc tensors.
     */
    SavedTensor(const Tensor &t, std::shared_ptr<VarImpl> source);

    /** Recover the tensor (may trigger hook unpack / CPU->GPU copy). */
    Tensor unpack() const;

    bool defined() const { return is_set_; }

  private:
    bool is_set_ = false;
    Tensor plain_;
    std::shared_ptr<void> handle_;
    SavedTensorHooks *hooks_ = nullptr;
};

/** What a hook's pack() receives: the tensor and its graph identity. */
struct SavedSource
{
    Tensor tensor;
    std::shared_ptr<VarImpl> impl; ///< may be null
};

/**
 * Interface of the saved-tensor hook pair. Implementations must keep any
 * state needed by unpack alive inside the returned handle or themselves,
 * and must outlive every backward pass that uses them.
 */
class SavedTensorHooks
{
  public:
    virtual ~SavedTensorHooks() = default;

    /** Called when autograd saves a tensor; returns an opaque handle. */
    virtual std::shared_ptr<void> pack(const SavedSource &src) = 0;

    /** Called when backward needs the tensor back. */
    virtual Tensor unpack(const std::shared_ptr<void> &handle) = 0;
};

/**
 * RAII activation of hooks on a thread-local stack (innermost wins),
 * mirroring torch.autograd.graph.saved_tensors_hooks.
 */
class SavedTensorHooksGuard
{
  public:
    explicit SavedTensorHooksGuard(SavedTensorHooks *hooks);
    ~SavedTensorHooksGuard();

    SavedTensorHooksGuard(const SavedTensorHooksGuard &) = delete;
    SavedTensorHooksGuard &operator=(const SavedTensorHooksGuard &) =
        delete;

    /** Currently active hooks (innermost), or null. */
    static SavedTensorHooks *active();
};

/** Graph edge: the node responsible for the gradient of one input. */
struct Edge
{
    std::shared_ptr<Node> fn; ///< null when the input needs no gradient
};

/**
 * Base class of all autograd operations.
 *
 * One node has exactly one output variable. next_edges[i] addresses the
 * node that consumes the gradient of input i (the producer's node, or an
 * AccumulateGrad sink for leaves).
 */
class Node : public std::enable_shared_from_this<Node>
{
  public:
    /**
     * @param op_name      short identifier ("matmul", "view", ...)
     * @param view_spec    set for data-storage-invariant ops
     */
    explicit Node(std::string op_name,
                  std::optional<ViewSpec> view_spec = std::nullopt);

    virtual ~Node() = default;

    /**
     * Compute input gradients from the output gradient.
     * @return one tensor per input (undefined Tensor where no gradient).
     */
    virtual std::vector<Tensor> backward(const Tensor &grad_out) = 0;

    /**
     * Called once the output variable exists; nodes that save their own
     * output (softmax, exp, ...) override this.
     */
    virtual void postBuild(const Variable &output);

    const std::string &opName() const { return op_name_; }

    /** True for ops whose output shares the input's data storage. */
    bool storageInvariant() const { return view_spec_.has_value(); }

    const std::optional<ViewSpec> &viewSpec() const { return view_spec_; }

    /** Gradient routing, one edge per input. */
    std::vector<Edge> nextEdges;

    /**
     * True when input @p i's gradient has a consumer. Backward may skip
     * (return an undefined Tensor for) inputs where this is false, e.g.
     * constants.
     */
    bool
    needsInputGrad(size_t i) const
    {
        return i < nextEdges.size() && nextEdges[i].fn != nullptr;
    }

    /** Weak links to input variables (forward-graph navigation). */
    std::vector<std::weak_ptr<VarImpl>> inputImpls;

    /** Weak link to the output variable. */
    std::weak_ptr<VarImpl> outputImpl;

  protected:
    /** Save @p t for backward through the active hooks. */
    SavedTensor
    save(const Tensor &t, const std::shared_ptr<VarImpl> &source)
    {
        return SavedTensor(t, source);
    }

    /** Save an input variable's data. */
    SavedTensor
    save(const Variable &v)
    {
        return SavedTensor(v.data(), v.impl());
    }

  private:
    std::string op_name_;
    std::optional<ViewSpec> view_spec_;
};

/**
 * Terminal node that accumulates gradient into a leaf variable. Holds
 * the target weakly: the leaf owns its accumulator (VarImpl ->
 * gradAccumulator), so a strong back-reference would leak both.
 */
class AccumulateGrad : public Node
{
  public:
    explicit AccumulateGrad(std::weak_ptr<VarImpl> target);

    std::vector<Tensor> backward(const Tensor &grad_out) override;

    std::shared_ptr<VarImpl> target() const { return target_.lock(); }

  private:
    std::weak_ptr<VarImpl> target_;
};

/** Get (create on first use) the AccumulateGrad sink of a leaf. */
std::shared_ptr<Node> gradAccumulator(const std::shared_ptr<VarImpl> &leaf);

/**
 * Assemble the result variable of an op: decides requires-grad, attaches
 * the node, wires edges/consumers, and runs postBuild. When no input
 * requires grad (or grad mode is off) @p make_node is never invoked and
 * the plain result is returned.
 *
 * @param data      forward result tensor
 * @param inputs    op inputs (graph wiring order = backward order)
 * @param make_node factory creating the node (invoked lazily)
 */
Variable
makeResult(Tensor data, const std::vector<Variable> &inputs,
           const std::function<std::shared_ptr<Node>()> &make_node);

} // namespace edkm

#endif // EDKM_AUTOGRAD_NODE_H_
