/**
 * @file
 * N-dimensional tensor with PyTorch view semantics.
 *
 * A Tensor is metadata (shape, element strides, element offset, dtype)
 * over a shared Storage. View operations (view/reshape-when-possible/
 * transpose/permute/slice/select) return tensors sharing the same Storage;
 * to(Device) always materialises a new Storage and records the transfer —
 * exactly the behaviour Table 1 of the paper demonstrates.
 *
 * All arithmetic reads/writes elements through float32; BF16/F16 storage
 * round-trips through the bit-exact converters in util/half.h.
 */

#ifndef EDKM_TENSOR_TENSOR_H_
#define EDKM_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "device/device.h"
#include "tensor/dtype.h"
#include "tensor/storage.h"

namespace edkm {

class Rng;

/** Shape/stride container. */
using Shape = std::vector<int64_t>;

/**
 * Value-semantic tensor handle. Copying a Tensor copies only metadata;
 * the Storage is shared (and refcounted).
 */
class Tensor
{
  public:
    /** Undefined tensor (defined() == false). */
    Tensor() = default;

    // ------------------------------------------------------------------
    // Factories
    // ------------------------------------------------------------------

    /** Uninitialised (zero-filled) tensor. */
    static Tensor empty(Shape shape, DType dtype = DType::kF32,
                        Device dev = Device::cpu());

    /** All zeros. */
    static Tensor zeros(Shape shape, DType dtype = DType::kF32,
                        Device dev = Device::cpu());

    /** All ones. */
    static Tensor ones(Shape shape, DType dtype = DType::kF32,
                       Device dev = Device::cpu());

    /** Filled with @p value. */
    static Tensor full(Shape shape, float value, DType dtype = DType::kF32,
                       Device dev = Device::cpu());

    /** Uniform [0,1) random, seeded by @p rng. */
    // lint:allow(raw-rng) declaration of the seeded factory itself —
    // every call site must pass an explicit util Rng.
    static Tensor rand(Shape shape, Rng &rng, Device dev = Device::cpu());

    /** Standard-normal random, seeded by @p rng. */
    static Tensor randn(Shape shape, Rng &rng, Device dev = Device::cpu(),
                        float std = 1.0f);

    /** Copy @p values (row-major) into a new tensor of @p shape. */
    static Tensor fromVector(const std::vector<float> &values, Shape shape,
                             Device dev = Device::cpu(),
                             DType dtype = DType::kF32);

    /** Copy int64 @p values (row-major) into a new kI64 tensor. */
    static Tensor fromIndices(const std::vector<int64_t> &values,
                              Shape shape, Device dev = Device::cpu());

    /** 1-D tensor [start, end) step 1, kI64. */
    static Tensor arange(int64_t start, int64_t end,
                         Device dev = Device::cpu());

    /**
     * Expert API: wrap an existing storage with explicit metadata.
     * Used by the artifact reader to view mmap'd sections in place.
     * @p strides are in elements.
     */
    static Tensor wrapStorage(std::shared_ptr<Storage> storage, Shape shape,
                              Shape strides, int64_t offset, DType dtype);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    bool defined() const { return storage_ != nullptr; }
    const Shape &shape() const { return shape_; }
    const Shape &strides() const { return strides_; }
    int64_t offset() const { return offset_; }
    DType dtype() const { return dtype_; }
    Device device() const;
    int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
    int64_t numel() const;
    int64_t size(int64_t d) const;
    bool isContiguous() const;

    /** Underlying storage (shared across views). */
    const std::shared_ptr<Storage> &storagePtr() const { return storage_; }

    /** Storage identifier (0 when undefined). */
    uint64_t storageId() const { return storage_ ? storage_->id() : 0; }

    /** Bytes of the underlying storage buffer. */
    int64_t storageBytes() const { return storage_ ? storage_->bytes() : 0; }

    /** "Tensor[2x3 f32 cpu]"-style description. */
    std::string toString() const;

    // ------------------------------------------------------------------
    // Views (share storage; O(1))
    // ------------------------------------------------------------------

    /** Reinterpret shape; requires contiguous layout and equal numel.
     *  One dimension may be -1 (inferred). */
    Tensor view(Shape new_shape) const;

    /** view() when contiguous, otherwise contiguous().view(). */
    Tensor reshape(Shape new_shape) const;

    /** Swap two dimensions (stride trick; shares storage). */
    Tensor transpose(int64_t d0, int64_t d1) const;

    /** Reorder all dimensions (stride trick; shares storage). */
    Tensor permute(const Shape &dims) const;

    /** Sub-range [start, end) along @p d; shares storage. */
    Tensor slice(int64_t d, int64_t start, int64_t end) const;

    /** Index @p idx along @p d, removing the dimension; shares storage. */
    Tensor select(int64_t d, int64_t idx) const;

    /** Collapse to 1-D (view when contiguous, else copies). */
    Tensor flatten() const;

    /** Remove a size-1 dimension. */
    Tensor squeeze(int64_t d) const;

    /** Insert a size-1 dimension at @p d. */
    Tensor unsqueeze(int64_t d) const;

    // ------------------------------------------------------------------
    // Materialising ops (new storage)
    // ------------------------------------------------------------------

    /** Compact row-major copy (same device/dtype); no-op view if already
     *  contiguous. */
    Tensor contiguous() const;

    /** Deep copy (always new storage). */
    Tensor clone() const;

    /**
     * Move to @p dev. PyTorch semantics: returns *this unchanged when
     * already on @p dev; otherwise materialises a new contiguous Storage
     * on @p dev and records the transfer with the DeviceManager.
     */
    Tensor to(Device dev) const;

    /** Convert dtype (new storage; values round through the target). */
    Tensor to(DType dt) const;

    // ------------------------------------------------------------------
    // Element access (converts through float)
    // ------------------------------------------------------------------

    /** Read element at @p idx (multi-dimensional). */
    float at(const Shape &idx) const;

    /** Write element at @p idx. */
    void setAt(const Shape &idx, float value);

    /** Read the @p i-th element in logical row-major order. */
    float flatAt(int64_t i) const;

    /** Write the @p i-th element in logical row-major order. */
    void setFlatAt(int64_t i, float value);

    /** Read integer element (kI64/kI32/kU16/kU8) in row-major order. */
    int64_t flatAtInt(int64_t i) const;

    /** Write integer element in row-major order. */
    void setFlatAtInt(int64_t i, int64_t value);

    /** The single value of a one-element tensor. */
    float item() const;

    /** Gather all elements (row-major, converted to float). */
    std::vector<float> toVector() const;

    /** Gather all elements of an integer tensor. */
    std::vector<int64_t> toIntVector() const;

    /** Overwrite contents from a row-major float vector. */
    void copyFrom(const std::vector<float> &values);

    /** Fill every element with @p value. */
    void fill(float value);

    /**
     * Raw typed pointer to the first element (offset applied). Only valid
     * for tensors whose dtype matches T's size; the caller must respect
     * strides.
     */
    template <typename T>
    T *
    rawData()
    {
        return reinterpret_cast<T *>(storage_->data()) + offset_;
    }

    template <typename T>
    const T *
    rawData() const
    {
        return reinterpret_cast<const T *>(storage_->data()) + offset_;
    }

    // ------------------------------------------------------------------
    // Convenience arithmetic (wrappers over ops.h free functions)
    // ------------------------------------------------------------------

    Tensor operator+(const Tensor &o) const;
    Tensor operator-(const Tensor &o) const;
    Tensor operator*(const Tensor &o) const;
    Tensor operator/(const Tensor &o) const;
    Tensor operator*(float s) const;
    Tensor operator+(float s) const;
    Tensor operator-() const;

  private:
    Tensor(std::shared_ptr<Storage> storage, Shape shape, Shape strides,
           int64_t offset, DType dtype);

    /** Flat element index (into storage, after offset) for logical
     *  row-major position @p i. */
    int64_t elementIndex(int64_t i) const;

    static Shape contiguousStrides(const Shape &shape);

    std::shared_ptr<Storage> storage_;
    Shape shape_;
    Shape strides_; // in elements
    int64_t offset_ = 0; // in elements
    DType dtype_ = DType::kF32;
};

/** Element load/store helpers shared with the ops layer. */
float loadElement(const std::byte *base, int64_t elem_index, DType dt);
void storeElement(std::byte *base, int64_t elem_index, DType dt,
                  float value);

} // namespace edkm

#endif // EDKM_TENSOR_TENSOR_H_
