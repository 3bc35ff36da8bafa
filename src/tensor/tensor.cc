#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "device/device_manager.h"
#include "util/half.h"
#include "util/logging.h"
#include "util/rng.h"

namespace edkm {

namespace {

int64_t
shapeNumel(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        n *= d;
    }
    return n;
}

/** Side of the square tiles a strided 2-D copy walks. */
constexpr int64_t kCopyTile = 32;

/**
 * Copy a [rows, cols] view with element strides (@p rs, @p cs) from
 * @p src into the row-major buffer @p dst, @p E bytes per element. Rows
 * with unit column stride are copied whole; otherwise the view is
 * walked in square tiles so a transpose touches each cache line of
 * both sides once per tile instead of once per element.
 */
template <size_t E>
void
copyView2d(const std::byte *src, int64_t rows, int64_t cols, int64_t rs,
           int64_t cs, std::byte *dst)
{
    if (cs == 1) {
        for (int64_t r = 0; r < rows; ++r) {
            std::memcpy(dst + r * cols * E, src + r * rs * E,
                        static_cast<size_t>(cols) * E);
        }
        return;
    }
    for (int64_t r0 = 0; r0 < rows; r0 += kCopyTile) {
        int64_t r1 = std::min(rows, r0 + kCopyTile);
        for (int64_t c0 = 0; c0 < cols; c0 += kCopyTile) {
            int64_t c1 = std::min(cols, c0 + kCopyTile);
            for (int64_t r = r0; r < r1; ++r) {
                for (int64_t c = c0; c < c1; ++c) {
                    std::memcpy(dst + (r * cols + c) * E,
                                src + (r * rs + c * cs) * E, E);
                }
            }
        }
    }
}

/**
 * Copy the logical contents of @p t, row-major, into the contiguous
 * buffer @p dst, bytes unchanged. Unit dims are dropped and neighbours
 * that walk memory as one dim are merged, so a contiguous tensor is one
 * memcpy; the innermost two remaining dims are copied as 2-D views, the
 * outer ones iterated in order.
 */
template <size_t E>
void
copyLogical(const Tensor &t, std::byte *dst)
{
    if (t.numel() == 0) {
        return;
    }
    Shape size, stride;
    for (size_t d = 0; d < t.shape().size(); ++d) {
        int64_t sz = t.shape()[d], st = t.strides()[d];
        if (sz == 1) {
            continue;
        }
        if (!size.empty() && stride.back() == st * sz) {
            size.back() *= sz;
            stride.back() = st;
        } else {
            size.push_back(sz);
            stride.push_back(st);
        }
    }
    while (size.size() < 2) {
        size.insert(size.begin(), 1);
        stride.insert(stride.begin(), 0);
    }
    size_t rank = size.size();
    int64_t rows = size[rank - 2], cols = size[rank - 1];
    int64_t outer = t.numel() / (rows * cols);
    const std::byte *src =
        t.storagePtr()->data() + t.offset() * static_cast<int64_t>(E);
    std::vector<int64_t> pos(rank - 2, 0);
    int64_t base = 0;
    for (int64_t o = 0; o < outer; ++o) {
        copyView2d<E>(src + base * static_cast<int64_t>(E), rows, cols,
                      stride[rank - 2], stride[rank - 1],
                      dst + o * rows * cols * static_cast<int64_t>(E));
        for (size_t d = rank - 2; d-- > 0;) {
            base += stride[d];
            if (++pos[d] < size[d]) {
                break;
            }
            base -= stride[d] * size[d];
            pos[d] = 0;
        }
    }
}

/** copyLogical dispatched on @p t's element size. */
void
copyLogical(const Tensor &t, std::byte *dst)
{
    switch (dtypeSize(t.dtype())) {
      case 1:
        return copyLogical<1>(t, dst);
      case 2:
        return copyLogical<2>(t, dst);
      case 4:
        return copyLogical<4>(t, dst);
      case 8:
        return copyLogical<8>(t, dst);
    }
    panic("copyLogical: bad element size");
}

} // namespace

float
loadElement(const std::byte *base, int64_t elem_index, DType dt)
{
    switch (dt) {
      case DType::kF32:
        return reinterpret_cast<const float *>(base)[elem_index];
      case DType::kBf16:
        return bf16ToFloat(
            reinterpret_cast<const uint16_t *>(base)[elem_index]);
      case DType::kF16:
        return fp16ToFloat(
            reinterpret_cast<const uint16_t *>(base)[elem_index]);
      case DType::kI64:
        return static_cast<float>(
            reinterpret_cast<const int64_t *>(base)[elem_index]);
      case DType::kI32:
        return static_cast<float>(
            reinterpret_cast<const int32_t *>(base)[elem_index]);
      case DType::kU16:
        return static_cast<float>(
            reinterpret_cast<const uint16_t *>(base)[elem_index]);
      case DType::kU8:
        return static_cast<float>(
            reinterpret_cast<const uint8_t *>(base)[elem_index]);
    }
    panic("loadElement: bad dtype");
}

void
storeElement(std::byte *base, int64_t elem_index, DType dt, float value)
{
    switch (dt) {
      case DType::kF32:
        reinterpret_cast<float *>(base)[elem_index] = value;
        return;
      case DType::kBf16:
        reinterpret_cast<uint16_t *>(base)[elem_index] = floatToBf16(value);
        return;
      case DType::kF16:
        reinterpret_cast<uint16_t *>(base)[elem_index] = floatToFp16(value);
        return;
      case DType::kI64:
        reinterpret_cast<int64_t *>(base)[elem_index] =
            static_cast<int64_t>(value);
        return;
      case DType::kI32:
        reinterpret_cast<int32_t *>(base)[elem_index] =
            static_cast<int32_t>(value);
        return;
      case DType::kU16:
        reinterpret_cast<uint16_t *>(base)[elem_index] =
            static_cast<uint16_t>(value);
        return;
      case DType::kU8:
        reinterpret_cast<uint8_t *>(base)[elem_index] =
            static_cast<uint8_t>(value);
        return;
    }
    panic("storeElement: bad dtype");
}

Tensor::Tensor(std::shared_ptr<Storage> storage, Shape shape, Shape strides,
               int64_t offset, DType dtype)
    : storage_(std::move(storage)),
      shape_(std::move(shape)),
      strides_(std::move(strides)),
      offset_(offset),
      dtype_(dtype)
{
}

Shape
Tensor::contiguousStrides(const Shape &shape)
{
    Shape strides(shape.size());
    int64_t acc = 1;
    for (size_t i = shape.size(); i-- > 0;) {
        strides[i] = acc;
        acc *= shape[i];
    }
    return strides;
}

Tensor
Tensor::empty(Shape shape, DType dtype, Device dev)
{
    int64_t n = shapeNumel(shape);
    EDKM_CHECK(n >= 0, "invalid shape");
    auto storage = Storage::allocate(n * dtypeSize(dtype), dev);
    Shape strides = contiguousStrides(shape);
    return Tensor(std::move(storage), std::move(shape), std::move(strides),
                  0, dtype);
}

Tensor
Tensor::zeros(Shape shape, DType dtype, Device dev)
{
    return empty(std::move(shape), dtype, dev); // storage is zero-filled
}

Tensor
Tensor::ones(Shape shape, DType dtype, Device dev)
{
    return full(std::move(shape), 1.0f, dtype, dev);
}

Tensor
Tensor::full(Shape shape, float value, DType dtype, Device dev)
{
    Tensor t = empty(std::move(shape), dtype, dev);
    t.fill(value);
    return t;
}

Tensor
Tensor::rand(Shape shape, Rng &rng, Device dev)
{
    Tensor t = empty(std::move(shape), DType::kF32, dev);
    float *p = t.rawData<float>();
    int64_t n = t.numel();
    for (int64_t i = 0; i < n; ++i) {
        p[i] = rng.uniform();
    }
    return t;
}

Tensor
Tensor::randn(Shape shape, Rng &rng, Device dev, float std)
{
    Tensor t = empty(std::move(shape), DType::kF32, dev);
    float *p = t.rawData<float>();
    int64_t n = t.numel();
    for (int64_t i = 0; i < n; ++i) {
        p[i] = rng.normal(0.0f, std);
    }
    return t;
}

Tensor
Tensor::fromVector(const std::vector<float> &values, Shape shape, Device dev,
                   DType dtype)
{
    int64_t n = shapeNumel(shape);
    EDKM_CHECK(static_cast<int64_t>(values.size()) == n,
               "fromVector: ", values.size(), " values for shape numel ", n);
    Tensor t = empty(std::move(shape), dtype, dev);
    t.copyFrom(values);
    return t;
}

Tensor
Tensor::fromIndices(const std::vector<int64_t> &values, Shape shape,
                    Device dev)
{
    int64_t n = shapeNumel(shape);
    EDKM_CHECK(static_cast<int64_t>(values.size()) == n,
               "fromIndices: size mismatch");
    Tensor t = empty(std::move(shape), DType::kI64, dev);
    int64_t *p = t.rawData<int64_t>();
    std::copy(values.begin(), values.end(), p);
    return t;
}

Tensor
Tensor::arange(int64_t start, int64_t end, Device dev)
{
    EDKM_CHECK(end >= start, "arange: end < start");
    Tensor t = empty({end - start}, DType::kI64, dev);
    int64_t *p = t.rawData<int64_t>();
    for (int64_t i = 0; i < end - start; ++i) {
        p[i] = start + i;
    }
    return t;
}

Tensor
Tensor::wrapStorage(std::shared_ptr<Storage> storage, Shape shape,
                    Shape strides, int64_t offset, DType dtype)
{
    EDKM_CHECK(storage != nullptr, "wrapStorage: null storage");
    EDKM_CHECK(shape.size() == strides.size(),
               "wrapStorage: shape/stride rank mismatch");
    return Tensor(std::move(storage), std::move(shape), std::move(strides),
                  offset, dtype);
}

Device
Tensor::device() const
{
    EDKM_CHECK(defined(), "device() on undefined tensor");
    return storage_->device();
}

int64_t
Tensor::numel() const
{
    return shapeNumel(shape_);
}

int64_t
Tensor::size(int64_t d) const
{
    if (d < 0) {
        d += dim();
    }
    EDKM_CHECK(d >= 0 && d < dim(), "size(): dim out of range");
    return shape_[static_cast<size_t>(d)];
}

bool
Tensor::isContiguous() const
{
    int64_t acc = 1;
    for (size_t i = shape_.size(); i-- > 0;) {
        if (shape_[i] != 1 && strides_[i] != acc) {
            return false;
        }
        acc *= shape_[i];
    }
    return true;
}

std::string
Tensor::toString() const
{
    if (!defined()) {
        return "Tensor[undefined]";
    }
    std::ostringstream oss;
    oss << "Tensor[";
    for (size_t i = 0; i < shape_.size(); ++i) {
        oss << (i ? "x" : "") << shape_[i];
    }
    oss << " " << dtypeName(dtype_) << " " << device().toString() << "]";
    return oss.str();
}

Tensor
Tensor::view(Shape new_shape) const
{
    EDKM_CHECK(defined(), "view() on undefined tensor");
    EDKM_CHECK(isContiguous(), "view() requires a contiguous tensor");
    // Resolve one -1 dimension.
    int64_t known = 1;
    int infer = -1;
    for (size_t i = 0; i < new_shape.size(); ++i) {
        if (new_shape[i] == -1) {
            EDKM_CHECK(infer < 0, "view(): at most one -1 dim");
            infer = static_cast<int>(i);
        } else {
            known *= new_shape[i];
        }
    }
    if (infer >= 0) {
        EDKM_CHECK(known != 0 && numel() % known == 0,
                   "view(): cannot infer dimension");
        new_shape[static_cast<size_t>(infer)] = numel() / known;
    }
    EDKM_CHECK(shapeNumel(new_shape) == numel(),
               "view(): numel mismatch");
    Shape strides = contiguousStrides(new_shape);
    return Tensor(storage_, std::move(new_shape), std::move(strides),
                  offset_, dtype_);
}

Tensor
Tensor::reshape(Shape new_shape) const
{
    if (isContiguous()) {
        return view(std::move(new_shape));
    }
    return contiguous().view(std::move(new_shape));
}

Tensor
Tensor::transpose(int64_t d0, int64_t d1) const
{
    if (d0 < 0) d0 += dim();
    if (d1 < 0) d1 += dim();
    EDKM_CHECK(d0 >= 0 && d0 < dim() && d1 >= 0 && d1 < dim(),
               "transpose: dims out of range");
    Shape shape = shape_;
    Shape strides = strides_;
    std::swap(shape[d0], shape[d1]);
    std::swap(strides[d0], strides[d1]);
    return Tensor(storage_, std::move(shape), std::move(strides), offset_,
                  dtype_);
}

Tensor
Tensor::permute(const Shape &dims) const
{
    EDKM_CHECK(static_cast<int64_t>(dims.size()) == dim(),
               "permute: wrong number of dims");
    Shape shape(dims.size());
    Shape strides(dims.size());
    for (size_t i = 0; i < dims.size(); ++i) {
        int64_t d = dims[i];
        EDKM_CHECK(d >= 0 && d < dim(), "permute: dim out of range");
        shape[i] = shape_[d];
        strides[i] = strides_[d];
    }
    return Tensor(storage_, std::move(shape), std::move(strides), offset_,
                  dtype_);
}

Tensor
Tensor::slice(int64_t d, int64_t start, int64_t end) const
{
    if (d < 0) d += dim();
    EDKM_CHECK(d >= 0 && d < dim(), "slice: dim out of range");
    EDKM_CHECK(start >= 0 && end <= shape_[d] && start <= end,
               "slice: bad range [", start, ",", end, ") for dim size ",
               shape_[d]);
    Shape shape = shape_;
    shape[d] = end - start;
    return Tensor(storage_, std::move(shape), strides_,
                  offset_ + start * strides_[d], dtype_);
}

Tensor
Tensor::select(int64_t d, int64_t idx) const
{
    if (d < 0) d += dim();
    EDKM_CHECK(d >= 0 && d < dim(), "select: dim out of range");
    EDKM_CHECK(idx >= 0 && idx < shape_[d], "select: index out of range");
    Shape shape;
    Shape strides;
    for (int64_t i = 0; i < dim(); ++i) {
        if (i != d) {
            shape.push_back(shape_[i]);
            strides.push_back(strides_[i]);
        }
    }
    return Tensor(storage_, std::move(shape), std::move(strides),
                  offset_ + idx * strides_[d], dtype_);
}

Tensor
Tensor::flatten() const
{
    if (isContiguous()) {
        return view({numel()});
    }
    return contiguous().view({numel()});
}

Tensor
Tensor::squeeze(int64_t d) const
{
    if (d < 0) d += dim();
    EDKM_CHECK(d >= 0 && d < dim() && shape_[d] == 1,
               "squeeze: dim must have size 1");
    Shape shape = shape_;
    Shape strides = strides_;
    shape.erase(shape.begin() + d);
    strides.erase(strides.begin() + d);
    return Tensor(storage_, std::move(shape), std::move(strides), offset_,
                  dtype_);
}

Tensor
Tensor::unsqueeze(int64_t d) const
{
    if (d < 0) d += dim() + 1;
    EDKM_CHECK(d >= 0 && d <= dim(), "unsqueeze: dim out of range");
    Shape shape = shape_;
    Shape strides = strides_;
    int64_t stride = (d < dim()) ? strides_[d] * shape_[d] : 1;
    shape.insert(shape.begin() + d, 1);
    strides.insert(strides.begin() + d, stride);
    return Tensor(storage_, std::move(shape), std::move(strides), offset_,
                  dtype_);
}

int64_t
Tensor::elementIndex(int64_t i) const
{
    // Map logical row-major position -> storage element index.
    int64_t idx = offset_;
    for (size_t d = shape_.size(); d-- > 0;) {
        int64_t s = shape_[d];
        idx += (i % s) * strides_[d];
        i /= s;
    }
    return idx;
}

Tensor
Tensor::contiguous() const
{
    EDKM_CHECK(defined(), "contiguous() on undefined tensor");
    if (isContiguous()) {
        return *this;
    }
    return clone();
}

Tensor
Tensor::clone() const
{
    EDKM_CHECK(defined(), "clone() on undefined tensor");
    Tensor out = empty(shape_, dtype_, device());
    copyLogical(*this, out.storage_->data());
    return out;
}

Tensor
Tensor::to(Device dev) const
{
    EDKM_CHECK(defined(), "to(device) on undefined tensor");
    if (dev == device()) {
        return *this; // PyTorch semantics: no copy when same device
    }
    Tensor out = empty(shape_, dtype_, dev);
    copyLogical(*this, out.storage_->data());
    DeviceManager::instance().recordTransfer(device(), dev,
                                             numel() * dtypeSize(dtype_));
    return out;
}

Tensor
Tensor::to(DType dt) const
{
    EDKM_CHECK(defined(), "to(dtype) on undefined tensor");
    if (dt == dtype_) {
        return *this;
    }
    Tensor out = empty(shape_, dt, device());
    const std::byte *src = storage_->data();
    std::byte *dst = out.storage_->data();
    int64_t n = numel();
    for (int64_t i = 0; i < n; ++i) {
        storeElement(dst, i, dt, loadElement(src, elementIndex(i), dtype_));
    }
    return out;
}

float
Tensor::at(const Shape &idx) const
{
    EDKM_CHECK(static_cast<int64_t>(idx.size()) == dim(),
               "at(): rank mismatch");
    int64_t e = offset_;
    for (size_t d = 0; d < idx.size(); ++d) {
        EDKM_CHECK(idx[d] >= 0 && idx[d] < shape_[d],
                   "at(): index out of range");
        e += idx[d] * strides_[d];
    }
    return loadElement(storage_->data(), e, dtype_);
}

void
Tensor::setAt(const Shape &idx, float value)
{
    EDKM_CHECK(static_cast<int64_t>(idx.size()) == dim(),
               "setAt(): rank mismatch");
    int64_t e = offset_;
    for (size_t d = 0; d < idx.size(); ++d) {
        EDKM_CHECK(idx[d] >= 0 && idx[d] < shape_[d],
                   "setAt(): index out of range");
        e += idx[d] * strides_[d];
    }
    storeElement(storage_->data(), e, dtype_, value);
}

float
Tensor::flatAt(int64_t i) const
{
    return loadElement(storage_->data(), elementIndex(i), dtype_);
}

void
Tensor::setFlatAt(int64_t i, float value)
{
    storeElement(storage_->data(), elementIndex(i), dtype_, value);
}

int64_t
Tensor::flatAtInt(int64_t i) const
{
    int64_t e = elementIndex(i);
    switch (dtype_) {
      case DType::kI64:
        return reinterpret_cast<const int64_t *>(storage_->data())[e];
      case DType::kI32:
        return reinterpret_cast<const int32_t *>(storage_->data())[e];
      case DType::kU16:
        return reinterpret_cast<const uint16_t *>(storage_->data())[e];
      case DType::kU8:
        return reinterpret_cast<const uint8_t *>(storage_->data())[e];
      default:
        return static_cast<int64_t>(flatAt(i));
    }
}

void
Tensor::setFlatAtInt(int64_t i, int64_t value)
{
    int64_t e = elementIndex(i);
    switch (dtype_) {
      case DType::kI64:
        reinterpret_cast<int64_t *>(storage_->data())[e] = value;
        return;
      case DType::kI32:
        reinterpret_cast<int32_t *>(storage_->data())[e] =
            static_cast<int32_t>(value);
        return;
      case DType::kU16:
        reinterpret_cast<uint16_t *>(storage_->data())[e] =
            static_cast<uint16_t>(value);
        return;
      case DType::kU8:
        reinterpret_cast<uint8_t *>(storage_->data())[e] =
            static_cast<uint8_t>(value);
        return;
      default:
        setFlatAt(i, static_cast<float>(value));
    }
}

float
Tensor::item() const
{
    EDKM_CHECK(numel() == 1, "item(): tensor has ", numel(), " elements");
    return flatAt(0);
}

std::vector<float>
Tensor::toVector() const
{
    int64_t n = numel();
    std::vector<float> out(static_cast<size_t>(n));
    const std::byte *src = storage_->data();
    if (isContiguous() && dtype_ == DType::kF32) {
        const float *p = reinterpret_cast<const float *>(src) + offset_;
        std::copy(p, p + n, out.begin());
        return out;
    }
    for (int64_t i = 0; i < n; ++i) {
        out[static_cast<size_t>(i)] =
            loadElement(src, elementIndex(i), dtype_);
    }
    return out;
}

std::vector<int64_t>
Tensor::toIntVector() const
{
    int64_t n = numel();
    std::vector<int64_t> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        out[static_cast<size_t>(i)] = flatAtInt(i);
    }
    return out;
}

void
Tensor::copyFrom(const std::vector<float> &values)
{
    EDKM_CHECK(static_cast<int64_t>(values.size()) == numel(),
               "copyFrom: size mismatch");
    std::byte *dst = storage_->data();
    if (isContiguous() && dtype_ == DType::kF32) {
        std::copy(values.begin(), values.end(),
                  reinterpret_cast<float *>(dst) + offset_);
        return;
    }
    for (int64_t i = 0; i < numel(); ++i) {
        storeElement(dst, elementIndex(i), dtype_,
                     values[static_cast<size_t>(i)]);
    }
}

void
Tensor::fill(float value)
{
    std::byte *dst = storage_->data();
    int64_t n = numel();
    for (int64_t i = 0; i < n; ++i) {
        storeElement(dst, elementIndex(i), dtype_, value);
    }
}

} // namespace edkm
