#pragma once
// Dense row-major float tensor.
//
// This is the computational substrate for the Hanayo runtime: activations,
// gradients and parameters are all `Tensor`s. The class is deliberately
// value-semantic (copyable, movable) so that the message-passing layer can
// move payloads between workers without sharing mutable state.
//
// Storage is arena-aware: when a pass-lifetime arena is the calling
// thread's active context (tensor/arena.hpp), new tensors draw their
// payload from it — a bump-pointer increment instead of operator new —
// and their destructors are no-ops. Outside an arena context (weights,
// KV slots, anything long-lived) storage comes from the heap as before.
// A tensor remembers which regime it was born into, so heap tensors and
// arena tensors mix freely; moving a tensor moves the payload without
// touching either allocator.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace hanayo::tensor {

class Arena;

/// Shape of a tensor; up to 4 dimensions are used in practice
/// ([batch, seq, hidden] for activations, [rows, cols] for weights).
/// Stored inline (fixed capacity, no heap) so that constructing a
/// pass-lifetime tensor performs zero allocations.
class Shape {
 public:
  static constexpr int64_t kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);

  int64_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  int64_t& operator[](int64_t i) { return d_[static_cast<size_t>(i)]; }
  int64_t operator[](int64_t i) const { return d_[static_cast<size_t>(i)]; }

  int64_t& back() { return d_[static_cast<size_t>(n_ - 1)]; }
  int64_t back() const { return d_[static_cast<size_t>(n_ - 1)]; }

  void push_back(int64_t v);
  void clear() { n_ = 0; }

  const int64_t* begin() const { return d_; }
  const int64_t* end() const { return d_ + n_; }

  friend bool operator==(const Shape& a, const Shape& b);
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  int64_t d_[kMaxRank] = {};
  int64_t n_ = 0;
};

/// The payload of a Tensor: a float block owned either by the heap or by
/// the arena that was active when it was created. Arena-backed buffers
/// have no-op destructors (the arena reclaims in bulk at reset), which is
/// what lets a whole pass tear down without a single free().
class Buffer {
 public:
  Buffer() = default;
  /// Uninitialized storage for n floats from the active context.
  explicit Buffer(int64_t n);
  Buffer(const Buffer& o);
  Buffer(Buffer&& o) noexcept;
  Buffer& operator=(const Buffer& o);
  Buffer& operator=(Buffer&& o) noexcept;
  ~Buffer() { release(); }

  float* data() { return p_; }
  const float* data() const { return p_; }
  int64_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

 private:
  void release();

  float* p_ = nullptr;
  int64_t n_ = 0;
  /// Non-null: `p_` lives in this arena and must never be freed here
  /// (the arena resets in bulk). Null: `p_` is `new float[]` and the
  /// destructor releases it.
  Arena* arena_ = nullptr;
};

class Tensor {
 public:
  /// An empty 0-d tensor (numel() == 0).
  Tensor() = default;

  /// A tensor of the given shape with every element set to `fill`.
  explicit Tensor(Shape shape, float fill = 0.0f);

  /// A tensor wrapping existing data (copied); data.size() must equal the
  /// product of `shape`.
  Tensor(Shape shape, const std::vector<float>& data);

  static Tensor zeros(Shape shape) { return Tensor(shape, 0.0f); }
  static Tensor ones(Shape shape) { return Tensor(shape, 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(shape, v); }
  /// A tensor of the given shape whose elements are left unset, for an
  /// output that a kernel overwrites in full before anything reads it.
  static Tensor uninitialized(Shape shape);

  /// Number of elements.
  int64_t numel() const { return data_.size(); }
  /// Number of dimensions.
  int64_t dim() const { return shape_.size(); }
  /// Extent of dimension `i` (supports negative indices, python-style).
  int64_t size(int64_t i) const;
  const Shape& shape() const { return shape_; }
  bool empty() const { return data_.empty(); }
  /// Bytes occupied by the payload (used by the memory accountant).
  int64_t bytes() const { return numel() * static_cast<int64_t>(sizeof(float)); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() {
    return {data_.data(), static_cast<size_t>(data_.size())};
  }
  std::span<const float> flat() const {
    return {data_.data(), static_cast<size_t>(data_.size())};
  }

  float& operator[](int64_t i) { return data_.data()[i]; }
  float operator[](int64_t i) const { return data_.data()[i]; }

  /// 2-d element access: (row, col). Unchecked and inline against the
  /// cached row stride — cheap enough to use in element loops.
  float& at(int64_t r, int64_t c) { return data_.data()[r * last_dim_ + c]; }
  float at(int64_t r, int64_t c) const {
    return data_.data()[r * last_dim_ + c];
  }
  /// 3-d element access: (n, t, h). Unchecked.
  float& at(int64_t n, int64_t t, int64_t h) {
    return data_.data()[(n * shape_[1] + t) * shape_[2] + h];
  }
  float at(int64_t n, int64_t t, int64_t h) const {
    return data_.data()[(n * shape_[1] + t) * shape_[2] + h];
  }

  /// Returns a tensor with the same data and a new shape; numel must match.
  Tensor reshaped(Shape new_shape) const;
  /// Reinterprets [a, b, c] as [a*b, c] (no copy of semantics, data shared
  /// by value copy). Requires dim() >= 2.
  Tensor flattened_2d() const;

  /// In-place fill.
  void fill(float v);
  /// In-place zero.
  void zero() { fill(0.0f); }

  /// Elementwise in-place accumulate: *this += other. Shapes must match.
  void add_(const Tensor& other);
  /// Elementwise in-place scale: *this *= s.
  void scale_(float s);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable "[2, 3, 4]" string for diagnostics.
  std::string shape_str() const;

 private:
  Shape shape_;
  Buffer data_;
  /// Extent of the last dimension, cached so at(r, c) is a single multiply
  /// rather than a bounds-checked size(-1) call per element access.
  int64_t last_dim_ = 0;
};

/// Product of all extents; throws on negative extents.
int64_t shape_numel(const Shape& shape);

}  // namespace hanayo::tensor
