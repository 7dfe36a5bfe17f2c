#include "tensor/tensor.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "tensor/arena.hpp"

namespace hanayo::tensor {

Shape::Shape(std::initializer_list<int64_t> dims) {
  if (static_cast<int64_t>(dims.size()) > kMaxRank) {
    throw std::invalid_argument("Shape: rank exceeds kMaxRank");
  }
  for (int64_t d : dims) d_[static_cast<size_t>(n_++)] = d;
}

void Shape::push_back(int64_t v) {
  if (n_ >= kMaxRank) throw std::invalid_argument("Shape: rank overflow");
  d_[static_cast<size_t>(n_++)] = v;
}

bool operator==(const Shape& a, const Shape& b) {
  if (a.n_ != b.n_) return false;
  for (int64_t i = 0; i < a.n_; ++i) {
    if (a.d_[static_cast<size_t>(i)] != b.d_[static_cast<size_t>(i)]) {
      return false;
    }
  }
  return true;
}

Buffer::Buffer(int64_t n) : n_(n) {
  if (n_ <= 0) {
    n_ = 0;
    return;
  }
  if (Arena* a = Arena::current()) {
    p_ = a->alloc_floats(n_);
    arena_ = a;
  } else {
    p_ = new float[static_cast<size_t>(n_)];
  }
}

Buffer::Buffer(const Buffer& o) : Buffer(o.n_) {
  if (n_ > 0) std::memcpy(p_, o.p_, static_cast<size_t>(n_) * sizeof(float));
}

Buffer::Buffer(Buffer&& o) noexcept : p_(o.p_), n_(o.n_), arena_(o.arena_) {
  o.p_ = nullptr;
  o.n_ = 0;
  o.arena_ = nullptr;
}

Buffer& Buffer::operator=(const Buffer& o) {
  if (this == &o) return *this;
  // Allocate-from-current-context semantics, like the copy constructor:
  // the copy's lifetime belongs to whoever is making it now.
  Buffer tmp(o);
  *this = std::move(tmp);
  return *this;
}

Buffer& Buffer::operator=(Buffer&& o) noexcept {
  if (this == &o) return *this;
  release();
  p_ = o.p_;
  n_ = o.n_;
  arena_ = o.arena_;
  o.p_ = nullptr;
  o.n_ = 0;
  o.arena_ = nullptr;
  return *this;
}

void Buffer::release() {
  // Arena-backed payloads are reclaimed in bulk by Arena::reset(); this
  // destructor must not touch the pointer at all — the arena may already
  // have been reset by its owner thread by the time a cross-thread
  // consumer drops its (moved-from or copied) handle.
  if (arena_ == nullptr && p_ != nullptr) delete[] p_;
  p_ = nullptr;
  n_ = 0;
  arena_ = nullptr;
}

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape),
      data_(shape_numel(shape_)),
      last_dim_(shape_.empty() ? 0 : shape_.back()) {
  this->fill(fill);
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = shape;
  t.data_ = Buffer(shape_numel(shape));
  t.last_dim_ = shape.empty() ? 0 : shape.back();
  return t;
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : shape_(shape),
      data_(shape_numel(shape_)),
      last_dim_(shape_.empty() ? 0 : shape_.back()) {
  if (data_.size() != static_cast<int64_t>(data.size())) {
    throw std::invalid_argument("data size does not match shape");
  }
  if (data_.size() > 0) {
    std::memcpy(data_.data(), data.data(),
                static_cast<size_t>(data_.size()) * sizeof(float));
  }
}

int64_t Tensor::size(int64_t i) const {
  const int64_t d = dim();
  if (i < 0) i += d;
  if (i < 0 || i >= d) throw std::out_of_range("Tensor::size index");
  return shape_[i];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: numel mismatch");
  }
  Tensor out;
  out.shape_ = new_shape;
  out.last_dim_ = out.shape_.empty() ? 0 : out.shape_.back();
  out.data_ = data_;
  return out;
}

Tensor Tensor::flattened_2d() const {
  if (dim() < 2) throw std::invalid_argument("flattened_2d: need dim>=2");
  int64_t cols = size(-1);
  return reshaped({numel() / cols, cols});
}

void Tensor::fill(float v) {
  float* p = data_.data();
  const int64_t n = data_.size();
  for (int64_t i = 0; i < n; ++i) p[i] = v;
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("add_: shape mismatch");
  const float* src = other.data();
  float* dst = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Tensor::scale_(float s) {
  float* p = data_.data();
  const int64_t n = data_.size();
  for (int64_t i = 0; i < n; ++i) p[i] *= s;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (int64_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace hanayo::tensor
