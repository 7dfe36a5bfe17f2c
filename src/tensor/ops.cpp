#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::tensor {

namespace {
void check_2d(const Tensor& t, const char* who) {
  if (t.dim() != 2) throw std::invalid_argument(std::string(who) + ": need 2-d tensor");
}

// Elementwise ops below this size run inline; above it they split across
// the intra-op pool (each index is independent, so any split is exact).
constexpr int64_t kRowGrain = 16;
constexpr int64_t kElemGrain = 1 << 14;
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul");
  check_2d(b, "matmul");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  kernels::gemm(m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_bt");
  check_2d(b, "matmul_bt");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k) throw std::invalid_argument("matmul_bt: inner dim mismatch");
  Tensor c({m, n});
  kernels::gemm_bt(m, n, k, a.data(), k, b.data(), k, c.data(), n, false);
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_at");
  check_2d(b, "matmul_at");
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul_at: inner dim mismatch");
  Tensor c({m, n});
  kernels::gemm_at(m, n, k, a.data(), m, b.data(), n, c.data(), n, false);
  return c;
}

Tensor transpose(const Tensor& a) {
  check_2d(a, "transpose");
  Tensor t({a.size(1), a.size(0)});
  kernels::transpose_pack(a.data(), a.size(0), a.size(1), a.size(1),
                          t.data());
  return t;
}

namespace {
template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, F f, const char* who) {
  if (!a.same_shape(b)) throw std::invalid_argument(std::string(who) + ": shape mismatch");
  Tensor c(a.shape());
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) c[i] = f(a[i], b[i]);
  return c;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, [](float x, float y) { return x * y; }, "mul");
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor c = a;
  for (float& x : c.flat()) x += s;
  return c;
}
Tensor mul_scalar(const Tensor& a, float s) {
  Tensor c = a;
  c.scale_(s);
  return c;
}

void add_bias_(Tensor& a, const Tensor& bias) {
  const int64_t n = a.size(-1);
  if (bias.numel() != n) throw std::invalid_argument("add_bias: bias length mismatch");
  const int64_t rows = a.numel() / n;
  float* data = a.data();
  const float* bp = bias.data();
  parallel_for(rows, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float* row = data + i * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bp[j];
    }
  });
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  Tensor c = a;
  add_bias_(c, bias);
  return c;
}

void col_sum_accum(const Tensor& a, Tensor& out) {
  const int64_t n = a.size(-1);
  if (out.numel() != n) throw std::invalid_argument("col_sum: output length mismatch");
  const int64_t rows = a.numel() / n;
  const float* data = a.data();
  float* op = out.data();
  parallel_for(n, 64, [&](int64_t c0, int64_t c1) {
    for (int64_t i = 0; i < rows; ++i) {
      const float* row = data + i * n;
      for (int64_t j = c0; j < c1; ++j) op[j] += row[j];
    }
  });
}

Tensor col_sum(const Tensor& a) {
  Tensor s({a.size(-1)});
  col_sum_accum(a, s);
  return s;
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float x : a.flat()) acc += x;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float x : a.flat()) m = std::max(m, std::fabs(x));
  return m;
}

Tensor softmax_lastdim(const Tensor& a) {
  const int64_t n = a.size(-1);
  const int64_t rows = a.numel() / n;
  Tensor out = a;
  float* data = out.data();
  parallel_for(rows, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float* row = data + i * n;
      float mx = row[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - mx);
        denom += row[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < n; ++j) row[j] *= inv;
    }
  });
  return out;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

Tensor gelu(const Tensor& a) {
  Tensor out = a;
  float* data = out.data();
  parallel_for(out.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float x = data[i];
      const float t = std::tanh(kGeluC * (x + 0.044715f * x * x * x));
      data[i] = 0.5f * x * (1.0f + t);
    }
  });
  return out;
}

Tensor gelu_grad(const Tensor& x, const Tensor& dy) {
  if (!x.same_shape(dy)) throw std::invalid_argument("gelu_grad: shape mismatch");
  Tensor dx(x.shape());
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  parallel_for(x.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float v = xp[i];
      const float inner = kGeluC * (v + 0.044715f * v * v * v);
      const float t = std::tanh(inner);
      const float sech2 = 1.0f - t * t;
      const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float g = 0.5f * (1.0f + t) + 0.5f * v * sech2 * dinner;
      dxp[i] = dyp[i] * g;
    }
  });
  return dx;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.same_shape(b)) return false;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(a[i] - b[i]) > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

}  // namespace hanayo::tensor
