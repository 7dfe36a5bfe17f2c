#include "model/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::model {

using namespace hanayo::tensor;

// ---------------------------------------------------------------- Linear

Linear::Linear(std::string name, int64_t in, int64_t out, Rng& rng,
               float init_std)
    : name_(std::move(name)),
      in_(in),
      out_(out),
      w_(name_ + ".w", rng.randn({in, out}, init_std)),
      b_(name_ + ".b", Tensor({out})) {}

Tensor Linear::apply(const Tensor& x) const {
  if (x.dim() < 2 || x.size(-1) != in_) {
    throw std::invalid_argument(name_ + ": input dim " + x.shape_str());
  }
  // The GEMM reads x as [rows, in_] in place — no flatten copy, no reshape
  // copy on the way out; the bias is a row-wise epilogue over y. Each
  // output element is an independent ascending-k dot, so a row's result
  // does not depend on how many rows share the call — the property
  // KV-cache decode relies on.
  const int64_t rows = x.numel() / in_;
  tensor::Shape out_shape = x.shape();
  out_shape.back() = out_;
  Tensor y(std::move(out_shape));
  kernels::gemm(rows, out_, in_, x.data(), in_, w_.value.data(), out_,
                y.data(), out_, /*accumulate=*/false);
  add_bias_(y, b_.value);
  return y;
}

Tensor Linear::forward(const Tensor& x, int mb) {
  Tensor y = apply(x);
  saved_x_.put(mb, x);
  return y;
}

Tensor Linear::backward(const Tensor& dy, int mb) {
  const Tensor x = saved_x_.take(mb, name_);
  const int64_t rows = x.numel() / in_;
  // dW += x^T dy, accumulated straight into the gradient — no temporary.
  kernels::gemm_at(in_, out_, rows, x.data(), in_, dy.data(), out_,
                   w_.grad.data(), out_, /*accumulate=*/true);
  // db += column sums of dy, straight into the gradient.
  col_sum_accum(dy, b_.grad);
  // dx = dy W^T, written into a tensor that already has the input's shape.
  Tensor dx(x.shape());
  kernels::gemm_bt(rows, in_, out_, dy.data(), out_, w_.value.data(), out_,
                   dx.data(), in_, /*accumulate=*/false);
  return dx;
}

Tensor Linear::forward_infer(const Tensor& x, int64_t, int) { return apply(x); }

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// -------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::string name, int64_t dim, float eps)
    : name_(std::move(name)),
      dim_(dim),
      eps_(eps),
      g_(name_ + ".g", Tensor::ones({dim})),
      b_(name_ + ".b", Tensor({dim})) {}

Tensor LayerNorm::normalize(const Tensor& x, Saved* sv) const {
  const int64_t n = x.size(-1);
  if (n != dim_) throw std::invalid_argument(name_ + ": dim mismatch");
  const int64_t rows = x.numel() / n;
  if (sv != nullptr) *sv = Saved{Tensor(x.shape()), Tensor({rows})};
  Tensor y(x.shape());
  // Rows are independent (the learned gain/bias are read-only here), so the
  // intra-op pool can split them; per-row accumulation order is unchanged.
  parallel_for(rows, 16, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = x.data() + i * n;
      double mu = 0.0;
      for (int64_t j = 0; j < n; ++j) mu += row[j];
      mu /= static_cast<double>(n);
      double var = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        const double d = row[j] - mu;
        var += d * d;
      }
      var /= static_cast<double>(n);
      const float is = static_cast<float>(1.0 / std::sqrt(var + eps_));
      float* yr = y.data() + i * n;
      float* xh = sv != nullptr ? sv->xhat.data() + i * n : nullptr;
      if (sv != nullptr) sv->inv_std[i] = is;
      for (int64_t j = 0; j < n; ++j) {
        const float v = (row[j] - static_cast<float>(mu)) * is;
        if (xh != nullptr) xh[j] = v;
        yr[j] = v * g_.value[j] + b_.value[j];
      }
    }
  });
  return y;
}

Tensor LayerNorm::forward(const Tensor& x, int mb) {
  Saved sv;
  Tensor y = normalize(x, &sv);
  saved_.put(mb, std::move(sv));
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy, int mb) {
  const Saved sv = saved_.take(mb, name_);
  const Tensor& xhat = sv.xhat;
  const Tensor& inv_std = sv.inv_std;
  const int64_t n = dim_;
  const int64_t rows = dy.numel() / n;
  Tensor dx(dy.shape());
  for (int64_t i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * n;
    const float* xh = xhat.data() + i * n;
    float* dxr = dx.data() + i * n;
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float dxhat = dyr[j] * g_.value[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[j];
      g_.grad[j] += dyr[j] * xh[j];
      b_.grad[j] += dyr[j];
    }
    const float m1 = static_cast<float>(sum_dxhat / static_cast<double>(n));
    const float m2 = static_cast<float>(sum_dxhat_xhat / static_cast<double>(n));
    const float is = inv_std[i];
    for (int64_t j = 0; j < n; ++j) {
      const float dxhat = dyr[j] * g_.value[j];
      dxr[j] = is * (dxhat - m1 - xh[j] * m2);
    }
  }
  return dx;
}

Tensor LayerNorm::forward_infer(const Tensor& x, int64_t, int) {
  return normalize(x, nullptr);
}

void LayerNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&g_);
  out.push_back(&b_);
}

// ------------------------------------------------------------------ Gelu

Tensor Gelu::forward(const Tensor& x, int mb) {
  saved_x_.put(mb, x);
  return gelu(x);
}

Tensor Gelu::backward(const Tensor& dy, int mb) {
  return gelu_grad(saved_x_.take(mb, name_), dy);
}

Tensor Gelu::forward_infer(const Tensor& x, int64_t, int) { return gelu(x); }

// ------------------------------------------------------------- Embedding

Embedding::Embedding(std::string name, int64_t vocab, int64_t max_seq,
                     int64_t hidden, Rng& rng, float init_std)
    : name_(std::move(name)),
      vocab_(vocab),
      max_seq_(max_seq),
      hidden_(hidden),
      tok_(name_ + ".tok", rng.randn({vocab, hidden}, init_std)),
      pos_(name_ + ".pos", rng.randn({max_seq, hidden}, init_std)) {}

Tensor Embedding::embed(const Tensor& ids, int64_t pos0) const {
  if (ids.dim() != 2) throw std::invalid_argument(name_ + ": expect [b, t] ids");
  const int64_t b = ids.size(0), t = ids.size(1);
  if (pos0 < 0 || pos0 + t > max_seq_) {
    throw std::invalid_argument(name_ + ": positions past max sequence length");
  }
  Tensor y({b, t, hidden_});
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      const auto id = static_cast<int64_t>(ids.at(i, j));
      if (id < 0 || id >= vocab_) throw std::out_of_range(name_ + ": token id");
      const float* trow = tok_.value.data() + id * hidden_;
      const float* prow = pos_.value.data() + (pos0 + j) * hidden_;
      float* yrow = y.data() + (i * t + j) * hidden_;
      for (int64_t h = 0; h < hidden_; ++h) yrow[h] = trow[h] + prow[h];
    }
  }
  return y;
}

Tensor Embedding::forward(const Tensor& x, int mb) {
  Tensor y = embed(x, 0);
  saved_ids_.put(mb, x);
  return y;
}

Tensor Embedding::backward(const Tensor& dy, int mb) {
  const Tensor ids = saved_ids_.take(mb, name_);
  const int64_t b = ids.size(0), t = ids.size(1);
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      const auto id = static_cast<int64_t>(ids.at(i, j));
      const float* dyrow = dy.data() + (i * t + j) * hidden_;
      float* tg = tok_.grad.data() + id * hidden_;
      float* pg = pos_.grad.data() + j * hidden_;
      for (int64_t h = 0; h < hidden_; ++h) {
        tg[h] += dyrow[h];
        pg[h] += dyrow[h];
      }
    }
  }
  return Tensor();  // no upstream gradient for token ids
}

Tensor Embedding::forward_infer(const Tensor& x, int64_t pos0, int) {
  return embed(x, pos0);
}

void Embedding::collect_params(std::vector<Param*>& out) {
  out.push_back(&tok_);
  out.push_back(&pos_);
}

}  // namespace hanayo::model
