#include "model/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/kv_store.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::model {

using namespace hanayo::tensor;

MultiHeadAttention::MultiHeadAttention(std::string name, int64_t hidden,
                                       int64_t heads, bool causal, Rng& rng,
                                       float init_std)
    : name_(std::move(name)),
      hidden_(hidden),
      heads_(heads),
      dk_(hidden / heads),
      causal_(causal),
      qkv_proj_(name_ + ".qkv", hidden, 3 * hidden, rng, init_std),
      out_proj_(name_ + ".out", hidden, hidden, rng, init_std) {
  if (hidden % heads != 0) {
    throw std::invalid_argument(name_ + ": hidden must divide by heads");
  }
}

// The (batch, head) pairs are fully independent: each one reads its own
// Q/K/V panels (strided slices of the fused [b, t, 3h] projection) and
// writes disjoint slices of probs/ctx (forward) or dqkv (backward). The
// intra-op pool splits the pairs; inside a pair the blocked GEMM kernels
// run inline, so results are bit-identical for any thread count.
//
// Within a pair, the score-matrix rows are processed in fixed blocks of
// kRowBlock; a causal pair bounds every GEMM's column extent by the
// block's last row (jext), so the masked upper triangle costs no FLOPs —
// the same triangular saving the seed's scalar loops had. The extent
// depends only on the row index, never on the thread count.
namespace {
constexpr int64_t kRowBlock = 64;

// Scales the first `jmax` scores of a row and replaces them by their
// softmax (double-accumulated denominator, ascending j). The training
// forward and the decode path both call it, so a decoded row matches the
// full-prefix recompute bit for bit.
void softmax_row(float* prow, int64_t jmax, float scale) {
  float mx = -1e30f;
  for (int64_t j = 0; j < jmax; ++j) {
    prow[j] *= scale;
    mx = std::max(mx, prow[j]);
  }
  double denom = 0.0;
  for (int64_t j = 0; j < jmax; ++j) {
    prow[j] = std::exp(prow[j] - mx);
    denom += prow[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t j = 0; j < jmax; ++j) prow[j] *= inv;
}
}  // namespace

Tensor MultiHeadAttention::forward(const Tensor& x, int mb) {
  const int64_t b = x.size(0), t = x.size(1);
  Tensor qkv = qkv_proj_.forward(x, mb);  // [b, t, 3h]
  Tensor probs({b, heads_, t, t});
  Tensor ctx({b, t, hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const int64_t h3 = 3 * hidden_;
  const float* qkvp = qkv.data();
  float* probsp = probs.data();
  float* ctxp = ctx.data();
  const bool causal = causal_;
  const int64_t heads = heads_, dk = dk_, hidden = hidden_;

  parallel_for(b * heads, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t n = p / heads, hh = p % heads;
      const float* q = qkvp + n * t * h3 + hh * dk;
      const float* k = q + hidden;
      const float* v = k + hidden;
      float* prob = probsp + p * t * t;
      for (int64_t i0 = 0; i0 < t; i0 += kRowBlock) {
        const int64_t i1 = std::min(i0 + kRowBlock, t);
        const int64_t jext = causal ? i1 : t;  // columns rows < i1 can see
        // scores = Q K^T for this row block (blocked GEMM, triangular cut)
        kernels::gemm_bt(i1 - i0, jext, dk, q + i0 * h3, h3, k, h3,
                         prob + i0 * t, t, false);
        // scale + row softmax, then zero the causally masked columns
        for (int64_t i = i0; i < i1; ++i) {
          float* prow = prob + i * t;
          const int64_t jmax = causal ? i + 1 : t;
          softmax_row(prow, jmax, scale);
          for (int64_t j = jmax; j < t; ++j) prow[j] = 0.0f;
        }
        // context = probs @ V over the visible columns only
        kernels::gemm(i1 - i0, dk, jext, prob + i0 * t, t, v, h3,
                      ctxp + (n * t + i0) * hidden + hh * dk, hidden, false);
      }
    }
  });

  Tensor y = out_proj_.forward(ctx, mb);
  saved_.put(mb, Saved{std::move(qkv), std::move(probs)});
  return y;
}

Tensor MultiHeadAttention::backward(const Tensor& dy, int mb) {
  Saved sv = saved_.take(mb, name_);
  const Tensor& qkv = sv.qkv;
  const Tensor& probs = sv.probs;

  Tensor dctx = out_proj_.backward(dy, mb);  // [b, t, h]
  const int64_t b = dctx.size(0), t = dctx.size(1);
  Tensor dqkv({b, t, 3 * hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const int64_t h3 = 3 * hidden_;
  const float* qkvp = qkv.data();
  const float* probsp = probs.data();
  const float* dctxp = dctx.data();
  float* dqkvp = dqkv.data();
  const bool causal = causal_;
  const int64_t heads = heads_, dk = dk_, hidden = hidden_;

  parallel_for(b * heads, 1, [&](int64_t p0, int64_t p1) {
    // dP/dS scratch for this chunk. On the submitting worker it comes from
    // the iteration arena (mark/rewind, freed at chunk exit); pool threads
    // without an arena fall back to a bounded geometric thread_local
    // instead of the old unbounded exact-size one.
    thread_local std::vector<float> fallback;
    ScratchBuffer scratch(t * t, fallback);
    float* ds = scratch.data();
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t n = p / heads, hh = p % heads;
      const float* q = qkvp + n * t * h3 + hh * dk;
      const float* k = q + hidden;
      const float* v = k + hidden;
      float* dq = dqkvp + n * t * h3 + hh * dk;
      float* dkp = dq + hidden;
      float* dv = dkp + hidden;
      const float* prob = probsp + p * t * t;
      const float* dc = dctxp + n * t * hidden + hh * dk;
      for (int64_t i0 = 0; i0 < t; i0 += kRowBlock) {
        const int64_t i1 = std::min(i0 + kRowBlock, t);
        const int64_t mbr = i1 - i0;
        const int64_t jext = causal ? i1 : t;
        const float* prob_b = prob + i0 * t;
        const float* dc_b = dc + i0 * hidden;
        float* ds_b = ds + i0 * t;
        // dV[0:jext] += P^T dctx over this row block (row blocks ascend,
        // so each dV element still accumulates in ascending-i order)
        kernels::gemm_at(jext, dk, mbr, prob_b, t, dc_b, hidden, dv, h3,
                         true);
        // dP = dctx V^T for the visible columns
        kernels::gemm_bt(mbr, jext, dk, dc_b, hidden, v, h3, ds_b, t, false);
        // dS = P * (dP - sum_j dP*P) * scale (softmax backward), masked
        for (int64_t i = i0; i < i1; ++i) {
          const int64_t jmax = causal ? i + 1 : t;
          const float* prow = prob + i * t;
          float* dsrow = ds + i * t;
          double dot_dp_p = 0.0;
          for (int64_t j = 0; j < jmax; ++j) {
            dot_dp_p += static_cast<double>(dsrow[j]) * prow[j];
          }
          const float dot = static_cast<float>(dot_dp_p);
          for (int64_t j = 0; j < jmax; ++j) {
            dsrow[j] = prow[j] * (dsrow[j] - dot) * scale;
          }
          for (int64_t j = jmax; j < t; ++j) dsrow[j] = 0.0f;
        }
        // dQ += dS K;  dK += dS^T Q — visible columns only
        kernels::gemm(mbr, dk, jext, ds_b, t, k, h3, dq + i0 * h3, h3, true);
        kernels::gemm_at(jext, dk, mbr, ds_b, t, q + i0 * h3, h3, dkp, h3,
                         true);
      }
    }
  });

  sv = Saved{};  // free qkv/probs before the projection's backward
  return qkv_proj_.backward(dqkv, mb);
}

Tensor MultiHeadAttention::forward_infer(const Tensor& x, int64_t pos0,
                                         int slot) {
  if (store_ == nullptr) {
    throw std::logic_error(name_ + ": decode without a KV store");
  }
  if (x.size(0) != 1) {
    throw std::invalid_argument(name_ + ": decode streams are batch-1");
  }
  const int64_t t = x.size(1);
  const int64_t cached = store_->lane_len(lane_, slot);
  if (pos0 != cached) {
    throw std::logic_error(name_ + ": decode out of order (pos0 " +
                           std::to_string(pos0) + ", cached " +
                           std::to_string(cached) + ")");
  }
  Tensor qkv = qkv_proj_.forward_infer(x, pos0, slot);  // [1, t, 3h]
  const int64_t h3 = 3 * hidden_;
  for (int64_t j = 0; j < t; ++j) {
    const float* src = qkv.data() + j * h3;
    store_->append(lane_, slot, src + hidden_, src + 2 * hidden_);
  }

  // Attend each new token over the cached prefix, page run by page run.
  // Extents are per *row* (jmax = absolute position + 1), so every row's
  // value is identical whether the prefix arrived in one prefill call or
  // token by token.
  using Panel = runtime::KvStore::Panel;
  const int64_t total = pos0 + t;
  const int64_t pg = store_->page_tokens();
  const int64_t pages = (total + pg - 1) / pg;
  Tensor probs({heads_, t, total});
  Tensor ctx({1, t, hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const float* qkvp = qkv.data();
  float* probsp = probs.data();
  float* ctxp = ctx.data();
  float* scratch = run_scratch_.data();
  const runtime::KvStore& store = *store_;
  const int lane = lane_;
  const bool causal = causal_;
  const int64_t dk = dk_, hidden = hidden_;
  const auto visible = [&](int64_t r) { return causal ? pos0 + r + 1 : total; };

  parallel_for(heads_, 1, [&](int64_t h0, int64_t h1) {
    for (int64_t hh = h0; hh < h1; ++hh) {
      const float* q = qkvp + hh * dk;
      float* prob = probsp + hh * t * total;
      // scores = q_r K^T, one gemm_bt per run at the run's column offset
      for (int64_t page = 0; page < pages; ++page) {
        const int64_t j0 = page * pg, rows = std::min(pg, total - j0);
        const float* kc = store.run(lane, slot, page, Panel::K, rows,
                                    hh * dk, dk, scratch) + hh * dk;
        for (int64_t r = 0; r < t; ++r) {
          const int64_t n = std::min(rows, visible(r) - j0);
          if (n <= 0) continue;
          kernels::gemm_bt(1, n, dk, q + r * h3, h3, kc, hidden,
                           prob + r * total + j0, total, false);
        }
      }
      // scale + row softmax — the training forward's helper
      for (int64_t r = 0; r < t; ++r) {
        softmax_row(prob + r * total, visible(r), scale);
      }
      // context = probs @ V, accumulated run by run in ascending-k order
      for (int64_t page = 0; page < pages; ++page) {
        const int64_t j0 = page * pg, rows = std::min(pg, total - j0);
        const float* vc = store.run(lane, slot, page, Panel::V, rows,
                                    hh * dk, dk, scratch) + hh * dk;
        for (int64_t r = 0; r < t; ++r) {
          const int64_t n = std::min(rows, visible(r) - j0);
          if (n <= 0) continue;
          kernels::gemm(1, dk, n, prob + r * total + j0, total, vc, hidden,
                        ctxp + r * hidden + hh * dk, hidden, j0 > 0);
        }
      }
    }
  });

  return out_proj_.forward_infer(ctx, pos0, slot);
}

void MultiHeadAttention::set_kv_store(runtime::KvStore* store) {
  if (store != nullptr && store->row_elems() != hidden_) {
    throw std::invalid_argument(name_ + ": KV store rows must be hidden-wide");
  }
  store_ = store;
  lane_ = store != nullptr ? store->register_lane() : -1;
  run_scratch_.assign(
      store != nullptr && store->fp16()
          ? static_cast<size_t>(store->page_tokens() * hidden_)
          : 0,
      0.0f);
}

void MultiHeadAttention::collect_params(std::vector<Param*>& out) {
  qkv_proj_.collect_params(out);
  out_proj_.collect_params(out);
}

}  // namespace hanayo::model
