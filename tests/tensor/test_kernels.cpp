// The blocked GEMM kernels against a naive reference: odd shapes that don't
// divide the register/cache blocks, degenerate extents, the accumulate
// forms, and the determinism contract — bit-identical results for 1 vs N
// intra-op threads. The KernelsIsa suite repeats the checks for every
// per-ISA variant of the micro-kernel the host can run, pins the
// transposed layouts bitwise to the plain gemm, and checks the vectorised
// GELU against a double-precision reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/kernels_isa.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace ht = hanayo::tensor;

namespace {

ht::Tensor naive_matmul(const ht::Tensor& a, const ht::Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  ht::Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  return c;
}

// Shapes chosen to exercise every edge of the blocking: smaller than one
// micro-tile, exact multiples, one-off remainders, m=1 / k=1 rows, and
// sizes spanning a KC boundary.
struct Mnk {
  int64_t m, n, k;
};
const Mnk kShapes[] = {
    {1, 1, 1},   {1, 17, 1},  {3, 5, 2},    {6, 16, 8},   {7, 17, 9},
    {12, 32, 16}, {13, 33, 31}, {1, 64, 300}, {64, 1, 300}, {37, 41, 259},
    {48, 48, 257},
};

constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-5f;

}  // namespace

TEST(Kernels, MatmulMatchesNaiveAcrossShapes) {
  ht::Rng rng(11);
  for (const auto& s : kShapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    const ht::Tensor out = ht::matmul(a, b);
    EXPECT_TRUE(ht::allclose(out, naive_matmul(a, b), kRtol, kAtol))
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, MatmulBtAndAtMatchNaiveAcrossShapes) {
  ht::Rng rng(12);
  for (const auto& s : kShapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    const ht::Tensor ref = naive_matmul(a, b);
    ht::Tensor out = ht::matmul_bt(a, ht::transpose(b));
    EXPECT_TRUE(ht::allclose(out, ref, kRtol, kAtol))
        << "bt " << s.m << "x" << s.n << "x" << s.k;
    out = ht::matmul_at(ht::transpose(a), b);
    EXPECT_TRUE(ht::allclose(out, ref, kRtol, kAtol))
        << "at " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Kernels, EmptyExtentsAreHandled) {
  // k = 0: the product is all zeros (and an overwriting gemm must clear
  // stale data).
  ht::Tensor a({3, 0});
  ht::Tensor b({0, 4});
  ht::Tensor out({3, 4}, 7.0f);
  ht::kernels::gemm(3, 4, 0, a.data(), 0, b.data(), 4, out.data(), 4, false);
  for (float v : out.flat()) EXPECT_EQ(v, 0.0f);
  // m = 0 / n = 0: no output, no crash.
  const ht::Tensor none = ht::matmul(ht::Tensor({0, 2}), ht::Tensor({2, 4}));
  EXPECT_EQ(none.numel(), 0);
}

TEST(Kernels, AccumFormsAddOntoExistingOutput) {
  ht::Rng rng(13);
  ht::Tensor a = rng.randn({9, 23});
  ht::Tensor b = rng.randn({23, 14});
  const ht::Tensor prod = naive_matmul(a, b);

  ht::Tensor acc({9, 14}, 1.5f);
  ht::kernels::gemm(9, 14, 23, a.data(), 23, b.data(), 14, acc.data(), 14,
                    true);
  ht::Tensor expect = ht::add_scalar(prod, 1.5f);
  EXPECT_TRUE(ht::allclose(acc, expect, kRtol, kAtol));

  // bt/at accumulate forms agree with prod + prior contents too.
  const ht::Tensor bt = ht::transpose(b);
  ht::Tensor acc_bt({9, 14}, -0.25f);
  ht::kernels::gemm_bt(9, 14, 23, a.data(), 23, bt.data(), 23, acc_bt.data(),
                       14, true);
  EXPECT_TRUE(ht::allclose(acc_bt, ht::add_scalar(prod, -0.25f), kRtol, kAtol));

  const ht::Tensor at = ht::transpose(a);
  ht::Tensor acc_at({9, 14}, 2.0f);
  ht::kernels::gemm_at(9, 14, 23, at.data(), 9, b.data(), 14, acc_at.data(),
                       14, true);
  EXPECT_TRUE(ht::allclose(acc_at, ht::add_scalar(prod, 2.0f), kRtol, kAtol));
}

TEST(Kernels, RepeatedAccumEqualsScaledProduct) {
  ht::Rng rng(14);
  ht::Tensor a = rng.randn({6, 31});
  ht::Tensor b = rng.randn({31, 6});
  ht::Tensor grad({6, 6});
  for (int i = 0; i < 3; ++i)
    ht::kernels::gemm(6, 6, 31, a.data(), 31, b.data(), 6, grad.data(), 6,
                      true);
  ht::Tensor expect = ht::mul_scalar(naive_matmul(a, b), 3.0f);
  EXPECT_TRUE(ht::allclose(grad, expect, 3e-4f, 3e-5f));
}

TEST(Kernels, BitIdenticalAcrossIntraOpThreadCounts) {
  // The determinism contract behind the Threads==Reference session
  // equivalence: threads partition output rows only, so every element keeps
  // its ascending-k accumulation order. EXPECT_EQ, not allclose.
  ht::Rng rng(15);
  const Mnk shapes[] = {{64, 48, 96}, {61, 67, 73}, {257, 33, 300}};
  for (const auto& s : shapes) {
    ht::Tensor a = rng.randn({s.m, s.k});
    ht::Tensor b = rng.randn({s.k, s.n});
    ht::Tensor bt = ht::transpose(b);
    ht::Tensor at = ht::transpose(a);

    ht::Tensor r1, r1bt, r1at;
    {
      ht::IntraOpScope scope(1);
      r1 = ht::matmul(a, b);
      r1bt = ht::matmul_bt(a, bt);
      r1at = ht::matmul_at(at, b);
    }
    for (int threads : {2, 4, 7}) {
      ht::IntraOpScope scope(threads);
      const ht::Tensor rn = ht::matmul(a, b);
      const ht::Tensor rnbt = ht::matmul_bt(a, bt);
      const ht::Tensor rnat = ht::matmul_at(at, b);
      for (int64_t i = 0; i < rn.numel(); ++i) {
        ASSERT_EQ(r1[i], rn[i]) << "threads=" << threads << " i=" << i;
        ASSERT_EQ(r1bt[i], rnbt[i]) << "bt threads=" << threads << " i=" << i;
        ASSERT_EQ(r1at[i], rnat[i]) << "at threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(Kernels, RowWiseOpsBitIdenticalAcrossThreadCounts) {
  ht::Rng rng(16);
  ht::Tensor x = rng.randn({129, 65});
  ht::Tensor bias = rng.randn({65});

  ht::Tensor sm1, gl1, ab1, cs1;
  {
    ht::IntraOpScope scope(1);
    sm1 = ht::softmax_lastdim(x);
    gl1 = ht::gelu(x);
    ab1 = ht::add_bias(x, bias);
    cs1 = ht::col_sum(x);
  }
  {
    ht::IntraOpScope scope(5);
    const ht::Tensor smn = ht::softmax_lastdim(x);
    const ht::Tensor gln = ht::gelu(x);
    const ht::Tensor abn = ht::add_bias(x, bias);
    const ht::Tensor csn = ht::col_sum(x);
    for (int64_t i = 0; i < x.numel(); ++i) {
      ASSERT_EQ(sm1[i], smn[i]) << i;
      ASSERT_EQ(gl1[i], gln[i]) << i;
      ASSERT_EQ(ab1[i], abn[i]) << i;
    }
    for (int64_t j = 0; j < cs1.numel(); ++j) ASSERT_EQ(cs1[j], csn[j]) << j;
  }

  // 129 x 65 is under gelu's parallel grain (16384 elements), so the case
  // above runs inline at every thread count. 40001 elements split into
  // chunks whose boundaries fall mid-vector.
  const ht::Tensor big = rng.randn({40001});
  const ht::Tensor dbig = rng.randn({40001});
  ht::Tensor g1, gg1;
  {
    ht::IntraOpScope scope(1);
    g1 = ht::gelu(big);
    gg1 = ht::gelu_grad(big, dbig);
  }
  const size_t bytes = static_cast<size_t>(big.numel()) * sizeof(float);
  for (int threads : {2, 4, 7}) {
    ht::IntraOpScope scope(threads);
    ASSERT_EQ(0, std::memcmp(g1.data(), ht::gelu(big).data(), bytes))
        << "gelu threads=" << threads;
    ASSERT_EQ(0, std::memcmp(gg1.data(), ht::gelu_grad(big, dbig).data(),
                             bytes))
        << "gelu_grad threads=" << threads;
  }
}

TEST(Kernels, StridedPanelsMultiplyCorrectly) {
  // The attention path multiplies strided slices of a wider tensor; check
  // the raw-pointer entry points against the dense equivalents.
  ht::Rng rng(17);
  const int64_t t = 7, dk = 5, wide = 3 * dk;
  ht::Tensor panel = rng.randn({t, wide});  // rows hold [q | k | v]
  ht::Tensor q({t, dk}), k({t, dk});
  for (int64_t i = 0; i < t; ++i)
    for (int64_t d = 0; d < dk; ++d) {
      q.at(i, d) = panel.at(i, d);
      k.at(i, d) = panel.at(i, dk + d);
    }
  const ht::Tensor dense = ht::matmul_bt(q, k);

  ht::Tensor strided({t, t});
  ht::kernels::gemm_bt(t, t, dk, panel.data(), wide, panel.data() + dk, wide,
                       strided.data(), t, false);
  for (int64_t i = 0; i < dense.numel(); ++i) ASSERT_EQ(dense[i], strided[i]);
}

TEST(Kernels, TransposeMatchesElementwise) {
  ht::Rng rng(18);
  ht::Tensor a = rng.randn({37, 53});
  const ht::Tensor t = ht::transpose(a);
  for (int64_t i = 0; i < 37; ++i)
    for (int64_t j = 0; j < 53; ++j) ASSERT_EQ(t.at(j, i), a.at(i, j));
}

TEST(Kernels, MatmulRejectsInnerDimMismatch) {
  ht::Tensor a({2, 3});
  ht::Tensor bad_inner({4, 4});
  EXPECT_THROW(ht::matmul(a, bad_inner), std::invalid_argument);
}

namespace {

// The variant named `name`, or nullptr with `why` set when this build or
// host cannot run it.
const ht::kernels::KernelIsa* runnable_isa(const std::string& name,
                                           std::string* why) {
  for (const auto& isa : ht::kernels::kernel_isas()) {
    if (name != isa.name) continue;
    if (isa.host_supports) return &isa;
    *why = "host CPU lacks " + name;
    return nullptr;
  }
  *why = name + " kernel is not compiled for this target";
  return nullptr;
}

// C = or += A * B through one variant's gemm, dense row-major operands.
void gemm_on(const ht::kernels::KernelIsa& isa, const ht::Tensor& a,
             const ht::Tensor& b, ht::Tensor& c, bool accumulate) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  ht::kernels::gemm_with(isa, {m, n, k, a.data(), k, false, b.data(), n,
                               false, c.data(), n, accumulate});
}

// m, n, k off every tile multiple (MR 4/6/8, NR 12/16/48, VLEN 4/8/16),
// exact multiples, k straddling 64 and the 256-deep K panel.
const Mnk kRaggedShapes[] = {
    {1, 1, 1},     {1, 17, 300},  {3, 5, 2},     {5, 13, 63},
    {7, 23, 65},   {9, 37, 257},  {13, 49, 256}, {17, 53, 300},
    {24, 96, 64},  {25, 100, 513}, {31, 70, 129}, {64, 1, 300},
};

// src (rows x cols, row stride ld_src) transposed into a fresh cols x rows
// tensor with row stride ld_dst (padding columns hold noise).
ht::Tensor transposed(const ht::Tensor& src, int64_t rows, int64_t cols,
                      int64_t ld_dst, ht::Rng& rng) {
  ht::Tensor dst = rng.randn({cols, ld_dst});
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) dst.at(c, r) = src.at(r, c);
  return dst;
}

// gelu / gelu_grad of the tanh approximation in double precision.
double gelu_ref(double x) {
  const double t = std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x));
  return 0.5 * x * (1.0 + t);
}
double gelu_grad_ref(double x) {
  const double t = std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x));
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * 0.7978845608028654 *
                               (1.0 + 3.0 * 0.044715 * x * x);
}

class KernelsIsa : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    std::string why;
    isa_ = runnable_isa(GetParam(), &why);
    if (isa_ == nullptr) GTEST_SKIP() << why;
  }

  const ht::kernels::KernelIsa* isa_ = nullptr;
};

}  // namespace

TEST_P(KernelsIsa, MatchesNaiveOnRaggedShapes) {
  // kRaggedShapes, with accumulate both ways.
  ht::Rng rng(31);
  for (const auto& s : kRaggedShapes) {
    const ht::Tensor a = rng.randn({s.m, s.k});
    const ht::Tensor b = rng.randn({s.k, s.n});
    const ht::Tensor c0 = rng.randn({s.m, s.n});
    const ht::Tensor prod = naive_matmul(a, b);
    const ht::Tensor prod_plus_c0 = ht::add(prod, c0);
    ht::Tensor out = c0;
    gemm_on(*isa_, a, b, out, false);
    EXPECT_TRUE(ht::allclose(out, prod, kRtol, kAtol))
        << s.m << "x" << s.n << "x" << s.k;
    out = c0;
    gemm_on(*isa_, a, b, out, true);
    EXPECT_TRUE(ht::allclose(out, prod_plus_c0, kRtol, kAtol))
        << "accumulate " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST_P(KernelsIsa, BitIdenticalAcrossThreadCounts) {
  // Within one variant the row partition is by its MR only: EXPECT_EQ, not
  // allclose.
  const Mnk shapes[] = {{64, 48, 96}, {61, 67, 73}, {257, 33, 300}};
  ht::Rng rng(32);
  for (const auto& s : shapes) {
    const ht::Tensor a = rng.randn({s.m, s.k});
    const ht::Tensor b = rng.randn({s.k, s.n});
    const ht::Tensor c0 = rng.randn({s.m, s.n});
    for (bool accumulate : {false, true}) {
      ht::Tensor ref = c0;
      {
        ht::IntraOpScope scope(1);
        gemm_on(*isa_, a, b, ref, accumulate);
      }
      for (int threads : {1, 2, 4, 7}) {
        ht::IntraOpScope scope(threads);
        ht::Tensor out = c0;
        gemm_on(*isa_, a, b, out, accumulate);
        ASSERT_EQ(0, std::memcmp(ref.data(), out.data(),
                                 static_cast<size_t>(ref.numel()) *
                                     sizeof(float)))
            << s.m << "x" << s.n << "x" << s.k << " threads=" << threads
            << " accumulate=" << accumulate;
      }
    }
  }
}

TEST_P(KernelsIsa, TransposedLayoutsEqualGemmBitwise) {
  // gemm_bt packs B per K panel and gemm_at reads A in place; both must
  // give exactly the bits of the plain gemm on explicitly transposed
  // operands: dense and strided panels, accumulate both ways, 1 and N
  // threads, k spanning several K panels.
  ht::Rng rng(33);
  for (const auto& s : kRaggedShapes) {
    for (int64_t pad : {0, 3}) {
      const int64_t lda = s.k + pad, ldb = s.n + pad;
      const int64_t lda_t = s.m + pad, ldb_t = s.k + pad;
      const ht::Tensor a = rng.randn({s.m, lda});
      const ht::Tensor b = rng.randn({s.k, ldb});
      const ht::Tensor a_t = transposed(a, s.m, s.k, lda_t, rng);
      const ht::Tensor b_t = transposed(b, s.k, s.n, ldb_t, rng);
      const ht::Tensor c0 = rng.randn({s.m, s.n});
      for (bool accumulate : {false, true}) {
        for (int threads : {1, 4}) {
          ht::IntraOpScope scope(threads);
          ht::Tensor ref = c0;
          ht::kernels::gemm_with(*isa_, {s.m, s.n, s.k, a.data(), lda, false,
                                         b.data(), ldb, false, ref.data(),
                                         s.n, accumulate});
          for (bool at : {false, true}) {
            for (bool bt : {false, true}) {
              if (!at && !bt) continue;
              ht::Tensor out = c0;
              ht::kernels::gemm_with(
                  *isa_, {s.m, s.n, s.k, at ? a_t.data() : a.data(),
                          at ? lda_t : lda, at, bt ? b_t.data() : b.data(),
                          bt ? ldb_t : ldb, bt, out.data(), s.n, accumulate});
              ASSERT_EQ(0, std::memcmp(ref.data(), out.data(),
                                       static_cast<size_t>(ref.numel()) *
                                           sizeof(float)))
                  << s.m << "x" << s.n << "x" << s.k << " pad=" << pad
                  << " a_t=" << at << " b_t=" << bt
                  << " accumulate=" << accumulate << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelsIsa, GeluMatchesDoubleReference) {
  // The rational tanh against libm's double tanh over [-12, 12], plus
  // saturated inputs, which must stay finite and keep their sign (or be
  // zero).
  std::vector<float> x;
  for (int i = -12000; i <= 12000; ++i) x.push_back(1e-3f * static_cast<float>(i));
  for (float v : {20.0f, 1e4f}) {
    x.push_back(v);
    x.push_back(-v);
  }
  const int64_t n = static_cast<int64_t>(x.size());
  const std::vector<float> ones(x.size(), 1.0f);
  std::vector<float> y(x.size()), g(x.size());
  isa_->gelu(x.data(), y.data(), n);
  isa_->gelu_grad(x.data(), ones.data(), g.data(), n);
  for (size_t i = 0; i < x.size(); ++i) {
    const double xd = x[i];
    const double tol = 1e-5 * std::max(1.0, std::fabs(xd));
    const double yr = gelu_ref(xd), gr = gelu_grad_ref(xd);
    ASSERT_LE(std::fabs(y[i] - yr), tol) << "gelu x=" << x[i];
    ASSERT_LE(std::fabs(g[i] - gr), tol) << "gelu_grad x=" << x[i];
    ASSERT_TRUE(std::isfinite(y[i]) && std::isfinite(g[i])) << x[i];
    ASSERT_TRUE(y[i] == 0.0f || (y[i] > 0) == (yr > 0)) << "gelu x=" << x[i];
    ASSERT_TRUE(g[i] == 0.0f || (g[i] > 0) == (gr > 0))
        << "gelu_grad x=" << x[i];
  }
}

TEST_P(KernelsIsa, GeluIsPositionIndependent) {
  // Each element's bits must not depend on where a vector tail or a
  // parallel chunk starts: one call over the whole range equals one call
  // per element.
  ht::Rng rng(34);
  for (int64_t len = 1; len <= 67; ++len) {
    const ht::Tensor x = ht::mul_scalar(rng.randn({len}), 4.0f);
    const ht::Tensor dy = rng.randn({len});
    std::vector<float> y(static_cast<size_t>(len)), g(y.size());
    isa_->gelu(x.data(), y.data(), len);
    isa_->gelu_grad(x.data(), dy.data(), g.data(), len);
    for (int64_t i = 0; i < len; ++i) {
      float yi = 0.0f, gi = 0.0f;
      isa_->gelu(x.data() + i, &yi, 1);
      isa_->gelu_grad(x.data() + i, dy.data() + i, &gi, 1);
      const auto u = static_cast<size_t>(i);
      ASSERT_EQ(0, std::memcmp(&y[u], &yi, sizeof(float)))
          << "gelu len=" << len << " i=" << i;
      ASSERT_EQ(0, std::memcmp(&g[u], &gi, sizeof(float)))
          << "gelu_grad len=" << len << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, KernelsIsa,
                         ::testing::Values("avx512f", "avx2", "baseline"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Kernels, DispatchesTheBestIsaTheHostSupports) {
  std::string expect = "baseline";
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    expect = "avx512f";
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    expect = "avx2";
  }
#endif
  EXPECT_EQ(expect, ht::kernels::gemm_isa());
  // Baseline is always compiled, always last, and runs everywhere.
  const auto isas = ht::kernels::kernel_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_STREQ("baseline", isas.back().name);
  EXPECT_TRUE(isas.back().host_supports);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce) {
  ht::IntraOpScope scope(4);
  std::vector<std::atomic<int>> hits(1001);
  ht::parallel_for(1001, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedParallelForRunsInline) {
  ht::IntraOpScope scope(4);
  std::atomic<int> total{0};
  ht::parallel_for(8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ht::parallel_for(16, 1,
                       [&](int64_t b2, int64_t e2) {
                         total += static_cast<int>(e2 - b2);
                       });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(Parallel, IntraOpScopeRestoresSetting) {
  ht::set_intra_op_threads(1);
  {
    ht::IntraOpScope scope(6);
    EXPECT_EQ(ht::intra_op_threads(), 6);
  }
  EXPECT_EQ(ht::intra_op_threads(), 1);
}
