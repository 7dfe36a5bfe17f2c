#pragma once
// The kernels compiled into kernels.cpp, one row of them per
// instruction-set target: the GEMM row kernel and GELU forward/backward.
// Library code calls kernels::gemm*() and kernels::gelu*(), which dispatch
// to the best row the host supports; this header exists so the kernel
// tests can run every row the host can execute, not just the dispatched
// one.

#include <cstdint>
#include <span>

namespace hanayo::tensor::kernels {

/// One gemm: C (m x n, row stride ldc) = or += op(A) * op(B), op(A) m x k
/// and op(B) k x n. `a_t`: A is stored transposed, k x m with row stride
/// lda; otherwise m x k. `b_t`: B is stored transposed, n x k with row
/// stride ldb; otherwise k x n.
struct GemmArgs {
  int64_t m, n, k;
  const float* a;
  int64_t lda;
  bool a_t;
  const float* b;
  int64_t ldb;
  bool b_t;
  float* c;
  int64_t ldc;
  bool accumulate;
};

/// One thread's share of a gemm: rows [i0, i1) of C.
using GemmRowsFn = void (*)(const GemmArgs& g, int64_t i0, int64_t i1);
/// y[i] = gelu(x[i]) for i in [0, n).
using GeluFn = void (*)(const float* x, float* y, int64_t n);
/// dx[i] = dy[i] * gelu'(x[i]) for i in [0, n).
using GeluGradFn = void (*)(const float* x, const float* dy, float* dx,
                            int64_t n);

struct KernelIsa {
  const char* name;    ///< "avx512f", "avx2" or "baseline"
  int64_t mr;          ///< GEMM rows per register tile (the row-partition unit)
  bool host_supports;  ///< this CPU can execute the variant
  GemmRowsFn gemm_rows;
  GeluFn gelu;
  GeluGradFn gelu_grad;
};

/// Every variant compiled for this target, best first; the kernels::
/// entry points run the first one the host supports. The last entry is the
/// baseline, which runs everywhere; on non-x86 targets it is the only one.
std::span<const KernelIsa> kernel_isas();

/// A gemm on a given variant. Row blocks are partitioned by `isa.mr`, so
/// results are bitwise equal across intra-op thread counts within one
/// variant.
void gemm_with(const KernelIsa& isa, const GemmArgs& g);

}  // namespace hanayo::tensor::kernels
