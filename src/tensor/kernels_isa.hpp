#pragma once
// The GEMM row kernels compiled into kernels.cpp, one per instruction-set
// target. Library code calls kernels::gemm(), which dispatches to the best
// variant the host supports; this header exists so the kernel tests can
// run every variant the host can execute, not just the dispatched one.

#include <cstdint>
#include <span>

namespace hanayo::tensor::kernels {

/// One thread's share of a gemm: rows [i0, i1) of C = or += A * B, with
/// the operand layout of gemm().
using GemmRowsFn = void (*)(int64_t i0, int64_t i1, int64_t n, int64_t k,
                            const float* a, int64_t lda, const float* b,
                            int64_t ldb, float* c, int64_t ldc,
                            bool accumulate);

struct GemmIsa {
  const char* name;    ///< "avx512f", "avx2" or "baseline"
  int64_t mr;          ///< rows per register tile (the row-partition unit)
  bool host_supports;  ///< this CPU can execute the variant
  GemmRowsFn rows;
};

/// Every variant compiled for this target, best first; gemm() runs the
/// first one the host supports. The last entry is the baseline tile, which
/// runs everywhere; on non-x86 targets it is the only one.
std::span<const GemmIsa> gemm_isas();

/// gemm() on a given variant. Row blocks are partitioned by `isa.mr`, so
/// results are bitwise equal across intra-op thread counts within one
/// variant.
void gemm_with(const GemmIsa& isa, int64_t m, int64_t n, int64_t k,
               const float* a, int64_t lda, const float* b, int64_t ldb,
               float* c, int64_t ldc, bool accumulate);

}  // namespace hanayo::tensor::kernels
