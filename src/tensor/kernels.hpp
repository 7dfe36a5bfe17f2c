#pragma once
// Blocked, SIMD-friendly compute kernels for the tensor substrate.
//
// The `kernels::gemm*` entry points operate on strided float panels so the
// model layer can multiply slices of larger tensors (per-head Q/K/V panels
// inside a [b, t, 3h] projection, weight matrices inside parameter structs)
// without materialising transposes or copies, writing into caller-owned
// outputs or accumulating into gradients without temporaries. The
// allocating Tensor-level forms (matmul, matmul_bt, matmul_at) are in
// ops.hpp.
//
// One strided entry serves all three layouts: gemm_bt and gemm_at read
// the transposed operand where it lies (A in place, B through a per-panel
// pack into a stack buffer), so no whole-operand transpose is made.
//
// The GEMM micro-kernel and the GELU kernels are built for several x86
// targets (AVX-512F, AVX2+FMA, and a baseline for any CPU) and run the
// best one the host supports, chosen at first use; gemm_isa() names it.
//
// Determinism contract: for a given problem, every output element is
// accumulated in ascending-k order regardless of blocking, operand layout
// or the intra-op thread count. Threads partition output *rows* in whole
// register-tile blocks only, so within one dispatched ISA the per-element
// reduction order never changes: results are bit-identical for 1 and N
// intra-op threads — the property the Threads-vs-Reference session
// equivalence tests rely on — and gemm_bt/gemm_at equal gemm on
// explicitly transposed operands bit for bit. GELU is elementwise with one
// instruction sequence per element, so it is bitwise stable across thread
// counts and chunk boundaries within one ISA. Across ISAs the last bits
// may differ (fused multiply-add vs separate multiply and add).

#include <cstdint>

namespace hanayo::tensor::kernels {

/// C (m x n, row stride ldc) = or += A (m x k, lda) * B (k x n, ldb).
/// Cache-blocked with an MR x NR register micro-kernel whose inner loop is
/// contiguous in B and C rows (vectorisable, FMA-able). When `accumulate`
/// is false C is overwritten, otherwise the product is added to it.
void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate);

/// C (m x n, ldc) = or += A (m x k, lda) * B^T where B is n x k (ldb).
/// B is packed one KC x NR column panel at a time inside the blocked loop
/// (reading B's contiguous rows), then fed to the same micro-kernel.
void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// C (m x n, ldc) = or += A^T * B where A is k x m (lda) and B is k x n
/// (ldb). The micro-kernel reads A in place; nothing is packed.
void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// y[i] = GELU(x[i]), tanh approximation, for i in [0, n). Single-thread;
/// ops.hpp's gelu() partitions a tensor across the intra-op pool.
void gelu(const float* x, float* y, int64_t n);

/// dx[i] = dy[i] * GELU'(x[i]) for i in [0, n), x the forward input.
void gelu_grad(const float* x, const float* dy, float* dx, int64_t n);

/// The instruction set the GEMM and GELU kernels dispatched to on this
/// host: "avx512f", "avx2" or "baseline".
const char* gemm_isa();

}  // namespace hanayo::tensor::kernels
