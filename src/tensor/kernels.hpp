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
// The GEMM micro-kernel is built for several x86 targets (AVX-512F,
// AVX2+FMA, and a baseline tile for any CPU) and picks the best one the
// host supports at first use; gemm_isa() names the choice.
//
// Determinism contract: for a given problem, every output element is
// accumulated in ascending-k order regardless of blocking or the intra-op
// thread count. Threads partition output *rows* in whole register-tile
// blocks only, so within one dispatched ISA the per-element reduction
// order never changes: results are bit-identical for 1 and N intra-op
// threads — the property the Threads-vs-Reference session equivalence
// tests rely on. Across ISAs the last bits may differ (fused multiply-add
// vs separate multiply and add).

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
/// B is packed transposed into a per-thread scratch once, then reuses the
/// contiguous-inner-loop kernel; no caller-visible transpose temporary.
void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// C (m x n, ldc) = or += A^T * B where A is k x m (lda) and B is k x n
/// (ldb). A is packed transposed into a per-thread scratch.
void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// dst (cols x rows, dense) = transpose of src (rows x cols, row stride
/// ld). Cache-blocked; also the packing primitive behind gemm_bt/gemm_at.
void transpose_pack(const float* src, int64_t rows, int64_t cols, int64_t ld,
                    float* dst);

/// The instruction set the GEMM micro-kernel dispatched to on this host:
/// "avx512f", "avx2" or "baseline".
const char* gemm_isa();

}  // namespace hanayo::tensor::kernels
