#pragma once
// Numerical ops used by the model substrate.
//
// The GEMM variants and the row-wise ops are backed by the blocked,
// intra-op-parallel kernels in tensor/kernels.hpp. Every op keeps a fixed
// per-element summation order that is independent of blocking and thread
// count — determinism still matters more than raw speed, because the test
// suite compares pipeline-parallel training against a sequential baseline.
// Hot paths that want to avoid the returned temporaries call the strided
// `kernels::gemm*` entry points in tensor/kernels.hpp directly.

#include "tensor/tensor.hpp"

namespace hanayo::tensor {

/// C = A (m×k) * B (k×n). A and B must be 2-d.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A (m×k) * B^T (n×k). Used for backward passes without materialising
/// the transpose.
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// C = A^T (k×m) * B (k×n).
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// 2-d transpose.
Tensor transpose(const Tensor& a);

/// Elementwise binary ops (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// Scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Adds a length-n bias row to every row of a (..., n) tensor.
Tensor add_bias(const Tensor& a, const Tensor& bias);
/// In-place form: a += bias on every row (no copy; the Linear epilogue).
void add_bias_(Tensor& a, const Tensor& bias);

/// Column-wise sum of a 2-d tensor -> length-n vector. (Bias gradient.)
Tensor col_sum(const Tensor& a);
/// Accumulating form: out += column sums of a (..., n); out has length n.
/// Columns are split across threads, each summed over rows in ascending
/// order, so the result is thread-count independent.
void col_sum_accum(const Tensor& a, Tensor& out);

/// Full reductions.
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);

/// Row-wise softmax over the last dimension (any rank; treated as 2-d).
Tensor softmax_lastdim(const Tensor& a);

/// GELU (tanh approximation) and its derivative given the forward input.
/// tanh itself is a vectorised rational approximation (kernels::gelu):
/// max abs error 3.3e-7 against libm's double tanh, exactly +-1 for
/// |arg| >= 7.905, so gelu and gelu_grad stay within 1e-5 * max(1, |x|) of
/// the double-precision formula. Bitwise stable across thread counts.
Tensor gelu(const Tensor& a);
Tensor gelu_grad(const Tensor& x, const Tensor& dy);

/// max elementwise |a - b|; used heavily in tests.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// true iff all |a-b| <= atol + rtol*|b| elementwise and shapes match.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace hanayo::tensor
