#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/kernels_isa.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::tensor::kernels {

namespace {

// K-panel so the streamed B rows stay cache-resident between row blocks.
constexpr int64_t KC = 256;
// Unroll of the k loop inside the micro-kernel (hides FMA latency).
constexpr int64_t KU = 2;
// Problems below this many flops are not worth a trip through the pool.
constexpr int64_t kParallelFlops = int64_t{1} << 18;

// The GEMM row kernel (gemm_rows.inc) and the GELU kernels
// (elementwise.inc) compiled once per target, with a register tile sized
// so the accumulators, the B vectors and one broadcast fill that target's
// SIMD register file; a tile with more accumulators than
// registers spills on every k step (6x2 vectors of 8 floats on a bare
// SSE2 target ran at ~1.7 GF/s). Per-function target attributes rather
// than per-file -m flags: only these functions are built for the wider
// ISA, so no inline helper shared with baseline code (std::min, ...) can
// be emitted with instructions the host might lack. Single-thread, default
// build, AVX-512 Xeon: avx512f ~90-120 GF/s, avx2 ~45-55 GF/s, baseline
// ~14-22 GF/s at 64-256 rows. The GELU kernels use the same VLEN-wide
// vectors.
#if defined(__x86_64__) || defined(__i386__)
namespace avx512 {  // 24 of 32 zmm accumulate
#define HANAYO_GEMM_TARGET __attribute__((target("avx512f,fma")))
constexpr int64_t MR = 8, NV = 3, VLEN = 16;
#include "tensor/gemm_rows.inc"
#include "tensor/elementwise.inc"
#undef HANAYO_GEMM_TARGET
}  // namespace avx512

namespace avx2 {  // 12 of 16 ymm accumulate
#define HANAYO_GEMM_TARGET __attribute__((target("avx2,fma")))
constexpr int64_t MR = 6, NV = 2, VLEN = 8;
#include "tensor/gemm_rows.inc"
#include "tensor/elementwise.inc"
#undef HANAYO_GEMM_TARGET
}  // namespace avx2
#endif

namespace baseline {  // 12 of 16 xmm accumulate; runs on any target
#define HANAYO_GEMM_TARGET
constexpr int64_t MR = 4, NV = 3, VLEN = 4;
#include "tensor/gemm_rows.inc"
#include "tensor/elementwise.inc"
#undef HANAYO_GEMM_TARGET
}  // namespace baseline

#if defined(__x86_64__) || defined(__i386__)
// __builtin_cpu_init makes the checks valid even when the first gemm runs
// from another translation unit's static initialiser.
bool host_has_avx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
}

bool host_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

// Chosen once, on first use.
const KernelIsa& dispatched_isa() {
  static const KernelIsa& chosen = *std::ranges::find_if(
      kernel_isas(), [](const KernelIsa& isa) { return isa.host_supports; });
  return chosen;
}

}  // namespace

std::span<const KernelIsa> kernel_isas() {
  static const KernelIsa table[] = {
#if defined(__x86_64__) || defined(__i386__)
      {"avx512f", avx512::MR, host_has_avx512(), &avx512::gemm_rows,
       &avx512::gelu, &avx512::gelu_grad},
      {"avx2", avx2::MR, host_has_avx2(), &avx2::gemm_rows, &avx2::gelu,
       &avx2::gelu_grad},
#endif
      {"baseline", baseline::MR, true, &baseline::gemm_rows, &baseline::gelu,
       &baseline::gelu_grad},
  };
  return table;
}

const char* gemm_isa() { return dispatched_isa().name; }

void gemm_with(const KernelIsa& isa, const GemmArgs& g) {
  if (g.m <= 0 || g.n <= 0) return;
  if (2 * g.m * g.n * std::max<int64_t>(g.k, 1) < kParallelFlops) {
    isa.gemm_rows(g, 0, g.m);
    return;
  }
  // Partition whole MR row-blocks, so which rows share a register tile —
  // and therefore which micro-kernel touches them — depends only on m and
  // the ISA, never on the thread count. That keeps results bit-identical
  // for 1 and N threads even if the full and edge kernels round
  // differently.
  const int64_t mr = isa.mr;
  const int64_t row_blocks = (g.m + mr - 1) / mr;
  parallel_for(row_blocks, 1, [&](int64_t b0, int64_t b1) {
    isa.gemm_rows(g, b0 * mr, std::min(b1 * mr, g.m));
  });
}

void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate) {
  gemm_with(dispatched_isa(),
            {m, n, k, a, lda, false, b, ldb, false, c, ldc, accumulate});
}

void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  gemm_with(dispatched_isa(),
            {m, n, k, a, lda, false, b, ldb, true, c, ldc, accumulate});
}

void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  gemm_with(dispatched_isa(),
            {m, n, k, a, lda, true, b, ldb, false, c, ldc, accumulate});
}

void gelu(const float* x, float* y, int64_t n) {
  dispatched_isa().gelu(x, y, n);
}

void gelu_grad(const float* x, const float* dy, float* dx, int64_t n) {
  dispatched_isa().gelu_grad(x, dy, dx, n);
}

}  // namespace hanayo::tensor::kernels
