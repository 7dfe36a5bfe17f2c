#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/arena.hpp"
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

// Transposed-operand scratch for gemm_bt/gemm_at. When the calling thread
// has an active pass-lifetime arena the panel comes from it under a LIFO
// mark/rewind; without one (pool worker threads, cold paths) a grow-only
// thread_local backs it with geometric growth, so steady state allocates
// nothing either way.
std::vector<float>& pack_fallback() {
  thread_local std::vector<float> v;
  return v;
}

// The row kernel (gemm_rows.inc) compiled once per target, with a register
// tile sized so the accumulators, the B vectors and one broadcast fill
// that target's SIMD register file; a tile with more accumulators than
// registers spills on every k step (6x2 vectors of 8 floats on a bare
// SSE2 target ran at ~1.7 GF/s). Per-function target attributes rather
// than per-file -m flags: only these functions are built for the wider
// ISA, so no inline helper shared with baseline code (std::min, ...) can
// be emitted with instructions the host might lack. Single-thread, default
// build, AVX-512 Xeon: avx512f ~90-120 GF/s, avx2 ~45-55 GF/s, baseline
// ~14-22 GF/s at 64-256 rows.
#if defined(__x86_64__) || defined(__i386__)
namespace avx512 {  // 24 of 32 zmm accumulate
#define HANAYO_GEMM_TARGET __attribute__((target("avx512f,fma")))
constexpr int64_t MR = 8, NV = 3, VLEN = 16;
#include "tensor/gemm_rows.inc"
#undef HANAYO_GEMM_TARGET
}  // namespace avx512

namespace avx2 {  // 12 of 16 ymm accumulate
#define HANAYO_GEMM_TARGET __attribute__((target("avx2,fma")))
constexpr int64_t MR = 6, NV = 2, VLEN = 8;
#include "tensor/gemm_rows.inc"
#undef HANAYO_GEMM_TARGET
}  // namespace avx2
#endif

namespace baseline {  // 12 of 16 xmm accumulate; runs on any target
#define HANAYO_GEMM_TARGET
constexpr int64_t MR = 4, NV = 3, VLEN = 4;
#include "tensor/gemm_rows.inc"
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
const GemmIsa& dispatched_isa() {
  static const GemmIsa& chosen = *std::ranges::find_if(
      gemm_isas(), [](const GemmIsa& isa) { return isa.host_supports; });
  return chosen;
}

}  // namespace

std::span<const GemmIsa> gemm_isas() {
  static const GemmIsa table[] = {
#if defined(__x86_64__) || defined(__i386__)
      {"avx512f", avx512::MR, host_has_avx512(), &avx512::gemm_rows},
      {"avx2", avx2::MR, host_has_avx2(), &avx2::gemm_rows},
#endif
      {"baseline", baseline::MR, true, &baseline::gemm_rows},
  };
  return table;
}

const char* gemm_isa() { return dispatched_isa().name; }

void gemm_with(const GemmIsa& isa, int64_t m, int64_t n, int64_t k,
               const float* a, int64_t lda, const float* b, int64_t ldb,
               float* c, int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (2 * m * n * std::max<int64_t>(k, 1) < kParallelFlops) {
    isa.rows(0, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  // Partition whole MR row-blocks, so which rows share a register tile —
  // and therefore which micro-kernel touches them — depends only on m and
  // the ISA, never on the thread count. That keeps results bit-identical
  // for 1 and N threads even if the full and edge kernels round
  // differently.
  const int64_t mr = isa.mr;
  const int64_t row_blocks = (m + mr - 1) / mr;
  parallel_for(row_blocks, 1, [&](int64_t b0, int64_t b1) {
    isa.rows(b0 * mr, std::min(b1 * mr, m), n, k, a, lda, b, ldb, c, ldc,
             accumulate);
  });
}

void gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate) {
  gemm_with(dispatched_isa(), m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void gemm_bt(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  ScratchBuffer pack(k * n, pack_fallback());
  float* bt = pack.data();
  transpose_pack(b, n, k, ldb, bt);  // n x k -> k x n
  gemm(m, n, k, a, lda, bt, n, c, ldc, accumulate);
}

void gemm_at(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  ScratchBuffer pack(k * m, pack_fallback());
  float* at = pack.data();
  transpose_pack(a, k, m, lda, at);  // k x m -> m x k
  gemm(m, n, k, at, k, b, ldb, c, ldc, accumulate);
}

void transpose_pack(const float* src, int64_t rows, int64_t cols, int64_t ld,
                    float* dst) {
  constexpr int64_t BT = 32;  // tile fits L1 in both orientations
  for (int64_t r0 = 0; r0 < rows; r0 += BT) {
    const int64_t r1 = std::min(r0 + BT, rows);
    for (int64_t c0 = 0; c0 < cols; c0 += BT) {
      const int64_t c1 = std::min(c0 + BT, cols);
      for (int64_t r = r0; r < r1; ++r) {
        const float* s = src + r * ld;
        for (int64_t c = c0; c < c1; ++c) dst[c * rows + r] = s[c];
      }
    }
  }
}

}  // namespace hanayo::tensor::kernels
