// AVX2+FMA GEMM/GEMV kernels (compiled with -mavx2 -mfma for this file
// only; callers reach them through the GemmAuto/GemvAuto runtime dispatch).
// The paper's CPU baseline is "AVX2 FMA supported", so the measured
// baseline vectorizes too.
//
// The GEMM keeps a 6-row x 16-column accumulator tile (12 ymm registers)
// live across the entire k dimension and writes each C element exactly
// once, with the bias+ReLU epilogue applied in registers at write-back.
// Compared to a k-blocked kernel that streams C through memory on every
// k-block, this trades 2 loads + 1 store per FMA for 8 loads per 12 FMAs,
// moving the kernel from load-port-bound to FMA-bound. The row-block loop
// is outermost: each block of up to 6 rows of A stays in L1 while it sweeps
// every k x 16 panel of B, so B streams from L2/L3 once per row block.
//
// The accumulator tiles are arrays indexed by the row (or column-block)
// loop. At -O2, which both the main build and perfbench pin, GCC does not
// unroll those loops on its own, so the arrays would live on the stack and
// every FMA would load and store its accumulator. Each such loop carries
// `#pragma GCC unroll` with its largest trip count (6 = kMR rows in a
// tile), which fully unrolls it; with only constant indices left, the
// arrays become scalars and every accumulator stays in a ymm register
// (6x16 tile: 12 accumulators + 2 B vectors + 1 broadcast).
//
// Accumulation order per element is p-ascending with a single FMA
// accumulator, for every tile width, so results are independent of m/n
// remainders; vs. the scalar kernels the only difference is FMA's single
// rounding (the ULP bound property-tested in tensor_test).
#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace microrec {

namespace {

/// Load mask with the low `lanes` lanes enabled (lanes in [1, 7]).
inline __m256i LaneMask(std::size_t lanes) {
  alignas(32) std::int32_t bits[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < lanes; ++i) bits[i] = -1;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(bits));
}

struct EpilogueCtx {
  const float* bias = nullptr;  // full-width, indexed by absolute column
  bool relu = false;
};

/// Applies the epilogue to one in-register vector holding columns
/// [j, j+8) of the output.
inline __m256 ApplyEpilogue(__m256 v, const EpilogueCtx& ep, std::size_t j) {
  if (ep.bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(ep.bias + j));
  if (ep.relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
  return v;
}

/// mr x 16 micro-kernel: full-k accumulation in registers, one write-back.
template <int MR>
inline void Tile16(const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
                   std::size_t j, const EpilogueCtx& ep) {
  __m256 acc0[MR], acc1[MR];
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  const float* bp = b + j;
  for (std::size_t p = 0; p < k; ++p, bp += ldb) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc + j, ApplyEpilogue(acc0[r], ep, j));
    _mm256_storeu_ps(c + r * ldc + j + 8, ApplyEpilogue(acc1[r], ep, j + 8));
  }
}

/// mr x 8 micro-kernel for the 8 <= remainder < 16 column tail.
template <int MR>
inline void Tile8(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
                  std::size_t j, const EpilogueCtx& ep) {
  __m256 acc[MR];
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_setzero_ps();
  const float* bp = b + j;
  for (std::size_t p = 0; p < k; ++p, bp += ldb) {
    const __m256 b0 = _mm256_loadu_ps(bp);
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), b0,
                               acc[r]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc + j, ApplyEpilogue(acc[r], ep, j));
  }
}

/// mr x (1..7) masked micro-kernel for the final column tail. The masked
/// B loads keep the kernel in-bounds on the last row of B.
template <int MR>
inline void TileTail(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, std::size_t k, float* c,
                     std::size_t ldc, std::size_t j, std::size_t lanes,
                     const EpilogueCtx& ep) {
  const __m256i mask = LaneMask(lanes);
  __m256 acc[MR];
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_setzero_ps();
  const float* bp = b + j;
  for (std::size_t p = 0; p < k; ++p, bp += ldb) {
    const __m256 b0 = _mm256_maskload_ps(bp, mask);
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), b0,
                               acc[r]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    __m256 v = acc[r];
    if (ep.bias != nullptr) {
      v = _mm256_add_ps(v, _mm256_maskload_ps(ep.bias + j, mask));
    }
    if (ep.relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
    _mm256_maskstore_ps(c + r * ldc + j, mask, v);
  }
}

/// One block of up to 6 rows starting at row i: all column tiles.
template <int MR>
void RowBlock(const float* a, std::size_t lda, const float* b,
              std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
              std::size_t n, const EpilogueCtx& ep) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) Tile16<MR>(a, lda, b, ldb, k, c, ldc, j, ep);
  if (j + 8 <= n) {
    Tile8<MR>(a, lda, b, ldb, k, c, ldc, j, ep);
    j += 8;
  }
  if (j < n) TileTail<MR>(a, lda, b, ldb, k, c, ldc, j, n - j, ep);
}

using RowBlockFn = void (*)(const float*, std::size_t, const float*,
                            std::size_t, std::size_t, float*, std::size_t,
                            std::size_t, const EpilogueCtx&);

constexpr RowBlockFn kRowBlock[6] = {RowBlock<1>, RowBlock<2>, RowBlock<3>,
                                     RowBlock<4>, RowBlock<5>, RowBlock<6>};

}  // namespace

void GemmAvx2Ex(const MatrixF& a, const MatrixF& b, MatrixF& c,
                const GemmEpilogue& epilogue) {
  MICROREC_CHECK(a.cols() == b.rows());
  MICROREC_CHECK(epilogue.bias.empty() || epilogue.bias.size() == b.cols());
  c.ResizeUninit(a.rows(), b.cols());  // every element written exactly once
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  const EpilogueCtx ep{epilogue.bias.empty() ? nullptr : epilogue.bias.data(),
                       epilogue.relu};
  constexpr std::size_t kMR = 6;
  for (std::size_t i = 0; i < m; i += kMR) {
    const std::size_t mr = std::min(kMR, m - i);
    kRowBlock[mr - 1](a.data() + i * k, k, b.data(), n, k,
                      c.data() + i * n, n, n, ep);
  }
}

void GemmAvx2(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  GemmAvx2Ex(a, b, c, {});
}

void GemvAvx2Ex(std::span<const float> x, const MatrixF& b,
                std::span<float> y, const GemmEpilogue& epilogue) {
  MICROREC_CHECK(x.size() == b.rows());
  MICROREC_CHECK(y.size() == b.cols());
  MICROREC_CHECK(epilogue.bias.empty() || epilogue.bias.size() == b.cols());
  const std::size_t k = b.rows(), n = b.cols();
  const EpilogueCtx ep{epilogue.bias.empty() ? nullptr : epilogue.bias.data(),
                       epilogue.relu};
  // Column blocks over the full k, so B is streamed exactly once and y
  // written exactly once. The 64-column block keeps eight independent FMA
  // chains in flight, enough to cover the FMA latency on both ports; the
  // 16-, 8- and masked blocks behind it take the remainder.
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m256 acc[8];
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) acc[c] = _mm256_setzero_ps();
    const float* bp = b.data() + j;
    for (std::size_t p = 0; p < k; ++p, bp += n) {
      const __m256 xv = _mm256_broadcast_ss(x.data() + p);
#pragma GCC unroll 8
      for (int c = 0; c < 8; ++c) {
        acc[c] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(bp + 8 * c), acc[c]);
      }
    }
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) {
      _mm256_storeu_ps(y.data() + j + 8 * c,
                       ApplyEpilogue(acc[c], ep, j + 8 * c));
    }
  }
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const float* bp = b.data() + j;
    for (std::size_t p = 0; p < k; ++p, bp += n) {
      const __m256 xv = _mm256_broadcast_ss(x.data() + p);
      acc0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(bp), acc0);
      acc1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(bp + 8), acc1);
    }
    _mm256_storeu_ps(y.data() + j, ApplyEpilogue(acc0, ep, j));
    _mm256_storeu_ps(y.data() + j + 8, ApplyEpilogue(acc1, ep, j + 8));
  }
  if (j + 8 <= n) {
    __m256 acc = _mm256_setzero_ps();
    const float* bp = b.data() + j;
    for (std::size_t p = 0; p < k; ++p, bp += n) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(x.data() + p),
                            _mm256_loadu_ps(bp), acc);
    }
    _mm256_storeu_ps(y.data() + j, ApplyEpilogue(acc, ep, j));
    j += 8;
  }
  if (j < n) {
    const __m256i mask = LaneMask(n - j);
    __m256 acc = _mm256_setzero_ps();
    const float* bp = b.data() + j;
    for (std::size_t p = 0; p < k; ++p, bp += n) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(x.data() + p),
                            _mm256_maskload_ps(bp, mask), acc);
    }
    __m256 v = acc;
    if (ep.bias != nullptr) {
      v = _mm256_add_ps(v, _mm256_maskload_ps(ep.bias + j, mask));
    }
    if (ep.relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
    _mm256_maskstore_ps(y.data() + j, mask, v);
  }
}

float FmaProbeKernelAvx2(std::size_t iters) {
  // kFmaProbeChainsAvx2 independent 8-lane FMA chains: at 2 FMA ports x
  // ~4-cycle latency, 8 in-flight chains saturate both ports, and 12
  // chains plus the 2 constants still fit the 16 ymm registers. The
  // unrolled loops leave only constant indices, so no chain spills.
  __m256 acc[kFmaProbeChainsAvx2];
#pragma GCC unroll 12
  for (std::size_t i = 0; i < kFmaProbeChainsAvx2; ++i) {
    acc[i] = _mm256_set1_ps(0.5f + 0.01f * static_cast<float>(i));
  }
  const __m256 m = _mm256_set1_ps(0.999f);
  const __m256 a = _mm256_set1_ps(1e-3f);
  for (std::size_t it = 0; it < iters; ++it) {
#pragma GCC unroll 12
    for (std::size_t i = 0; i < kFmaProbeChainsAvx2; ++i) {
      acc[i] = _mm256_fmadd_ps(acc[i], m, a);
    }
  }
  __m256 sum = _mm256_setzero_ps();
#pragma GCC unroll 12
  for (std::size_t i = 0; i < kFmaProbeChainsAvx2; ++i) {
    sum = _mm256_add_ps(sum, acc[i]);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float total = 0.0f;
  for (const float v : lanes) total += v;
  return total;
}

}  // namespace microrec
