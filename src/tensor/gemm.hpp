// GEMM / GEMV kernels for the CPU baseline and for reference computation.
//
// Three float GEMM implementations share one contract: a straightforward
// reference kernel (ground truth for tests), a cache-blocked scalar kernel
// (the non-AVX2 fallback), and a register-tiled AVX2+FMA kernel that keeps
// a 6x16 accumulator tile in registers across the whole k dimension and
// touches C exactly once. Each kernel also has an `Ex` variant with a fused
// epilogue: bias add + ReLU applied at C's write-back while the tile is
// still in registers/cache, instead of a second sweep over the output (the
// MLP layer structure, nn/mlp.hpp). Correctness of blocked/AVX2 vs.
// reference, and fused vs. unfused + separate epilogue, is covered by
// property tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace microrec {

/// Optional fused output transform: when `bias` is non-empty it must have
/// one entry per output column and is added to every row; `relu` then
/// clamps negatives. Applied after the full k accumulation, so a fused
/// kernel is numerically identical to the unfused kernel plus a separate
/// bias/ReLU sweep.
struct GemmEpilogue {
  std::span<const float> bias = {};
  bool relu = false;

  bool empty() const { return bias.empty() && !relu; }
};

/// C(m,n) = A(m,k) * B(k,n). Reference triple loop, no blocking.
void GemmReference(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// Cache-blocked GEMM with k-innermost accumulation; same contract as
/// GemmReference.
void GemmBlocked(const MatrixF& a, const MatrixF& b, MatrixF& c);
void GemmBlockedEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                   const GemmEpilogue& epilogue);

/// Register-tiled AVX2+FMA GEMM. Only call when the host supports
/// AVX2/FMA (see GemmAuto); same contract as GemmReference.
void GemmAvx2(const MatrixF& a, const MatrixF& b, MatrixF& c);
void GemmAvx2Ex(const MatrixF& a, const MatrixF& b, MatrixF& c,
                const GemmEpilogue& epilogue);

/// True iff this host can run the AVX2 kernels.
bool CpuSupportsAvx2();

/// Dispatches to GemmAvx2 when the host supports it, GemmBlocked otherwise
/// -- the CPU baseline's GEMM (the paper's baseline is AVX2 FMA-enabled).
void GemmAuto(const MatrixF& a, const MatrixF& b, MatrixF& c);
void GemmAutoEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                const GemmEpilogue& epilogue);

/// y(n) = x(k) * B(k,n) for a single row vector x; used at batch size 1.
/// Scalar reference implementation.
void Gemv(std::span<const float> x, const MatrixF& b, std::span<float> y);
void GemvEx(std::span<const float> x, const MatrixF& b, std::span<float> y,
            const GemmEpilogue& epilogue);

/// AVX2+FMA GEMV (j-vectorized in 64-column blocks of eight FMA chains,
/// with the same per-element accumulation order as Gemv). Only call when
/// CpuSupportsAvx2().
void GemvAvx2Ex(std::span<const float> x, const MatrixF& b,
                std::span<float> y, const GemmEpilogue& epilogue);

/// Runtime-dispatched GEMV, the batch-1 inference path.
void GemvAutoEx(std::span<const float> x, const MatrixF& b,
                std::span<float> y, const GemmEpilogue& epilogue);

/// Number of floating-point operations for an (m,k)x(k,n) GEMM counting one
/// multiply + one add per MAC, matching the paper's GOP/s accounting.
constexpr std::size_t GemmOps(std::size_t m, std::size_t k, std::size_t n) {
  return 2 * m * k * n;
}

/// FMA-peak probe kernels for the roofline layer (obs/prof/roofline.hpp):
/// `iters` rounds over independent accumulator chains (16 scalar chains;
/// 12 chains of 8 lanes on AVX2, enough ILP to saturate both FMA ports
/// while every chain stays in a ymm register). Returns a value-dependent
/// checksum so the loop cannot be dead-code-eliminated; flops executed are
/// FmaProbeFlops(iters, avx2). The AVX2 variant requires CpuSupportsAvx2().
constexpr std::size_t kFmaProbeChainsScalar = 16;
constexpr std::size_t kFmaProbeChainsAvx2 = 12;
float FmaProbeKernelScalar(std::size_t iters);
float FmaProbeKernelAvx2(std::size_t iters);

constexpr std::uint64_t FmaProbeFlops(std::size_t iters, bool avx2) {
  return avx2 ? 2ull * kFmaProbeChainsAvx2 * 8ull * iters
              : 2ull * kFmaProbeChainsScalar * iters;
}

}  // namespace microrec
