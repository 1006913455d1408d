#include "tensor/gemm.hpp"

#include <algorithm>

namespace microrec {

namespace {

/// Applies bias + ReLU to the tile [i0,i1) x [j0,j1) of c.
void ApplyEpilogueTile(MatrixF& c, std::size_t i0, std::size_t i1,
                       std::size_t j0, std::size_t j1,
                       const GemmEpilogue& epilogue) {
  if (epilogue.empty()) return;
  const std::size_t n = c.cols();
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t j = j0; j < j1; ++j) {
      float v = crow[j];
      if (bias != nullptr) v += bias[j];
      if (epilogue.relu && v < 0.0f) v = 0.0f;
      crow[j] = v;
    }
  }
}

}  // namespace

void GemmReference(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  MICROREC_CHECK(a.cols() == b.rows());
  c.Resize(a.rows(), b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a(i, p) * b(p, j);
      }
      c(i, j) = acc;
    }
  }
}

void GemmBlockedEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                   const GemmEpilogue& epilogue) {
  MICROREC_CHECK(a.cols() == b.rows());
  MICROREC_CHECK(epilogue.bias.empty() || epilogue.bias.size() == b.cols());
  c.Resize(a.rows(), b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  // Block sizes chosen so an (MB x KB) A-panel and (KB x NB) B-panel fit in
  // L1/L2 comfortably; i-k-j order within a tile streams B rows and keeps C
  // rows hot. The j0 loop is outside p0 so a (i0, j0) tile finishes its full
  // k accumulation before the next tile starts, letting the epilogue run on
  // the still-hot tile instead of a second pass over the whole output.
  constexpr std::size_t kMB = 64, kKB = 128, kNB = 256;
  for (std::size_t i0 = 0; i0 < m; i0 += kMB) {
    const std::size_t i1 = std::min(m, i0 + kMB);
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
      const std::size_t j1 = std::min(n, j0 + kNB);
      for (std::size_t p0 = 0; p0 < k; p0 += kKB) {
        const std::size_t p1 = std::min(k, p0 + kKB);
        for (std::size_t i = i0; i < i1; ++i) {
          float* crow = c.data() + i * n;
          const float* arow = a.data() + i * k;
          for (std::size_t p = p0; p < p1; ++p) {
            const float av = arow[p];
            const float* brow = b.data() + p * n;
            for (std::size_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
      ApplyEpilogueTile(c, i0, i1, j0, j1, epilogue);
    }
  }
}

void GemmBlocked(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  GemmBlockedEx(a, b, c, {});
}

bool CpuSupportsAvx2() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
}

void GemmAutoEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                const GemmEpilogue& epilogue) {
  if (CpuSupportsAvx2()) {
    GemmAvx2Ex(a, b, c, epilogue);
  } else {
    GemmBlockedEx(a, b, c, epilogue);
  }
}

void GemmAuto(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  GemmAutoEx(a, b, c, {});
}

void GemvEx(std::span<const float> x, const MatrixF& b, std::span<float> y,
            const GemmEpilogue& epilogue) {
  MICROREC_CHECK(x.size() == b.rows());
  MICROREC_CHECK(y.size() == b.cols());
  MICROREC_CHECK(epilogue.bias.empty() || epilogue.bias.size() == b.cols());
  const std::size_t k = b.rows(), n = b.cols();
  std::fill(y.begin(), y.end(), 0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    const float xv = x[p];
    const float* brow = b.data() + p * n;
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += xv * brow[j];
    }
  }
  if (!epilogue.empty()) {
    const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
    for (std::size_t j = 0; j < n; ++j) {
      float v = y[j];
      if (bias != nullptr) v += bias[j];
      if (epilogue.relu && v < 0.0f) v = 0.0f;
      y[j] = v;
    }
  }
}

void Gemv(std::span<const float> x, const MatrixF& b, std::span<float> y) {
  GemvEx(x, b, y, {});
}

void GemvAutoEx(std::span<const float> x, const MatrixF& b,
                std::span<float> y, const GemmEpilogue& epilogue) {
  if (CpuSupportsAvx2()) {
    GemvAvx2Ex(x, b, y, epilogue);
  } else {
    GemvEx(x, b, y, epilogue);
  }
}

float FmaProbeKernelScalar(std::size_t iters) {
  // kFmaProbeChainsScalar independent chains: enough ILP that the FMA (or
  // mul+add) latency chains overlap; constants chosen to keep values
  // bounded.
  float acc[kFmaProbeChainsScalar];
  for (std::size_t i = 0; i < kFmaProbeChainsScalar; ++i) {
    acc[i] = 0.5f + 0.01f * static_cast<float>(i);
  }
  const float m = 0.999f;
  const float a = 1e-3f;
  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < kFmaProbeChainsScalar; ++i) {
      acc[i] = acc[i] * m + a;
    }
  }
  float sum = 0.0f;
  for (const float v : acc) sum += v;
  return sum;
}

}  // namespace microrec
