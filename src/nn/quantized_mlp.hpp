// Fixed-point MLP mirroring the FPGA GEMM datapath (paper section 4.3).
//
// Each PE multiplies quantized activations by quantized weights and reduces
// through an add tree into a wide accumulator (DSP48-style: the accumulator
// is wider than the operands, so only the final writeback saturates). This
// functional model is what the accelerator simulation executes, letting
// integration tests bound the fixed16/fixed32 output error against the
// float reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fixedpoint/fixed_point.hpp"
#include "nn/mlp.hpp"
#include "tensor/activations.hpp"

namespace microrec {

/// Converts an int64 sum of raw fixed-point products (scale
/// 2^(2*FracBits)) back to Fixed with round-half-away-from-zero and
/// saturation -- the writeback stage of a PE's add tree, shared by the
/// hidden layers and the output head.
template <typename Fixed>
inline Fixed SaturateFromWideProductSum(std::int64_t acc) {
  const int frac = Fixed::kFracBits;
  const std::int64_t bias = std::int64_t(1) << (frac - 1);
  acc = acc >= 0 ? (acc + bias) >> frac : -((-acc + bias) >> frac);
  if (acc > Fixed::kRawMax) return Fixed::Max();
  if (acc < Fixed::kRawMin) return Fixed::Min();
  return Fixed::FromRaw(static_cast<typename Fixed::Storage>(acc));
}

template <typename Fixed>
class QuantizedMlp {
 public:
  /// Quantizes the float model's weights/biases once at build time (the
  /// hardware stores them in on-chip buffers).
  static QuantizedMlp FromFloat(const MlpModel& model) {
    QuantizedMlp q;
    q.spec_ = model.spec();
    const std::size_t layers = model.spec().hidden.size();
    q.weights_.resize(layers);
    q.biases_.resize(layers);
    for (std::size_t i = 0; i < layers; ++i) {
      const auto& w = model.weights(i);
      q.weights_[i].reserve(w.size());
      for (float v : w.flat()) q.weights_[i].push_back(Fixed::FromFloat(v));
      const auto b = model.biases(i);
      q.biases_[i].reserve(b.size());
      for (float v : b) q.biases_[i].push_back(Fixed::FromFloat(v));
    }
    q.head_weights_.reserve(model.head_weights().size());
    for (float v : model.head_weights().flat()) {
      q.head_weights_.push_back(Fixed::FromFloat(v));
    }
    q.head_bias_ = Fixed::FromFloat(model.head_bias());
    return q;
  }

  const MlpSpec& spec() const { return spec_; }

  /// Single-item forward pass over a float input (quantized on entry, as
  /// the embedding vectors are when they stream into the compute units).
  /// Returns the click probability.
  float Forward(std::span<const float> input) const {
    MICROREC_CHECK(input.size() == spec_.input_dim);
    std::vector<Fixed> activ;
    activ.reserve(input.size());
    for (float v : input) activ.push_back(Fixed::FromFloat(v));

    std::vector<Fixed> next;
    for (std::size_t layer = 0; layer < weights_.size(); ++layer) {
      const std::uint32_t in = spec_.LayerInputDim(layer);
      const std::uint32_t out = spec_.hidden[layer];
      next.assign(out, Fixed());
      const Fixed* w = weights_[layer].data();
      for (std::uint32_t j = 0; j < out; ++j) {
        // Wide accumulation: products carry 2*FracBits fractional bits and
        // sum in int64 without intermediate saturation (add-tree semantics).
        std::int64_t acc = 0;
        for (std::uint32_t i = 0; i < in; ++i) {
          acc += static_cast<std::int64_t>(activ[i].raw()) *
                 static_cast<std::int64_t>(w[i * out + j].raw());
        }
        Fixed sum = SaturateFromWideProductSum<Fixed>(acc);
        sum += biases_[layer][j];
        if (sum < Fixed()) sum = Fixed();  // ReLU
        next[j] = sum;
      }
      activ.swap(next);
    }

    std::int64_t acc = 0;
    for (std::size_t j = 0; j < activ.size(); ++j) {
      acc += static_cast<std::int64_t>(activ[j].raw()) *
             static_cast<std::int64_t>(head_weights_[j].raw());
    }
    Fixed logit = SaturateFromWideProductSum<Fixed>(acc);
    logit += head_bias_;
    // The final sigmoid is a tiny lookup table / piecewise unit in hardware;
    // we evaluate it in float on the dequantized logit.
    return Sigmoid(logit.ToFloat());
  }

 private:
  MlpSpec spec_;
  std::vector<std::vector<Fixed>> weights_;  // row-major [in x out]
  std::vector<std::vector<Fixed>> biases_;
  std::vector<Fixed> head_weights_;
  Fixed head_bias_{};
};

}  // namespace microrec
