// Seeded random sources used throughout the simulator (noise, bits, fading).
//
// All randomness in MIMONet flows through these helpers so experiments are
// exactly reproducible from a single seed. The engine and the Gaussian are
// written here rather than taken from <random>, so a seed's draws depend on
// no standard library: Mt19937Block's output is the one the C++ standard
// fixes for std::mt19937_64, and ComplexGaussian reproduces libstdc++'s
// std::normal_distribution<float> over it bit for bit, calling only libm's
// logf.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::dsp {

/// splitmix64 finalizer: full-avalanche 64-bit mixing. This is the seed
/// derivation primitive shared by the Monte-Carlo engine (per-packet seeds)
/// and the stress harness (per-case adversarial draws): unique outputs per
/// distinct input, independent of call history.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27U)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31U);
}

/// MT19937-64, refilled one block of 312 outputs per twist. Its output
/// equals std::mt19937_64's for every seed (the C++ standard fixes the
/// engine's output). The twist and temper run as an AVX2 kernel when the
/// CPU supports it (runtime dispatch); the scalar loop is the fallback.
class Mt19937Block {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kBlock = 312;

  explicit Mt19937Block(result_type seed = 5489U) noexcept { this->seed(seed); }

  /// Restart the stream, exactly as constructing with `s` would.
  void seed(result_type s) noexcept;

  result_type operator()() noexcept {
    if (next_ == kBlock) refill();
    return out_[next_++];
  }

 private:
  void refill() noexcept;

  std::array<result_type, kBlock> mt_{};
  std::array<result_type, kBlock> out_{};
  std::size_t next_ = kBlock;
};

/// Circularly-symmetric complex Gaussian source, CN(0, variance) where
/// `variance` is the *total* complex variance E[|x|^2].
///
/// Each complex sample is one Marsaglia polar pair over Mt19937Block,
/// computed exactly as libstdc++'s std::normal_distribution<float> computes
/// it: the real part is the pair's first output and the imaginary part the
/// saved second. A variance of 0 gives exact zeros.
class ComplexGaussian {
 public:
  explicit ComplexGaussian(std::uint64_t seed, double variance = 1.0);

  /// Restart the draws from `seed`, as constructing with it would; the
  /// variance is kept.
  void reseed(std::uint64_t seed) noexcept;

  /// Change the variance without reseeding.
  void set_variance(double variance);
  [[nodiscard]] double variance() const noexcept { return variance_; }

  [[nodiscard]] cf32 sample();
  void fill(std::span<cf32> out);

  /// out_i += noise_i (AWGN injection without an intermediate buffer).
  void add_to(std::span<cf32> inout);

 private:
  [[nodiscard]] cf32 next_sample();

  Mt19937Block rng_;
  float sigma_ = 0.0F;  ///< per-dimension standard deviation
  double variance_ = 1.0;
};

/// Uniform random bit source.
class BitSource {
 public:
  explicit BitSource(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::vector<std::uint8_t> bits(std::size_t count);
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t count);
  /// bytes() into caller-owned storage: the same draws, no allocation.
  void bytes_into(std::span<std::uint8_t> out);

 private:
  Mt19937Block rng_;
};

namespace detail {
/// Test/bench hook: force the MT19937-64 twist and temper onto their scalar
/// path (true) or restore runtime dispatch (false). Not thread-safe; flip
/// only in single-threaded harness code.
void force_scalar_rng(bool force) noexcept;
/// Whether the runtime dispatch would pick the AVX2 kernels right now.
[[nodiscard]] bool rng_simd_active() noexcept;
}  // namespace detail

}  // namespace mimonet::dsp
