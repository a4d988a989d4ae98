#include "channel/impairments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/rng.hpp"
#include "dsp/vector_ops.hpp"

namespace mimonet::channel {

double apply_cfo(std::span<cf32> x, double cfo_norm, double phase0) noexcept {
  return dsp::mix(x, phase0, dsp::two_pi_d * cfo_norm);
}

double apply_cfo(std::span<const std::span<cf32>> xs, double cfo_norm, double phase0) {
  return dsp::mix(xs, phase0, dsp::two_pi_d * cfo_norm);
}

std::vector<cf32> apply_sfo(std::span<const cf32> x, double sfo_ppm) {
  std::vector<cf32> out;
  apply_sfo_into(x, sfo_ppm, out);
  return out;
}

void apply_sfo_into(std::span<const cf32> x, double sfo_ppm, std::vector<cf32>& out) {
  const double step = 1.0 + sfo_ppm * 1e-6;
  // A non-positive step would pin `pos` forever (infinite loop) and a
  // non-finite one would make the size_t cast below undefined.
  if (!(step > 0.0) || !std::isfinite(step)) {
    throw std::invalid_argument("apply_sfo: sfo_ppm must stay above -1e6");
  }
  out.clear();
  out.reserve(x.size());
  double pos = 0.0;
  while (true) {
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= x.size()) break;
    const float frac = static_cast<float>(pos - static_cast<double>(i));
    out.push_back(x[i] * (1.0F - frac) + x[i + 1] * frac);
    pos += step;
  }
}

void quantize(std::span<cf32> x, unsigned bits, float full_scale) noexcept {
  if (bits == 0 || bits > 24) return;
  const float levels = static_cast<float>(1U << (bits - 1));  // per polarity
  const float lsb = full_scale / levels;
  const auto q = [&](float v) {
    const float clipped = std::clamp(v, -full_scale, full_scale - lsb);
    return std::round(clipped / lsb) * lsb;
  };
  for (auto& v : x) v = cf32(q(v.real()), q(v.imag()));
}

void apply_clipping(std::span<cf32> x, float clip_level) noexcept {
  if (!(clip_level > 0.0F)) return;
  const float limit_sqr = clip_level * clip_level;
  for (auto& v : x) {
    const float p = dsp::mag_sqr(v);
    if (!std::isfinite(p)) {
      // A saturating front end cannot emit NaN/Inf: pin the sample to full
      // scale (phase is unrecoverable, so use the positive real rail).
      v = cf32{clip_level, 0.0F};
    } else if (p > limit_sqr) {
      v *= clip_level / std::sqrt(p);
    }
  }
}

void apply_burst_erasure(std::span<cf32> x, std::size_t start,
                         std::size_t len) noexcept {
  if (start >= x.size()) return;
  const std::size_t n = std::min(len, x.size() - start);
  std::fill_n(x.begin() + static_cast<std::ptrdiff_t>(start), n, cf32{0.0F, 0.0F});
}

std::vector<cf32> pad_with_noise(std::span<const cf32> x, std::size_t count,
                                 std::size_t tail, double noise_var,
                                 std::uint64_t seed) {
  std::vector<cf32> out;
  pad_with_noise_into(x, count, tail, noise_var, seed, out);
  return out;
}

void pad_with_noise_into(std::span<const cf32> x, std::size_t count, std::size_t tail,
                         double noise_var, std::uint64_t seed, std::vector<cf32>& out) {
  out.resize(count + x.size() + tail);
  dsp::ComplexGaussian noise(seed, noise_var);
  noise.fill(std::span(out).first(count));
  std::copy(x.begin(), x.end(), out.begin() + static_cast<std::ptrdiff_t>(count));
  noise.fill(std::span(out).last(tail));
}

}  // namespace mimonet::channel
