// Front-end impairments the RF hardware would introduce: carrier frequency
// offset, sampling frequency offset, timing offset, and ADC quantization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::channel {

using dsp::cf32;

/// Apply a carrier frequency offset of `cfo_norm` cycles/sample (i.e.
/// f_off / f_s) starting at phase `phase0`; returns the phase after the last
/// sample so multi-buffer streams stay continuous.
double apply_cfo(std::span<cf32> x, double cfo_norm, double phase0 = 0.0) noexcept;
/// apply_cfo() of equal-length spans that share one oscillator (the
/// antennas of one device): one phasor per sample for all of them, and each
/// span bit-identical to apply_cfo() on it alone (dsp::mix's span form).
double apply_cfo(std::span<const std::span<cf32>> xs, double cfo_norm,
                 double phase0 = 0.0);

/// Resample with a sampling frequency offset: output sample n is taken at
/// input position n * (1 + sfo_ppm * 1e-6) by linear interpolation. Output
/// is slightly shorter/longer than input accordingly.
[[nodiscard]] std::vector<cf32> apply_sfo(std::span<const cf32> x, double sfo_ppm);
/// apply_sfo() into caller-owned storage (resized, capacity kept).
void apply_sfo_into(std::span<const cf32> x, double sfo_ppm, std::vector<cf32>& out);

/// Quantize to a `bits`-bit ADC with full-scale range [-full_scale,
/// +full_scale] per I/Q rail (values beyond clip).
void quantize(std::span<cf32> x, unsigned bits, float full_scale) noexcept;

/// Hard amplitude clipping: any sample with |x| > clip_level is scaled back
/// onto the circle of radius clip_level (saturating PA / ADC front end).
/// clip_level <= 0 is a no-op.
void apply_clipping(std::span<cf32> x, float clip_level) noexcept;

/// Burst erasure: zero the samples in [start, start + len), clamped to the
/// span — a blanked AGC window or a colliding interferer notch. Degenerate
/// by design: erasing the preamble or LTF region hands the receiver
/// exactly-zero inputs, the corner the stress harness drives.
void apply_burst_erasure(std::span<cf32> x, std::size_t start,
                         std::size_t len) noexcept;

/// Prepend `count` samples drawn from CN(0, noise_var) (idle-air noise before
/// the packet) and append `tail` more after it.
[[nodiscard]] std::vector<cf32> pad_with_noise(std::span<const cf32> x,
                                               std::size_t count, std::size_t tail,
                                               double noise_var, std::uint64_t seed);
/// pad_with_noise() into caller-owned storage (resized, capacity kept): the
/// same draws, written straight into `out`.
void pad_with_noise_into(std::span<const cf32> x, std::size_t count, std::size_t tail,
                         double noise_var, std::uint64_t seed, std::vector<cf32>& out);

}  // namespace mimonet::channel
