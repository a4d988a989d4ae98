// Element-wise and reduction primitives on complex sample vectors.
#pragma once

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::dsp {

/// Sum of |x_i|^2.
[[nodiscard]] double energy(std::span<const cf32> x) noexcept;

/// Mean of |x_i|^2 (0 for an empty span).
[[nodiscard]] double mean_power(std::span<const cf32> x) noexcept;

/// In-place scale by a real gain.
void scale(std::span<cf32> x, float gain) noexcept;

/// out_i = a_i * conj(b_i). All spans must have equal length.
void multiply_conj(std::span<const cf32> a, std::span<const cf32> b, std::span<cf32> out);

/// Inner product sum_i a_i * conj(b_i) over min(len(a), len(b)).
[[nodiscard]] cf64 dot_conj(std::span<const cf32> a, std::span<const cf32> b) noexcept;

/// In-place frequency shift: x_n *= e^{j*(phase0 + n*phase_inc)}.
/// Returns the phase that the *next* sample would get, wrapped to (-pi, pi],
/// so callers can chain shifts across buffer boundaries.
double mix(std::span<cf32> x, double phase0, double phase_inc) noexcept;

/// mix() of several equal-length spans at once, for antennas that share one
/// oscillator: each sample index's phasor_d is evaluated once and the phase
/// accumulator steps exactly as mix() steps it, so every span comes out
/// bit-identical to mixing it alone. Returns the next phase as mix() does
/// (phase0 when `xs` is empty); throws on spans of unequal length.
double mix(std::span<const std::span<cf32>> xs, double phase0, double phase_inc);

/// Full linear cross-correlation of `x` against `ref` (length len(x)-len(ref)+1),
/// out_k = sum_n x_{k+n} * conj(ref_n). Requires len(x) >= len(ref).
[[nodiscard]] std::vector<cf32> cross_correlate(std::span<const cf32> x,
                                                std::span<const cf32> ref);

/// Same correlation into caller-owned storage (resized, capacity kept). The
/// lags are computed by an AVX2 kernel, 4 at a time, when the CPU supports
/// it (runtime dispatch) and every sample of x and ref is finite; the
/// scalar loop is the fallback and the reference, and the two are
/// bit-identical (same double operations in the same order per lag).
void cross_correlate_into(std::span<const cf32> x, std::span<const cf32> ref,
                          std::vector<cf32>& out);

/// Tapped-delay-line convolution of x with the taps h, added into out:
///   out[i] += cf32(sum_k h[k] * x[first + i - k]),  i in [0, out.size()),
/// the sum over k = 0 .. h.size()-1 in order in double, each product the
/// complex product (ac - bd) + (ad + bc)i, and the terms whose x index
/// falls outside x left out. Positions may run up to h.size() - 1 past the
/// end of x (the convolution tail). An AVX2 kernel computes 4 outputs per
/// vector (runtime dispatch) when every tap and every sample the outputs
/// read is finite; the scalar loop is the fallback and the reference, and
/// the two are bit-identical (same double operations in the same order per
/// output, no FMA). A term whose index lies outside x contributes an exact
/// zero when the taps are finite, so the kernel may stage x zero-padded.
void tdl_convolve_add(std::span<const cf32> x, std::span<const cf32> h,
                      std::size_t first, std::span<cf32> out);

/// Root-mean-square error between two equal-length vectors.
[[nodiscard]] double rms_error(std::span<const cf32> a, std::span<const cf32> b);

namespace detail {
/// Test/bench hook: force cross_correlate_into onto the scalar path (true)
/// or restore runtime dispatch (false). Not thread-safe; flip only in
/// single-threaded harness code.
void force_scalar_xcorr(bool force) noexcept;
/// Whether the runtime dispatch would pick the AVX2 kernel right now.
[[nodiscard]] bool xcorr_simd_active() noexcept;
/// The same pair for tdl_convolve_add.
void force_scalar_tdl(bool force) noexcept;
[[nodiscard]] bool tdl_simd_active() noexcept;
}  // namespace detail

}  // namespace mimonet::dsp
