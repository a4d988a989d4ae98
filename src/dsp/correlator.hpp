// Sliding-window correlators: the workhorses of preamble detection.
#pragma once

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace mimonet::dsp {

/// Streaming moving sum over a fixed window (complex), O(1) per sample.
class MovingSum {
 public:
  explicit MovingSum(std::size_t window);

  cf64 push(cf64 x) noexcept;
  [[nodiscard]] cf64 value() const noexcept { return sum_; }
  [[nodiscard]] std::size_t window() const noexcept { return buf_.size(); }
  void reset() noexcept;

 private:
  std::vector<cf64> buf_;
  std::size_t head_ = 0;
  cf64 sum_{0.0, 0.0};
};

/// Real-valued moving sum (for power normalization).
class MovingSumReal {
 public:
  explicit MovingSumReal(std::size_t window);

  double push(double x) noexcept;
  [[nodiscard]] double value() const noexcept { return sum_; }
  void reset() noexcept;

 private:
  std::vector<double> buf_;
  std::size_t head_ = 0;
  double sum_ = 0.0;
};

/// Result of a lag autocorrelation sweep.
struct AutocorrResult {
  /// c_n = sum over window of x_{n+k} * conj(x_{n+k+lag})
  std::vector<cf32> corr;
  /// Lead-window power sum: p_lead,n = sum_k |x_{n+k}|^2. Exposed (rather
  /// than the old pre-combined sqrt(p_lead*p_lag) "power") so multi-antenna
  /// callers can normalize by the summed window powers,
  /// |sum_a c_a|^2 / ((sum_a p_lead,a) * (sum_a p_lag,a)) — summing the
  /// per-antenna geometric means and squaring is NOT equivalent and
  /// inflates the metric when antennas see different lead/lag ratios.
  std::vector<float> pow_lead;
  /// Lag-window power sum: p_lag,n = sum_k |x_{n+k+lag}|^2. Normalizing by
  /// both windows keeps the metric bounded at burst edges, where one window
  /// is signal and the other is noise.
  std::vector<float> pow_lag;
  /// m_n = |c_n|^2 / (p_lead * p_lag), in [0, 1] by Cauchy-Schwarz.
  std::vector<float> metric;

  /// Sliding sums carried between lag_autocorrelate_resume calls: the
  /// window sums at output position `next` of the sweep. next == 0 is a
  /// fresh sweep, whose sums are primed from its first window.
  struct Sums {
    cf64 corr{0.0, 0.0};
    double pow_lead = 0.0;
    double pow_lag = 0.0;
    std::size_t next = 0;
  } sums;

  /// Internal staging for the product kernel and the strided pack — kept
  /// here so a workspace-owned result sweeps without steady-state
  /// allocation. Contents are unspecified between calls.
  struct Scratch {
    std::vector<double> prod_re;  ///< Re(x_k * conj(x_{k+lag}))
    std::vector<double> prod_im;  ///< Im(x_k * conj(x_{k+lag}))
    std::vector<double> mag;      ///< |x_k|^2 widened to double
    std::vector<cf32> packed;     ///< decimated samples (strided sweeps)
  } scratch;
};

/// Lag-`lag` autocorrelation of x over a sliding window of `window` samples.
/// Output length is len(x) - lag - window + 1 (empty if x is too short).
[[nodiscard]] AutocorrResult lag_autocorrelate(std::span<const cf32> x, std::size_t lag,
                                               std::size_t window);

/// Same sweep writing into caller-owned storage: `out`'s vectors are resized
/// (capacity kept), so a workspace-owned result never allocates in steady
/// state. Bit-identical to lag_autocorrelate(). The element-wise products
/// are computed by an AVX2 kernel when the CPU supports it (runtime
/// dispatch); the scalar fallback is bit-compatible — same IEEE operations
/// in the same order.
void lag_autocorrelate_into(std::span<const cf32> x, std::size_t lag,
                            std::size_t window, AutocorrResult& out);

/// Resumable sweep: the next (at most `max_out`) output positions of the
/// lag/window sweep of x, starting at position out.sums.next, written to
/// out.corr/pow_lead/pow_lag/metric[0, count) while out.sums moves past
/// them. Returns count, 0 once the sweep is exhausted. Every call of one
/// sweep passes the same x, lag and window; `out.sums = {}` starts a new
/// one. However a sweep is split into calls, each position's values are
/// bit-identical to lag_autocorrelate_into's: both run the one sliding-sum
/// loop, and only the element-wise products are computed per call. Scratch
/// stays O(max_out + window + lag) whatever the length of x.
std::size_t lag_autocorrelate_resume(std::span<const cf32> x, std::size_t lag,
                                     std::size_t window, std::size_t max_out,
                                     AutocorrResult& out);

/// Decimated sweep: output positions n = 0, stride, 2*stride, ... of x, each
/// correlating only every stride-th sample inside the window — out index i
/// corresponds to position i*stride of x and sums window/stride terms.
/// Requires lag % stride == 0 and window % stride == 0 (the decimated
/// sequence then still autocorrelates at the same absolute lag). This is
/// the coarse-pass primitive: 1/stride of the full-rate work.
void lag_autocorrelate_strided_into(std::span<const cf32> x, std::size_t lag,
                                    std::size_t window, std::size_t stride,
                                    AutocorrResult& out);

namespace detail {
/// Test/bench hook: force the product kernel onto the scalar path (true) or
/// restore runtime dispatch (false). Not thread-safe; flip only in
/// single-threaded harness code.
void force_scalar_autocorr(bool force) noexcept;
/// Whether the runtime dispatch would pick the AVX2 kernel right now.
[[nodiscard]] bool autocorr_simd_active() noexcept;
}  // namespace detail

}  // namespace mimonet::dsp
