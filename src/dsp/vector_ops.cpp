#include "dsp/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define MIMONET_XCORR_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mimonet::dsp {

double energy(std::span<const cf32> x) noexcept {
  double acc = 0.0;
  for (const cf32 v : x) acc += static_cast<double>(mag_sqr(v));
  return acc;
}

double mean_power(std::span<const cf32> x) noexcept {
  if (x.empty()) return 0.0;
  return energy(x) / static_cast<double>(x.size());
}

void scale(std::span<cf32> x, float gain) noexcept {
  for (auto& v : x) v *= gain;
}

void multiply_conj(std::span<const cf32> a, std::span<const cf32> b, std::span<cf32> out) {
  if (a.size() != b.size() || a.size() != out.size()) {
    throw std::invalid_argument("multiply_conj: size mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * std::conj(b[i]);
}

cf64 dot_conj(std::span<const cf32> a, std::span<const cf32> b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  cf64 acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    acc += cf64(a[i]) * std::conj(cf64(b[i]));
  }
  return acc;
}

double mix(std::span<const std::span<cf32>> xs, double phase0, double phase_inc) {
  if (xs.empty()) return phase0;
  const std::size_t n = xs[0].size();
  for (const auto& x : xs) {
    if (x.size() != n) throw std::invalid_argument("mix: spans of unequal length");
  }
  double phase = phase0;
  for (std::size_t i = 0; i < n; ++i) {
    const cf64 rot = phasor_d(phase);
    for (const auto& x : xs) {
      const cf64 y = cf64(x[i]) * rot;
      x[i] = cf32(static_cast<float>(y.real()), static_cast<float>(y.imag()));
    }
    phase += phase_inc;
    // Keep the accumulator bounded for long streams.
    if (phase > pi_d) phase -= two_pi_d;
    if (phase < -pi_d) phase += two_pi_d;
  }
  return phase;
}

double mix(std::span<cf32> x, double phase0, double phase_inc) noexcept {
  return mix(std::span<const std::span<cf32>>(&x, 1), phase0, phase_inc);
}

namespace {

bool g_force_scalar_xcorr = false;

// Scalar correlation of lags [k_begin, k_end), the dispatch fallback and the
// reference the AVX2 kernel must match bit for bit: each lag accumulates its
// taps in order through std::complex<double>. For finite operands the
// complex product is exactly (ac - bd) + (ad + bc)i; a product that comes
// out NaN goes through __muldc3's infinity recovery, which only this path
// reproduces. fp-contract is pinned off so a native build cannot fuse the
// multiply-adds into FMAs the vector kernel does not use.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("-ffp-contract=off")))
#endif
void xcorr_scalar(const cf32* x, const cf32* ref, std::size_t n_ref,
                  std::size_t k_begin, std::size_t k_end, cf32* out) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    cf64 acc{0.0, 0.0};
    for (std::size_t n = 0; n < n_ref; ++n) {
      acc += cf64(x[k + n]) * std::conj(cf64(ref[n]));
    }
    out[k] = cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
}

#ifdef MIMONET_XCORR_X86_DISPATCH
// Whether every re/im part of x[0, n) is finite (exponent not all ones).
__attribute__((target("avx2"))) bool all_finite_avx2(const cf32* x, std::size_t n) {
  const float* f = reinterpret_cast<const float*>(x);
  const std::size_t n_parts = 2 * n;
  const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n_parts; i += 8) {
    const __m256i v =
        _mm256_and_si256(_mm256_castps_si256(_mm256_loadu_ps(f + i)), exp_mask);
    bad = _mm256_or_si256(bad, _mm256_cmpeq_epi32(v, exp_mask));
  }
  bool finite = _mm256_testz_si256(bad, bad) != 0;
  for (; i < n_parts; ++i) finite = finite && std::isfinite(f[i]);
  return finite;
}

// Lags per staging block, and the longest reference the AVX2 kernel stages.
constexpr std::size_t kXcorrBlock = 128;
constexpr std::size_t kXcorrMaxRef = 64;

// Four lags' double accumulators rounded to cf32 and interleaved into out.
__attribute__((target("avx2"))) void store_cf32x4(cf32* out, __m256d re4, __m256d im4) {
  const __m128 re = _mm256_cvtpd_ps(re4);
  const __m128 im = _mm256_cvtpd_ps(im4);
  float* of = reinterpret_cast<float*>(out);
  _mm_storeu_ps(of, _mm_unpacklo_ps(re, im));
  _mm_storeu_ps(of + 4, _mm_unpackhi_ps(re, im));
}

// AVX2 correlation, 4 lags per __m256d with split re/im accumulators, two
// such groups (8 lags) per pass over the taps. Each lane runs xcorr_scalar's
// operations for its lag: taps in order, the product (ac - bd) + (ad + bc)i
// with c + di = conj(ref_n), every multiply and add rounded on its own (no
// FMA). x is staged as split doubles one block of lags at a time, so every
// tap is two plain loads. Finite inputs and references of at most
// kXcorrMaxRef taps only — the dispatcher sends anything else to
// xcorr_scalar, as it does the last n_out % 8 lags.
__attribute__((target("avx2"))) void xcorr_avx2(const cf32* x, const cf32* ref,
                                                std::size_t n_ref, std::size_t n_out,
                                                cf32* out) {
  alignas(32) double c[kXcorrMaxRef];
  alignas(32) double d[kXcorrMaxRef];
  for (std::size_t n = 0; n < n_ref; ++n) {
    c[n] = static_cast<double>(ref[n].real());
    d[n] = -static_cast<double>(ref[n].imag());
  }
  alignas(32) double xr[kXcorrBlock + kXcorrMaxRef];
  alignas(32) double xi[kXcorrBlock + kXcorrMaxRef];

  const std::size_t n_simd = n_out / 8 * 8;
  for (std::size_t k0 = 0; k0 < n_simd; k0 += kXcorrBlock) {
    const std::size_t lags = std::min(kXcorrBlock, n_simd - k0);
    for (std::size_t i = 0; i < lags + n_ref - 1; ++i) {
      xr[i] = static_cast<double>(x[k0 + i].real());
      xi[i] = static_cast<double>(x[k0 + i].imag());
    }
    for (std::size_t k = 0; k < lags; k += 8) {
      __m256d re0 = _mm256_setzero_pd();
      __m256d im0 = _mm256_setzero_pd();
      __m256d re1 = _mm256_setzero_pd();
      __m256d im1 = _mm256_setzero_pd();
      for (std::size_t n = 0; n < n_ref; ++n) {
        const __m256d cn = _mm256_broadcast_sd(c + n);
        const __m256d dn = _mm256_broadcast_sd(d + n);
        const __m256d a0 = _mm256_loadu_pd(xr + k + n);
        const __m256d b0 = _mm256_loadu_pd(xi + k + n);
        const __m256d a1 = _mm256_loadu_pd(xr + k + n + 4);
        const __m256d b1 = _mm256_loadu_pd(xi + k + n + 4);
        re0 = _mm256_add_pd(
            re0, _mm256_sub_pd(_mm256_mul_pd(a0, cn), _mm256_mul_pd(b0, dn)));
        im0 = _mm256_add_pd(
            im0, _mm256_add_pd(_mm256_mul_pd(a0, dn), _mm256_mul_pd(b0, cn)));
        re1 = _mm256_add_pd(
            re1, _mm256_sub_pd(_mm256_mul_pd(a1, cn), _mm256_mul_pd(b1, dn)));
        im1 = _mm256_add_pd(
            im1, _mm256_add_pd(_mm256_mul_pd(a1, dn), _mm256_mul_pd(b1, cn)));
      }
      store_cf32x4(out + k0 + k, re0, im0);
      store_cf32x4(out + k0 + k + 4, re1, im1);
    }
  }
  xcorr_scalar(x, ref, n_ref, n_simd, n_out, out);
}

bool have_avx2() noexcept {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif  // MIMONET_XCORR_X86_DISPATCH

bool g_force_scalar_tdl = false;

// Scalar tapped-delay-line convolution of outputs [first, first + n), the
// dispatch fallback and the reference the AVX2 kernel must match bit for
// bit: each output accumulates its in-range taps in order through
// std::complex<double> (which recovers NaN products through __muldc3, as
// only this path does) and is added into out in float. fp-contract is
// pinned off as for xcorr_scalar.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("-ffp-contract=off")))
#endif
void tdl_scalar(const cf32* x, std::size_t len, const cf32* h, std::size_t n_taps,
                std::size_t first, std::size_t n, cf32* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = first + i;
    cf64 acc{0.0, 0.0};
    for (std::size_t k = pos >= len ? pos - len + 1 : 0; k < n_taps && k <= pos; ++k) {
      acc += cf64(h[k]) * cf64(x[pos - k]);
    }
    out[i] += cf32(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
}

#ifdef MIMONET_XCORR_X86_DISPATCH
// Outputs per staging block, and the most taps the AVX2 kernel stages.
constexpr std::size_t kTdlBlock = 128;
constexpr std::size_t kTdlMaxTaps = 64;

// out[0, 4) += four outputs' double accumulators rounded to cf32.
__attribute__((target("avx2"))) void add_cf32x4(cf32* out, __m256d re4, __m256d im4) {
  const __m128 re = _mm256_cvtpd_ps(re4);
  const __m128 im = _mm256_cvtpd_ps(im4);
  float* of = reinterpret_cast<float*>(out);
  _mm_storeu_ps(of, _mm_add_ps(_mm_loadu_ps(of), _mm_unpacklo_ps(re, im)));
  _mm_storeu_ps(of + 4, _mm_add_ps(_mm_loadu_ps(of + 4), _mm_unpackhi_ps(re, im)));
}

// AVX2 convolution, 4 outputs per __m256d with split re/im accumulators,
// two such groups (8 outputs) per pass over the taps. Each lane runs
// tdl_scalar's operations for its output: taps in order, the product
// (ac - bd) + (ad + bc)i with a + bi = h[k], every multiply and add rounded
// on its own (no FMA). x is staged as split doubles, zero outside [0, len),
// one block of outputs at a time; a zero term leaves an accumulator that
// started at +0 unchanged, so padding matches tdl_scalar's bounds. Finite
// inputs and at most kTdlMaxTaps taps only; the last n % 8 outputs go to
// tdl_scalar.
__attribute__((target("avx2"))) void tdl_avx2(const cf32* x, std::size_t len,
                                              const cf32* h, std::size_t n_taps,
                                              std::size_t first, std::size_t n, cf32* out) {
  alignas(32) double a[kTdlMaxTaps];
  alignas(32) double b[kTdlMaxTaps];
  for (std::size_t k = 0; k < n_taps; ++k) {
    a[k] = static_cast<double>(h[k].real());
    b[k] = static_cast<double>(h[k].imag());
  }
  alignas(32) double xr[kTdlBlock + kTdlMaxTaps];
  alignas(32) double xi[kTdlBlock + kTdlMaxTaps];
  const std::size_t lead = n_taps - 1;  // staged samples before an output

  const std::size_t n_simd = n / 8 * 8;
  for (std::size_t i0 = 0; i0 < n_simd; i0 += kTdlBlock) {
    const std::size_t outs = std::min(kTdlBlock, n_simd - i0);
    const std::size_t p0 = first + i0;  // position of staged sample `lead`
    for (std::size_t j = 0; j < outs + lead; ++j) {
      const bool inside = p0 + j >= lead && p0 + j - lead < len;
      xr[j] = inside ? static_cast<double>(x[p0 + j - lead].real()) : 0.0;
      xi[j] = inside ? static_cast<double>(x[p0 + j - lead].imag()) : 0.0;
    }
    for (std::size_t i = 0; i < outs; i += 8) {
      __m256d re0 = _mm256_setzero_pd();
      __m256d im0 = _mm256_setzero_pd();
      __m256d re1 = _mm256_setzero_pd();
      __m256d im1 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < n_taps; ++k) {
        const __m256d ak = _mm256_broadcast_sd(a + k);
        const __m256d bk = _mm256_broadcast_sd(b + k);
        const std::size_t j = i + lead - k;
        const __m256d c0 = _mm256_loadu_pd(xr + j);
        const __m256d d0 = _mm256_loadu_pd(xi + j);
        const __m256d c1 = _mm256_loadu_pd(xr + j + 4);
        const __m256d d1 = _mm256_loadu_pd(xi + j + 4);
        re0 = _mm256_add_pd(
            re0, _mm256_sub_pd(_mm256_mul_pd(ak, c0), _mm256_mul_pd(bk, d0)));
        im0 = _mm256_add_pd(
            im0, _mm256_add_pd(_mm256_mul_pd(ak, d0), _mm256_mul_pd(bk, c0)));
        re1 = _mm256_add_pd(
            re1, _mm256_sub_pd(_mm256_mul_pd(ak, c1), _mm256_mul_pd(bk, d1)));
        im1 = _mm256_add_pd(
            im1, _mm256_add_pd(_mm256_mul_pd(ak, d1), _mm256_mul_pd(bk, c1)));
      }
      add_cf32x4(out + i0 + i, re0, im0);
      add_cf32x4(out + i0 + i + 4, re1, im1);
    }
  }
  tdl_scalar(x, len, h, n_taps, first + n_simd, n - n_simd, out + n_simd);
}
#endif  // MIMONET_XCORR_X86_DISPATCH

}  // namespace

namespace detail {
void force_scalar_xcorr(bool force) noexcept { g_force_scalar_xcorr = force; }
bool xcorr_simd_active() noexcept {
#ifdef MIMONET_XCORR_X86_DISPATCH
  return have_avx2() && !g_force_scalar_xcorr;
#else
  return false;
#endif
}
void force_scalar_tdl(bool force) noexcept { g_force_scalar_tdl = force; }
bool tdl_simd_active() noexcept {
#ifdef MIMONET_XCORR_X86_DISPATCH
  return have_avx2() && !g_force_scalar_tdl;
#else
  return false;
#endif
}
}  // namespace detail

void tdl_convolve_add(std::span<const cf32> x, std::span<const cf32> h,
                      std::size_t first, std::span<cf32> out) {
  if (h.empty()) throw std::invalid_argument("tdl_convolve_add: no taps");
  if (out.empty()) return;
  if (first + out.size() > x.size() + h.size() - 1) {
    throw std::invalid_argument("tdl_convolve_add: outputs past the convolution tail");
  }
#ifdef MIMONET_XCORR_X86_DISPATCH
  // The samples the outputs read: positions [first - (taps - 1), first + n)
  // clipped to x.
  const std::size_t lo = first >= h.size() - 1 ? first - (h.size() - 1) : 0;
  const std::size_t hi = std::min(x.size(), first + out.size());
  if (detail::tdl_simd_active() && h.size() <= kTdlMaxTaps &&
      all_finite_avx2(h.data(), h.size()) &&
      (lo >= hi || all_finite_avx2(x.data() + lo, hi - lo))) {
    tdl_avx2(x.data(), x.size(), h.data(), h.size(), first, out.size(), out.data());
    return;
  }
#endif
  tdl_scalar(x.data(), x.size(), h.data(), h.size(), first, out.size(), out.data());
}

void cross_correlate_into(std::span<const cf32> x, std::span<const cf32> ref,
                          std::vector<cf32>& out) {
  if (x.size() < ref.size() || ref.empty()) {
    throw std::invalid_argument("cross_correlate: x shorter than ref or ref empty");
  }
  out.resize(x.size() - ref.size() + 1);
#ifdef MIMONET_XCORR_X86_DISPATCH
  if (detail::xcorr_simd_active() && ref.size() <= kXcorrMaxRef &&
      all_finite_avx2(x.data(), x.size()) && all_finite_avx2(ref.data(), ref.size())) {
    xcorr_avx2(x.data(), ref.data(), ref.size(), out.size(), out.data());
    return;
  }
#endif
  xcorr_scalar(x.data(), ref.data(), ref.size(), 0, out.size(), out.data());
}

std::vector<cf32> cross_correlate(std::span<const cf32> x, std::span<const cf32> ref) {
  std::vector<cf32> out;
  cross_correlate_into(x, ref, out);
  return out;
}

double rms_error(std::span<const cf32> a, std::span<const cf32> b) {
  if (a.size() != b.size()) throw std::invalid_argument("rms_error: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(mag_sqr(a[i] - b[i]));
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace mimonet::dsp
