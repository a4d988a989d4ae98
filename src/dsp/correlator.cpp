#include "dsp/correlator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define MIMONET_AUTOCORR_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mimonet::dsp {

MovingSum::MovingSum(std::size_t window) : buf_(window, cf64{0.0, 0.0}) {
  if (window == 0) throw std::invalid_argument("MovingSum: zero window");
}

cf64 MovingSum::push(cf64 x) noexcept {
  sum_ += x - buf_[head_];
  buf_[head_] = x;
  head_ = (head_ + 1) % buf_.size();
  return sum_;
}

void MovingSum::reset() noexcept {
  for (auto& v : buf_) v = cf64{0.0, 0.0};
  sum_ = cf64{0.0, 0.0};
  head_ = 0;
}

MovingSumReal::MovingSumReal(std::size_t window) : buf_(window, 0.0) {
  if (window == 0) throw std::invalid_argument("MovingSumReal: zero window");
}

double MovingSumReal::push(double x) noexcept {
  sum_ += x - buf_[head_];
  buf_[head_] = x;
  head_ = (head_ + 1) % buf_.size();
  return sum_;
}

void MovingSumReal::reset() noexcept {
  for (auto& v : buf_) v = 0.0;
  sum_ = 0.0;
  head_ = 0;
}

namespace {

bool g_force_scalar = false;

// Scalar product fill, the dispatch fallback and the reference the AVX2
// kernel must match bit for bit: the conj product uses the naive complex
// formula with one rounding per multiply and per add, and the magnitude is
// computed in float (like mag_sqr) before widening. fp-contract is pinned
// off so a native build cannot fuse the multiply-adds into FMAs the vector
// kernel does not use.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("-ffp-contract=off")))
#endif
void products_scalar(const cf32* x, std::size_t lag, std::size_t n_prod,
                     std::size_t n_mag, double* re, double* im, double* mag) {
  for (std::size_t i = 0; i < n_prod; ++i) {
    const double ar = static_cast<double>(x[i].real());
    const double ai = static_cast<double>(x[i].imag());
    const double br = static_cast<double>(x[i + lag].real());
    const double bi = static_cast<double>(x[i + lag].imag());
    re[i] = ar * br + ai * bi;  // x_i * conj(x_{i+lag})
    im[i] = ai * br - ar * bi;
  }
  for (std::size_t i = 0; i < n_mag; ++i) {
    const float m = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
    mag[i] = static_cast<double>(m);
  }
}

#ifdef MIMONET_AUTOCORR_X86_DISPATCH
// AVX2 product fill, 4 complex samples per iteration. Bit-identical to
// products_scalar: the same float squares/adds for the magnitudes and the
// same double multiplies/adds for the conj products, no FMA contraction
// (intrinsics emit the separate mul/add the scalar reference pins).
__attribute__((target("avx2"))) void products_avx2(
    const cf32* x, std::size_t lag, std::size_t n_prod, std::size_t n_mag,
    double* re, double* im, double* mag) {
  const float* xf = reinterpret_cast<const float*>(x);
  const __m256i deinterleave = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);

  std::size_t i = 0;
  for (; i + 4 <= n_prod; i += 4) {
    // [r0 i0 r1 i1 r2 i2 r3 i3] -> [r0 r1 r2 r3 | i0 i1 i2 i3]
    const __m256 a =
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(xf + 2 * i), deinterleave);
    const __m256 b = _mm256_permutevar8x32_ps(
        _mm256_loadu_ps(xf + 2 * (i + lag)), deinterleave);
    const __m256d ar = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
    const __m256d ai = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
    const __m256d br = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    _mm256_storeu_pd(re + i, _mm256_add_pd(_mm256_mul_pd(ar, br),
                                           _mm256_mul_pd(ai, bi)));
    _mm256_storeu_pd(im + i, _mm256_sub_pd(_mm256_mul_pd(ai, br),
                                           _mm256_mul_pd(ar, bi)));
  }
  for (; i < n_prod; ++i) {
    const double ar = static_cast<double>(x[i].real());
    const double ai = static_cast<double>(x[i].imag());
    const double br = static_cast<double>(x[i + lag].real());
    const double bi = static_cast<double>(x[i + lag].imag());
    const double pr = ar * br;
    const double qi = ai * bi;
    re[i] = pr + qi;
    const double pi2 = ai * br;
    const double qr = ar * bi;
    im[i] = pi2 - qr;
  }

  i = 0;
  for (; i + 4 <= n_mag; i += 4) {
    const __m256 v =
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(xf + 2 * i), deinterleave);
    const __m128 r = _mm256_castps256_ps128(v);
    const __m128 im4 = _mm256_extractf128_ps(v, 1);
    // |x|^2 in float (one mul per part, one add), exactly mag_sqr's ops.
    const __m128 m = _mm_add_ps(_mm_mul_ps(r, r), _mm_mul_ps(im4, im4));
    _mm256_storeu_pd(mag + i, _mm256_cvtps_pd(m));
  }
  for (; i < n_mag; ++i) {
    const float rr = x[i].real() * x[i].real();
    const float ii = x[i].imag() * x[i].imag();
    mag[i] = static_cast<double>(rr + ii);
  }
}

[[nodiscard]] bool have_avx2() noexcept {
  return __builtin_cpu_supports("avx2");
}
#endif  // MIMONET_AUTOCORR_X86_DISPATCH

void fill_products(const cf32* x, std::size_t lag, std::size_t n_prod,
                   std::size_t n_mag, AutocorrResult::Scratch& s) {
  s.prod_re.resize(n_prod);
  s.prod_im.resize(n_prod);
  s.mag.resize(n_mag);
#ifdef MIMONET_AUTOCORR_X86_DISPATCH
  static const bool use_avx2 = have_avx2();
  if (use_avx2 && !g_force_scalar) {
    products_avx2(x, lag, n_prod, n_mag, s.prod_re.data(), s.prod_im.data(),
                  s.mag.data());
    return;
  }
#endif
  products_scalar(x, lag, n_prod, n_mag, s.prod_re.data(), s.prod_im.data(),
                  s.mag.data());
}

/// The one sliding-sum loop every sweep runs through: output positions
/// [res.sums.next, res.sums.next + count) of the sweep over x[0, len),
/// written to result slots [0, count), with the sums carried in res.sums.
///
/// Element-wise conj products and magnitudes come first (vectorizable),
/// for just the samples these positions touch — element-wise, so a chunk's
/// values equal the whole span's. Then the sequential sliding sums: sum +=
/// entering - leaving, the exact MovingSum ring-buffer recurrence, which
/// yields the same bits as recomputing each term (same operands, same ops).
/// Any split of a sweep into calls therefore performs the same operations
/// in the same order as one call.
void sweep(const cf32* x, std::size_t len, std::size_t lag, std::size_t window,
           std::size_t count, AutocorrResult& res) {
  auto& s = res.sums;
  const std::size_t n_out = len - lag - window + 1;
  const std::size_t p0 = s.next;
  res.corr.resize(count);
  res.pow_lead.resize(count);
  res.pow_lag.resize(count);
  res.metric.resize(count);
  if (count == 0) return;

  // Local index i is position p0 + i: the positions' own products plus
  // those entering their windows, clipped at the end of the sweep.
  const std::size_t n_prod = std::min(count + window, len - lag - p0);
  fill_products(x + p0, lag, n_prod, n_prod + lag, res.scratch);
  const double* pre = res.scratch.prod_re.data();
  const double* pim = res.scratch.prod_im.data();
  const double* mag = res.scratch.mag.data();

  if (p0 == 0) {
    s.corr = cf64{0.0, 0.0};
    s.pow_lead = 0.0;
    s.pow_lag = 0.0;
    for (std::size_t k = 0; k < window; ++k) {
      s.corr += cf64{pre[k], pim[k]} - cf64{0.0, 0.0};
      s.pow_lead += mag[k] - 0.0;
      s.pow_lag += mag[k + lag] - 0.0;
    }
  }
  cf64 corr_sum = s.corr;
  double pow_lead = s.pow_lead;
  double pow_lag = s.pow_lag;
  for (std::size_t i = 0; i < count; ++i) {
    const cf64 c = corr_sum;
    const double pp = pow_lead * pow_lag;
    res.corr[i] = cf32(static_cast<float>(c.real()), static_cast<float>(c.imag()));
    res.pow_lead[i] = static_cast<float>(pow_lead);
    res.pow_lag[i] = static_cast<float>(pow_lag);
    res.metric[i] = (pp > 0.0) ? static_cast<float>(mag_sqr(c) / pp) : 0.0F;
    if (p0 + i + 1 >= n_out) break;  // the sweep's last position
    const std::size_t k = i + window;  // next sample entering the window
    corr_sum += cf64{pre[k], pim[k]} - cf64{pre[i], pim[i]};
    pow_lead += mag[k] - mag[i];
    pow_lag += mag[k + lag] - mag[i + lag];
  }
  s = {corr_sum, pow_lead, pow_lag, p0 + count};
}

void clear_result(AutocorrResult& res) {
  res.corr.clear();
  res.pow_lead.clear();
  res.pow_lag.clear();
  res.metric.clear();
}

}  // namespace

namespace detail {
void force_scalar_autocorr(bool force) noexcept { g_force_scalar = force; }
bool autocorr_simd_active() noexcept {
#ifdef MIMONET_AUTOCORR_X86_DISPATCH
  return have_avx2() && !g_force_scalar;
#else
  return false;
#endif
}
}  // namespace detail

std::size_t lag_autocorrelate_resume(std::span<const cf32> x, std::size_t lag,
                                     std::size_t window, std::size_t max_out,
                                     AutocorrResult& res) {
  if (lag == 0 || window == 0) {
    throw std::invalid_argument("lag_autocorrelate: lag and window must be > 0");
  }
  if (x.size() < lag + window) {
    clear_result(res);
    return 0;
  }
  const std::size_t n_out = x.size() - lag - window + 1;
  const std::size_t count = std::min(max_out, n_out - std::min(res.sums.next, n_out));
  sweep(x.data(), x.size(), lag, window, count, res);
  return count;
}

void lag_autocorrelate_into(std::span<const cf32> x, std::size_t lag,
                            std::size_t window, AutocorrResult& res) {
  res.sums = {};
  (void)lag_autocorrelate_resume(x, lag, window, x.size(), res);
}

void lag_autocorrelate_strided_into(std::span<const cf32> x, std::size_t lag,
                                    std::size_t window, std::size_t stride,
                                    AutocorrResult& res) {
  if (stride == 0) {
    throw std::invalid_argument("lag_autocorrelate_strided: zero stride");
  }
  if (lag == 0 || window == 0) {
    throw std::invalid_argument("lag_autocorrelate: lag and window must be > 0");
  }
  if (lag % stride != 0 || window % stride != 0) {
    throw std::invalid_argument(
        "lag_autocorrelate_strided: lag and window must be multiples of stride");
  }
  if (stride == 1) {
    lag_autocorrelate_into(x, lag, window, res);
    return;
  }
  if (x.size() < lag + window) {
    clear_result(res);
    return;
  }
  // Pack every stride-th sample, then sweep the packed sequence at the
  // decimated lag/window — position i of the result is position i*stride of
  // x, and the decimated sequence still correlates at the same absolute lag.
  auto& y = res.scratch.packed;
  const std::size_t n_y = (x.size() + stride - 1) / stride;
  y.resize(n_y);
  for (std::size_t i = 0; i < n_y; ++i) y[i] = x[i * stride];
  lag_autocorrelate_into(y, lag / stride, window / stride, res);
}

AutocorrResult lag_autocorrelate(std::span<const cf32> x, std::size_t lag,
                                 std::size_t window) {
  AutocorrResult res;
  lag_autocorrelate_into(x, lag, window, res);
  return res;
}

}  // namespace mimonet::dsp
