#include "dsp/rng.hpp"

#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define MIMONET_RNG_X86_DISPATCH 1
#include <immintrin.h>
#endif

// The polar method's float arithmetic is pinned: fp-contract off, so a
// native build cannot fuse x*x + y*y or the scaling into FMAs that
// libstdc++'s std::normal_distribution<float> (compiled portably) does not
// use.
#if defined(__GNUC__) && !defined(__clang__)
#define MIMONET_NO_FP_CONTRACT __attribute__((optimize("-ffp-contract=off")))
#else
#define MIMONET_NO_FP_CONTRACT
#endif

namespace mimonet::dsp {

namespace {

bool g_force_scalar_rng = false;

// MT19937-64 parameters (ISO C++ [rand.predef]).
constexpr std::size_t kN = Mt19937Block::kBlock;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31U;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kTemperD = 0x5555555555555555ULL;
constexpr std::uint64_t kTemperB = 0x71D67FFFEDA60000ULL;
constexpr std::uint64_t kTemperC = 0xFFF7EEE000000000ULL;

inline std::uint64_t twist_one(std::uint64_t cur, std::uint64_t nxt,
                               std::uint64_t far) noexcept {
  const std::uint64_t y = (cur & kUpper) | (nxt & kLower);
  return far ^ (y >> 1U) ^ ((y & 1U) != 0 ? kMatrixA : 0);
}

inline std::uint64_t temper(std::uint64_t y) noexcept {
  y ^= (y >> 29U) & kTemperD;
  y ^= (y << 17U) & kTemperB;
  y ^= (y << 37U) & kTemperC;
  return y ^ (y >> 43U);
}

// The reference twist, in the three ranges of the standard's recurrence:
// mt[k] for k < n - m reads mt[k + m] not yet twisted, the rest read the
// new mt[k + m - n], and the last element wraps to mt[0].
void twist_scalar(std::uint64_t* mt, std::size_t from) noexcept {
  std::size_t k = from;
  for (; k < kN - kM; ++k) mt[k] = twist_one(mt[k], mt[k + 1], mt[k + kM]);
  for (; k < kN - 1; ++k) mt[k] = twist_one(mt[k], mt[k + 1], mt[k + kM - kN]);
  if (k == kN - 1) mt[k] = twist_one(mt[k], mt[0], mt[kM - 1]);
}

void temper_scalar(const std::uint64_t* mt, std::uint64_t* out) noexcept {
  for (std::size_t k = 0; k < kN; ++k) out[k] = temper(mt[k]);
}

// libstdc++'s generate_canonical<float, 24> of one 64-bit draw: the draw
// rounded to float, scaled by 2^-64 (exact), clamped below 1.
inline float canonical(std::uint64_t draw) noexcept {
  const float u = static_cast<float>(draw) * 0x1p-64F;
  return u < 1.0F ? u : 0x1.fffffeP-1F;
}

// One polar coordinate: 2u - 1 with the subtraction in double, as
// normal_distribution's `result_type(2.0) * __aurng() - 1.0` promotes it.
inline float polar_coord(std::uint64_t draw) noexcept {
  return static_cast<float>(static_cast<double>(2.0F * canonical(draw)) - 1.0);
}

#ifdef MIMONET_RNG_X86_DISPATCH
// One twisted vector: mt[k, k+4) from mt[k, k+5) and mt[far, far+4).
__attribute__((target("avx2"))) inline void twist4_avx2(std::uint64_t* mt, std::size_t k,
                                                        std::size_t far) noexcept {
  const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + k));
  const __m256i nxt = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + k + 1));
  const __m256i f = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + far));
  const __m256i y = _mm256_or_si256(
      _mm256_and_si256(cur, _mm256_set1_epi64x(static_cast<long long>(kUpper))),
      _mm256_and_si256(nxt, _mm256_set1_epi64x(static_cast<long long>(kLower))));
  // (y & 1) ? A : 0, as 0 - (y & 1) masking A.
  const __m256i odd =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  const __m256i mag =
      _mm256_and_si256(odd, _mm256_set1_epi64x(static_cast<long long>(kMatrixA)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(mt + k),
                      _mm256_xor_si256(f, _mm256_xor_si256(_mm256_srli_epi64(y, 1), mag)));
}

// AVX2 twist: each range of twist_scalar four elements at a time. Within a
// range the elements are independent (every read of a not-yet-twisted
// element lies at or above the vector being written), so the only scalar
// work is the tail of the second range and the wrapping last element.
__attribute__((target("avx2"))) void twist_avx2(std::uint64_t* mt) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= kN - kM; k += 4) twist4_avx2(mt, k, k + kM);
  for (; k + 4 <= kN - 1; k += 4) twist4_avx2(mt, k, k + kM - kN);
  twist_scalar(mt, k);
}

__attribute__((target("avx2"))) void temper_avx2(const std::uint64_t* mt,
                                                  std::uint64_t* out) noexcept {
  const __m256i d = _mm256_set1_epi64x(static_cast<long long>(kTemperD));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(kTemperB));
  const __m256i c = _mm256_set1_epi64x(static_cast<long long>(kTemperC));
  for (std::size_t k = 0; k < kN; k += 4) {
    __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + k));
    y = _mm256_xor_si256(y, _mm256_and_si256(_mm256_srli_epi64(y, 29), d));
    y = _mm256_xor_si256(y, _mm256_and_si256(_mm256_slli_epi64(y, 17), b));
    y = _mm256_xor_si256(y, _mm256_and_si256(_mm256_slli_epi64(y, 37), c));
    y = _mm256_xor_si256(y, _mm256_srli_epi64(y, 43));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), y);
  }
}

bool have_avx2() noexcept {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif  // MIMONET_RNG_X86_DISPATCH

// sigma * (the pair's output), plus the distribution's zero mean: libstdc++
// rounds y * mult, then the scaling, then adds the mean.
MIMONET_NO_FP_CONTRACT inline cf32 polar_output(float x, float y, float r2,
                                                float sigma) noexcept {
  const float mult = std::sqrt(-2.0F * std::log(r2) / r2);
  const float re = y * mult;
  const float im = x * mult;
  return {re * sigma + 0.0F, im * sigma + 0.0F};
}

}  // namespace

namespace detail {
void force_scalar_rng(bool force) noexcept { g_force_scalar_rng = force; }
bool rng_simd_active() noexcept {
#ifdef MIMONET_RNG_X86_DISPATCH
  return have_avx2() && !g_force_scalar_rng;
#else
  return false;
#endif
}
}  // namespace detail

void Mt19937Block::seed(result_type s) noexcept {
  mt_[0] = s;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = mt_[i - 1];
    mt_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62U)) + i;
  }
  next_ = kBlock;
}

void Mt19937Block::refill() noexcept {
#ifdef MIMONET_RNG_X86_DISPATCH
  if (detail::rng_simd_active()) {
    twist_avx2(mt_.data());
    temper_avx2(mt_.data(), out_.data());
    next_ = 0;
    return;
  }
#endif
  twist_scalar(mt_.data(), 0);
  temper_scalar(mt_.data(), out_.data());
  next_ = 0;
}

ComplexGaussian::ComplexGaussian(std::uint64_t seed, double variance) : rng_(seed) {
  set_variance(variance);
}

void ComplexGaussian::reseed(std::uint64_t seed) noexcept { rng_.seed(seed); }

void ComplexGaussian::set_variance(double variance) {
  if (variance < 0.0) throw std::invalid_argument("ComplexGaussian: negative variance");
  variance_ = variance;
  // Each real dimension carries half the complex variance.
  sigma_ = static_cast<float>(std::sqrt(variance / 2.0));
}

// One polar pair, drawn and rejected as normal_distribution draws it.
MIMONET_NO_FP_CONTRACT inline cf32 ComplexGaussian::next_sample() {
  float x = 0.0F;
  float y = 0.0F;
  float r2 = 0.0F;
  do {
    x = polar_coord(rng_());
    y = polar_coord(rng_());
    r2 = x * x + y * y;
  } while (r2 > 1.0F || r2 == 0.0F);
  return polar_output(x, y, r2, sigma_);
}

MIMONET_NO_FP_CONTRACT cf32 ComplexGaussian::sample() { return next_sample(); }

MIMONET_NO_FP_CONTRACT void ComplexGaussian::fill(std::span<cf32> out) {
  for (auto& v : out) v = next_sample();
}

MIMONET_NO_FP_CONTRACT void ComplexGaussian::add_to(std::span<cf32> inout) {
  for (auto& v : inout) v += next_sample();
}

std::vector<std::uint8_t> BitSource::bits(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  std::uint64_t pool = 0;
  int avail = 0;
  for (auto& b : out) {
    if (avail == 0) {
      pool = rng_();
      avail = 64;
    }
    b = static_cast<std::uint8_t>(pool & 1U);
    pool >>= 1U;
    --avail;
  }
  return out;
}

std::vector<std::uint8_t> BitSource::bytes(std::size_t count) {
  std::vector<std::uint8_t> out(count);
  bytes_into(out);
  return out;
}

void BitSource::bytes_into(std::span<std::uint8_t> out) {
  std::uint64_t pool = 0;
  int avail = 0;
  for (auto& b : out) {
    if (avail == 0) {
      pool = rng_();
      avail = 8;
    }
    b = static_cast<std::uint8_t>(pool & 0xFFU);
    pool >>= 8U;
    --avail;
  }
}

}  // namespace mimonet::dsp
