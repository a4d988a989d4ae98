#include "wifi/preamble.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "ofdm/symbol.hpp"

namespace mimonet::wifi {

namespace {

using ofdm::kFftSize;
using ofdm::SubcarrierMap;

// L-LTF sequence, logical subcarriers -26..26 (802.11-2016 eq. 17-11).
constexpr std::array<float, 53> kLltfSeq{
    1,  1,  -1, -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  1,  1, 1, -1, -1, 1,
    1,  -1, 1,  -1, 1,  1,  1,  1,  0,  1,  -1, -1, 1,  1, -1, 1,  -1, 1,
    -1, -1, -1, -1, -1, 1,  1,  -1, -1, 1,  -1, 1,  -1, 1, 1,  1,  1};

// HT-LTF sequence, logical subcarriers -28..28 (802.11n eq. 20-24):
// {1, 1} ++ L-LTF ++ {-1, -1}.
constexpr std::array<float, 57> kHtltfSeq = [] {
  std::array<float, 57> seq{};
  seq[0] = 1.0F;
  seq[1] = 1.0F;
  for (std::size_t i = 0; i < kLltfSeq.size(); ++i) seq[2 + i] = kLltfSeq[i];
  seq[55] = -1.0F;
  seq[56] = -1.0F;
  return seq;
}();

// L-STF occupied tones: logical index and sign of the sqrt(13/6)*(1+j) value
// (802.11-2016 eq. 17-8). Entry {k, s} means S_k = s * sqrt(13/6) * (1+j).
struct StfTone {
  int k;
  float sign;
};
constexpr std::array<StfTone, 12> kLstfTones{{{-24, 1.0F},
                                              {-20, -1.0F},
                                              {-16, 1.0F},
                                              {-12, -1.0F},
                                              {-8, -1.0F},
                                              {-4, 1.0F},
                                              {4, -1.0F},
                                              {8, -1.0F},
                                              {12, 1.0F},
                                              {16, 1.0F},
                                              {20, 1.0F},
                                              {24, 1.0F}}};

// P_HTLTF (802.11n eq. 20-27).
constexpr std::array<std::array<float, 4>, 4> kPMatrix{{
    {1, -1, 1, 1},
    {1, 1, -1, 1},
    {1, 1, 1, -1},
    {-1, 1, 1, 1},
}};

// One 64-sample IFFT period of a grid, scaled by gain.
std::vector<cf32> ifft_period(std::span<const cf32> grid, float gain) {
  const dsp::FftPlan plan(kFftSize);
  std::vector<cf32> time(kFftSize);
  plan.inverse(grid, time);
  for (auto& v : time) v *= gain;
  return time;
}

// Periodic extension: out[i] = period[i % 64] for `length` samples, starting
// at phase `start` into the period (used for the LTF's 32-sample GI).
std::vector<cf32> periodic(std::span<const cf32> period, std::size_t start,
                           std::size_t length) {
  std::vector<cf32> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = period[(start + i) % period.size()];
  }
  return out;
}

}  // namespace

float tone_gain(std::size_t n_tones) noexcept {
  return static_cast<float>(kFftSize) / std::sqrt(static_cast<float>(n_tones));
}

std::span<const float> lltf_sequence() noexcept { return kLltfSeq; }
std::span<const float> htltf_sequence() noexcept { return kHtltfSeq; }

std::array<cf32, kFftSize> lstf_grid() {
  std::array<cf32, kFftSize> grid{};
  const float a = std::sqrt(13.0F / 6.0F);
  for (const auto& tone : kLstfTones) {
    grid[SubcarrierMap::logical_to_bin(tone.k)] = cf32(a * tone.sign, a * tone.sign);
  }
  return grid;
}

std::array<cf32, kFftSize> lltf_grid() {
  std::array<cf32, kFftSize> grid{};
  for (int k = -26; k <= 26; ++k) {
    grid[SubcarrierMap::logical_to_bin(k)] =
        cf32(kLltfSeq[static_cast<std::size_t>(k + 26)], 0.0F);
  }
  return grid;
}

std::array<cf32, kFftSize> htltf_grid() {
  std::array<cf32, kFftSize> grid{};
  for (int k = -28; k <= 28; ++k) {
    grid[SubcarrierMap::logical_to_bin(k)] =
        cf32(kHtltfSeq[static_cast<std::size_t>(k + 28)], 0.0F);
  }
  return grid;
}

void apply_cyclic_shift(std::span<cf32> grid, int shift_samples) noexcept {
  ofdm::cyclic_shift_grid(grid, shift_samples);
}

int legacy_csd_samples(std::size_t itx, std::size_t ntx) {
  if (itx >= ntx || ntx > 4) throw std::invalid_argument("legacy_csd: bad chain index");
  // Table 20-8, converted from ns to samples at 20 Msps (50 ns/sample).
  static constexpr std::array<std::array<int, 4>, 4> csd{{
      {0, 0, 0, 0},
      {0, -4, 0, 0},
      {0, -2, -4, 0},
      {0, -1, -2, -3},
  }};
  return csd[ntx - 1][itx];
}

int ht_csd_samples(std::size_t iss, std::size_t nss) {
  if (iss >= nss || nss > 4) throw std::invalid_argument("ht_csd: bad stream index");
  // Table 20-9: 0 / -400 / -200 / -600 ns.
  static constexpr std::array<std::array<int, 4>, 4> csd{{
      {0, 0, 0, 0},
      {0, -8, 0, 0},
      {0, -8, -4, 0},
      {0, -8, -4, -12},
  }};
  return csd[nss - 1][iss];
}

std::size_t num_ht_ltfs(std::size_t nss) {
  switch (nss) {
    case 1: return 1;
    case 2: return 2;
    case 3:
    case 4: return 4;
    default: throw std::invalid_argument("num_ht_ltfs: nss must be 1..4");
  }
}

float p_matrix(std::size_t row, std::size_t col) noexcept {
  return kPMatrix[row % 4][col % 4];
}

std::vector<cf32> make_lstf(std::size_t itx, std::size_t ntx) {
  auto grid = lstf_grid();
  apply_cyclic_shift(grid, legacy_csd_samples(itx, ntx));
  const auto period = ifft_period(grid, tone_gain(52));
  // The STF is 16-sample periodic; 160 samples = 10 short repetitions.
  return periodic(period, 0, kLstfLen);
}

std::vector<cf32> make_lltf(std::size_t itx, std::size_t ntx) {
  auto grid = lltf_grid();
  apply_cyclic_shift(grid, legacy_csd_samples(itx, ntx));
  const auto period = ifft_period(grid, tone_gain(52));
  // 32-sample guard (the tail of the symbol) followed by two full periods.
  return periodic(period, kFftSize - 32, kLltfLen);
}

std::vector<cf32> make_htstf(std::size_t iss, std::size_t nss) {
  auto grid = lstf_grid();
  apply_cyclic_shift(grid, ht_csd_samples(iss, nss));
  const auto period = ifft_period(grid, tone_gain(52));
  return periodic(period, 0, kHtStfLen);
}

std::vector<cf32> make_htltfs(std::size_t iss, std::size_t nss) {
  const std::size_t n_ltf = num_ht_ltfs(nss);
  auto base = htltf_grid();
  apply_cyclic_shift(base, ht_csd_samples(iss, nss));
  const auto period = ifft_period(base, tone_gain(56));

  std::vector<cf32> out;
  out.reserve(n_ltf * kHtLtfLen);
  for (std::size_t n = 0; n < n_ltf; ++n) {
    const float sign = p_matrix(iss, n);
    // 16-sample CP + 64-sample period, sign-flipped per the P matrix.
    auto sym = periodic(period, kFftSize - ofdm::kCpLen, kHtLtfLen);
    for (auto& v : sym) v *= sign;
    out.insert(out.end(), sym.begin(), sym.end());
  }
  return out;
}

const PreambleFields& preamble_fields(std::size_t sts, std::size_t n_sts) {
  if (sts >= n_sts || n_sts > 4) {
    throw std::invalid_argument("preamble_fields: bad chain index");
  }
  // The chains of n_sts = 1, 2, 3, 4 in order: n_sts's start at
  // n_sts (n_sts - 1) / 2.
  static const std::array<PreambleFields, 10> table = [] {
    std::array<PreambleFields, 10> t;
    std::size_t i = 0;
    for (std::size_t n = 1; n <= 4; ++n) {
      for (std::size_t s = 0; s < n; ++s) {
        t[i++] = {make_lstf(s, n), make_lltf(s, n), make_htstf(s, n),
                  make_htltfs(s, n)};
      }
    }
    return t;
  }();
  return table[n_sts * (n_sts - 1) / 2 + sts];
}

}  // namespace mimonet::wifi
