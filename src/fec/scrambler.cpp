#include "fec/scrambler.hpp"

#include <array>
#include <stdexcept>

#include "dsp/lfsr.hpp"

namespace mimonet::fec {

void scramble_in_place(std::span<std::uint8_t> bits, std::uint32_t seed) {
  if ((seed & 0x7FU) == 0) {
    throw std::invalid_argument("scramble: seed must be a non-zero 7-bit value");
  }
  auto lfsr = dsp::make_dot11_scrambler_lfsr(seed);
  for (auto& b : bits) b = static_cast<std::uint8_t>(b ^ lfsr.next());
}

std::vector<std::uint8_t> scramble(std::span<const std::uint8_t> bits,
                                   std::uint32_t seed) {
  std::vector<std::uint8_t> out(bits.begin(), bits.end());
  scramble_in_place(out, seed);
  return out;
}

void scrambler_sequence_into(std::uint32_t seed, std::span<std::uint8_t> out) {
  if ((seed & 0x7FU) == 0) {
    throw std::invalid_argument("scrambler_sequence: seed must be non-zero");
  }
  auto lfsr = dsp::make_dot11_scrambler_lfsr(seed);
  for (auto& b : out) b = lfsr.next();
}

std::vector<std::uint8_t> scrambler_sequence(std::uint32_t seed, std::size_t length) {
  std::vector<std::uint8_t> out(length);
  scrambler_sequence_into(seed, out);
  return out;
}

std::uint32_t recover_scrambler_seed(std::span<const std::uint8_t> first7) {
  std::array<std::uint8_t, 7> seq{};
  for (std::uint32_t seed = 1; seed < 128; ++seed) {
    scrambler_sequence_into(seed, seq);
    bool match = true;
    for (std::size_t i = 0; i < 7; ++i) {
      if (seq[i] != (first7[i] & 1U)) {
        match = false;
        break;
      }
    }
    if (match) return seed;
  }
  return kDefaultScramblerSeed;
}

}  // namespace mimonet::fec
