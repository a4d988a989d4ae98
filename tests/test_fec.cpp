// FEC layer: scrambler, convolutional code, puncturing, Viterbi, CRCs.
#include <gtest/gtest.h>

#include <random>

#include "dsp/lfsr.hpp"
#include "fec/convolutional.hpp"
#include "fec/crc.hpp"
#include "fec/scrambler.hpp"
#include "fec/viterbi.hpp"

namespace {

using namespace mimonet::fec;

std::vector<std::uint8_t> random_bits(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1U);
  return bits;
}

// ------------------------------------------------------------- scrambler

TEST(Scrambler, IsItsOwnInverse) {
  auto bits = random_bits(500, 1);
  const auto original = bits;
  scramble_in_place(bits, 0x5D);
  EXPECT_NE(bits, original);  // actually changed something
  scramble_in_place(bits, 0x5D);
  EXPECT_EQ(bits, original);
}

TEST(Scrambler, ZeroSeedRejected) {
  std::vector<std::uint8_t> bits(8, 0);
  EXPECT_THROW(scramble_in_place(bits, 0), std::invalid_argument);
  EXPECT_THROW(scramble_in_place(bits, 0x80), std::invalid_argument);  // 7-bit zero
}

TEST(Scrambler, SequenceHasPeriod127) {
  const auto seq = scrambler_sequence(0x7F, 254);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << "position " << i;
  }
}

TEST(Scrambler, SequenceIsBalanced) {
  const auto seq = scrambler_sequence(0x7F, 127);
  std::size_t ones = 0;
  for (const auto b : seq) ones += b;
  // Maximal-length sequence of a degree-7 LFSR: 64 ones, 63 zeros.
  EXPECT_EQ(ones, 64U);
}

TEST(Scrambler, DifferentSeedsGiveShiftedSequences) {
  const auto a = scrambler_sequence(0x01, 64);
  const auto b = scrambler_sequence(0x55, 64);
  EXPECT_NE(a, b);
}

TEST(Scrambler, AllSeedsGeneratePeriod127) {
  // Every non-zero state lies on the same maximal cycle.
  for (std::uint32_t seed = 1; seed < 128; ++seed) {
    auto lfsr = mimonet::dsp::make_dot11_scrambler_lfsr(seed);
    const std::uint32_t start = lfsr.state();
    std::size_t period = 0;
    do {
      lfsr.next();
      ++period;
    } while (lfsr.state() != start && period < 200);
    EXPECT_EQ(period, 127U) << "seed " << seed;
  }
}

TEST(Scrambler, SeedRecoveryFromSyncBitsRoundTrips) {
  // The first 7 outputs fix the LFSR state, so every seed is recoverable.
  for (std::uint32_t seed = 1; seed < 128; ++seed) {
    auto sync = scrambler_sequence(seed, 7);
    for (auto& b : sync) b |= 0x2;  // only bit 0 of each entry counts
    EXPECT_EQ(recover_scrambler_seed(sync), seed);
  }
  // No non-zero state emits seven zeros: corrupt bits fall back.
  const std::vector<std::uint8_t> zeros(7, 0);
  EXPECT_EQ(recover_scrambler_seed(zeros), kDefaultScramblerSeed);
}

// ---------------------------------------------------- convolutional code

TEST(ConvEncode, ImpulseGivesGeneratorPolynomials) {
  // A single 1 followed by zeros reproduces the taps of g0/g1 over time.
  std::vector<std::uint8_t> impulse(7, 0);
  impulse[0] = 1;
  const auto coded = conv_encode(impulse);
  ASSERT_EQ(coded.size(), 14U);
  // g0 = 133 octal = 1011011 (MSB..LSB over shift register)
  const std::uint8_t g0_bits[7] = {1, 0, 1, 1, 0, 1, 1};
  const std::uint8_t g1_bits[7] = {1, 1, 1, 1, 0, 0, 1};  // 171 octal
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(coded[2 * i], g0_bits[i]) << "g0 step " << i;
    EXPECT_EQ(coded[2 * i + 1], g1_bits[i]) << "g1 step " << i;
  }
}

TEST(ConvEncode, RateIsOneHalf) {
  const auto coded = conv_encode(random_bits(100, 2));
  EXPECT_EQ(coded.size(), 200U);
}

TEST(Puncture, LengthsMatchRates) {
  const auto coded = conv_encode(random_bits(120, 3));  // 240 coded bits
  EXPECT_EQ(puncture(coded, CodeRate::kR1_2).size(), 240U);
  EXPECT_EQ(puncture(coded, CodeRate::kR2_3).size(), 180U);
  EXPECT_EQ(puncture(coded, CodeRate::kR3_4).size(), 160U);
  EXPECT_EQ(puncture(coded, CodeRate::kR5_6).size(), 144U);
}

TEST(Puncture, DepunctureRestoresPositions) {
  std::vector<std::uint8_t> coded(24);
  for (std::size_t i = 0; i < coded.size(); ++i) coded[i] = i % 2;
  const auto punctured = puncture(coded, CodeRate::kR3_4);
  std::vector<float> llrs(punctured.size());
  for (std::size_t i = 0; i < punctured.size(); ++i) {
    llrs[i] = punctured[i] != 0 ? -1.0F : 1.0F;
  }
  const auto restored = depuncture(llrs, CodeRate::kR3_4);
  const auto mask = puncture_mask(CodeRate::kR3_4);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    if (mask[i % mask.size()] != 0) {
      EXPECT_EQ(restored[i], coded[i] != 0 ? -1.0F : 1.0F);
      ++kept;
    } else {
      EXPECT_EQ(restored[i], 0.0F);  // erasure
    }
  }
  EXPECT_EQ(kept, punctured.size());
}

TEST(CodedLength, MatchesRateFractions) {
  EXPECT_EQ(coded_length(100, CodeRate::kR1_2), 200U);
  EXPECT_EQ(coded_length(100, CodeRate::kR2_3), 150U);
  EXPECT_EQ(coded_length(99, CodeRate::kR3_4), 132U);
  EXPECT_EQ(coded_length(100, CodeRate::kR5_6), 120U);
  EXPECT_THROW(static_cast<void>(coded_length(101, CodeRate::kR2_3)),
               std::invalid_argument);
}

// ------------------------------------------------------------- Viterbi

class ViterbiRoundTrip
    : public ::testing::TestWithParam<std::tuple<CodeRate, std::size_t>> {};

TEST_P(ViterbiRoundTrip, NoiselessDecodingIsExact) {
  const auto [rate, n_bits] = GetParam();
  const ViterbiDecoder dec;
  const auto bits = random_bits(n_bits, static_cast<unsigned>(n_bits));
  const auto coded = encode_with_tail(bits, rate);
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] != 0 ? -4.0F : 4.0F;
  }
  const auto decoded = decode_with_tail(llrs, rate, dec);
  ASSERT_EQ(decoded.size(), bits.size());
  EXPECT_EQ(decoded, bits);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndLengths, ViterbiRoundTrip,
    ::testing::Combine(::testing::Values(CodeRate::kR1_2, CodeRate::kR2_3,
                                         CodeRate::kR3_4, CodeRate::kR5_6),
                       ::testing::Values(10, 48, 100, 720, 1000)));

TEST(Viterbi, CorrectsIsolatedHardErrors) {
  const ViterbiDecoder dec;
  const auto bits = random_bits(200, 9);
  auto coded = encode_with_tail(bits, CodeRate::kR1_2);
  // Flip well-separated bits (within free distance 10 correction power).
  for (const std::size_t pos : {5U, 60U, 120U, 200U, 300U}) coded[pos] ^= 1U;
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] != 0 ? -1.0F : 1.0F;
  }
  const auto decoded = decode_with_tail(llrs, CodeRate::kR1_2, dec);
  EXPECT_EQ(decoded, bits);
}

TEST(Viterbi, SoftBeatsHardUnderNoise) {
  const ViterbiDecoder dec;
  std::mt19937 rng(77);
  std::normal_distribution<float> noise(0.0F, 0.8F);
  std::size_t soft_errors = 0;
  std::size_t hard_errors = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto bits = random_bits(300, 100 + trial);
    const auto coded = encode_with_tail(bits, CodeRate::kR1_2);
    std::vector<float> soft(coded.size());
    std::vector<std::uint8_t> hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const float x = (coded[i] != 0 ? -1.0F : 1.0F) + noise(rng);
      soft[i] = x;
      hard[i] = x < 0.0F ? 1 : 0;
    }
    const auto d_soft = decode_with_tail(soft, CodeRate::kR1_2, dec);
    auto d_hard = dec.decode_hard(hard, true);
    d_hard.resize(d_hard.size() - 6);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      soft_errors += d_soft[i] != bits[i];
      hard_errors += d_hard[i] != bits[i];
    }
  }
  EXPECT_LE(soft_errors, hard_errors);
}

TEST(Viterbi, OddLlrCountThrows) {
  const ViterbiDecoder dec;
  std::vector<float> llrs(3);
  EXPECT_THROW(dec.decode_soft(llrs), std::invalid_argument);
}

TEST(Viterbi, UnterminatedDecodingWorks) {
  const ViterbiDecoder dec;
  const auto bits = random_bits(100, 13);
  const auto coded = conv_encode(bits);  // no tail
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] != 0 ? -1.0F : 1.0F;
  }
  const auto decoded = dec.decode_soft(llrs, /*terminated=*/false);
  ASSERT_EQ(decoded.size(), bits.size());
  // All but possibly the last few (traceback depth) bits must match.
  for (std::size_t i = 0; i + 8 < bits.size(); ++i) {
    EXPECT_EQ(decoded[i], bits[i]) << "bit " << i;
  }
}

// ------------------------------------------------------------------ CRC

TEST(Crc32, KnownCheckValue) {
  const std::string s = "123456789";
  const auto crc = crc32(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                                   s.size()));
  EXPECT_EQ(crc, 0xCBF43926U);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(crc32({}), 0x00000000U); }

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = random_bits(256, 21);  // values 0/1 are fine as bytes
  const auto before = crc32(data);
  data[100] ^= 1U;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc8Bits, DeterministicAndSensitive) {
  auto bits = random_bits(34, 31);
  const auto a = crc8_bits(bits);
  EXPECT_EQ(crc8_bits(bits), a);
  bits[17] ^= 1U;
  EXPECT_NE(crc8_bits(bits), a);
}

}  // namespace
