// L-SIG / HT-SIG encode, decode, map, demap, and end-to-end through the
// Viterbi decoder.
#include <gtest/gtest.h>

#include "fec/crc.hpp"
#include "fec/viterbi.hpp"
#include "wifi/signal_field.hpp"

namespace {

using namespace mimonet::wifi;
using mimonet::dsp::cf32;

TEST(LSig, EncodeDecodeRoundTrip) {
  LSig sig;
  sig.rate_bits = 0b1011;
  sig.length = 1234;
  const auto bits = encode_lsig(sig);
  ASSERT_EQ(bits.size(), 24U);
  const auto back = decode_lsig(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
}

TEST(LSig, ParityDetectsFlips) {
  const auto bits = encode_lsig(LSig{.rate_bits = 0b1011, .length = 100});
  for (std::size_t i = 0; i < 18; ++i) {
    auto bad = bits;
    bad[i] ^= 1U;
    EXPECT_FALSE(decode_lsig(bad).has_value()) << "bit " << i;
  }
}

TEST(LSig, NonzeroTailRejected) {
  auto bits = encode_lsig(LSig{});
  bits[20] = 1;
  EXPECT_FALSE(decode_lsig(bits).has_value());
}

TEST(LSig, OverlongLengthThrows) {
  EXPECT_THROW(encode_lsig(LSig{.rate_bits = 1, .length = 5000}),
               std::invalid_argument);
}

TEST(HtSig, EncodeDecodeRoundTrip) {
  HtSig sig;
  sig.mcs = 13;
  sig.length = 4095;
  sig.aggregation = true;
  sig.short_gi = false;
  const auto bits = encode_htsig(sig);
  ASSERT_EQ(bits.size(), 48U);
  const auto back = decode_htsig(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
}

TEST(HtSig, CrcDetectsEveryProtectedBitFlip) {
  const auto bits = encode_htsig(HtSig{.mcs = 7, .length = 256});
  for (std::size_t i = 0; i < 42; ++i) {  // payload + CRC bits
    auto bad = bits;
    bad[i] ^= 1U;
    EXPECT_FALSE(decode_htsig(bad).has_value()) << "bit " << i;
  }
}

/// Re-seal edited HT-SIG bits: CRC-8 over the first 34, MSB first.
void reseal_htsig(std::vector<std::uint8_t>& bits) {
  const std::uint8_t crc =
      mimonet::fec::crc8_bits(std::span<const std::uint8_t>(bits).first(34));
  for (std::size_t i = 0; i < 8; ++i) {
    bits[34 + i] = static_cast<std::uint8_t>((crc >> (7 - i)) & 1U);
  }
}

// Content this PHY never sends is rejected even under a valid CRC-8: a false
// sync's HT-SIG passes the CRC on 1 in 256 candidates, and each rule below
// halves (n_ess: quarters) what such a field may announce.
TEST(HtSig, ClearedReservedBitRejected) {
  auto bits = encode_htsig(HtSig{.mcs = 7, .length = 256});
  ASSERT_EQ(bits[26], 1U);
  bits[26] = 0;
  reseal_htsig(bits);
  EXPECT_FALSE(decode_htsig(bits).has_value());
  bits[26] = 1;
  reseal_htsig(bits);
  EXPECT_TRUE(decode_htsig(bits).has_value());
}

TEST(HtSig, FortyMegahertzRejected) {
  EXPECT_FALSE(decode_htsig(encode_htsig(HtSig{.mcs = 7, .cbw40 = true})).has_value());
}

TEST(HtSig, ShortGuardIntervalRejected) {
  EXPECT_FALSE(decode_htsig(encode_htsig(HtSig{.mcs = 7, .short_gi = true})).has_value());
}

TEST(HtSig, ExtensionSpatialStreamsRejected) {
  for (std::uint8_t n_ess = 1; n_ess <= 3; ++n_ess) {
    EXPECT_FALSE(decode_htsig(encode_htsig(HtSig{.mcs = 7, .n_ess = n_ess})).has_value())
        << "n_ess " << int{n_ess};
  }
}

TEST(HtSig, EveryOtherFieldStillDecodes) {
  // The rules reject only the four contents above: MCS, length, smoothing,
  // sounding, aggregation, STBC and the FEC bit pass through as sent.
  const HtSig sig{.mcs = 100, .length = 40000, .smoothing = false,
                  .not_sounding = false, .aggregation = true, .stbc = 3,
                  .fec_coding = true};
  const auto back = decode_htsig(encode_htsig(sig));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
}

TEST(HtSig, WrongSizeRejected) {
  EXPECT_FALSE(decode_htsig(std::vector<std::uint8_t>(47)).has_value());
  EXPECT_FALSE(decode_lsig(std::vector<std::uint8_t>(25)).has_value());
}

TEST(SigField, MapProducesBpskOnExpectedAxis) {
  const auto bits = encode_lsig(LSig{.rate_bits = 0b1011, .length = 77});
  const auto bpsk = map_sig_field(bits, /*qbpsk=*/false);
  ASSERT_EQ(bpsk.size(), 48U);
  for (const auto s : bpsk) {
    EXPECT_EQ(s.imag(), 0.0F);
    EXPECT_NEAR(std::abs(s.real()), 1.0F, 1e-6F);
  }
  const auto qbpsk = map_sig_field(bits, /*qbpsk=*/true);
  for (const auto s : qbpsk) {
    EXPECT_EQ(s.real(), 0.0F);
    EXPECT_NEAR(std::abs(s.imag()), 1.0F, 1e-6F);
  }
}

TEST(SigField, CleanDemapDecodesThroughViterbi) {
  const mimonet::fec::ViterbiDecoder dec;
  LSig sig;
  sig.length = 2047;
  const auto bits = encode_lsig(sig);
  const auto carriers = map_sig_field(bits, false);
  const auto llrs = demap_sig_field(carriers, 0.1F, false);
  const auto decoded = dec.decode_soft(llrs, /*terminated=*/true);
  const auto back = decode_lsig(decoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
}

TEST(SigField, HtSigDecodesAcrossTwoSymbols) {
  const mimonet::fec::ViterbiDecoder dec;
  HtSig sig;
  sig.mcs = 15;
  sig.length = 65535;
  const auto bits = encode_htsig(sig);
  const auto carriers = map_sig_field(bits, true);
  ASSERT_EQ(carriers.size(), 96U);
  const auto llrs = demap_sig_field(carriers, 0.2F, true);
  const auto decoded = dec.decode_soft(llrs, /*terminated=*/true);
  const auto back = decode_htsig(decoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
}

TEST(SigField, SurvivesModerateNoise) {
  const mimonet::fec::ViterbiDecoder dec;
  const auto bits = encode_lsig(LSig{.rate_bits = 0b1011, .length = 500});
  auto carriers = map_sig_field(bits, false);
  // Perturb every carrier by 0.4 in a deterministic pattern.
  for (std::size_t i = 0; i < carriers.size(); ++i) {
    carriers[i] += cf32((static_cast<int>(i % 3) - 1) * 0.4F,
                        (static_cast<int>(i % 5) - 2) * 0.2F);
  }
  const auto llrs = demap_sig_field(carriers, 0.5F, false);
  const auto decoded = dec.decode_soft(llrs, true);
  const auto back = decode_lsig(decoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->length, 500);
}

TEST(SigField, BadSizesThrow) {
  EXPECT_THROW(map_sig_field(std::vector<std::uint8_t>(23), false),
               std::invalid_argument);
  EXPECT_THROW(demap_sig_field(std::vector<cf32>(47), 0.1F, false),
               std::invalid_argument);
}

}  // namespace
