// QC-LDPC code: structure, encoding validity, decoding performance, and
// end-to-end PHY integration.
#include <gtest/gtest.h>

#include <random>

#include "core/link_simulator.hpp"
#include "dsp/rng.hpp"
#include "fec/ldpc.hpp"
#include "packet_digest.hpp"

namespace {

using namespace mimonet;
using fec::LdpcCode;

std::vector<std::uint8_t> random_bits(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1U);
  return bits;
}

TEST(Ldpc, Geometry) {
  const LdpcCode code;
  EXPECT_EQ(code.n(), 648U);
  EXPECT_EQ(code.k(), 324U);
  EXPECT_EQ(code.z(), 27U);
  const LdpcCode small(8);
  EXPECT_EQ(small.n(), 192U);
  EXPECT_EQ(small.k(), 96U);
  EXPECT_THROW(LdpcCode(2), std::invalid_argument);
}

TEST(Ldpc, EncodedWordsSatisfyAllParityChecks) {
  const LdpcCode code;
  for (unsigned trial = 0; trial < 10; ++trial) {
    const auto info = random_bits(code.k(), trial);
    const auto word = code.encode(info);
    ASSERT_EQ(word.size(), code.n());
    EXPECT_TRUE(code.check(word)) << "trial " << trial;
  }
}

TEST(Ldpc, EncodingIsSystematic) {
  const LdpcCode code;
  const auto info = random_bits(code.k(), 3);
  const auto word = code.encode(info);
  for (std::size_t i = 0; i < code.k(); ++i) {
    EXPECT_EQ(word[i], info[i]);
  }
}

TEST(Ldpc, AllZeroIsACodeword) {
  const LdpcCode code;
  const auto word = code.encode(std::vector<std::uint8_t>(code.k(), 0));
  for (const auto b : word) EXPECT_EQ(b, 0);
  EXPECT_TRUE(code.check(word));
}

TEST(Ldpc, CheckRejectsCorruption) {
  const LdpcCode code;
  auto word = code.encode(random_bits(code.k(), 4));
  word[100] ^= 1U;
  EXPECT_FALSE(code.check(word));
}

TEST(Ldpc, NoiselessDecodeIsExact) {
  const LdpcCode code;
  const auto info = random_bits(code.k(), 5);
  const auto word = code.encode(info);
  std::vector<float> llrs(code.n());
  for (std::size_t i = 0; i < code.n(); ++i) {
    llrs[i] = word[i] != 0 ? -5.0F : 5.0F;
  }
  bool ok = false;
  const auto decoded = code.decode(llrs, 30, &ok);
  EXPECT_TRUE(ok);
  for (std::size_t i = 0; i < code.k(); ++i) {
    EXPECT_EQ(decoded[i], info[i]);
  }
}

TEST(Ldpc, CorrectsManyBitErrors) {
  // A rate-1/2 n=648 LDPC corrects dozens of scattered hard errors.
  const LdpcCode code;
  const auto info = random_bits(code.k(), 6);
  const auto word = code.encode(info);
  std::vector<float> llrs(code.n());
  std::mt19937 rng(7);
  std::vector<std::size_t> positions(code.n());
  for (std::size_t i = 0; i < code.n(); ++i) positions[i] = i;
  std::shuffle(positions.begin(), positions.end(), rng);

  auto corrupted = word;
  for (std::size_t e = 0; e < 40; ++e) corrupted[positions[e]] ^= 1U;
  for (std::size_t i = 0; i < code.n(); ++i) {
    llrs[i] = corrupted[i] != 0 ? -1.0F : 1.0F;
  }
  bool ok = false;
  const auto decoded = code.decode(llrs, 50, &ok);
  EXPECT_TRUE(ok);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < code.k(); ++i) errors += decoded[i] != info[i];
  EXPECT_EQ(errors, 0U);
}

TEST(Ldpc, SoftDecodingBeatsHardAtLowSnr) {
  const LdpcCode code;
  std::mt19937 rng(8);
  std::normal_distribution<float> noise(0.0F, 0.71F);  // ~3 dB Es/N0
  std::size_t soft_errors = 0;
  std::size_t hard_errors = 0;
  for (unsigned trial = 0; trial < 10; ++trial) {
    const auto info = random_bits(code.k(), 100 + trial);
    const auto word = code.encode(info);
    std::vector<float> soft(code.n());
    std::vector<float> hard(code.n());
    for (std::size_t i = 0; i < code.n(); ++i) {
      const float x = (word[i] != 0 ? -1.0F : 1.0F) + noise(rng);
      soft[i] = 2.0F * x;               // true channel LLR scale
      hard[i] = (x < 0.0F) ? -1.0F : 1.0F;  // quantized to a hard decision
    }
    const auto d_soft = code.decode(soft);
    const auto d_hard = code.decode(hard);
    for (std::size_t i = 0; i < code.k(); ++i) {
      soft_errors += d_soft[i] != info[i];
      hard_errors += d_hard[i] != info[i];
    }
  }
  EXPECT_LE(soft_errors, hard_errors);
}

TEST(Ldpc, DeterministicConstruction) {
  const LdpcCode a;
  const LdpcCode b;
  const auto info = random_bits(a.k(), 9);
  EXPECT_EQ(a.encode(info), b.encode(info));
}

// The information-part shifts come from a seeded draw. This pins the
// codewords LdpcCode(27) encodes from fixed information words, so the draw
// cannot drift with the C++ library.
constexpr std::uint64_t kCodewordDigest = 0xea807427565159a1ULL;

TEST(Ldpc, CodewordsArePinned) {
  const LdpcCode code;
  testutil::Digest d;
  std::uint64_t state = 0x1DBCULL;
  std::vector<std::uint8_t> info(code.k());
  for (int w = 0; w < 8; ++w) {
    for (auto& b : info) {
      state = dsp::splitmix64(state);
      b = static_cast<std::uint8_t>(state >> 63U);
    }
    d.vec(code.encode(info));
  }
  EXPECT_EQ(d.value(), kCodewordDigest);
}

TEST(Ldpc, InvalidSizesThrow) {
  const LdpcCode code;
  EXPECT_THROW((void)code.encode(std::vector<std::uint8_t>(10)),
               std::invalid_argument);
  EXPECT_THROW((void)code.decode(std::vector<float>(10)), std::invalid_argument);
}

// ---------------------------------------------------------- PHY loopback

class LdpcLoopback : public ::testing::TestWithParam<unsigned> {};

TEST_P(LdpcLoopback, HighSnrDecodes) {
  auto cfg = core::make_link_config(GetParam(), 32.0);
  cfg.phy.fec_type = core::FecType::kLdpc;
  cfg.psdu_payload_bytes = 700;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(3);
  EXPECT_EQ(res.per.failures(), 0U) << "MCS " << GetParam();
  EXPECT_EQ(res.ber.errors(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Mcs, LdpcLoopback, ::testing::Values(0U, 4U, 7U, 11U, 15U));

TEST(LdpcPhy, HtSigAnnouncesLdpc) {
  auto cfg = core::make_link_config(3, 30.0);
  cfg.phy.fec_type = core::FecType::kLdpc;
  core::LinkSimulator sim(cfg);
  bool seen = false;
  (void)sim.run(core::RunOptions{.n_packets = 1}, [&](const core::PacketOutcome& o) {
    if (!o.detected) return;
    seen = true;
    EXPECT_TRUE(o.rx.htsig.fec_coding);
    EXPECT_TRUE(o.rx.fcs_ok);
    EXPECT_EQ(o.rx.psdu, o.sent_psdu);
  });
  EXPECT_TRUE(seen);
}

TEST(LdpcPhy, BeatsBccInTheWaterfall) {
  // At 5.5 dB, QPSK-1/2: the n=648 LDPC sits deep in its waterfall while
  // the K=7 BCC still commits regular errors (measured crossover ~4.2 dB).
  double ber[2];
  for (int mode = 0; mode < 2; ++mode) {
    auto cfg = core::make_link_config(1, 5.5);
    if (mode == 1) cfg.phy.fec_type = core::FecType::kLdpc;
    cfg.psdu_payload_bytes = 1000;
    cfg.seed = 99;
    core::LinkSimulator sim(cfg);
    ber[mode] = sim.run(15).ber.ber();
  }
  EXPECT_LT(ber[1], ber[0]);
}

TEST(LdpcPhy, CodewordCountMath) {
  // 16 + 8*40 = 336 bits -> 2 codewords of k=324.
  EXPECT_EQ(core::ldpc_codeword_count(40), 2U);
  // 16 + 8*38 = 320 -> 1 codeword.
  EXPECT_EQ(core::ldpc_codeword_count(38), 1U);
  // Symbol count: 2 codewords = 1296 coded bits at MCS 1 (104/sym) -> 13.
  EXPECT_EQ(core::data_symbol_count(wifi::mcs_info(1), 40, true, false,
                                    core::FecType::kLdpc),
            13U);
}

TEST(LdpcPhy, WorksWithStbc) {
  auto cfg = core::make_link_config(2, 30.0, 2);
  cfg.phy.fec_type = core::FecType::kLdpc;
  cfg.phy.stbc = true;
  cfg.channel.ntx = 2;
  cfg.channel.fading = true;
  cfg.seed = 17;
  core::LinkSimulator sim(cfg);
  const auto res = sim.run(3);
  EXPECT_LE(res.per.failures(), 1U);
}

}  // namespace
