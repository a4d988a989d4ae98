// 802.11n framing components: MCS table, interleavers, stream parser,
// bit/byte helpers, PSDU framing.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "wifi/bits.hpp"
#include "wifi/interleaver.hpp"
#include "wifi/mcs.hpp"
#include "wifi/psdu.hpp"
#include "wifi/stream_parser.hpp"

namespace {

using namespace mimonet::wifi;

std::vector<std::uint8_t> random_bits(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1U);
  return bits;
}

// ----------------------------------------------------------------- MCS

TEST(Mcs, DataRatesMatchStandardTable) {
  // 20 MHz, 800 ns GI rates from IEEE 802.11n Table 20-30/20-31.
  const double expected[16] = {6.5, 13.0, 19.5, 26.0, 39.0,  52.0,  58.5,  65.0,
                               13.0, 26.0, 39.0, 52.0, 78.0, 104.0, 117.0, 130.0};
  for (unsigned i = 0; i <= 15; ++i) {
    EXPECT_NEAR(mcs_info(i).data_rate_mbps(), expected[i], 1e-9) << "MCS " << i;
  }
}

TEST(Mcs, StreamCounts) {
  for (unsigned i = 0; i <= 7; ++i) EXPECT_EQ(mcs_info(i).nss, 1U);
  for (unsigned i = 8; i <= 15; ++i) EXPECT_EQ(mcs_info(i).nss, 2U);
  for (unsigned i = 16; i <= 23; ++i) EXPECT_EQ(mcs_info(i).nss, 3U);
  for (unsigned i = 24; i <= 31; ++i) EXPECT_EQ(mcs_info(i).nss, 4U);
}

TEST(Mcs, FourStreamTopRate) {
  EXPECT_NEAR(mcs_info(31).data_rate_mbps(), 260.0, 1e-9);  // 4 x 65 Mb/s
  EXPECT_NEAR(mcs_info(23).data_rate_mbps(), 195.0, 1e-9);  // 3 x 65 Mb/s
}

TEST(Mcs, CodedAndDataBitsPerSymbol) {
  const auto m0 = mcs_info(0);  // BPSK 1/2, 1 ss
  EXPECT_EQ(m0.coded_bits_per_symbol(), 52U);
  EXPECT_EQ(m0.data_bits_per_symbol(), 26U);
  const auto m15 = mcs_info(15);  // 64-QAM 5/6, 2 ss
  EXPECT_EQ(m15.coded_bits_per_symbol(), 624U);
  EXPECT_EQ(m15.data_bits_per_symbol(), 520U);
}

TEST(Mcs, OutOfRangeThrows) {
  EXPECT_THROW(static_cast<void>(mcs_info(32)), std::invalid_argument);
}

// ------------------------------------------------------------ interleaver

class InterleaverParam
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(InterleaverParam, PermutationIsBijective) {
  const auto [nbpsc, nss] = GetParam();
  for (std::size_t iss = 0; iss < nss; ++iss) {
    const Interleaver il(nbpsc, iss, nss);
    std::vector<bool> seen(il.block_size(), false);
    for (const auto p : il.permutation()) {
      ASSERT_LT(p, il.block_size());
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST_P(InterleaverParam, RoundTripOverMultipleBlocks) {
  const auto [nbpsc, nss] = GetParam();
  const Interleaver il(nbpsc, 0, nss);
  const auto bits = random_bits(il.block_size() * 3, nbpsc * 10 + 1);
  const auto interleaved = il.interleave(bits);
  EXPECT_NE(interleaved, bits);
  EXPECT_EQ(il.deinterleave(interleaved), bits);
}

TEST_P(InterleaverParam, SoftDeinterleaveMatchesHard) {
  const auto [nbpsc, nss] = GetParam();
  const Interleaver il(nbpsc, 0, nss);
  const auto bits = random_bits(il.block_size(), nbpsc * 10 + 2);
  const auto interleaved = il.interleave(bits);
  std::vector<float> llrs(interleaved.size());
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    llrs[i] = interleaved[i] != 0 ? -1.0F : 1.0F;
  }
  const auto soft = il.deinterleave(llrs);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(soft[i] < 0.0F, bits[i] != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, InterleaverParam,
                         ::testing::Combine(::testing::Values(1U, 2U, 4U, 6U),
                                            ::testing::Values(1U, 2U)));

TEST(Interleaver, StreamsGetDifferentRotations) {
  const Interleaver a(2, 0, 2);
  const Interleaver b(2, 1, 2);
  EXPECT_NE(a.permutation(), b.permutation());
}

TEST(Interleaver, AdjacentBitsLandOnDistantCarriers) {
  // The point of interleaving: adjacent coded bits must not map to the same
  // or adjacent subcarriers.
  const Interleaver il(1, 0, 1);  // BPSK: bit index == carrier index
  const auto& perm = il.permutation();
  for (std::size_t k = 0; k + 1 < perm.size(); ++k) {
    const auto dist = (perm[k] > perm[k + 1]) ? perm[k] - perm[k + 1]
                                              : perm[k + 1] - perm[k];
    EXPECT_GT(dist, 1U) << "bits " << k << "," << k + 1;
  }
}

TEST(Interleaver, BadInputsThrow) {
  EXPECT_THROW(Interleaver(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(Interleaver(2, 2, 2), std::invalid_argument);
  const Interleaver il(2, 0, 1);
  EXPECT_THROW(il.interleave(random_bits(il.block_size() + 1, 3)),
               std::invalid_argument);
}

TEST(LegacyInterleaver, RoundTrip) {
  const LegacyInterleaver il(1);
  EXPECT_EQ(il.block_size(), 48U);
  const auto bits = random_bits(48, 7);
  const auto inter = il.interleave(bits);
  std::vector<float> llrs(48);
  for (std::size_t i = 0; i < 48; ++i) llrs[i] = inter[i] != 0 ? -1.0F : 1.0F;
  const auto back = il.deinterleave(llrs);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(back[i] < 0.0F, bits[i] != 0);
  }
}

// ---------------------------------------------------------- stream parser

class ParserParam
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(ParserParam, ParseMergeRoundTrip) {
  const auto [nbpsc, nss] = GetParam();
  const StreamParser p(nbpsc, nss);
  const std::size_t total = p.nss() * p.group_size() * 20;
  const auto bits = random_bits(total, 55);
  const auto streams = p.parse(bits);
  ASSERT_EQ(streams.size(), nss);
  for (const auto& s : streams) EXPECT_EQ(s.size(), total / nss);
  EXPECT_EQ(p.merge_bits(streams), bits);
}

TEST_P(ParserParam, SoftMergeMatches) {
  const auto [nbpsc, nss] = GetParam();
  const StreamParser p(nbpsc, nss);
  const std::size_t total = p.nss() * p.group_size() * 8;
  const auto bits = random_bits(total, 56);
  const auto streams = p.parse(bits);
  std::vector<std::vector<float>> soft(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const auto b : streams[s]) soft[s].push_back(b != 0 ? -1.0F : 1.0F);
  }
  const auto merged = p.merge(soft);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(merged[i] < 0.0F, bits[i] != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParserParam,
                         ::testing::Combine(::testing::Values(1U, 2U, 4U, 6U),
                                            ::testing::Values(1U, 2U, 3U)));

TEST(StreamParser, GroupSizeFollowsModulation) {
  EXPECT_EQ(StreamParser(1, 2).group_size(), 1U);
  EXPECT_EQ(StreamParser(2, 2).group_size(), 1U);
  EXPECT_EQ(StreamParser(4, 2).group_size(), 2U);
  EXPECT_EQ(StreamParser(6, 2).group_size(), 3U);
}

TEST(StreamParser, RoundRobinOrderIsCorrect) {
  const StreamParser p(4, 2);  // s = 2
  std::vector<std::uint8_t> bits(8);
  std::iota(bits.begin(), bits.end(), 0);  // 0..7 as "bit" markers
  const auto streams = p.parse(bits);
  EXPECT_EQ(streams[0], (std::vector<std::uint8_t>{0, 1, 4, 5}));
  EXPECT_EQ(streams[1], (std::vector<std::uint8_t>{2, 3, 6, 7}));
}

// ------------------------------------------------------------- bits/psdu

TEST(Bits, BytesToBitsLsbFirst) {
  const std::vector<std::uint8_t> bytes{0x01, 0x80};
  const auto bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16U);
  EXPECT_EQ(bits[0], 1);
  for (std::size_t i = 1; i < 15; ++i) EXPECT_EQ(bits[i], 0);
  EXPECT_EQ(bits[15], 1);
}

TEST(Bits, RoundTrip) {
  std::mt19937 rng(8);
  std::vector<std::uint8_t> bytes(257);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(Bits, NonMultipleOf8Throws) {
  EXPECT_THROW(bits_to_bytes(std::vector<std::uint8_t>(9)), std::invalid_argument);
}

TEST(Bits, HammingDistance) {
  const std::vector<std::uint8_t> a{0, 1, 1, 0};
  const std::vector<std::uint8_t> b{1, 1, 0, 0};
  EXPECT_EQ(hamming_distance(a, b), 2U);
  EXPECT_THROW(static_cast<void>(hamming_distance(a, std::vector<std::uint8_t>(3))),
               std::invalid_argument);
}

TEST(Psdu, BuildParseRoundTrip) {
  MacHeader hdr;
  hdr.addr1 = {1, 2, 3, 4, 5, 6};
  hdr.addr2 = {7, 8, 9, 10, 11, 12};
  hdr.sequence_control = 0x1230;
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF};
  const auto psdu = build_psdu(hdr, payload);
  EXPECT_EQ(psdu.size(), kMacHeaderLen + payload.size() + kFcsLen);

  const auto parsed = parse_psdu(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header, hdr);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Psdu, FcsDetectsCorruption) {
  const auto psdu = build_psdu(MacHeader{}, std::vector<std::uint8_t>(100, 0xAB));
  EXPECT_TRUE(psdu_fcs_ok(psdu));
  for (const std::size_t pos : {0U, 10U, 50U, 120U, 127U}) {
    auto bad = psdu;
    bad[pos] ^= 0x04;
    EXPECT_FALSE(psdu_fcs_ok(bad)) << "byte " << pos;
    EXPECT_FALSE(parse_psdu(bad).has_value());
  }
}

TEST(Psdu, TruncatedIsRejected) {
  EXPECT_FALSE(psdu_fcs_ok(std::vector<std::uint8_t>(10)));
}

TEST(Psdu, EmptyPayloadWorks) {
  const auto psdu = build_psdu(MacHeader{}, {});
  EXPECT_TRUE(psdu_fcs_ok(psdu));
  EXPECT_EQ(parse_psdu(psdu)->payload.size(), 0U);
}

}  // namespace
