// Bit-identity pins for the batched symbol-plane kernels.
//
// Every SIMD kernel the batched decode dispatches to (AVX2 soft demap, AVX2
// gather deinterleave) must be bit-identical to its scalar fallback — the
// force_scalar test hooks pin both sides of the dispatch on the same inputs,
// including the non-finite erasure cases. The stage-restructured primitives
// (batched FFT, streaming depuncturer, streaming Viterbi) must likewise be
// bit-identical to their one-shot forms across arbitrary chunkings.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "fec/convolutional.hpp"
#include "fec/viterbi.hpp"
#include "mod/constellation.hpp"
#include "ofdm/symbol.hpp"
#include "wifi/interleaver.hpp"

namespace {

using namespace mimonet;
using dsp::cf32;

constexpr float kQnan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Restore the dispatch no matter how the test exits.
struct ForceScalarDemap {
  ForceScalarDemap() { mod::detail::force_scalar_demap(true); }
  ~ForceScalarDemap() { mod::detail::force_scalar_demap(false); }
};
struct ForceScalarDeinterleave {
  ForceScalarDeinterleave() { wifi::detail::force_scalar_deinterleave(true); }
  ~ForceScalarDeinterleave() { wifi::detail::force_scalar_deinterleave(false); }
};

std::vector<cf32> random_symbols(std::size_t n, std::uint64_t seed) {
  dsp::ComplexGaussian g(seed, 1.0);
  std::vector<cf32> v(n);
  for (auto& x : v) x = g.sample();
  return v;
}

// ---------------------------------------------------------------------------
// Soft demap: AVX2 vs scalar.

void expect_demap_identical(mod::Modulation m, std::span<const cf32> symbols,
                            std::span<const float> noise_vars) {
  const auto& c = mod::constellation_for(m);
  const unsigned bps = c.bits_per_symbol();
  std::vector<float> simd_out(symbols.size() * bps, -1.0F);
  std::vector<float> scalar_out(symbols.size() * bps, -2.0F);

  c.demap_soft_run(symbols, noise_vars, simd_out);
  {
    const ForceScalarDemap guard;
    ASSERT_FALSE(mod::detail::demap_simd_active());
    c.demap_soft_run(symbols, noise_vars, scalar_out);
  }
  for (std::size_t i = 0; i < simd_out.size(); ++i) {
    // Bit-exact, including signed zeros from the erasure convention.
    EXPECT_EQ(simd_out[i], scalar_out[i]) << "llr " << i;
    EXPECT_EQ(std::signbit(simd_out[i]), std::signbit(scalar_out[i])) << i;
  }

  // Both must equal the original per-symbol demap_soft.
  std::vector<float> one(bps);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    c.demap_soft(symbols[s], noise_vars[s], one);
    for (unsigned b = 0; b < bps; ++b) {
      EXPECT_EQ(simd_out[s * bps + b], one[b]) << "symbol " << s << " bit " << b;
    }
  }
}

TEST(BatchedKernels, DemapSimdMatchesScalarAllModulations) {
  for (const auto m : {mod::Modulation::kBpsk, mod::Modulation::kQpsk,
                       mod::Modulation::kQam16, mod::Modulation::kQam64}) {
    SCOPED_TRACE(static_cast<int>(m));
    // 83 symbols: several full 8-lane AVX2 iterations plus a scalar tail.
    const auto symbols = random_symbols(83, 42 + static_cast<unsigned>(m));
    std::vector<float> nv(symbols.size());
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> uni(0.0F, 1.0F);
    for (auto& v : nv) v = 1e-3F + uni(rng) * 0.5F;
    expect_demap_identical(m, symbols, nv);
  }
}

TEST(BatchedKernels, DemapSimdMatchesScalarNonFiniteInputs) {
  // Erasures: NaN/Inf symbols must yield 0.0F LLRs identically on both
  // paths, and NaN/zero/huge noise variances must follow the same scalar
  // max/propagation semantics lane for lane.
  for (const auto m : {mod::Modulation::kQpsk, mod::Modulation::kQam64}) {
    SCOPED_TRACE(static_cast<int>(m));
    auto symbols = random_symbols(32, 99);
    std::vector<float> nv(symbols.size(), 0.05F);
    symbols[0] = cf32{kQnan, 0.3F};
    symbols[3] = cf32{kInf, -0.7F};
    symbols[8] = cf32{-0.2F, kQnan};
    symbols[9] = cf32{-kInf, kInf};
    symbols[17] = cf32{kQnan, kQnan};
    nv[1] = 0.0F;      // clamps to the 1e-12 floor -> huge finite LLRs
    nv[4] = kQnan;     // NaN noise: erasure
    nv[11] = kInf;     // infinite noise: LLRs collapse to zero
    nv[17] = 1e-30F;   // denormal-range noise under the floor
    expect_demap_identical(m, symbols, nv);
  }
}

// ---------------------------------------------------------------------------
// Deinterleaver: AVX2 gather vs scalar permutation.

TEST(BatchedKernels, DeinterleaveSimdMatchesScalar) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<float> uni(-1.0F, 1.0F);
  for (const unsigned n_bpscs : {1U, 2U, 4U, 6U}) {
    for (const std::size_t nss : {std::size_t{1}, std::size_t{2}}) {
      for (std::size_t iss = 0; iss < nss; ++iss) {
        SCOPED_TRACE(::testing::Message()
                     << "bpscs " << n_bpscs << " iss " << iss << " nss " << nss);
        const auto& il = wifi::cached_interleaver(n_bpscs, iss, nss);
        // 5 interleaver blocks back to back, as a batched chunk presents them.
        const std::size_t block = 52 * n_bpscs;
        std::vector<float> llrs(5 * block);
        for (auto& v : llrs) v = uni(rng);
        llrs[0] = kQnan;
        llrs[block - 1] = kInf;

        std::vector<float> simd_out(llrs.size(), -1.0F);
        std::vector<float> scalar_out(llrs.size(), -2.0F);
        il.deinterleave_into(llrs, std::span<float>(simd_out));
        {
          const ForceScalarDeinterleave guard;
          ASSERT_FALSE(wifi::detail::deinterleave_simd_active());
          il.deinterleave_into(llrs, std::span<float>(scalar_out));
        }
        // A pure permutation: NaNs compare by bit pattern via memcmp-style
        // float equality on the moved values.
        for (std::size_t i = 0; i < llrs.size(); ++i) {
          if (std::isnan(scalar_out[i])) {
            EXPECT_TRUE(std::isnan(simd_out[i])) << i;
          } else {
            EXPECT_EQ(simd_out[i], scalar_out[i]) << i;
          }
        }
        // And match the legacy vector-returning overload.
        const auto legacy = il.deinterleave(llrs);
        for (std::size_t i = 0; i < llrs.size(); ++i) {
          if (!std::isnan(legacy[i])) {
            EXPECT_EQ(legacy[i], simd_out[i]) << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched FFT vs per-symbol demodulation.

TEST(BatchedKernels, BatchedGridDemodMatchesPerSymbol) {
  const ofdm::SymbolDemodulator demod(ofdm::CarrierPlan::kHt);
  const std::size_t n = 37;
  const auto samples = random_symbols(n * ofdm::kSymLen, 2024);

  std::vector<cf32> batched(n * ofdm::kFftSize);
  demod.demodulate_grids_into(samples, n, batched);

  std::vector<cf32> one;
  for (std::size_t j = 0; j < n; ++j) {
    demod.demodulate_grid_into(
        std::span(samples).subspan(j * ofdm::kSymLen, ofdm::kSymLen), one);
    ASSERT_EQ(one.size(), ofdm::kFftSize);
    for (std::size_t k = 0; k < ofdm::kFftSize; ++k) {
      EXPECT_EQ(batched[j * ofdm::kFftSize + k], one[k]) << "sym " << j
                                                         << " bin " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming depuncturer vs one-shot depuncture across chunkings.

TEST(BatchedKernels, StreamingDepunctureMatchesOneShotAllRates) {
  std::mt19937_64 rng(55);
  std::uniform_real_distribution<float> uni(-2.0F, 2.0F);
  for (const auto rate : {fec::CodeRate::kR1_2, fec::CodeRate::kR2_3,
                          fec::CodeRate::kR3_4, fec::CodeRate::kR5_6}) {
    SCOPED_TRACE(fec::rate_name(rate));
    std::vector<float> llrs(997);  // deliberately not a period multiple
    for (auto& v : llrs) v = uni(rng);

    std::vector<float> oneshot;
    fec::depuncture_into(llrs, rate, oneshot);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{52}, std::size_t{256},
                                    llrs.size()}) {
      SCOPED_TRACE(chunk);
      fec::StreamingDepuncturer dep(rate);
      std::vector<float> streamed;
      std::vector<float> piece;
      for (std::size_t off = 0; off < llrs.size(); off += chunk) {
        const std::size_t take = std::min(chunk, llrs.size() - off);
        dep.consume(std::span(llrs).subspan(off, take), piece);
        streamed.insert(streamed.end(), piece.begin(), piece.end());
      }
      ASSERT_EQ(streamed.size(), oneshot.size());
      for (std::size_t i = 0; i < oneshot.size(); ++i) {
        EXPECT_EQ(streamed[i], oneshot[i]) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming Viterbi vs one-shot decode across chunkings.

TEST(BatchedKernels, StreamingViterbiMatchesOneShot) {
  const fec::ViterbiDecoder dec;
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<float> uni(0.0F, 1.0F);

  // Encode real data so the traceback is meaningful, then soften with noise.
  std::vector<std::uint8_t> info(402);
  for (auto& b : info) b = static_cast<std::uint8_t>(uni(rng) < 0.5F);
  for (std::size_t i = info.size() - 6; i < info.size(); ++i) info[i] = 0;
  const auto coded = fec::conv_encode(info);
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const float clean = coded[i] != 0 ? -4.0F : 4.0F;  // bit 1 -> negative LLR
    llrs[i] = clean + uni(rng) * 3.0F - 1.5F;
  }

  for (const bool terminated : {true, false}) {
    SCOPED_TRACE(terminated);
    fec::ViterbiDecoder::Scratch scratch;
    std::vector<std::uint8_t> oneshot;
    dec.decode_soft_into(llrs, terminated, oneshot, scratch);
    ASSERT_EQ(oneshot.size(), info.size());
    if (terminated) {
      EXPECT_EQ(oneshot, info);
    }

    // Odd chunk sizes split trellis steps: the carry slot must stitch them.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{104}, std::size_t{257},
                                    llrs.size()}) {
      SCOPED_TRACE(chunk);
      fec::ViterbiDecoder::StreamState st;
      fec::ViterbiDecoder::Scratch s2;
      std::vector<std::uint8_t> streamed;
      dec.stream_begin(st, s2, llrs.size() / 2);
      for (std::size_t off = 0; off < llrs.size(); off += chunk) {
        const std::size_t take = std::min(chunk, llrs.size() - off);
        dec.stream_consume(st, s2, std::span(llrs).subspan(off, take));
      }
      dec.stream_finish(st, s2, terminated, streamed);
      EXPECT_EQ(streamed, oneshot);
    }
  }
}

TEST(BatchedKernels, StreamingViterbiRejectsOverrunAndOddTotals) {
  const fec::ViterbiDecoder dec;
  fec::ViterbiDecoder::StreamState st;
  fec::ViterbiDecoder::Scratch scratch;
  std::vector<float> llrs(10, 1.0F);
  dec.stream_begin(st, scratch, 4);  // room for 4 steps = 8 LLRs
  EXPECT_THROW(dec.stream_consume(st, scratch, llrs), std::length_error);

  dec.stream_begin(st, scratch, 8);
  dec.stream_consume(st, scratch, std::span(llrs).first(5));  // dangling carry
  std::vector<std::uint8_t> out;
  EXPECT_THROW(dec.stream_finish(st, scratch, false, out), std::invalid_argument);
}

}  // namespace
