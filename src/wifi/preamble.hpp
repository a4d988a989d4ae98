// IEEE 802.11n preamble fields: L-STF, L-LTF, HT-STF, HT-LTF generation with
// cyclic shift diversity (CSD) and the orthogonal P-matrix mapping that lets
// the receiver separate per-stream channel responses.
//
// "We build the framework of the standard IEEE 802.11n. In particular, we put
//  all the preambles needed for synchronization and channel estimation."
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.hpp"
#include "ofdm/subcarriers.hpp"

namespace mimonet::wifi {

using dsp::cf32;

// Field lengths in samples at 20 Msps.
inline constexpr std::size_t kLstfLen = 160;   // 10 short repetitions
inline constexpr std::size_t kLltfLen = 160;   // 32-sample GI + 2 x 64
inline constexpr std::size_t kLsigLen = 80;    // 1 legacy OFDM symbol
inline constexpr std::size_t kHtSigLen = 160;  // 2 legacy OFDM symbols
inline constexpr std::size_t kHtStfLen = 80;
inline constexpr std::size_t kHtLtfLen = 80;   // per HT-LTF symbol

/// TX amplitude applied after the 1/N IFFT so that a symbol with `n_tones`
/// unit-power occupied subcarriers has unit mean sample power.
[[nodiscard]] float tone_gain(std::size_t n_tones) noexcept;

/// The legacy L-LTF frequency sequence at logical subcarriers -26..26
/// (53 entries including the DC zero), values in {-1, 0, +1}.
[[nodiscard]] std::span<const float> lltf_sequence() noexcept;

/// The HT-LTF frequency sequence at logical subcarriers -28..28 (57 entries).
[[nodiscard]] std::span<const float> htltf_sequence() noexcept;

/// 64-bin frequency grid of the L-STF (12 occupied tones, sqrt(13/6)(±1±j)).
[[nodiscard]] std::array<cf32, ofdm::kFftSize> lstf_grid();

/// 64-bin grid of one L-LTF symbol.
[[nodiscard]] std::array<cf32, ofdm::kFftSize> lltf_grid();

/// 64-bin grid of one HT-LTF symbol.
[[nodiscard]] std::array<cf32, ofdm::kFftSize> htltf_grid();

/// Apply a cyclic shift of `shift_samples` (negative = delay-like 802.11 CSD)
/// to a 64-bin frequency grid, in place.
void apply_cyclic_shift(std::span<cf32> grid, int shift_samples) noexcept;

/// Legacy-portion CSD in samples at 20 Msps for chain `itx` of `ntx`
/// (802.11n Table 20-8: 0 / -200ns / -100ns / -50ns -> 0 / -4 / -2 / -1).
[[nodiscard]] int legacy_csd_samples(std::size_t itx, std::size_t ntx);

/// HT-portion CSD in samples (Table 20-9: 0 / -400ns / -200ns / -600ns).
[[nodiscard]] int ht_csd_samples(std::size_t iss, std::size_t nss);

/// Number of HT-LTF symbols required for `nss` streams (1->1, 2->2, 3,4->4).
[[nodiscard]] std::size_t num_ht_ltfs(std::size_t nss);

/// Orthogonal LTF mapping matrix entry P[row][col] for the 4x4 P_HTLTF;
/// the nss x n_ltf upper-left block is used for nss streams.
[[nodiscard]] float p_matrix(std::size_t row, std::size_t col) noexcept;

/// Generate the L-STF samples for one TX chain (CSD applied).
[[nodiscard]] std::vector<cf32> make_lstf(std::size_t itx, std::size_t ntx);

/// Generate the L-LTF samples for one TX chain (CSD applied).
[[nodiscard]] std::vector<cf32> make_lltf(std::size_t itx, std::size_t ntx);

/// Generate the HT-STF samples for one TX chain (HT CSD applied).
[[nodiscard]] std::vector<cf32> make_htstf(std::size_t iss, std::size_t nss);

/// Generate the full HT-LTF block (num_ht_ltfs(nss) symbols, 80 samples
/// each) for stream `iss`, including P-matrix signs and HT CSD.
[[nodiscard]] std::vector<cf32> make_htltfs(std::size_t iss, std::size_t nss);

/// The training fields chain `sts` of an `n_sts`-chain PPDU sends: make_lstf,
/// make_lltf, make_htstf and make_htltfs of (sts, n_sts).
struct PreambleFields {
  std::vector<cf32> lstf;
  std::vector<cf32> lltf;
  std::vector<cf32> htstf;
  std::vector<cf32> htltfs;
};

/// The fields of chain `sts` of `n_sts` (1..4) from an immutable
/// process-wide table, built on first use for every chain of every n_sts;
/// safe to read concurrently.
[[nodiscard]] const PreambleFields& preamble_fields(std::size_t sts,
                                                   std::size_t n_sts);

}  // namespace mimonet::wifi
