// Quasi-cyclic LDPC code in the IEEE 802.11n style: H = [A | h | T] with a
// dual-diagonal parity part that admits linear-time encoding, and a
// normalized min-sum belief-propagation decoder.
//
// 802.11n's optional LDPC mode (HT-SIG "FEC coding" bit) uses published
// shift tables; we keep the exact structure (12 x 24 base matrix, rate 1/2,
// Z = 27 -> n = 648) but generate the information-part shifts from a fixed
// seed with 4-cycle avoidance, since the goal is the code *family*'s
// behaviour, not bit-exact interop (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mimonet::fec {

/// Rate-1/2 QC-LDPC code with n = 24 * Z, k = 12 * Z.
class LdpcCode {
 public:
  /// @param z circulant size (default 27 gives the 802.11n n = 648 code).
  explicit LdpcCode(std::size_t z = 27);

  [[nodiscard]] std::size_t n() const noexcept { return 24 * z_; }
  [[nodiscard]] std::size_t k() const noexcept { return 12 * z_; }
  [[nodiscard]] std::size_t z() const noexcept { return z_; }

  /// Encode k information bits into an n-bit codeword (systematic: the
  /// first k output bits are the input).
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> info) const;

  /// Message buffers of decode_into, reused across codewords.
  struct Scratch {
    std::vector<float> r_msg;  ///< check -> variable message per edge
    std::vector<float> total;  ///< a-posteriori LLR per variable
  };

  /// Decode n LLRs (positive = bit 0, matching the rest of the stack).
  /// @param converged optional out-flag: true when all parity checks
  ///        passed (decoder stopped early).
  [[nodiscard]] std::vector<std::uint8_t> decode(std::span<const float> llrs,
                                                 unsigned max_iterations = 30,
                                                 bool* converged = nullptr) const;

  /// decode() into caller storage: `hard` receives the n hard decisions.
  /// Allocates nothing once `scratch` is warm.
  void decode_into(std::span<const float> llrs, std::span<std::uint8_t> hard,
                   Scratch& scratch, unsigned max_iterations = 30,
                   bool* converged = nullptr) const;

  /// Syndrome check on hard bits: true when H x == 0.
  [[nodiscard]] bool check(std::span<const std::uint8_t> codeword) const;

 private:
  struct Edge {
    std::uint32_t variable;  // variable-node (codeword bit) index
    std::uint32_t check;     // check-node index
  };

  void build_graph();

  std::size_t z_;
  // base_[row][col] = circulant shift, or -1 for a zero block.
  std::vector<std::vector<int>> base_;
  std::vector<Edge> edges_;                    // all Tanner-graph edges
  std::vector<std::uint32_t> check_edge_off_;  // CSR offsets per check node
  std::vector<std::uint32_t> check_edges_;     // edge ids grouped by check
  std::vector<std::uint32_t> var_edge_off_;    // CSR offsets per variable
  std::vector<std::uint32_t> var_edges_;       // edge ids grouped by variable
};

}  // namespace mimonet::fec
