#include "fec/ldpc.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace mimonet::fec {

namespace {

constexpr unsigned kInfoColumnWeight = 3;
constexpr float kMinSumScale = 0.75F;  // normalized min-sum correction

/// y = P^s x on a z-bit block: y[i] = x[(i + s) % z].
void rotate_xor(std::span<const std::uint8_t> x, int s, std::span<std::uint8_t> y) {
  const auto z = x.size();
  for (std::size_t i = 0; i < z; ++i) {
    y[i] ^= x[(i + static_cast<std::size_t>(s)) % z];
  }
}

/// Uniform integer in [a, b] from a 32-bit engine, by the multiply-and-reject
/// map libstdc++ 12's uniform_int_distribution uses for std::mt19937. The
/// standard leaves that map to the library; spelling it out keeps the code
/// (and every LDPC pin) the same under any C++ library.
int uniform_int(std::mt19937& g, int a, int b) {
  const auto range = static_cast<std::uint32_t>(b - a) + 1U;
  const std::uint32_t threshold = (0U - range) % range;
  std::uint64_t p = std::uint64_t{static_cast<std::uint32_t>(g())} * range;
  while (static_cast<std::uint32_t>(p) < threshold) {
    p = std::uint64_t{static_cast<std::uint32_t>(g())} * range;
  }
  return a + static_cast<int>(p >> 32U);
}

}  // namespace

LdpcCode::LdpcCode(std::size_t z) : z_(z) {
  if (z < 4) throw std::invalid_argument("LdpcCode: z must be >= 4");
  base_.assign(12, std::vector<int>(24, -1));

  // Parity part: h column (col 12) + dual-diagonal T (cols 13..23).
  base_[0][12] = 1;
  base_[5][12] = 0;
  base_[11][12] = 1;
  for (int j = 0; j < 11; ++j) {
    base_[j][13 + j] = 0;
    base_[j + 1][13 + j] = 0;
  }

  // Information part: weight-3 columns with pseudorandom rows/shifts and
  // greedy 4-cycle avoidance. Fixed seed -> every LdpcCode(z) is the same
  // code, reproducible across runs and machines.
  std::mt19937 rng(0x11ACU + static_cast<unsigned>(z));

  const auto makes_4cycle = [&](int col, const std::vector<int>& rows,
                                const std::vector<int>& shifts) {
    // Against every earlier column (including parity): a 4-cycle exists if
    // two columns share two rows r1, r2 with equal shift differences mod z.
    for (int other = 0; other < 24; ++other) {
      if (other == col) continue;
      for (std::size_t a = 0; a < rows.size(); ++a) {
        for (std::size_t b = a + 1; b < rows.size(); ++b) {
          const int sa_other = base_[static_cast<std::size_t>(rows[a])]
                                    [static_cast<std::size_t>(other)];
          const int sb_other = base_[static_cast<std::size_t>(rows[b])]
                                    [static_cast<std::size_t>(other)];
          if (sa_other < 0 || sb_other < 0) continue;
          const int d_new =
              ((shifts[a] - shifts[b]) % static_cast<int>(z_) + static_cast<int>(z_)) %
              static_cast<int>(z_);
          const int d_old =
              ((sa_other - sb_other) % static_cast<int>(z_) + static_cast<int>(z_)) %
              static_cast<int>(z_);
          if (d_new == d_old) return true;
        }
      }
    }
    return false;
  };

  for (int col = 0; col < 12; ++col) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::vector<int> rows;
      while (rows.size() < kInfoColumnWeight) {
        const int r = uniform_int(rng, 0, 11);
        if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
      }
      std::vector<int> shifts(rows.size());
      for (auto& s : shifts) s = uniform_int(rng, 0, static_cast<int>(z) - 1);
      if (attempt < 199 && makes_4cycle(col, rows, shifts)) continue;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        base_[static_cast<std::size_t>(rows[i])][static_cast<std::size_t>(col)] =
            shifts[i];
      }
      break;
    }
  }

  build_graph();
}

void LdpcCode::build_graph() {
  const std::size_t n_checks = 12 * z_;
  const std::size_t n_vars = 24 * z_;
  edges_.clear();
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 24; ++c) {
      const int s = base_[r][c];
      if (s < 0) continue;
      for (std::size_t i = 0; i < z_; ++i) {
        edges_.push_back(Edge{
            static_cast<std::uint32_t>(c * z_ + (i + static_cast<std::size_t>(s)) % z_),
            static_cast<std::uint32_t>(r * z_ + i)});
      }
    }
  }

  // CSR adjacency for both node types.
  check_edge_off_.assign(n_checks + 1, 0);
  var_edge_off_.assign(n_vars + 1, 0);
  for (const auto& e : edges_) {
    ++check_edge_off_[e.check + 1];
    ++var_edge_off_[e.variable + 1];
  }
  for (std::size_t i = 1; i <= n_checks; ++i) check_edge_off_[i] += check_edge_off_[i - 1];
  for (std::size_t i = 1; i <= n_vars; ++i) var_edge_off_[i] += var_edge_off_[i - 1];

  check_edges_.resize(edges_.size());
  var_edges_.resize(edges_.size());
  std::vector<std::uint32_t> cpos(check_edge_off_.begin(), check_edge_off_.end() - 1);
  std::vector<std::uint32_t> vpos(var_edge_off_.begin(), var_edge_off_.end() - 1);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    check_edges_[cpos[edges_[e].check]++] = e;
    var_edges_[vpos[edges_[e].variable]++] = e;
  }
}

std::vector<std::uint8_t> LdpcCode::encode(std::span<const std::uint8_t> info) const {
  if (info.size() != k()) throw std::invalid_argument("LdpcCode::encode: need k bits");

  // lambda_i = A_i x  (per base row, a z-bit block).
  std::vector<std::vector<std::uint8_t>> lambda(12, std::vector<std::uint8_t>(z_, 0));
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 12; ++c) {
      const int s = base_[r][c];
      if (s < 0) continue;
      rotate_xor(info.subspan(c * z_, z_), s, lambda[r]);
    }
  }

  // p0 = sum_i lambda_i (the T part cancels and the h column sums to I).
  std::vector<std::uint8_t> p0(z_, 0);
  for (const auto& l : lambda) {
    for (std::size_t i = 0; i < z_; ++i) p0[i] ^= l[i];
  }

  // Back-substitution through the dual diagonal:
  // p_{j+1} = p_j + lambda_j + h_j p0, with p_0meaning the first T block.
  std::vector<std::vector<std::uint8_t>> p(12, std::vector<std::uint8_t>(z_, 0));
  p[0] = p0;
  std::vector<std::uint8_t> acc(z_, 0);
  for (std::size_t j = 0; j + 1 < 12; ++j) {
    std::fill(acc.begin(), acc.end(), 0);
    for (std::size_t i = 0; i < z_; ++i) acc[i] = lambda[j][i];
    if (base_[j][12] >= 0) rotate_xor(p0, base_[j][12], acc);
    if (j > 0) {
      for (std::size_t i = 0; i < z_; ++i) acc[i] ^= p[j][i];
    }
    p[j + 1] = acc;
  }

  std::vector<std::uint8_t> codeword(n());
  std::copy(info.begin(), info.end(), codeword.begin());
  for (std::size_t j = 0; j < 12; ++j) {
    std::copy(p[j].begin(), p[j].end(), codeword.begin() + static_cast<long>((12 + j) * z_));
  }
  return codeword;
}

bool LdpcCode::check(std::span<const std::uint8_t> codeword) const {
  if (codeword.size() != n()) return false;
  const std::size_t n_checks = 12 * z_;
  for (std::size_t c = 0; c < n_checks; ++c) {
    std::uint8_t parity = 0;
    for (std::uint32_t idx = check_edge_off_[c]; idx < check_edge_off_[c + 1]; ++idx) {
      parity ^= codeword[edges_[check_edges_[idx]].variable] & 1U;
    }
    if (parity != 0) return false;
  }
  return true;
}

std::vector<std::uint8_t> LdpcCode::decode(std::span<const float> llrs,
                                           unsigned max_iterations,
                                           bool* converged) const {
  std::vector<std::uint8_t> hard(n());
  Scratch scratch;
  decode_into(llrs, hard, scratch, max_iterations, converged);
  return hard;
}

void LdpcCode::decode_into(std::span<const float> llrs, std::span<std::uint8_t> hard,
                           Scratch& scratch, unsigned max_iterations,
                           bool* converged) const {
  if (llrs.size() != n()) throw std::invalid_argument("LdpcCode::decode: need n LLRs");
  if (hard.size() != n()) throw std::invalid_argument("LdpcCode::decode: need n outputs");
  const std::size_t n_vars = n();
  const std::size_t n_checks = 12 * z_;

  std::vector<float>& r_msg = scratch.r_msg;  // check -> variable
  std::vector<float>& total = scratch.total;
  r_msg.assign(edges_.size(), 0.0F);
  total.resize(n_vars);
  if (converged != nullptr) *converged = false;

  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    // Variable totals (a-posteriori LLRs).
    for (std::size_t v = 0; v < n_vars; ++v) {
      float t = llrs[v];
      for (std::uint32_t idx = var_edge_off_[v]; idx < var_edge_off_[v + 1]; ++idx) {
        t += r_msg[var_edges_[idx]];
      }
      total[v] = t;
      hard[v] = (t < 0.0F) ? 1 : 0;
    }
    if (check(hard)) {
      if (converged != nullptr) *converged = true;
      break;
    }

    // Check-node update (normalized min-sum) on Q = total - R.
    for (std::size_t c = 0; c < n_checks; ++c) {
      float min1 = 1e30F;
      float min2 = 1e30F;
      std::uint32_t min_edge = 0;
      int sign = 1;
      for (std::uint32_t idx = check_edge_off_[c]; idx < check_edge_off_[c + 1]; ++idx) {
        const std::uint32_t e = check_edges_[idx];
        const float q = total[edges_[e].variable] - r_msg[e];
        const float mag = std::abs(q);
        if (q < 0.0F) sign = -sign;
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
          min_edge = e;
        } else if (mag < min2) {
          min2 = mag;
        }
      }
      for (std::uint32_t idx = check_edge_off_[c]; idx < check_edge_off_[c + 1]; ++idx) {
        const std::uint32_t e = check_edges_[idx];
        const float q = total[edges_[e].variable] - r_msg[e];
        const float mag = (e == min_edge) ? min2 : min1;
        const int s = ((q < 0.0F) ? -sign : sign);
        r_msg[e] = kMinSumScale * static_cast<float>(s) * mag;
      }
    }
  }

  // Final totals and hard decision.
  for (std::size_t v = 0; v < n_vars; ++v) {
    float t = llrs[v];
    for (std::uint32_t idx = var_edge_off_[v]; idx < var_edge_off_[v + 1]; ++idx) {
      t += r_msg[var_edges_[idx]];
    }
    hard[v] = (t < 0.0F) ? 1 : 0;
  }
  if (converged != nullptr && check(hard)) *converged = true;
}

}  // namespace mimonet::fec
