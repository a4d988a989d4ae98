// Bit-exact digests of receiver outputs for tests: FNV-1a over the raw bytes
// of every RxPacket field a receive produces, so two packets digest equal
// only when every flag, payload byte and float bit matches (the NaN
// placeholders of invalid per-bin SNR entries included).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/receiver.hpp"

namespace mimonet::testutil {

class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ULL;
  }
  template <typename T>
  void pod(T v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// A digest as 0x-prefixed hex, so a failed pin prints the value to record.
inline std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline void hash_snr(Digest& d, const chanest::SnrEstimate& s) {
  d.pod(s.snr_db);
  d.pod(s.signal_power);
  d.pod(s.noise_variance);
  d.vec(s.per_bin_db);
  d.vec(s.per_bin_valid);
}

/// Flags, classification, HT-SIG MCS/length, PSDU, the sync estimates, both
/// SNR estimates, residual CFO, stream SINRs and the nrx x nss channel
/// estimate.
inline void hash_packet(Digest& d, const core::RxPacket& p) {
  d.pod(p.lsig_ok);
  d.pod(p.htsig_ok);
  d.pod(p.fcs_ok);
  d.pod(p.error);
  d.pod(p.htsig.mcs);
  d.pod(p.htsig.length);
  d.vec(p.psdu);
  d.pod(p.sync.packet_start);
  d.pod(p.sync.cfo_norm);
  d.pod(p.sync.coarse_cfo_norm);
  d.pod(p.sync.detect_metric);
  hash_snr(d, p.snr);
  hash_snr(d, p.pilot_snr);
  d.pod(p.residual_cfo_norm);
  d.pod(p.n_stream_sinr);
  for (std::size_t s = 0; s < p.n_stream_sinr; ++s) d.pod(p.stream_sinr_db[s]);
  d.pod(p.channel.nrx);
  d.pod(p.channel.nss);
  for (std::size_t r = 0; r < p.channel.nrx; ++r) {
    for (std::size_t s = 0; s < p.channel.nss; ++s) d.vec(p.channel.h[r][s]);
  }
}

[[nodiscard]] inline std::uint64_t packet_digest(const core::RxPacket& p) {
  Digest d;
  hash_packet(d, p);
  return d.value();
}

}  // namespace mimonet::testutil
