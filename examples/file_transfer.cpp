// Reliable file transfer over the MIMO link: chunks a payload into MSDUs
// and pushes them through a stop-and-wait ARQ MAC (selective repeat with a
// window of one) over a fading 2x2 channel — the paper's platform doing
// actual network-level work.
#include <cstdio>
#include <numeric>
#include <vector>

#include "fec/crc.hpp"
#include "mac/arq.hpp"

int main() {
  using namespace mimonet;

  // A 40 kB pseudo-file.
  std::vector<std::uint8_t> file(40 * 1024);
  std::iota(file.begin(), file.end(), 0);
  const std::uint32_t file_crc = fec::crc32(file);

  mac::SrConfig cfg;
  cfg.window = 1;                // stop-and-wait
  cfg.adapt.fallback_after = 0;  // hold MCS 12
  cfg.adapt.recover_after = 0;
  cfg.arq.data_phy.mcs = 12;  // 16-QAM 3/4 x 2 streams = 78 Mb/s PHY
  cfg.arq.ack_phy.mcs = 0;
  cfg.arq.forward.ntx = 2;
  cfg.arq.forward.nrx = 2;
  cfg.arq.forward.fading = true;
  cfg.arq.forward.snr_db = 18.0;  // marginal for MCS 12: retries will happen
  cfg.arq.forward.timing_pad = 300;
  cfg.arq.forward.tail_pad = 80;
  cfg.arq.forward.seed = 11;
  cfg.arq.reverse = cfg.arq.forward;
  cfg.arq.reverse.ntx = 1;  // ACKs ride a single robust stream
  cfg.arq.reverse.nrx = 2;  // with receive diversity at the station
  cfg.arq.reverse.seed = 12;
  cfg.arq.reverse.snr_db = 25.0;
  mac::SelectiveRepeatLink link(cfg);

  constexpr std::size_t kChunk = 1400;
  std::size_t sent_chunks = 0;
  for (std::size_t off = 0; off < file.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, file.size() - off);
    link.queue(std::span(file).subspan(off, n));
    (void)link.run();
    ++sent_chunks;
    if (sent_chunks % 8 == 0 || off + n == file.size()) {
      std::printf("  %5zu/%zu bytes | tries so far: %zu data TX, %zu retx\n",
                  off + n, file.size(), link.stats().msdus,
                  link.stats().retransmissions);
    }
  }

  // Reassemble at the peer and verify integrity end to end.
  std::vector<std::uint8_t> reassembled;
  for (const auto& chunk : link.received()) {
    reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
  }
  const bool intact = reassembled.size() == file.size() &&
                      fec::crc32(reassembled) == file_crc;

  const auto& st = link.stats();
  std::printf("\ntransfer %s: %zu chunks, %zu lost, %zu retransmissions\n",
              intact ? "OK" : "CORRUPTED", sent_chunks, st.lost,
              st.retransmissions);
  std::printf("MAC goodput %.1f Mb/s over %.1f ms of air time (PHY rate %.0f)\n",
              st.goodput_mbps(), st.airtime_us / 1000.0,
              wifi::mcs_info(cfg.arq.data_phy.mcs).data_rate_mbps());
  return intact ? 0 : 1;
}
