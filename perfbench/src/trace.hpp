// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, packet id), recorded around the
// calls the benchmark itself makes into each library layer. Spans live in a
// pre-reserved vector; write_csv() dumps them when the run ends and
// self_us() reduces them to per-name self time (duration minus the part
// covered by child spans). A disabled tracer records nothing, which is how
// the benchmark measures the recorder's own overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFU;

  struct Span {
    const char* name = nullptr;  ///< static string
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t packet = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t idx_;
  };

  explicit Tracer(bool enabled, std::size_t reserve = 0) : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
    stack_.reserve(16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_packet(std::uint32_t id) noexcept { packet_ = id; }

  std::uint32_t open(const char* name) {
    if (!enabled_) return kNoParent;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.packet = packet_;
    s.t0_ns = now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::uint32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(std::uint32_t idx) {
    if (!enabled_) return;
    spans_[idx].t1_ns = now_ns();
    stack_.pop_back();
  }

  /// Total self time per span name, in microseconds.
  [[nodiscard]] std::map<std::string, double> self_us() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += s.t1_ns - s.t0_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.t1_ns - s.t0_ns - child[i]) / 1e3;
    }
    return out;
  }

  /// One line per span: name,packet,parent,start_ns,end_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,packet,parent,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%u,%d,%lld,%lld\n", s.name, s.packet,
                   s.parent == kNoParent ? -1 : static_cast<int>(s.parent),
                   static_cast<long long>(s.t0_ns),
                   static_cast<long long>(s.t1_ns));
    }
    return std::fclose(f) == 0;
  }

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::uint32_t packet_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace perfbench
