// In-memory span and counter recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent): the benchmark opens one around
// each call it makes into a layer of the library (analysis, sim, cast,
// search, live) and around its own phases ("bench.*"). Spans nest, so
// the parent of a span is whichever span was open when it started; the
// root span of a sample plays the role of a request id. Everything stays
// in memory until the run ends. A disabled recorder hands out inert
// spans, so the untraced run pays one branch per call site.
//
// Self time of a span is its duration minus the time its direct
// children cover (children never overlap: the benchmark is one thread
// of control, and worker threads live inside the engine calls).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  /// Aggregate of every span that carried one name.
  struct NameStats {
    std::uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
    std::vector<double> durations;  ///< seconds, in start order
  };

  class Span {
   public:
    Span(Span&& other) noexcept
        : trace_(other.trace_), index_(other.index_) {
      other.trace_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() {
      if (trace_ != nullptr) trace_->close(index_);
    }

   private:
    friend class Trace;
    Span(Trace* trace, std::int32_t index) : trace_(trace), index_(index) {}
    Trace* trace_;
    std::int32_t index_;
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span that closes when the returned object is destroyed.
  /// `name` must be a string literal (it is stored by pointer).
  Span span(const char* name) {
    if (!enabled_) return Span(nullptr, -1);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, nowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    return Span(this, index);
  }

  /// Adds `value` to the counter `name` (recorded only when enabled).
  void count(const std::string& name, double value) {
    if (enabled_) counters_[name] += value;
  }

  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Per-name totals, self times and durations over every closed span.
  std::map<std::string, NameStats> byName() const {
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0) childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, NameStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      NameStats& stats = out[s.name];
      const double seconds = static_cast<double>(s.endNs - s.startNs) * 1e-9;
      ++stats.count;
      stats.totalSeconds += seconds;
      stats.selfSeconds +=
          static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
      stats.durations.push_back(seconds);
    }
    return out;
  }

 private:
  struct SpanRecord {
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index into spans_, -1 for a root
  };

  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    // Spans close in LIFO order (RAII scopes), so the top is `index`.
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
