// Host-clock probes for the benchmark: thread CPU time for the timed phase,
// and an in-memory span recorder the traced run wraps around every call the
// benchmark makes into a layer (engine run slices, call/reply, the server
// handler body, payload verification, the crc32c probe, each X-Check
// seed). Spans are written out once, when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in ns (cheap: vDSO).
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread, in ns.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

enum class SpanKind : std::uint8_t {
  run_slice,  // one Engine::run_until slice
  call,       // Channel::call
  reply,      // Channel::reply
  handler,    // server-side on_msg body
  verify,     // payload byte comparison against the pool
  crc_probe,  // crc32c over the workload's own payloads
  check_seed, // one X-Check schedule run
  kCount,
};

inline const char* span_name(SpanKind k) {
  static constexpr std::array<const char*, 7> kNames = {
      "run_slice", "call", "reply", "handler", "verify", "crc32c", "check_seed"};
  return kNames[static_cast<std::size_t>(k)];
}

/// Records nested host-clock spans. Aggregates (total and self time per
/// kind) cover every span; individual spans are kept up to `cap` so a long
/// traced run cannot exhaust memory.
class Tracer {
 public:
  struct Span {
    SpanKind kind;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::uint64_t op;     // workload op id (0 when not tied to one op)
    std::int64_t start;   // ns since the tracer was created
    std::int64_t end;
  };
  struct Agg {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  explicit Tracer(std::size_t cap = 200000) : cap_(cap), t0_(wall_ns()) {}

  void begin(SpanKind kind, std::uint64_t op) {
    Frame f{kind, wall_ns(), 0, -1};
    if (spans_.size() < cap_) {
      f.index = static_cast<std::int32_t>(spans_.size());
      const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
      spans_.push_back({kind, parent, op, f.start - t0_, 0});
    }
    stack_.push_back(f);
  }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t now = wall_ns();
    const std::int64_t dur = now - f.start;
    Agg& a = agg_[static_cast<std::size_t>(f.kind)];
    a.total_ns += dur;
    a.self_ns += dur - f.child_ns;
    ++a.count;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.index >= 0) spans_[static_cast<std::size_t>(f.index)].end = now - t0_;
  }

  const Agg& agg(SpanKind k) const { return agg_[static_cast<std::size_t>(k)]; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Some spans past the cap were aggregated but not kept.
  bool truncated() const {
    std::uint64_t n = 0;
    for (const Agg& a : agg_) n += a.count;
    return n > spans_.size();
  }

  /// Spans as a JSON array of {name, start_ns, end_ns, parent, op}.
  std::string to_json() const;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t index;
  };
  std::size_t cap_;
  std::int64_t t0_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::array<Agg, static_cast<std::size_t>(SpanKind::kCount)> agg_{};
};

/// RAII span; a null tracer (untraced runs) makes it free of clock reads.
class Scoped {
 public:
  Scoped(Tracer* t, SpanKind kind, std::uint64_t op = 0) : t_(t) {
    if (t_) t_->begin(kind, op);
  }
  ~Scoped() {
    if (t_) t_->end();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
