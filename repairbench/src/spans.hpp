#pragma once

// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark's own code, around its calls into each layer's public
// functions; nothing inside the library is instrumented, so the traced run
// executes the same plan as the untraced one (the plan-invariance check in
// main.cpp holds the benchmark to that).

#include <chrono>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace rb {

/// `text` as a quoted JSON string (control characters dropped).
[[nodiscard]] std::string json_string(const std::string& text);

class Spans {
 public:
  using Id = std::size_t;
  static constexpr Id kRoot = std::numeric_limits<Id>::max();

  Spans() : origin_(Clock::now()) {}

  /// Seconds since the recorder was created.
  [[nodiscard]] double now() const;
  /// Opens a span starting now; close() ends it.
  Id open(std::string name, Id parent);
  void close(Id id);
  /// Records a span timed elsewhere (batch tasks run on worker threads).
  Id add(std::string name, Id parent, double start, double end);

  /// Writes {"spans": [{"name", "parent", "start_s", "end_s"}, ...]};
  /// parent is the index of the parent span or -1.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    Id parent = kRoot;
    double start = 0.0;
    double end = -1.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder (the untraced run) records nothing.
class Scope {
 public:
  Scope(Spans* spans, std::string name, Spans::Id parent = Spans::kRoot)
      : spans_(spans),
        id_(spans != nullptr ? spans->open(std::move(name), parent)
                             : Spans::kRoot) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Spans::Id id() const noexcept { return id_; }

 private:
  Spans* spans_;
  Spans::Id id_;
};

}  // namespace rb
