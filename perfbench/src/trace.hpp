#pragma once
/// \file trace.hpp
/// In-memory span recorder of the traced run. Spans are opened by the
/// benchmark around its own calls into each layer (nothing inside the
/// program is instrumented), kept in memory, and written at exit as Chrome
/// trace-event JSON that Perfetto or chrome://tracing can open.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. `parent` indexes `Tracer::spans()` (-1 = root); spans
/// of one op share `op`.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Single-threaded span stack (every workload runs one client thread).
class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint64_t op);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// Sum of durations of every span named `name`, in nanoseconds, over
  /// spans that started at or after `since` (an index into `spans()`).
  [[nodiscard]] std::uint64_t total_ns(const char* name,
                                       std::size_t since = 0) const;

  /// Duration of every span named `name` from index `since` on (ns).
  [[nodiscard]] std::vector<double> durations_ns(const char* name,
                                                 std::size_t since = 0) const;

  /// Self time per span name: duration minus the part covered by child
  /// spans, summed over all spans of that name (milliseconds).
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t epoch_ns_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), index_(tracer == nullptr ? -1 : tracer->open(name, op)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
