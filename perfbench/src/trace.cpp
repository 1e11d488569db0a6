#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

std::int32_t Tracer::open(const char* name, std::uint64_t op) {
  const std::uint64_t now = wall_ns();
  if (spans_.empty()) epoch_ns_ = now;
  SpanRecord span;
  span.name = name;
  span.start_ns = now;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = wall_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::uint64_t Tracer::total_ns(const char* name, std::size_t since) const {
  std::uint64_t total = 0;
  for (std::size_t i = since; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      total += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return total;
}

std::vector<double> Tracer::durations_ns(const char* name,
                                         std::size_t since) const {
  std::vector<double> out;
  for (std::size_t i = since; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  // Children close before their parent, and siblings never overlap on one
  // thread, so subtracting each child's duration from its parent leaves
  // exactly the uncovered part.
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buffer[384];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - epoch_ns_) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.op));
    out << buffer;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
}

}  // namespace perfbench
