/// \file main.cpp
/// The end-to-end benchmark program:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--specs DIR] [--oracle FILE] [--scratch DIR]
///   perfbench --write-oracle FILE [--specs DIR]
///
/// The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
/// run (`--trace 1`) prints the per-layer metrics and writes a Chrome
/// trace-event file under the scratch directory. Earlier stdout lines carry
/// the run record and informational rows; the last line is the result.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "core/verifier.hpp"
#include "trace.hpp"

namespace perfbench {

std::uint64_t wall_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

/// `rotate_cpu`'s state: the starting affinity mask and the round robin.
struct CpuRotation {
  bool started = false;
  cpu_set_t original{};
  std::vector<int> cpus;
  std::size_t next = 0;
  std::uint64_t moved_ns = 0;
};

CpuRotation& cpu_rotation() {
  static CpuRotation r;
  return r;
}

constexpr std::uint64_t kRotateNs = 100'000'000;

}  // namespace

void rotate_cpu(std::uint64_t now_ns) {
  CpuRotation& r = cpu_rotation();
  if (!r.started) {
    r.started = true;
    r.cpus.clear();
    if (::sched_getaffinity(0, sizeof r.original, &r.original) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &r.original)) r.cpus.push_back(c);
      }
    }
  }
  if (r.cpus.size() < 2 || now_ns - r.moved_ns < kRotateNs) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(r.cpus[r.next], &one);
  ::sched_setaffinity(0, sizeof one, &one);
  r.next = (r.next + 1) % r.cpus.size();
  r.moved_ns = now_ns;
}

void end_timed_phase(Measurement& m, std::uint64_t cpu0) {
  m.cpu_ns = cpu_ns() - cpu0;
  CpuRotation& r = cpu_rotation();
  if (r.started && r.cpus.size() >= 2) {
    ::sched_setaffinity(0, sizeof r.original, &r.original);
  }
  r.started = false;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  m.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, printed by each traced run; a layer the
/// workload does not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"spec.load_ms", "ms"},
    {"spec.parse_us", "us"},
    {"protocols.mutate_ms", "ms"},
    {"core.expand_ms", "ms"},
    {"core.check_ms", "ms"},
    {"core.render_ms", "ms"},
    {"core.json_bytes", "bytes"},
    {"core.visits", "count"},
    {"core.essential", "count"},
    {"core.index_probes_per_visit", "ratio"},
    {"core.index_hit_ratio", "ratio"},
    {"core.discard_ratio", "ratio"},
    {"enumeration.run_s", "s"},
    {"enumeration.states_per_s", "1/s"},
    {"enumeration.kernel_ns_per_state", "ns"},
    {"enumeration.successors", "count"},
    {"enumeration.visited_ns_per_lookup", "ns"},
    {"enumeration.dedup.local_hit_ratio", "ratio"},
    {"enumeration.dedup.probes_per_lookup", "ratio"},
    {"enumeration.dedup.grows", "count"},
    {"enumeration.levels", "count"},
    {"enumeration.level_wall_max_ms", "ms"},
    {"enumeration.frontier_peak", "count"},
    {"enumeration.spill.spilled_keys", "count"},
    {"enumeration.spill.runs", "count"},
    {"enumeration.spill.probes", "count"},
    {"enumeration.spill.bloom_skip_ratio", "ratio"},
    {"enumeration.spill.probe_miss_ratio", "ratio"},
    {"enumeration.spill.merge_ms", "ms"},
    {"enumeration.spill.index_bytes", "bytes"},
    {"enumeration.spill.disk_bytes", "bytes"},
    {"enumeration.render_us", "us"},
    {"analysis.lint_us", "us"},
    {"analysis.progress_nodes", "count"},
    {"serve.parse_us", "us"},
    {"serve.render_us", "us"},
    {"serve.payload_bytes", "bytes"},
    {"serve.run_job_us.verify", "us"},
    {"serve.run_job_us.lint", "us"},
    {"serve.run_job_us.enumerate", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"trace.overhead_pct", "%"},
};

/// Every number with all its digits.
std::string number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

/// Host facts for the run record: online CPUs this process may use, and
/// the cumulative steal share from /proc/stat.
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  std::uint64_t v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (i < 8) t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "verify_campaign|enum_spill|serve_jobs --seed N "
               "--seconds S --trace 0|1 [--specs DIR] [--oracle FILE] "
               "[--scratch DIR]\n       perfbench --write-oracle FILE "
               "[--specs DIR]\n";
  std::exit(2);
}

/// Computes the corpus verdicts with the symbolic engine, cross-checks
/// every ok bit against enumeration at n = 2, 3 and 4, and writes them.
int write_oracle(const Args& args, const std::string& path) {
  const std::vector<CorpusEntry> corpus =
      build_corpus(load_specs(args.specs, nullptr), nullptr);
  std::vector<Verdict> verdicts;
  for (const CorpusEntry& e : corpus) {
    const ccver::VerificationReport r = ccver::Verifier(e.protocol).verify();
    if (r.outcome != ccver::Outcome::Complete) {
      std::cerr << "perfbench: " << e.id << " did not complete\n";
      return 1;
    }
    verdicts.push_back(
        Verdict{r.ok, r.essential.size(), r.stats.visits, r.errors.size()});
  }
  for (std::size_t n = 2; n <= 4; ++n) {
    const std::vector<std::string> bad =
        cross_check_with_enumeration(corpus, verdicts, n, nullptr);
    if (!bad.empty()) {
      std::cerr << "perfbench: " << bad.front()
                << " disagrees with enumeration at n=" << n << "\n";
      return 1;
    }
  }
  std::ofstream out(path);
  out << "# Expected Verifier::verify() verdicts of the bug-hunt corpus: the\n"
         "# specs/*.ccp protocols and their ProtocolMutator::enumerate\n"
         "# mutants (<name>#<k> = k-th mutant). Every ok bit agrees with\n"
         "# counting enumeration at n = 2, 3 and 4. Regenerate with\n"
         "# `perfbench --write-oracle <file>`.\n"
         "# id\tok\tessential\tvisits\terrors\n";
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Verdict& v = verdicts[i];
    out << corpus[i].id << '\t' << (v.ok ? 1 : 0) << '\t' << v.essential
        << '\t' << v.visits << '\t' << v.errors << '\n';
  }
  return out ? 0 : 1;
}

int run(const Args& args) {
  const CpuTicks ticks0 = read_cpu_ticks();
  Tracer tracer;
  const RunContext ctx{args, args.trace ? &tracer : nullptr};
  WorkloadResult r;
  if (args.workload == "verify_campaign") {
    r = run_verify_campaign(ctx);
  } else if (args.workload == "enum_spill") {
    r = run_enum_spill(ctx);
  } else if (args.workload == "serve_jobs") {
    r = run_serve_jobs(ctx);
  } else {
    usage("unknown workload '" + args.workload + "'");
  }
  const CpuTicks ticks1 = read_cpu_ticks();
  const Measurement& m = r.measured;

  std::vector<double> window_rates;
  for (std::size_t i = 0; i < m.window_ops.size(); ++i) {
    window_rates.push_back(static_cast<double>(m.window_ops[i]) /
                           (static_cast<double>(m.window_ns[i]) * 1e-9));
  }
  const std::uint64_t steal = ticks1.steal - ticks0.steal;
  const std::uint64_t total = ticks1.total - ticks0.total;

  // Run record: never used to drop or re-run a run.
  std::ostringstream record;
  record << "{\"record\":{\"workload\":\"" << args.workload
         << "\",\"seed\":" << args.seed << ",\"trace\":" << args.trace
         << ",\"nproc\":" << affinity_cpus()
         << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
         << ",\"steal_share\":"
         << number(total == 0 ? 0.0
                              : static_cast<double>(steal) /
                                    static_cast<double>(total))
         << ",\"latency_samples\":" << m.latency_ms.size()
         << ",\"windows\":" << m.window_ops.size()
         << ",\"window_rate_q1\":" << number(quantile(window_rates, 0.25))
         << ",\"window_rate_q3\":" << number(quantile(window_rates, 0.75))
         << ",\"setup_samples\":" << r.setup_s.size()
         << ",\"tail_percentile\":" << number(m.tail_quantile * 100)
         << ",\"attempted\":" << m.attempted << ",\"failed\":" << m.failed;
  for (const auto& [name, value] : r.info) {
    record << ",\"" << name << "\":" << number(value);
  }
  record << "}}";
  std::cout << record.str() << "\n";
  for (const std::string& f : r.check_failures) {
    std::cerr << "perfbench: check failed: " << f << "\n";
  }

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (!args.trace) {
    const double ops = static_cast<double>(std::max<std::uint64_t>(m.attempted, 1));
    metrics["setup_s"] = {median(r.setup_s), "s"};
    metrics["ops_per_s"] = {median(window_rates), "1/s"};
    metrics["cpu_ms_per_op"] = {static_cast<double>(m.cpu_ns) * 1e-6 / ops,
                                "ms"};
    metrics["latency_p50_ms"] = {quantile(m.latency_ms, 0.5), "ms"};
    metrics["latency_tail_ms"] = {quantile(m.latency_ms, m.tail_quantile),
                                  "ms"};
    metrics["peak_rss_mb"] = {m.peak_rss_mb, "MiB"};
  } else {
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = r.layers.find(def.name);
      metrics[def.name] = {it == r.layers.end() ? 0.0 : it->second, def.unit};
    }
    const auto untraced = r.info.find("trace.untraced_window_ms");
    const auto traced = r.info.find("trace.traced_window_ms");
    if (untraced != r.info.end() && traced != r.info.end() &&
        untraced->second > 0) {
      metrics["trace.overhead_pct"] = {
          (traced->second / untraced->second - 1.0) * 100.0, "%"};
    }
    for (const auto& [name, _] : r.layers) {
      if (metrics.find(name) == metrics.end()) {
        std::cerr << "perfbench: unlisted layer metric " << name << "\n";
        return 3;
      }
    }
    std::filesystem::create_directories(args.scratch);
    const std::filesystem::path trace_file =
        args.scratch /
        ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
         ".json");
    tracer.write_chrome_trace(trace_file);
    std::ostringstream self;
    self << "{\"self_ms\":{";
    bool first = true;
    for (const auto& [name, ms] : tracer.self_ms_by_name()) {
      self << (first ? "" : ",") << "\"" << name << "\":" << number(ms);
      first = false;
    }
    self << "},\"trace_file\":\"" << trace_file.string() << "\"}";
    std::cout << self.str() << "\n";
  }

  const bool correct = m.failed == 0 && r.check_failures.empty() &&
                       m.attempted > 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << m.attempted << ",\"failed\":" << m.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << number(value.first) << ",\"unit\":\"" << value.second
              << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Args args;
  std::string oracle_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--specs") {
        args.specs = value;
      } else if (flag == "--oracle") {
        args.oracle = value;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else if (flag == "--write-oracle") {
        oracle_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  try {
    if (!oracle_out.empty()) return perfbench::write_oracle(args, oracle_out);
    if (args.workload.empty() || !have_trace || !(args.seconds > 0)) {
      usage("--workload, --trace and a positive --seconds are required");
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
