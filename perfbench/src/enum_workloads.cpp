/// \file enum_workloads.cpp
/// `enum_spill`: `Enumerator::run()` on strict MOESISplit with n = 7 on one
/// thread -- the paper's section 3.1 fixed-n search -- under a 4 MiB byte
/// budget, through a fresh spill directory per op. At the half-budget
/// watermark the hot tier (at most about 2 MiB) is flushed to a sorted run
/// at each level barrier, and every hot-tier miss probes the cold tier
/// (bloom filter, then the mmapped runs). The same search all in RAM is
/// the reference every op's report must match.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "enumeration/enumerator.hpp"
#include "enumeration/report_json.hpp"
#include "enumeration/successor_kernel.hpp"
#include "enumeration/visited_set.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "util/budget.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kCaches = 7;
/// The strict MOESISplit n=7 rows of BENCH_enum.json.
constexpr std::size_t kStates = 116'611;
constexpr std::size_t kVisits = 2'692'459;
constexpr std::uint64_t kSpillBudgetBytes = 4ULL << 20;
/// Enumerations per `ops_per_s` window. Each op outlasts `rotate_cpu`'s
/// 100 ms, so a window of four visits four CPUs.
constexpr std::uint64_t kWindowOps = 4;
/// `latency_tail_ms` percentile. A run times 40-50 enumerations, so p75
/// keeps at least ten samples beyond it.
constexpr double kTailQuantile = 0.75;

struct EnumSetup {
  ccver::Protocol protocol;
  std::uint64_t json_digest = 0;  ///< in-RAM report every op must match
  fs::path scratch;  ///< parent of the per-op spill directories
};

/// Everything one enumeration op produced that the checks and the traced
/// metrics need.
struct OpOutcome {
  bool ok = false;
  double run_s = 0;
  std::uint64_t disk_bytes = 0;
};

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

ccver::Enumerator::Options enum_options(std::size_t threads) {
  ccver::Enumerator::Options o;
  o.n_caches = kCaches;
  o.equivalence = ccver::Equivalence::Strict;
  o.threads = threads;
  return o;
}

/// One spilling enumeration (timed into `run_s` and a span), then its
/// checks.
OpOutcome enum_op(const EnumSetup& setup, std::uint64_t op,
                  ccver::MetricsRegistry* metrics, Tracer* tracer,
                  std::size_t threads = 1) {
  OpOutcome out;
  try {
    ccver::Enumerator::Options o = enum_options(threads);
    o.metrics = metrics;
    const fs::path dir = setup.scratch / ("spill-op" + std::to_string(op));
    fs::remove_all(dir);
    ccver::Budget budget(ccver::Budget::Limits{0, 0, kSpillBudgetBytes});
    o.budget = &budget;
    o.spill_dir = dir.string();
    // The CLI and serve default: spill past half the byte allowance.
    o.spill_watermark = kSpillBudgetBytes / 2;
    ccver::EnumerationResult r;
    const std::uint64_t t0 = wall_ns();
    {
      const Span span(tracer, "enumeration.run", op);
      r = ccver::Enumerator(setup.protocol, o).run();
    }
    out.run_s = static_cast<double>(wall_ns() - t0) * 1e-9;
    out.ok = r.outcome == ccver::Outcome::Complete && r.states == kStates &&
             r.visits == kVisits && r.errors.empty();
    out.disk_bytes = directory_bytes(dir);
    fs::remove_all(dir);
    out.ok = out.ok && r.spill_runs >= 1;
    out.ok = out.ok &&
             digest(ccver::enumeration_to_json(
                 setup.protocol, kCaches, ccver::Equivalence::Strict, r)) ==
                 setup.json_digest;
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

/// Replays the successor kernel over the run's reachable set, then the
/// resulting successor stream through a fresh `ConcurrentKeySet`; both
/// must reproduce the enumeration's counts.
void kernel_and_visited_replay(const EnumSetup& setup, Tracer* tracer,
                               WorkloadResult& out) {
  ccver::Enumerator::Options o = enum_options(1);
  o.keep_states = true;
  ccver::EnumerationResult reference;
  {
    const Span span(tracer, "enumeration.run");
    reference = ccver::Enumerator(setup.protocol, o).run();
  }

  ccver::SuccessorKernel kernel(setup.protocol, ccver::Equivalence::Strict);
  ccver::SuccessorStats stats;
  std::uint64_t sink_calls = 0;
  std::uint64_t t0 = wall_ns();
  {
    const Span span(tracer, "enumeration.kernel_replay");
    for (const ccver::EnumKey& key : reference.reachable) {
      kernel.expand(key, stats,
                    [&sink_calls](const ccver::EnumKey&, ccver::ConcreteAction) {
                      ++sink_calls;
                    });
    }
  }
  const double kernel_ns = static_cast<double>(wall_ns() - t0);

  std::vector<ccver::EnumKey> stream;
  stream.reserve(static_cast<std::size_t>(sink_calls));
  ccver::SuccessorStats unused;
  for (const ccver::EnumKey& key : reference.reachable) {
    kernel.expand(key, unused,
                  [&stream](const ccver::EnumKey& succ, ccver::ConcreteAction) {
                    stream.push_back(succ);
                  });
  }

  ccver::ConcurrentKeySet set;
  std::uint64_t fresh = 0;
  constexpr std::size_t kBatch = 4096;
  t0 = wall_ns();
  {
    const Span span(tracer, "enumeration.visited_replay");
    for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
      if (set.needs_grow()) set.maybe_grow();
      ccver::ConcurrentKeySet::InsertScope scope = set.insert_scope();
      const std::size_t end = std::min(stream.size(), begin + kBatch);
      for (std::size_t i = begin; i < end; ++i) {
        if (scope.insert(stream[i])) ++fresh;
      }
    }
  }
  const double visited_ns = static_cast<double>(wall_ns() - t0);

  const ccver::EnumKey initial = ccver::project(
      setup.protocol, ccver::ConcreteBlock::initial(setup.protocol, kCaches),
      ccver::Equivalence::Strict);
  const bool initial_seen = !set.insert_serial(initial);
  const std::uint64_t distinct = fresh + (initial_seen ? 0 : 1);
  if (stats.visits != kVisits || sink_calls != kVisits ||
      reference.reachable.size() != kStates) {
    out.check_failures.push_back("kernel replay successors != visits");
  }
  if (distinct != kStates) {
    out.check_failures.push_back("visited replay distinct keys != states");
  }
  out.layers["enumeration.successors"] = static_cast<double>(stats.visits);
  out.layers["enumeration.kernel_ns_per_state"] =
      kernel_ns / static_cast<double>(reference.reachable.size());
  out.layers["enumeration.visited_ns_per_lookup"] =
      visited_ns / static_cast<double>(stream.size());
}

/// Informational only, medians of three back-to-back triples: the same
/// search all in RAM (ROADMAP's spill overhead is the op against it), and
/// the op on two threads against one.
void paired_info(const EnumSetup& setup, Tracer* tracer, WorkloadResult& out) {
  std::vector<double> in_ram;
  std::vector<double> wall[2];
  std::vector<double> cpu[2];
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = wall_ns();
    {
      const Span span(tracer, "enumeration.run");
      (void)ccver::Enumerator(setup.protocol, enum_options(1)).run();
    }
    in_ram.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    for (int t = 0; t < 2; ++t) {
      const std::uint64_t c0 = cpu_ns();
      const OpOutcome r = enum_op(setup, 900000 + rep * 2 + t, nullptr,
                                  tracer, static_cast<std::size_t>(t + 1));
      cpu[t].push_back(static_cast<double>(cpu_ns() - c0) * 1e-9);
      wall[t].push_back(r.run_s);
      if (!r.ok) out.check_failures.push_back("paired spill op failed");
    }
  }
  out.info["info.enum_in_ram_wall_s"] = median(in_ram);
  out.info["info.spill_overhead_pct"] =
      (median(wall[0]) / median(in_ram) - 1.0) * 100.0;
  out.info["info.enum_1t_wall_s"] = median(wall[0]);
  out.info["info.enum_2t_wall_s"] = median(wall[1]);
  out.info["info.enum_2t_speedup"] = median(wall[0]) / median(wall[1]);
  out.info["info.enum_2t_cpu_ratio"] = median(cpu[1]) / median(cpu[0]);
}

}  // namespace

WorkloadResult run_enum_spill(const RunContext& ctx) {
  WorkloadResult out;
  Tracer* const tracer = ctx.tracer;
  fs::create_directories(ctx.args.scratch);
  std::uint64_t op_id = 0;
  const std::size_t setup_spans_from =
      tracer == nullptr ? 0 : tracer->spans().size();

  const auto set_up = [&] {
    std::vector<ccver::Protocol> specs = load_specs(ctx.args.specs, tracer);
    const auto it = std::find_if(
        specs.begin(), specs.end(),
        [](const ccver::Protocol& p) { return p.name() == "MOESISplit"; });
    if (it == specs.end()) throw std::runtime_error("no MOESISplit spec");
    EnumSetup s{std::move(*it), 0, ctx.args.scratch};
    ccver::EnumerationResult reference;
    {
      const Span span(tracer, "enumeration.run");
      reference = ccver::Enumerator(s.protocol, enum_options(1)).run();
    }
    s.json_digest = digest(ccver::enumeration_to_json(
        s.protocol, kCaches, ccver::Equivalence::Strict, reference));
    if (!enum_op(s, ++op_id, nullptr, tracer).ok) {
      throw std::runtime_error("warm-up spill enumeration failed");
    }
    return s;
  };
  const EnumSetup setup = repeated_setup(kSetupRepeats, out.setup_s, set_up);
  if (tracer != nullptr) {
    set_setup_layers(*tracer, setup_spans_from, out.layers);
  }

  Measurement& m = out.measured;
  m.tail_quantile = kTailQuantile;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<ccver::MetricsSnapshot> traced;
  std::vector<double> traced_run_s;
  std::vector<double> disk_bytes;
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(ctx.args.seconds * 1e9);
  for (std::uint64_t window = 0; wall_ns() < deadline; ++window) {
    const std::uint64_t w0 = wall_ns();
    for (std::uint64_t k = 0; k < kWindowOps; ++k) {
      // The traced run instruments every other window (engine counters
      // through Options::metrics, plus the span) so overhead compares like
      // with like, each side over every CPU.
      const bool traced_op = tracer != nullptr && window % 2 == 1;
      rotate_cpu(wall_ns());
      ccver::MetricsRegistry metrics;
      const OpOutcome r =
          enum_op(setup, ++op_id, traced_op ? &metrics : nullptr,
                  traced_op ? tracer : nullptr);
      m.latency_ms.push_back(r.run_s * 1e3);
      ++m.attempted;
      if (!r.ok) ++m.failed;
      (traced_op ? traced_ms : untraced_ms).push_back(r.run_s * 1e3);
      if (traced_op) {
        traced.push_back(metrics.snapshot());
        traced_run_s.push_back(r.run_s);
        disk_bytes.push_back(static_cast<double>(r.disk_bytes));
      }
    }
    m.add_window(kWindowOps, wall_ns() - w0);
  }
  end_timed_phase(m, cpu0);
  if (tracer == nullptr) {
    (void)repeated_setup(kSetupRepeats, out.setup_s, set_up);
  }

  if (tracer != nullptr) {
    if (traced.empty()) {
      out.check_failures.push_back("no traced op fitted in --seconds");
      return out;
    }
    const auto med = [&traced](auto&& f) {
      std::vector<double> v;
      for (const ccver::MetricsSnapshot& s : traced) v.push_back(f(s));
      return median(v);
    };
    const double run_s = median(traced_run_s);
    out.layers["enumeration.run_s"] = run_s;
    out.layers["enumeration.states_per_s"] =
        static_cast<double>(kStates) / run_s;
    out.layers["enumeration.levels"] =
        med([](const auto& s) { return counter(s, "enum.levels"); });
    out.layers["enumeration.level_wall_max_ms"] = med([](const auto& s) {
      const auto it = s.timers.find("enum.level_wall");
      return it == s.timers.end() ? 0.0
                                  : static_cast<double>(it->second.max_ns) *
                                        1e-6;
    });
    out.layers["enumeration.frontier_peak"] =
        med([](const auto& s) { return gauge(s, "enum.frontier_peak"); });
    out.layers["enumeration.dedup.local_hit_ratio"] = med([](const auto& s) {
      return counter(s, "enum.dedup.local_hits") / counter(s, "enum.visits");
    });
    out.layers["enumeration.dedup.probes_per_lookup"] = med([](const auto& s) {
      const double lookups =
          counter(s, "enum.dedup.inserts") + counter(s, "enum.dedup.hits");
      return lookups > 0 ? counter(s, "enum.dedup.probes") / lookups : 0.0;
    });
    out.layers["enumeration.dedup.grows"] =
        med([](const auto& s) { return counter(s, "enum.dedup.grows"); });
    out.layers["enumeration.spill.spilled_keys"] = med(
        [](const auto& s) { return counter(s, "enum.spill.spilled_keys"); });
    out.layers["enumeration.spill.runs"] =
        med([](const auto& s) { return counter(s, "enum.spill.runs"); });
    out.layers["enumeration.spill.probes"] =
        med([](const auto& s) { return counter(s, "enum.spill.probes"); });
    out.layers["enumeration.spill.bloom_skip_ratio"] = med([](const auto& s) {
      const double probes = counter(s, "enum.spill.probes");
      return probes > 0 ? counter(s, "enum.spill.bloom_skips") / probes : 0.0;
    });
    out.layers["enumeration.spill.probe_miss_ratio"] = med([](const auto& s) {
      const double probes = counter(s, "enum.spill.probes");
      return probes > 0 ? counter(s, "enum.spill.probe_misses") / probes
                        : 0.0;
    });
    out.layers["enumeration.spill.merge_ms"] = med([](const auto& s) {
      return counter(s, "enum.spill.merge_ns") * 1e-6;
    });
    out.layers["enumeration.spill.index_bytes"] =
        med([](const auto& s) { return gauge(s, "enum.spill.index_bytes"); });
    out.layers["enumeration.spill.disk_bytes"] = median(disk_bytes);
    for (const ccver::MetricsSnapshot& s : traced) {
      if (counter(s, "enum.states") != static_cast<double>(kStates) ||
          counter(s, "enum.visits") != static_cast<double>(kVisits)) {
        out.check_failures.push_back("enum.* counters != the run's result");
        break;
      }
    }
    out.info["trace.untraced_window_ms"] = median(untraced_ms);
    out.info["trace.traced_window_ms"] = median(traced_ms);
    kernel_and_visited_replay(setup, tracer, out);
    paired_info(setup, tracer, out);
  }
  return out;
}

}  // namespace perfbench
