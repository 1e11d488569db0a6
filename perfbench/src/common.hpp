#pragma once
/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: clocks, order statistics,
/// the closed-loop measurement record and the per-run report.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer;

/// Steady-clock nanoseconds (wall time of ops and windows).
[[nodiscard]] std::uint64_t wall_ns();

/// `CLOCK_PROCESS_CPUTIME_ID` nanoseconds: CPU time of every thread of the
/// process, which hypervisor steal does not inflate.
[[nodiscard]] std::uint64_t cpu_ns();

/// Moves the calling thread, the run's one client thread, to the next CPU
/// of the affinity mask the process started with, round robin, once
/// 100 ms have passed since the last move. On a shared VM each vCPU runs
/// at its own speed (on a 4-vCPU Firecracker guest, runs pinned to one
/// CPU read up to 30% apart by CPU), and a one-thread run otherwise stays
/// on whichever CPU the scheduler picked, so its figures would depend on
/// that pick. Timed loops call it between ops; `end_timed_phase` restores
/// the mask.
void rotate_cpu(std::uint64_t now_ns);

/// FNV-1a 64 of `text` (payload digests).
[[nodiscard]] std::uint64_t digest(std::string_view text);

/// Linear-interpolated quantile `q` in [0, 1] of `v` (copied, then sorted).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Command-line settings of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path specs = "specs";
  std::filesystem::path oracle = "perfbench/oracle/verdicts.tsv";
  /// Per-run scratch (spill directories, the Chrome trace file).
  std::filesystem::path scratch = ".bench_build/perfbench/run";
};

/// One closed-loop timed phase. `window_ops`/`window_ns` are the fixed
/// windows `ops_per_s` takes its median over (a campaign pass, a job-stream
/// pass, or a fixed count of enumerations).
struct Measurement {
  /// The quantile `latency_tail_ms` reports. Fixed per workload, so every
  /// run of a workload reports the same percentile however many ops fit.
  double tail_quantile = 0.99;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> window_ops;
  std::vector<std::uint64_t> window_ns;
  std::uint64_t cpu_ns = 0;
  double peak_rss_mb = 0;  ///< `ru_maxrss` when the timed phase ended
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_window(std::uint64_t ops, std::uint64_t ns) {
    window_ops.push_back(ops);
    window_ns.push_back(ns);
  }
};

/// Closes a timed phase that started at CPU time `cpu0`: records its CPU
/// time and the process's peak RSS so far, so the set-ups and replays that
/// follow count toward neither, and lets the thread run on any CPU again.
void end_timed_phase(Measurement& m, std::uint64_t cpu0);

/// What a workload hands back to main(): the untraced run's measurement
/// and set-up times, or the traced run's per-layer metrics, plus free-form
/// informational rows for the run record.
struct WorkloadResult {
  Measurement measured;
  std::vector<double> setup_s;  ///< one per repeated set-up
  std::map<std::string, double> layers;  ///< traced run only
  std::map<std::string, double> info;    ///< never gated
  /// Failures outside the timed ops (oracle cross-check, replay
  /// disagreement): any entry makes the run incorrect.
  std::vector<std::string> check_failures;
};

/// What each workload gets: the run's settings and, in the traced run
/// only, the tracer.
struct RunContext {
  const Args& args;
  Tracer* tracer;  ///< null = untraced run
};

[[nodiscard]] WorkloadResult run_verify_campaign(const RunContext& ctx);
[[nodiscard]] WorkloadResult run_enum_spill(const RunContext& ctx);
[[nodiscard]] WorkloadResult run_serve_jobs(const RunContext& ctx);

/// Repeats `setup` `n` times, recording each one's wall seconds into
/// `out`, and returns the last set-up's value (the one the timed phase
/// uses). Each repetition rebuilds every input and engine object from
/// nothing; `setup_s` is the median of all of them, so one steal burst
/// moves one sample, not the metric.
template <typename Setup>
auto repeated_setup(std::size_t n, std::vector<double>& out, Setup&& setup) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t t0 = wall_ns();
    const auto discarded = setup();
    out.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
  const std::uint64_t t0 = wall_ns();
  auto kept = setup();
  out.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  return kept;
}

/// Set-ups at each end of the untraced run's timed phase. The host's
/// speed shifts in phases of seconds to tens of seconds, so set-ups run
/// back to back share one phase; repeating them after the timed phase
/// samples a second one, and their median averages over both.
inline constexpr std::size_t kSetupRepeats = 2;

}  // namespace perfbench
