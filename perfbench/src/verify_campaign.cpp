/// \file verify_campaign.cpp
/// `verify_campaign`: the work of `ccverify verify --json` -- one
/// `Verifier::verify()` plus `report_to_json()` per op -- over the 567
/// protocols of the bug-hunt corpus, every pass in a fresh seed-shuffled
/// order. A handful of MOESISplit mutants set the pass time (the
/// containment index) while the median verdict is set by expansion,
/// invariants and JSON rendering, so throughput and p50 answer to
/// different layers.

#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "core/report_json.hpp"
#include "core/verifier.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct Campaign {
  std::vector<CorpusEntry> corpus;
  std::vector<Verdict> verdicts;
};

/// Per-pass sums of what the verdicts reported (exact counts).
struct PassCounts {
  std::uint64_t visits = 0;
  std::uint64_t essential = 0;
  std::uint64_t json_bytes = 0;
};

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  ccver::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// One op: verify, render, compare with the oracle. Returns false on any
/// disagreement, a Partial report, or an exception.
bool verdict_op(const CorpusEntry& entry, const Verdict& expected,
                Tracer* tracer, std::uint64_t op, PassCounts& counts) {
  const Span span(tracer, "op", op);
  try {
    ccver::Budget budget;
    ccver::Verifier::Options options;
    options.budget = &budget;
    ccver::VerificationReport report;
    {
      const Span verify(tracer, "core.verify", op);
      report = ccver::Verifier(entry.protocol, options).verify();
    }
    std::string json;
    {
      const Span render(tracer, "core.render", op);
      json = ccver::report_to_json(report, entry.protocol);
    }
    counts.visits += report.stats.visits;
    counts.essential += report.essential.size();
    counts.json_bytes += json.size();
    return report.outcome == ccver::Outcome::Complete &&
           report.ok == expected.ok &&
           report.essential.size() == expected.essential &&
           report.stats.visits == expected.visits &&
           report.errors.size() == expected.errors && !json.empty();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

WorkloadResult run_verify_campaign(const RunContext& ctx) {
  WorkloadResult out;
  Tracer* const tracer = ctx.tracer;
  const std::size_t setup_spans_from =
      tracer == nullptr ? 0 : tracer->spans().size();

  const auto set_up = [&] {
    Campaign c;
    c.corpus = build_corpus(load_specs(ctx.args.specs, tracer), tracer);
    c.verdicts = load_oracle(ctx.args.oracle, c.corpus);
    PassCounts warm;
    for (std::size_t i = 0; i < c.corpus.size(); ++i) {
      if (!verdict_op(c.corpus[i], c.verdicts[i], tracer, 0, warm)) {
        throw std::runtime_error("warm-up verdict disagrees with the oracle: " +
                                 c.corpus[i].id);
      }
    }
    return c;
  };
  const Campaign campaign = repeated_setup(kSetupRepeats, out.setup_s, set_up);
  const std::size_t n = campaign.corpus.size();
  if (tracer != nullptr) {
    set_setup_layers(*tracer, setup_spans_from, out.layers);
  }

  // Timed phase. The traced run alternates untraced and traced passes so
  // the tracing overhead compares like with like.
  Measurement& m = out.measured;
  std::vector<double> untraced_pass_ms;
  std::vector<double> traced_pass_ms;
  PassCounts traced_counts;
  const std::size_t spans_from = tracer == nullptr ? 0 : tracer->spans().size();
  std::uint64_t op_id = 0;
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(ctx.args.seconds * 1e9);
  for (std::uint64_t pass = 0; wall_ns() < deadline; ++pass) {
    Tracer* const pass_tracer = pass % 2 == 1 ? tracer : nullptr;
    const std::vector<std::size_t> order =
        shuffled(n, ctx.args.seed * 1000003 + pass);
    PassCounts counts;
    const std::uint64_t t0 = wall_ns();
    for (const std::size_t i : order) {
      rotate_cpu(wall_ns());
      const std::uint64_t o0 = wall_ns();
      const bool ok = verdict_op(campaign.corpus[i], campaign.verdicts[i],
                                 pass_tracer, ++op_id, counts);
      m.latency_ms.push_back(static_cast<double>(wall_ns() - o0) * 1e-6);
      ++m.attempted;
      if (!ok) ++m.failed;
    }
    const std::uint64_t pass_ns = wall_ns() - t0;
    m.add_window(n, pass_ns);
    if (pass_tracer != nullptr) {
      traced_pass_ms.push_back(static_cast<double>(pass_ns) * 1e-6);
      traced_counts = counts;
    } else {
      untraced_pass_ms.push_back(static_cast<double>(pass_ns) * 1e-6);
    }
  }
  end_timed_phase(m, cpu0);
  if (tracer == nullptr) {
    (void)repeated_setup(kSetupRepeats, out.setup_s, set_up);
  }

  if (tracer != nullptr) {
    if (traced_pass_ms.empty()) {
      out.check_failures.push_back(
          "no traced pass fitted in --seconds; raise it");
      return out;
    }
    const auto passes = static_cast<double>(traced_pass_ms.size());
    out.layers["core.render_ms"] =
        static_cast<double>(tracer->total_ns("core.render", spans_from)) *
        1e-6 / passes;
    out.layers["core.json_bytes"] =
        static_cast<double>(traced_counts.json_bytes);
    out.layers["core.visits"] = static_cast<double>(traced_counts.visits);
    out.layers["core.essential"] =
        static_cast<double>(traced_counts.essential);

    // Core replay over one pass; it must reproduce the visits and
    // essential counts the verdicts reported.
    std::vector<const ccver::Protocol*> protocols;
    for (const CorpusEntry& entry : campaign.corpus) {
      protocols.push_back(&entry.protocol);
    }
    set_core_layers(core_replay(protocols, tracer), traced_counts.visits,
                    traced_counts.essential, out.layers, out.check_failures);
    out.info["trace.untraced_window_ms"] = median(untraced_pass_ms);
    out.info["trace.traced_window_ms"] = median(traced_pass_ms);
  }

  // The checked-in oracle must agree with the enumeration engine.
  for (const std::string& id : cross_check_with_enumeration(
           campaign.corpus, campaign.verdicts, 3, tracer)) {
    out.check_failures.push_back("oracle ok bit disagrees with n=3 "
                                 "enumeration for " + id);
  }
  out.info["oracle.cross_checked"] = static_cast<double>(n);
  return out;
}

}  // namespace perfbench
