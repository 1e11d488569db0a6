#include "layers.hpp"

#include "common.hpp"
#include "core/verifier.hpp"
#include "trace.hpp"

namespace perfbench {

double counter(const ccver::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double gauge(const ccver::MetricsSnapshot& s, const char* name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

void set_setup_layers(const Tracer& tracer, std::size_t since,
                      std::map<std::string, double>& layers) {
  const auto per_setup_ms = [&](const char* name) {
    return static_cast<double>(tracer.total_ns(name, since)) * 1e-6 /
           static_cast<double>(kSetupRepeats);
  };
  layers["spec.load_ms"] = per_setup_ms("spec.load");
  layers["protocols.mutate_ms"] = per_setup_ms("protocols.mutate");
}

CoreReplay core_replay(const std::vector<const ccver::Protocol*>& protocols,
                       Tracer* tracer) {
  CoreReplay out;
  ccver::MetricsRegistry metrics;
  std::uint64_t expand_ns = 0;
  std::uint64_t verify_ns = 0;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const ccver::Protocol& p = *protocols[i];
    std::uint64_t t0 = wall_ns();
    {
      const Span span(tracer, "core.expand", i);
      const ccver::ExpansionResult r = ccver::Verifier(p).expand();
      out.visits += r.stats.visits;
      out.essential += r.essential.size();
    }
    expand_ns += wall_ns() - t0;
    t0 = wall_ns();
    {
      const Span span(tracer, "core.verify", i);
      (void)ccver::Verifier(p).verify();
    }
    verify_ns += wall_ns() - t0;
    ccver::Verifier::Options options;
    options.metrics = &metrics;
    const Span span(tracer, "core.expand_counters", i);
    (void)ccver::Verifier(p, options).expand();
  }
  out.expand_ms = static_cast<double>(expand_ns) * 1e-6;
  out.verify_ms = static_cast<double>(verify_ns) * 1e-6;
  out.counters = metrics.snapshot();
  return out;
}

void set_core_layers(const CoreReplay& replay, std::uint64_t visits,
                     std::uint64_t essential,
                     std::map<std::string, double>& layers,
                     std::vector<std::string>& check_failures) {
  const ccver::MetricsSnapshot& s = replay.counters;
  if (replay.visits != visits || replay.essential != essential) {
    check_failures.push_back(
        "expand() replay visits/essential differ from verify()");
  }
  if (counter(s, "expand.visits") != static_cast<double>(replay.visits)) {
    check_failures.push_back("expand.visits counter != replayed visits");
  }
  layers["core.expand_ms"] = replay.expand_ms;
  layers["core.check_ms"] = replay.verify_ms - replay.expand_ms;
  const double v = counter(s, "expand.visits");
  const double probes = counter(s, "expand.index_probes");
  layers["core.index_probes_per_visit"] = v > 0 ? probes / v : 0;
  layers["core.index_hit_ratio"] =
      probes > 0 ? counter(s, "expand.index_hits") / probes : 0;
  layers["core.discard_ratio"] =
      v > 0 ? counter(s, "expand.discarded_contained") / v : 0;
}

}  // namespace perfbench
