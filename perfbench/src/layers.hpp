#pragma once
/// \file layers.hpp
/// Per-layer readings taken from outside the engines: the counters they
/// already publish through `Options::metrics`, and the expansion replay
/// shared by the two workloads that run the symbolic engine.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsm/protocol.hpp"
#include "util/metrics.hpp"

namespace perfbench {

class Tracer;

[[nodiscard]] double counter(const ccver::MetricsSnapshot& s,
                             const char* name);
[[nodiscard]] double gauge(const ccver::MetricsSnapshot& s, const char* name);

/// `spec.load_ms` and `protocols.mutate_ms` per set-up, from the spans the
/// repeated set-ups recorded from index `since` on.
void set_setup_layers(const Tracer& tracer, std::size_t since,
                      std::map<std::string, double>& layers);

/// One pass over `protocols` that splits `verify()` into its expansion and
/// the rest: per protocol, `Verifier::expand()` (a `core.expand` span),
/// then `verify()` (a `core.verify` span), back to back so host drift
/// cancels; then an untimed `expand()` with the engine's `expand.*`
/// counters, whose clock reads would otherwise inflate the timed one.
struct CoreReplay {
  std::uint64_t visits = 0;
  std::uint64_t essential = 0;
  double expand_ms = 0;
  double verify_ms = 0;
  ccver::MetricsSnapshot counters;
};

[[nodiscard]] CoreReplay core_replay(
    const std::vector<const ccver::Protocol*>& protocols, Tracer* tracer);

/// Sets `core.expand_ms`, `core.check_ms` (verify minus expand) and the
/// containment-index ratios. Records a check failure when the replay does
/// not reproduce `visits` and `essential`, or the `expand.visits` counter
/// disagrees with it.
void set_core_layers(const CoreReplay& replay, std::uint64_t visits,
                     std::uint64_t essential,
                     std::map<std::string, double>& layers,
                     std::vector<std::string>& check_failures);

}  // namespace perfbench
