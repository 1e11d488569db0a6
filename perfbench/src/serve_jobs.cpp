/// \file serve_jobs.cpp
/// `serve_jobs`: the `ccverify serve` job path replayed on one thread
/// through its public functions -- parse_request, job_cache_key,
/// ResultCache::acquire, resolve_job_protocol, run_job, publish,
/// render_job_response -- over a seeded NDJSON stream of small verify,
/// lint and enumerate jobs. For these sub-millisecond jobs request and
/// spec parsing, lint's progress graph, the result cache and payload
/// rendering are most of the cost; the threaded socket transport is kept
/// out of the timed path because its wall time is set by vCPU wake-ups.

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checks.hpp"
#include "analysis/output.hpp"
#include "common.hpp"
#include "core/report_json.hpp"
#include "core/verifier.hpp"
#include "corpus.hpp"
#include "enumeration/enumerator.hpp"
#include "enumeration/report_json.hpp"
#include "layers.hpp"
#include "protocols/protocols.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "spec/parser.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ccver::JobStatus;
using Verb = ccver::ServeRequest::Verb;

/// `--cache-entries` of the replayed server: small enough that the LRU
/// evicts within one pass.
constexpr std::size_t kCacheEntries = 256;
/// A repeat re-sends one of this many most recent jobs.
constexpr std::size_t kRecentJobs = 16;
constexpr std::size_t kEnumerateCaches = 4;

/// One distinct job: what the request names and what serve must answer.
struct JobTemplate {
  Verb verb = Verb::Verify;
  bool inline_spec = false;
  std::string spec;  ///< library name or inline `.ccp` text
  std::size_t corpus = 0;  ///< corpus index (oracle row)
  JobStatus status = JobStatus::InternalError;
  std::uint64_t payload_digest = 0;
};

struct Stream {
  std::vector<JobTemplate> templates;
  std::vector<std::string> lines;       ///< one NDJSON request per job
  std::vector<std::size_t> template_of;  ///< per line
  std::vector<std::string> oracle_mismatch;  ///< set-up check failures
  std::size_t inline_mutants = 0;   ///< mutants that build strictly
  std::size_t rejected_mutants = 0;  ///< renamed, still not strict-buildable
};

std::string request_line(const JobTemplate& t, std::size_t id) {
  ccver::JsonWriter json;
  json.begin_object();
  json.key("op").value("job");
  json.key("id").value("j" + std::to_string(id));
  json.key("verb").value(t.verb == Verb::Verify      ? "verify"
                         : t.verb == Verb::Enumerate ? "enumerate"
                                                     : "lint");
  json.key(t.inline_spec ? "spec" : "protocol").value(t.spec);
  if (t.verb == Verb::Enumerate) {
    json.key("n").value(static_cast<std::uint64_t>(kEnumerateCaches));
  }
  json.end_object();
  return std::move(json).str();
}

/// The job's protocol, resolved the way `resolve_job_protocol` does.
ccver::Protocol resolve(const JobTemplate& t) {
  if (!t.inline_spec) return ccver::protocols::by_name(t.spec);
  return t.verb == Verb::Lint ? ccver::parse_protocol_lenient(t.spec)
                              : ccver::parse_protocol(t.spec);
}

/// The verdict by direct engine and renderer calls, bypassing serve.
/// Spans name each layer for the traced replay.
ccver::JobResult direct_result(const JobTemplate& t, Tracer* tracer,
                               ccver::MetricsRegistry* lint_metrics,
                               ccver::VerificationReport* report_out) {
  const ccver::Protocol p = resolve(t);
  ccver::Budget budget;
  ccver::JobResult result;
  if (t.verb == Verb::Verify) {
    ccver::Verifier::Options options;
    options.budget = &budget;
    ccver::VerificationReport report;
    {
      const Span span(tracer, "core.verify");
      report = ccver::Verifier(p, options).verify();
    }
    {
      const Span span(tracer, "core.render");
      result.payload = ccver::report_to_json(report, p);
    }
    result.status = !report.ok ? JobStatus::ProtocolErrors
                    : report.outcome == ccver::Outcome::Partial
                        ? JobStatus::Partial
                        : JobStatus::Verified;
    if (report_out != nullptr) *report_out = std::move(report);
  } else if (t.verb == Verb::Enumerate) {
    ccver::Enumerator::Options options;
    options.n_caches = kEnumerateCaches;
    options.budget = &budget;
    ccver::EnumerationResult r;
    {
      const Span span(tracer, "enumeration.run");
      r = ccver::Enumerator(p, options).run();
    }
    {
      const Span span(tracer, "enumeration.render");
      result.payload = ccver::enumeration_to_json(
          p, kEnumerateCaches, ccver::Equivalence::Counting, r);
    }
    result.status = !r.errors.empty() ? JobStatus::ProtocolErrors
                    : r.outcome == ccver::Outcome::Partial
                        ? JobStatus::Partial
                        : JobStatus::Verified;
  } else {
    ccver::LintOptions options;
    options.budget = &budget;
    options.metrics = lint_metrics;
    std::vector<ccver::LintedFile> files;
    {
      const Span span(tracer, "analysis.lint");
      files.push_back(ccver::LintedFile{t.inline_spec ? "spec" : t.spec,
                                        ccver::lint_protocol(p, options)});
    }
    result.payload = ccver::diagnostics_to_json(files);
    result.status = files.front().report.has_errors() ? JobStatus::ProtocolErrors
                    : budget.exhausted()             ? JobStatus::Partial
                                                     : JobStatus::Verified;
  }
  return result;
}

Stream build_stream(const RunContext& ctx, Tracer* tracer) {
  const std::vector<ccver::Protocol> specs =
      load_specs(ctx.args.specs, tracer);
  const std::vector<CorpusEntry> corpus = build_corpus(specs, tracer);
  const std::vector<Verdict> oracle = load_oracle(ctx.args.oracle, corpus);

  // Inline candidates: every mutant except MOESISplit's (19-136 ms each,
  // not the small jobs this workload models), renamed to a lexer-legal
  // name, kept when it builds under strict mode.
  struct Source {
    std::string spec;  ///< library name or inline text
    std::size_t corpus;
  };
  std::vector<Source> library;
  std::vector<Source> mutants;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const CorpusEntry& e = corpus[i];
    if (!e.mutant) {
      library.push_back(Source{e.protocol.name(), i});
      continue;
    }
    if (specs[e.spec].name() == "MOESISplit") continue;
    std::string name = e.id;
    name.replace(name.find('#'), 1, "_m");
    std::string text = spec_text_named(e.protocol, name);
    if (strict_buildable(text)) {
      mutants.push_back(Source{std::move(text), i});
    } else {
      ++rejected;
    }
  }

  // Every mutant job once per pass and as many library jobs, so each seed
  // runs the same jobs (a few mutants lint for 10-220 ms; which ones a
  // seed drew would otherwise set the pass time). The seed orders them
  // and picks the repeats.
  Stream s;
  s.inline_mutants = mutants.size();
  s.rejected_mutants = rejected;
  constexpr Verb kVerbs[] = {Verb::Verify, Verb::Lint, Verb::Enumerate};
  std::vector<std::size_t> library_templates;
  std::vector<std::size_t> base;
  for (const Verb verb : kVerbs) {
    for (const Source& src : library) {
      library_templates.push_back(s.templates.size());
      s.templates.push_back(JobTemplate{verb, false, src.spec, src.corpus,
                                        JobStatus::InternalError, 0});
    }
    for (const Source& src : mutants) {
      base.push_back(s.templates.size());
      s.templates.push_back(JobTemplate{verb, true, src.spec, src.corpus,
                                        JobStatus::InternalError, 0});
    }
  }
  const std::size_t mutant_jobs = base.size();
  for (std::size_t i = 0; i < mutant_jobs; ++i) {
    base.push_back(library_templates[i % library_templates.size()]);
  }
  ccver::Rng rng(ctx.args.seed);
  for (std::size_t i = base.size(); i > 1; --i) {
    std::swap(base[i - 1], base[rng.below(i)]);
  }
  // Each job is followed by a repeat of one of the recent ones: half of
  // all jobs are repeats, and they hit the cache.
  std::vector<std::size_t> recent;
  const auto emit = [&](std::size_t t) {
    s.template_of.push_back(t);
    s.lines.push_back(request_line(s.templates[t], s.lines.size()));
    recent.push_back(t);
    if (recent.size() > kRecentJobs) recent.erase(recent.begin());
  };
  for (const std::size_t t : base) {
    emit(t);
    emit(recent[rng.below(recent.size())]);
  }

  // Expected answers by direct renderer calls; verify verdicts must also
  // agree with the oracle.
  for (JobTemplate& t : s.templates) {
    const ccver::JobResult r = direct_result(t, tracer, nullptr, nullptr);
    if (r.status != JobStatus::Verified &&
        r.status != JobStatus::ProtocolErrors) {
      throw std::runtime_error("direct call gave no complete verdict for " +
                               corpus[t.corpus].id);
    }
    t.status = r.status;
    t.payload_digest = digest(r.payload);
    if (t.verb == Verb::Verify &&
        (t.status == JobStatus::Verified) != oracle[t.corpus].ok) {
      s.oracle_mismatch.push_back("serve verify verdict != oracle for " +
                                  corpus[t.corpus].id);
    }
  }
  return s;
}

/// Per-pass tallies the traced run reports.
struct PassStats {
  std::uint64_t payload_bytes = 0;
  std::uint64_t responses = 0;
  ccver::MetricsSnapshot cache;
};

/// Replays every job of the stream through the serve job path, exactly as
/// `Server::run_admitted` sequences it, against a fresh cache.
void replay_pass(const Stream& s, Tracer* tracer, std::uint64_t seq0,
                 Measurement* m, PassStats& stats) {
  ccver::ResultCache cache(ccver::ResultCache::Options{kCacheEntries});
  const ccver::JobCeilings ceilings;
  for (std::size_t j = 0; j < s.lines.size(); ++j) {
    const JobTemplate& expected = s.templates[s.template_of[j]];
    const std::uint64_t seq = seq0 + j;
    if (m != nullptr) rotate_cpu(wall_ns());
    const std::uint64_t t0 = wall_ns();
    bool ok = false;
    try {
      const Span op(tracer, "op", seq);
      ccver::ParsedRequest parsed;
      {
        const Span span(tracer, "serve.parse", seq);
        parsed = ccver::parse_request(s.lines[j], seq);
      }
      if (!parsed.ok) throw std::runtime_error(parsed.error);
      const ccver::ServeRequest& request = parsed.request;
      ccver::Budget budget(
          ccver::effective_limits(request.limits, ceilings.limits));
      const bool inline_spec =
          request.source == ccver::SpecSource::Inline;
      const ccver::Protocol p = [&] {
        const Span span(tracer, inline_spec ? "spec.parse" : "serve.resolve",
                        seq);
        return ccver::resolve_job_protocol(request);
      }();
      const bool shareable = ccver::default_budget(request) &&
                             !request.want_stats &&
                             request.checkpoint.empty() &&
                             request.spill_dir.empty();
      if (!shareable) throw std::runtime_error("job is not cacheable");
      std::uint64_t key = 0;
      {
        const Span span(tracer, "serve.cache_key", seq);
        key = ccver::job_cache_key(request, p);
      }
      ccver::ResultCache::Lookup lookup;
      {
        const Span span(tracer, "serve.acquire", seq);
        lookup = cache.acquire(key);
      }
      ccver::JobResult result;
      bool cached = false;
      if (lookup.role == ccver::ResultCache::Role::Owner) {
        {
          const Span span(tracer,
                          request.verb == Verb::Verify ? "serve.run_job.verify"
                          : request.verb == Verb::Lint
                              ? "serve.run_job.lint"
                              : "serve.run_job.enumerate",
                          seq);
          result = ccver::run_job(request, p, budget, ceilings.max_visits,
                                  nullptr);
        }
        const Span span(tracer, "serve.publish", seq);
        cache.publish(key, result,
                      result.status == JobStatus::Verified ||
                          result.status == JobStatus::ProtocolErrors);
      } else {
        result = lookup.result;
        cached = true;
      }
      std::string response;
      {
        const Span span(tracer, "serve.render", seq);
        response = ccver::render_job_response(request.id, request.seq,
                                              result.status, result.payload,
                                              result.error, cached);
      }
      stats.payload_bytes += result.payload.size();
      ++stats.responses;
      ok = result.status == expected.status &&
           digest(result.payload) == expected.payload_digest &&
           response.size() > result.payload.size();
    } catch (const std::exception&) {
      ok = false;
    }
    if (m != nullptr) {
      m->latency_ms.push_back(static_cast<double>(wall_ns() - t0) * 1e-6);
      ++m->attempted;
      if (!ok) ++m->failed;
    } else if (!ok) {
      throw std::runtime_error("warm-up job failed: " + s.lines[j].substr(0, 80));
    }
  }
  ccver::MetricsRegistry registry;
  cache.publish_metrics(registry);
  stats.cache = registry.snapshot();
}

/// Informational only: the same stream through the threaded in-process
/// `Server` over pipes (one worker), for the transport cost per job.
void server_transport_info(const Stream& s, double replay_pass_ms,
                           Tracer* tracer, WorkloadResult& out) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe(in_pipe) != 0) return;
  if (::pipe(out_pipe) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return;
  }
  ccver::Server::Options options;
  options.workers = 1;
  options.max_queue = s.lines.size() + 1;
  options.cache_entries = kCacheEntries;
  ccver::Server server(options);
  std::size_t responses = 0;
  std::size_t overloaded = 0;
  const std::uint64_t t0 = wall_ns();
  std::thread writer([&] {
    for (const std::string& line : s.lines) {
      const std::string framed = line + "\n";
      std::size_t done = 0;
      while (done < framed.size()) {
        const ssize_t n =
            ::write(in_pipe[1], framed.data() + done, framed.size() - done);
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
    }
    ::close(in_pipe[1]);
  });
  std::thread reader([&] {
    std::string pending;
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::read(out_pipe[0], buffer, sizeof buffer);
      if (n <= 0) break;
      pending.append(buffer, static_cast<std::size_t>(n));
      std::size_t nl = 0;
      while ((nl = pending.find('\n')) != std::string::npos) {
        const std::string_view line(pending.data(), nl);
        if (!line.empty()) ++responses;
        if (line.find("\"status\":\"overloaded\"") != line.npos) {
          ++overloaded;
        }
        pending.erase(0, nl + 1);
      }
    }
  });
  bool drained = false;
  try {
    const Span span(tracer, "serve.server");
    drained = server.run_stdio(in_pipe[0], out_pipe[1]) == 0;
  } catch (const std::exception&) {
    drained = false;
  }
  const double server_ms = static_cast<double>(wall_ns() - t0) * 1e-6;
  // Closing the server's ends unblocks both helpers whatever state the
  // server stopped in: the writer gets EPIPE, the reader EOF.
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  writer.join();
  reader.join();
  ::close(out_pipe[0]);
  const auto jobs = static_cast<double>(s.lines.size());
  if (!drained || responses != s.lines.size() || overloaded != 0) {
    out.check_failures.push_back("threaded Server lost or shed jobs");
  }
  out.info["info.server_jobs_per_s"] = jobs / (server_ms * 1e-3);
  out.info["info.replay_jobs_per_s"] = jobs / (replay_pass_ms * 1e-3);
  out.info["info.server_transport_us_per_job"] =
      (server_ms - replay_pass_ms) * 1e3 / jobs;
}

}  // namespace

WorkloadResult run_serve_jobs(const RunContext& ctx) {
  WorkloadResult out;
  Tracer* const tracer = ctx.tracer;
  const std::size_t setup_spans_from =
      tracer == nullptr ? 0 : tracer->spans().size();
  const auto set_up = [&] {
    Stream s = build_stream(ctx, tracer);
    PassStats warm;
    replay_pass(s, tracer, 0, nullptr, warm);
    return s;
  };
  const Stream stream = repeated_setup(kSetupRepeats, out.setup_s, set_up);
  out.check_failures = stream.oracle_mismatch;
  out.info["serve.jobs_per_pass"] = static_cast<double>(stream.lines.size());
  out.info["serve.inline_mutants"] = static_cast<double>(stream.inline_mutants);
  out.info["serve.strict_rejected_mutants"] =
      static_cast<double>(stream.rejected_mutants);
  if (tracer != nullptr) {
    set_setup_layers(*tracer, setup_spans_from, out.layers);
  }

  Measurement& m = out.measured;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  PassStats traced_stats;
  const std::size_t spans_from = tracer == nullptr ? 0 : tracer->spans().size();
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t deadline =
      wall_ns() + static_cast<std::uint64_t>(ctx.args.seconds * 1e9);
  for (std::uint64_t pass = 0; wall_ns() < deadline; ++pass) {
    Tracer* const pass_tracer = pass % 2 == 1 ? tracer : nullptr;
    PassStats stats;
    const std::uint64_t t0 = wall_ns();
    replay_pass(stream, pass_tracer, 1 + pass * stream.lines.size(), &m,
                stats);
    const std::uint64_t pass_ns = wall_ns() - t0;
    m.add_window(stream.lines.size(), pass_ns);
    (pass_tracer != nullptr ? traced_ms : untraced_ms)
        .push_back(static_cast<double>(pass_ns) * 1e-6);
    if (pass_tracer != nullptr) traced_stats = stats;
  }
  end_timed_phase(m, cpu0);
  if (tracer == nullptr) {
    (void)repeated_setup(kSetupRepeats, out.setup_s, set_up);
  }

  if (tracer != nullptr) {
    if (traced_ms.empty()) {
      out.check_failures.push_back("no traced pass fitted in --seconds");
      return out;
    }
    const auto med_us = [&](const char* name, std::size_t from) {
      const std::vector<double> d = tracer->durations_ns(name, from);
      return d.empty() ? 0.0 : median(d) * 1e-3;
    };
    out.layers["serve.parse_us"] = med_us("serve.parse", spans_from);
    out.layers["spec.parse_us"] = med_us("spec.parse", spans_from);
    out.layers["serve.render_us"] = med_us("serve.render", spans_from);
    out.layers["serve.run_job_us.verify"] =
        med_us("serve.run_job.verify", spans_from);
    out.layers["serve.run_job_us.lint"] =
        med_us("serve.run_job.lint", spans_from);
    out.layers["serve.run_job_us.enumerate"] =
        med_us("serve.run_job.enumerate", spans_from);
    out.layers["serve.payload_bytes"] =
        static_cast<double>(traced_stats.payload_bytes) /
        static_cast<double>(traced_stats.responses);
    const double hits = counter(traced_stats.cache, "serve.cache.hits");
    const double misses = counter(traced_stats.cache, "serve.cache.misses");
    out.layers["serve.cache_hit_ratio"] = hits / (hits + misses);
    out.layers["serve.cache_evictions"] =
        counter(traced_stats.cache, "serve.cache.evictions");
    if (hits + misses != static_cast<double>(stream.lines.size())) {
      out.check_failures.push_back("cache hits + misses != jobs");
    }

    // Serve-path replay: every distinct job once by direct engine and
    // renderer calls. Each payload must equal what run_job produced.
    const std::size_t replay_from = tracer->spans().size();
    ccver::MetricsRegistry lint_metrics;
    std::uint64_t visits = 0;
    std::uint64_t essential = 0;
    std::uint64_t json_bytes = 0;
    std::vector<const ccver::Protocol*> verified;
    std::vector<ccver::Protocol> verified_storage;
    verified_storage.reserve(stream.templates.size());
    for (const JobTemplate& t : stream.templates) {
      ccver::VerificationReport report;
      const ccver::JobResult r =
          direct_result(t, tracer, &lint_metrics, &report);
      if (r.status != t.status || digest(r.payload) != t.payload_digest) {
        out.check_failures.push_back("direct replay payload != run_job");
      }
      if (t.verb == Verb::Verify) {
        visits += report.stats.visits;
        essential += report.essential.size();
        json_bytes += r.payload.size();
        verified_storage.push_back(resolve(t));
        verified.push_back(&verified_storage.back());
      }
    }
    out.layers["core.render_ms"] =
        static_cast<double>(tracer->total_ns("core.render", replay_from)) *
        1e-6;
    out.layers["core.json_bytes"] = static_cast<double>(json_bytes);
    out.layers["core.visits"] = static_cast<double>(visits);
    out.layers["core.essential"] = static_cast<double>(essential);
    out.layers["enumeration.render_us"] =
        med_us("enumeration.render", replay_from);
    out.layers["analysis.lint_us"] = med_us("analysis.lint", replay_from);
    out.layers["analysis.progress_nodes"] =
        counter(lint_metrics.snapshot(), "progress.nodes");
    set_core_layers(core_replay(verified, tracer), visits, essential,
                    out.layers, out.check_failures);
    out.info["trace.untraced_window_ms"] = median(untraced_ms);
    out.info["trace.traced_window_ms"] = median(traced_ms);
    server_transport_info(stream, median(untraced_ms), tracer, out);
  }
  return out;
}

}  // namespace perfbench
