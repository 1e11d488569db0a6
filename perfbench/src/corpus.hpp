#pragma once
/// \file corpus.hpp
/// Inputs shared by the workloads: the `specs/*.ccp` library, the
/// bug-hunt corpus of their single-rule mutants, the checked-in verdict
/// oracle, and inline `.ccp` texts for serve jobs.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fsm/protocol.hpp"

namespace perfbench {

class Tracer;

/// Every `specs/*.ccp`, parsed strictly, in file-name order.
[[nodiscard]] std::vector<ccver::Protocol> load_specs(
    const std::filesystem::path& dir, Tracer* tracer);

/// One protocol of the bug-hunt corpus. `id` is stable across runs:
/// the spec's protocol name for an original, `<name>#<k>` for the k-th
/// mutant `ProtocolMutator::enumerate` returns for it.
struct CorpusEntry {
  std::string id;
  ccver::Protocol protocol;
  std::size_t spec = 0;  ///< index into the specs the corpus was built from
  bool mutant = false;
};

/// The specs followed by all their single-rule mutants (spec order, then
/// mutator order).
[[nodiscard]] std::vector<CorpusEntry> build_corpus(
    const std::vector<ccver::Protocol>& specs, Tracer* tracer);

/// Expected verdict of one corpus protocol.
struct Verdict {
  bool ok = false;
  std::size_t essential = 0;
  std::size_t visits = 0;
  std::size_t errors = 0;
};

/// Reads the oracle (tab-separated `id ok essential visits errors`, `#`
/// comments) and returns verdicts in corpus order; throws when an id is
/// missing, duplicated or unknown.
[[nodiscard]] std::vector<Verdict> load_oracle(
    const std::filesystem::path& path,
    const std::vector<CorpusEntry>& corpus);

/// Cross-checks every verdict's `ok` bit against counting-equivalence
/// enumeration at `n_caches`; returns the ids that disagree.
[[nodiscard]] std::vector<std::string> cross_check_with_enumeration(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Verdict>& verdicts, std::size_t n_caches,
    Tracer* tracer);

/// `to_spec(p)` with the protocol renamed to `name`. The writer emits a
/// mutant's `Name[mut]` verbatim, which the lexer rejects, so inline job
/// texts are renamed before use.
[[nodiscard]] std::string spec_text_named(const ccver::Protocol& p,
                                          const std::string& name);

/// True when `text` builds under the strict parser.
[[nodiscard]] bool strict_buildable(const std::string& text);

}  // namespace perfbench
