#include "corpus.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "enumeration/enumerator.hpp"
#include "protocols/mutation.hpp"
#include "spec/loader.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

std::vector<ccver::Protocol> load_specs(const std::filesystem::path& dir,
                                        Tracer* tracer) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ccp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::runtime_error("no .ccp specs under " + dir.string());
  }
  std::vector<ccver::Protocol> specs;
  specs.reserve(files.size());
  for (const auto& file : files) {
    const Span span(tracer, "spec.load");
    specs.push_back(ccver::load_protocol_file(file));
  }
  return specs;
}

std::vector<CorpusEntry> build_corpus(
    const std::vector<ccver::Protocol>& specs, Tracer* tracer) {
  std::vector<CorpusEntry> corpus;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    corpus.push_back(CorpusEntry{specs[s].name(), specs[s], s, false});
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<ccver::ProtocolMutant> mutants;
    {
      const Span span(tracer, "protocols.mutate");
      mutants = ccver::ProtocolMutator::enumerate(specs[s]);
    }
    for (std::size_t k = 0; k < mutants.size(); ++k) {
      corpus.push_back(CorpusEntry{specs[s].name() + "#" + std::to_string(k),
                                   std::move(mutants[k].protocol), s, true});
    }
  }
  return corpus;
}

std::vector<Verdict> load_oracle(const std::filesystem::path& path,
                                 const std::vector<CorpusEntry>& corpus) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read oracle " + path.string());
  std::map<std::string, Verdict> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    int ok = 0;
    Verdict v;
    if (!(fields >> id >> ok >> v.essential >> v.visits >> v.errors) ||
        (ok != 0 && ok != 1)) {
      throw std::runtime_error("malformed oracle line: " + line);
    }
    v.ok = ok == 1;
    if (!rows.emplace(id, v).second) {
      throw std::runtime_error("duplicate oracle id " + id);
    }
  }
  std::vector<Verdict> verdicts;
  verdicts.reserve(corpus.size());
  for (const CorpusEntry& entry : corpus) {
    const auto it = rows.find(entry.id);
    if (it == rows.end()) {
      throw std::runtime_error("oracle has no verdict for " + entry.id);
    }
    verdicts.push_back(it->second);
    rows.erase(it);
  }
  if (!rows.empty()) {
    throw std::runtime_error("oracle names unknown protocol " +
                             rows.begin()->first);
  }
  return verdicts;
}

std::vector<std::string> cross_check_with_enumeration(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Verdict>& verdicts, std::size_t n_caches,
    Tracer* tracer) {
  std::vector<std::string> disagree;
  ccver::Enumerator::Options options;
  options.n_caches = n_caches;
  options.max_errors = 1;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Span span(tracer, "enumeration.run", i);
    const ccver::EnumerationResult r =
        ccver::Enumerator(corpus[i].protocol, options).run();
    if (r.errors.empty() != verdicts[i].ok) disagree.push_back(corpus[i].id);
  }
  return disagree;
}

std::string spec_text_named(const ccver::Protocol& p,
                            const std::string& name) {
  std::string text = ccver::to_spec(p);
  const std::string header = "\nprotocol " + p.name() + " {\n";
  const std::size_t at = text.find(header);
  if (at == std::string::npos) {
    throw std::runtime_error("no protocol header in the spec of " + p.name());
  }
  text.replace(at, header.size(), "\nprotocol " + name + " {\n");
  return text;
}

bool strict_buildable(const std::string& text) {
  try {
    (void)ccver::parse_protocol(text);
    return true;
  } catch (const ccver::SpecError&) {
    return false;
  }
}

}  // namespace perfbench
