#include "diffprov/reference.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace dp {

namespace {

double value_similarity(const Value& a, const Value& b) {
  if (a == b) return 1.0;
  if (a.type() != b.type()) return 0.0;
  switch (a.type()) {
    case ValueType::kIp: {
      // Shared prefix length, in bits.
      const std::uint32_t x = a.as_ip().value() ^ b.as_ip().value();
      int shared = 0;
      for (int bit = 31; bit >= 0 && (x & (1u << bit)) == 0; --bit) {
        ++shared;
      }
      return shared / 32.0;
    }
    case ValueType::kInt: {
      const double d = std::abs(double(a.as_int()) - double(b.as_int()));
      return 1.0 / (1.0 + d);
    }
    case ValueType::kDouble: {
      const double d = std::abs(a.as_double() - b.as_double());
      return 1.0 / (1.0 + d);
    }
    case ValueType::kString: {
      // Shared prefix fraction: "rd1" vs "rd2" count as close.
      const std::string& s = a.as_string();
      const std::string& t = b.as_string();
      const std::size_t n = std::max(s.size(), t.size());
      if (n == 0) return 1.0;
      std::size_t shared = 0;
      while (shared < s.size() && shared < t.size() &&
             s[shared] == t[shared]) {
        ++shared;
      }
      return double(shared) / double(n);
    }
    case ValueType::kPrefix:
      return a.as_prefix().base() == b.as_prefix().base() ? 0.5 : 0.0;
  }
  return 0.0;
}

}  // namespace

double tuple_similarity(const Tuple& a, const Tuple& b) {
  if (a.table() != b.table() || a.arity() != b.arity() || a.arity() == 0) {
    return 0.0;
  }
  double total = 0;
  for (std::size_t i = 0; i < a.arity(); ++i) {
    total += value_similarity(a.at(i), b.at(i));
  }
  return total / double(a.arity());
}

std::vector<ReferenceCandidate> suggest_references(
    const ProvenanceGraph& graph, const Tuple& bad_event,
    std::size_t limit) {
  std::vector<ReferenceCandidate> candidates;
  graph.for_each_tuple([&](const Tuple& tuple, const auto& /*exists*/) {
    if (tuple.table() != bad_event.table() || tuple == bad_event) return;
    candidates.push_back({tuple, tuple_similarity(tuple, bad_event)});
  });
  std::sort(candidates.begin(), candidates.end(),
            [](const ReferenceCandidate& a, const ReferenceCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.event < b.event;  // deterministic tie-break
            });
  if (candidates.size() > limit) candidates.resize(limit);
  return candidates;
}

AutoDiagnosis diagnose_with_auto_reference(DiffProv& diffprov,
                                           const BadRun& bad_run,
                                           const Tuple& bad_event,
                                           std::size_t limit) {
  const ProvenanceGraph& bad_graph = *bad_run.graph;
  AutoDiagnosis out;
  out.result.status = DiffProvStatus::kBadEventNotFound;
  out.result.message = "no reference candidate produced a diagnosis";
  {
    obs::Span span(obs::default_tracer(), "dp.diffprov.reference_selection",
                   "diffprov");
    for (const ReferenceCandidate& candidate :
         suggest_references(bad_graph, bad_event, limit)) {
      const auto tree = locate_tree(bad_graph, candidate.event);
      if (!tree) continue;
      ++out.candidates_tried;
      DiffProvResult result = diffprov.diagnose(*tree, bad_event, bad_run);
      const bool succeeded = result.ok();
      out.result = std::move(result);
      if (succeeded) {
        out.reference = candidate.event;
        break;
      }
    }
  }
  obs::default_registry()
      .counter("dp.diffprov.reference_candidates")
      .inc(static_cast<std::uint64_t>(out.candidates_tried));
  return out;
}

}  // namespace dp
