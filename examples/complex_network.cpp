// Complex-network walk-through (the paper's section 6.7): diagnosing a
// black-box campus network under noise.
//
// The network is a scaled Stanford-backbone setting: 16 routers, thousands
// of forwarding/ACL entries, 20 *additional* injected faults, and a mix of
// background traffic. The primary system is a plain forwarding simulator --
// no NDlog -- observed through the external-specification recorder: packet
// traces are interpreted against an NDlog spec of OpenFlow match-action.
//
// H1 can reach the subnet 172.20.9.0/24 behind router oz02 but not H2's
// subnet 172.20.10.32/27 right next to it: a misconfigured drop rule.
// DiffProv finds exactly that rule, ignoring the 20 unrelated faults.
//
// Build & run:  cmake --build build && ./build/examples/complex_network
#include <cstdio>

#include "diffprov/diffprov.h"
#include "sdn/stanford.h"

using namespace dp;

int main() {
  sdn::StanfordConfig config;
  config.background_packets = 600;  // keep the example snappy
  const sdn::StanfordNetwork net = sdn::build_stanford(config);
  const Program spec = sdn::make_stanford_spec();
  std::printf("Built %zu forwarding entries (%zu ACLs) across %zu routers;\n"
              "%d extra faults injected; %zu packets of background traffic.\n\n",
              net.total_entries, net.acl_entries, net.tables.size(),
              config.extra_faults, net.workload.size() - 2);

  sdn::StanfordReplayProvider provider(net, spec);
  const BadRun run = provider.replay_bad({});
  const auto stats = provider.last_stats();
  std::printf("Black-box run: %zu delivered, %zu dropped, %zu unmatched.\n",
              stats.delivered, stats.dropped, stats.unmatched);

  const auto good = locate_tree(*run.graph, net.good_event);
  if (!good) {
    std::printf("unexpected: reference event not found\n");
    return 1;
  }
  std::printf("\nSymptom:   %s\n", net.bad_event.to_string().c_str());
  std::printf("Reference: %s (the co-located subnet that still works)\n\n",
              net.good_event.to_string().c_str());

  DiffProv diffprov(spec, provider);
  const DiffProvResult result = diffprov.diagnose(*good, net.bad_event, run);
  std::printf("%s", result.to_string().c_str());
  const bool exact = result.ok() && result.changes.size() == 1 &&
                     result.changes[0].before &&
                     *result.changes[0].before == net.fault_entry;
  std::printf("\nPinpointed the injected fault exactly: %s\n",
              exact ? "yes" : "no");
  std::printf(
      "\nProvenance captures true causality, not correlation: the 20 other\n"
      "faults and the background traffic never enter the diagnosed trees,\n"
      "so they cannot confuse the result (section 6.7 of the paper).\n");
  return exact ? 0 : 1;
}
